/**
 * @file
 * Runtime-facing reconstruction engine.
 *
 * Owns one rating matrix whose top rows are the offline-characterized
 * training applications (fully observed, fixed) and whose bottom rows
 * are the live jobs (sparse, updated with profiling samples and
 * steady-state measurements each timeslice). predict() runs the SGD
 * reconstruction and returns only the live-job rows, with measured
 * cells passed through unchanged — the paper corrects predictions
 * with real measurements whenever it has them (Section IV-B).
 */

#ifndef CUTTLESYS_CF_ENGINE_HH
#define CUTTLESYS_CF_ENGINE_HH

#include "cf/rating_matrix.hh"
#include "cf/sgd.hh"

namespace cuttlesys {

class ScratchArena;

/** One metric's reconstruction engine (throughput, latency or power). */
class CfEngine
{
  public:
    /**
     * @param training_rows fully-observed rows for the known apps
     *        (may have zero rows, e.g. the tail-latency matrix when
     *        no latency history exists)
     * @param num_jobs live-job row count
     * @param cols configuration count (columns)
     */
    CfEngine(const Matrix &training_rows, std::size_t num_jobs,
             std::size_t cols, SgdOptions options = {});

    /**
     * Attach per-training-row side information (see reconstruct());
     * length must equal the training row count. Live jobs' contexts
     * start unset (-1) and are updated with setJobContext().
     */
    void setTrainingContext(const std::vector<double> &context);

    /** Side information for a live job (e.g. measured utilization). */
    void setJobContext(std::size_t job, double context);

    std::size_t numJobs() const { return numJobs_; }
    std::size_t cols() const { return ratings_.cols(); }

    /** Record a live-job observation. */
    void observe(std::size_t job, std::size_t config, double value);

    /**
     * Forget all observations of a live job (job churn). When factors
     * are cached, the job's latent row is zeroed across the full
     * lane-padded stride and P and every other row are kept, so the
     * next predict() warm-starts; once the replacement has samples,
     * that predict() fold-in solves the zeroed row against the warm P
     * before its first SGD epoch.
     */
    void clearJob(std::size_t job);

    /** Observations currently held for a live job. */
    std::size_t observationsForJob(std::size_t job) const;

    /**
     * Reconstruct and return the live-job rows (numJobs x cols).
     * Observed cells carry their measured values.
     */
    Matrix predict() const;

    /**
     * Like predict(), but writes into @p out (resized to
     * numJobs x cols if needed) with every transient of the run
     * served from @p arena. The runtime calls this once per metric per
     * decision quantum, threading its per-quantum arena through, so
     * the steady-state reconstruction performs zero heap allocations.
     */
    void predictInto(Matrix &out, ScratchArena &arena) const;

    /** Last reconstruction's iteration count (0 before any predict). */
    std::size_t lastIterations() const { return lastRun_.iterations; }

    /** True when the last reconstruction cold-started. */
    bool lastColdStart() const { return lastRun_.coldStart; }

    /** Rows the last reconstruction re-solved by ridge fold-in. */
    std::size_t lastFoldInSolves() const { return lastRun_.foldInSolves; }

    /**
     * Drop the cached factors; the next predict() cold-starts (random
     * plus, with svdWarmStart, Jacobi-SVD initialization). Each
     * reconstruction otherwise starts from the previous one's
     * factors, job churn included (see clearJob()).
     */
    void invalidateFactors() { factors_.invalidate(); }

    /** True when a warm start is available for the next predict(). */
    bool hasCachedFactors() const { return !factors_.empty(); }

    /** The cached factors (empty before the first predict()). */
    const SgdFactors &factors() const { return factors_; }

    SgdOptions &options() { return options_; }
    const SgdOptions &options() const { return options_; }

  private:
    std::size_t trainingRows_;
    std::size_t numJobs_;
    RatingMatrix ratings_;
    SgdOptions options_;
    std::vector<double> rowContext_; //!< empty = no context
    mutable SgdFactors factors_;     //!< last predict()'s factors
    mutable SgdRunStats lastRun_;    //!< last predict()'s statistics
};

} // namespace cuttlesys

#endif // CUTTLESYS_CF_ENGINE_HH
