/**
 * @file
 * The design-space-exploration objective (Section VI-A).
 *
 * A candidate point assigns each batch job one joint configuration
 * index. The objective is the geometric mean of predicted batch
 * throughput, with *soft* penalties for exceeding the power budget
 * and the LLC way budget — the paper argues for soft penalties so
 * points slightly over budget still guide the search (design decision
 * D4; `paper abl_penalty` ablates hard clamping).
 *
 * The latency-critical job's configuration is fixed before the search
 * (Section VI-A), so its power and cache ways are already subtracted
 * from the budgets handed to this objective.
 */

#ifndef CUTTLESYS_SEARCH_OBJECTIVE_HH
#define CUTTLESYS_SEARCH_OBJECTIVE_HH

#include <cstdint>
#include <vector>

#include "common/kernels.hh"
#include "common/matrix.hh"
#include "config/job_config.hh"

namespace cuttlesys {

/** A candidate: one joint-config index per batch job. */
using Point = std::vector<std::uint16_t>;

/** Inputs the objective is evaluated against. */
struct ObjectiveContext
{
    const Matrix *bips = nullptr;   //!< jobs x configs predictions
    const Matrix *power = nullptr;  //!< jobs x configs predictions
    double powerBudgetW = 0.0;      //!< watts left for batch cores
    double cacheBudgetWays = 0.0;   //!< LLC ways left for batch jobs
    double penaltyPower = 2.0;      //!< soft-penalty weight (Fig 6)
    double penaltyCache = 2.0;
    /** Hard-penalty mode for the D4 ablation: infeasible points get
     *  a large negative objective instead of a graded one. */
    bool hardConstraints = false;

    /** Number of joint configurations (columns). */
    std::size_t numConfigs() const { return bips->cols(); }

    /** Number of batch jobs (rows / point dimensionality). */
    std::size_t numJobs() const { return bips->rows(); }
};

/** Summary metrics of one evaluated point. */
struct PointMetrics
{
    double gmeanBips = 0.0;
    double powerW = 0.0;
    double cacheWays = 0.0;
    double objective = 0.0;
    bool feasible = false;
};

/** Evaluate a candidate point (reference path). */
PointMetrics evaluatePoint(const Point &x, const ObjectiveContext &ctx);

/** Shorthand: just the scalar objective. */
double objectiveValue(const Point &x, const ObjectiveContext &ctx);

/**
 * Per-quantum precomputed tables for the fast evaluation paths.
 *
 * evaluatePoint pays a std::log and a JobConfig::fromIndex decode per
 * job per candidate; over a 3200-candidate DDS run on 16 jobs that is
 * ~50k transcendental calls per decision quantum. The tables hoist
 * log(max(bips, 1e-6)) per (job, config) and cacheWays per config out
 * of the search loop. rebuild() refreshes the tables in place
 * (reusing buffer capacity), so the runtime builds one instance per
 * decision quantum and shares it across every search it runs — DDS,
 * GA and exhaustive all accept a prepared objective directly.
 *
 * All three tables are contiguous, so an evaluation is three
 * lane-deterministic kernels::gatherSum walks. The reference
 * evaluatePoint path sums the identical per-term values in the
 * identical lane order (see kernels.hh), so both paths produce
 * bit-identical metrics.
 */
class PreparedObjective
{
  public:
    /** Empty; rebuild() must run before any evaluation. */
    PreparedObjective() = default;

    /** Equivalent to default construction followed by rebuild(ctx). */
    explicit PreparedObjective(const ObjectiveContext &ctx);

    /**
     * (Re)build the tables for @p ctx, which must outlive this
     * object. Buffer capacity is reused: rebuilding for the same
     * problem shape performs no heap allocation.
     */
    void rebuild(const ObjectiveContext &ctx);

    /** True once rebuild() has run. */
    bool ready() const { return ctx_ != nullptr; }

    const ObjectiveContext &context() const { return *ctx_; }

    std::size_t numJobs() const { return numJobs_; }
    std::size_t numConfigs() const { return numConfigs_; }

    /** log(max(bips(j, c), 1e-6)), cached. */
    double logBips(std::size_t j, std::size_t c) const
    {
        return logBips_[j * numConfigs_ + c];
    }

    /** power(j, c), cached contiguously. */
    double power(std::size_t j, std::size_t c) const
    {
        return power_[j * numConfigs_ + c];
    }

    /** cacheWays of config @p c, cached (no JobConfig decode). */
    double ways(std::size_t c) const { return ways_[c]; }

    /** Raw jobs x configs log-throughput table (gatherSum stride =
     *  numConfigs()). */
    const double *logTable() const { return logBips_.data(); }

    /** Raw jobs x configs power table. */
    const double *powerTable() const { return power_.data(); }

    /** Raw per-config ways lookup (gatherSum stride = 0). */
    const double *waysTable() const { return ways_.data(); }

    /** Full table-based evaluation; bit-identical to evaluatePoint. */
    PointMetrics evaluate(const Point &x) const;

    /**
     * Span form of evaluate() for callers that keep candidates in
     * raw buffers. @p x must hold numJobs() in-range config indices.
     */
    PointMetrics evaluate(const std::uint16_t *x, std::size_t n) const;

    /** Metrics from already-summed accumulators (O(1)). */
    PointMetrics metricsFrom(double log_sum, double power_w,
                             double cache_ways) const;

  private:
    const ObjectiveContext *ctx_ = nullptr;
    std::size_t numJobs_ = 0;
    std::size_t numConfigs_ = 0;
    std::vector<double> logBips_;  //!< jobs x configs, row-major
    std::vector<double> power_;    //!< jobs x configs, row-major
    std::vector<double> ways_;     //!< per config
};

/**
 * Incremental candidate evaluation around an incumbent point.
 *
 * The DDS inner loop perturbs a handful of dimensions of the current
 * best point; the untouched jobs' contributions to the (log-sum,
 * power, ways) accumulators are unchanged, so a candidate costs
 * O(#perturbed-dims) adds instead of an O(jobs) re-walk. Whenever a
 * candidate is adopted as the new incumbent the accumulators are
 * recomputed exactly from the tables, so rounding drift never
 * compounds across a search and the metrics reported for incumbents
 * are bit-identical to the reference evaluatePoint path.
 */
class DeltaEvaluator
{
  public:
    /** Detached; attach() must run before use. */
    DeltaEvaluator() = default;

    /** @p prepared must outlive this object. */
    explicit DeltaEvaluator(const PreparedObjective &prepared);

    /**
     * (Re)bind to @p prepared, which must outlive this object. The
     * incumbent buffer's capacity is kept, so re-attaching each
     * quantum allocates nothing in steady state.
     */
    void attach(const PreparedObjective &prepared);

    /** Adopt @p x as the incumbent; accumulators computed exactly. */
    void setIncumbent(const Point &x);

    /** Span form of setIncumbent(). */
    void setIncumbent(const std::uint16_t *x, std::size_t n);

    const Point &incumbent() const { return incumbent_; }
    const PointMetrics &incumbentMetrics() const { return metrics_; }

    /**
     * Metrics of @p x, which must equal the incumbent everywhere
     * except (at most) the dimensions listed in @p changed. Entries
     * of @p changed must be distinct (a duplicate would apply its
     * delta twice); dimensions whose value did not actually change
     * are fine and contribute nothing.
     */
    PointMetrics evaluateCandidate(
        const Point &x, const std::vector<std::size_t> &changed) const;

    /** Span form of evaluateCandidate(). */
    PointMetrics evaluateCandidate(const std::uint16_t *x,
                                   const std::size_t *changed,
                                   std::size_t n_changed) const;

  private:
    const PreparedObjective *prepared_ = nullptr;
    Point incumbent_;
    double logSum_ = 0.0;
    double powerW_ = 0.0;
    double cacheWays_ = 0.0;
    PointMetrics metrics_;
};

/**
 * Optional exploration trace for Fig 10a: every evaluated point's
 * (power, 1/throughput) pair plus the winner.
 */
struct SearchTrace
{
    std::vector<PointMetrics> explored;
    PointMetrics best;
};

} // namespace cuttlesys

#endif // CUTTLESYS_SEARCH_OBJECTIVE_HH
