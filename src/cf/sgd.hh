/**
 * @file
 * PQ-reconstruction with Stochastic Gradient Descent (Algorithm 1).
 *
 * Factorizes the sparse rating matrix R (apps x configurations) as
 * Q x P^T and fills in the missing entries from the factors. Three
 * fidelity knobs from the paper:
 *  - an SVD warm start for the factors (Section V constructs Q and P
 *    from the singular vectors of the observed matrix),
 *  - an iteration cap / convergence threshold trade-off
 *    (Section V: "the fewer the iterations, the lower the overhead,
 *    but the higher the prediction inaccuracy"),
 *  - a stratified block-parallel variant that trades ~1% accuracy
 *    for a multi-x speedup. The paper runs lock-free Hogwild
 *    (Section V cites [95], [96]); this implementation schedules the
 *    same per-epoch work as disjoint row/column strata instead, which
 *    keeps the speedup while staying race-free and bitwise
 *    deterministic for a fixed seed — same-seed runs must replay to
 *    identical decisions (examples/replay_check).
 *
 * Values are learned row-normalized (and optionally in log space,
 * which suits tail latencies that span orders of magnitude).
 */

#ifndef CUTTLESYS_CF_SGD_HH
#define CUTTLESYS_CF_SGD_HH

#include <cstdint>

#include "cf/rating_matrix.hh"
#include "common/kernels.hh"
#include "common/matrix.hh"

namespace cuttlesys {

class ScratchArena;

/** Hyper-parameters of the reconstruction. */
struct SgdOptions
{
    /**
     * Latent rank of the factors. The paper's Algorithm 1 uses the
     * full rank m*p; on the factor path rank 12 matches the full
     * rank's p95 error within half a point at a lower median, at a
     * fraction of the cost (design decision D1, ablated in
     * `paper abl_sgd_rank`).
     */
    std::size_t rank = 12;
    double learningRate = 0.03;    //!< eta
    double regularization = 0.02;  //!< lambda
    std::size_t maxIterations = 120;
    /** Stop when the relative train-RMSE improvement drops below. */
    double convergenceTol = 1e-4;
    /**
     * Convergence-check subsample size: the per-epoch RMSE that
     * drives the stop decision is computed over (at most) this many
     * training cells, chosen as a fixed stride through the row-major
     * observed cells, instead of every observation — the check runs
     * once per epoch and only steers termination, so a stable
     * subsample is as informative at a fraction of the cost. 0 uses
     * every cell: the full scan that
     * WarmStartTest.SubsampledConvergenceKeepsAccuracy holds the
     * subsample against. The reported trainRmse is always the full
     * RMSE.
     */
    std::size_t convergenceSamples = 512;
    /**
     * Worker threads; > 1 selects the stratified block-parallel
     * variant, run as fork-join sub-epochs on the shared persistent
     * ThreadPool. Deterministic for a fixed seed at any thread count.
     */
    std::size_t threads = 1;
    bool svdWarmStart = false;
    /**
     * After SGD, re-solve each row's latent vector by ridge
     * regression against the learned configuration factors P (the
     * standard recommender fold-in step). Sparse rows — a live job
     * with its two profiling samples — barely move their randomly
     * initialized factors during SGD; the closed-form fold-in makes
     * their predictions follow the configuration structure the
     * training rows established. On a warm start it also solves the
     * rows a job churn zeroed, before the first epoch.
     */
    bool foldInRows = true;
    /**
     * Rows with fewer observations than this are predicted by
     * similarity-weighted blending of the dense (training) rows —
     * neighborhood collaborative filtering — instead of the factor
     * fold-in. A couple of samples cannot identify a point in a
     * rank-12 factor space, but they can identify which training
     * rows the job resembles. 0 disables the blend path.
     */
    std::size_t rowBlendThreshold = 6;
    /** Learn log(1 + v) instead of v (for tail latencies). */
    bool logTransform = false;
    std::uint64_t seed = 5;
};

/**
 * Learned PQ factors in normalized transform space, returned by one
 * reconstruction and accepted back as a warm start for the next. The
 * rating matrix changes by a handful of cells per decision quantum,
 * so the previous quantum's factors are a near-converged starting
 * point: SGD then needs a few adaptation epochs instead of a full
 * cold-start run (and no O(n^3) SVD). Job churn keeps them too: the
 * dense training rows dominate P, so CfEngine::clearJob() zeroes only
 * the churned row's q. The next run finds that all-zero row and
 * fold-in solves it against the warm P before the first epoch, so SGD
 * starts near its fixed point instead of pulling one row up from zero.
 */
struct SgdFactors
{
    /**
     * Structure-of-arrays layout: q holds rows x stride doubles and p
     * cols x stride, where stride = kernels::padded(rank). The lane
     * padding beyond rank is kept at zero (the fused kernel update
     * preserves zeros), so every inner product and factor update runs
     * as one blocked kernel call over the full stride with no tail
     * handling at the call sites.
     */
    std::vector<double> q;   //!< rows x stride, row-major
    std::vector<double> p;   //!< cols x stride, row-major
    std::size_t rows = 0;
    std::size_t cols = 0;
    std::size_t rank = 0;
    std::size_t stride = 0;  //!< kernels::padded(rank)

    /**
     * Workspace of the cold start's Jacobi-SVD initialization: the
     * mean-filled working matrix, V^T and the singular values, plus
     * the sort permutation. It lives with the factors, not in the
     * quantum arena, whose slab would keep the cold start's
     * high-water for good; sized on the first cold start, it serves
     * every later one (CfEngine::invalidateFactors()) without
     * touching the heap.
     */
    std::vector<double> svdWork;
    std::vector<std::size_t> svdOrder;

    bool empty() const { return rows == 0; }

    double *qRow(std::size_t r) { return q.data() + r * stride; }
    const double *qRow(std::size_t r) const
    {
        return q.data() + r * stride;
    }
    double *pRow(std::size_t c) { return p.data() + c * stride; }
    const double *pRow(std::size_t c) const
    {
        return p.data() + c * stride;
    }

    /** Re-shape and zero-fill, reusing the buffers' capacity. */
    void
    reshape(std::size_t new_rows, std::size_t new_cols,
            std::size_t new_rank)
    {
        rows = new_rows;
        cols = new_cols;
        rank = new_rank;
        stride = kernels::padded(new_rank);
        q.assign(rows * stride, 0.0);
        p.assign(cols * stride, 0.0);
    }

    /**
     * Forget the learned factors without releasing their buffers, so
     * the next cold start reuses the capacity.
     */
    void
    invalidate()
    {
        rows = cols = rank = stride = 0;
    }
};

/** Output of one reconstruction. */
struct SgdResult
{
    Matrix reconstructed;    //!< full rows x cols prediction
    std::size_t iterations = 0;
    double trainRmse = 0.0;  //!< RMSE on observed (normalized) cells
    SgdFactors factors;      //!< learned factors (warm-start input)
};

/**
 * Reconstruct every entry of @p ratings. Observed cells are also
 * replaced by their model prediction in the returned matrix; callers
 * that prefer exact observed values can overwrite them.
 *
 * @param row_context optional per-row side information (one value per
 *        row, e.g. the measured utilization a tail-latency row was
 *        collected at). The neighborhood blend adds the context gap
 *        to its row distance, which disambiguates rows whose observed
 *        cells look alike but whose hidden cells differ wildly — the
 *        exact situation of tail latencies at different loads, where
 *        the best configurations' latencies are nearly load-invariant
 *        but the cliffs move by orders of magnitude. Negative entries
 *        mean "no context for this row".
 *
 * @param warm_start optional factors from a previous reconstruction
 *        of (a slightly updated version of) the same matrix. Used as
 *        the starting point when their shape matches the current
 *        (rows, cols, effective rank); otherwise — cold start or
 *        shape change — the random / Jacobi-SVD initialization runs
 *        as usual.
 *
 * Predictions of physical quantities are clamped to be non-negative.
 */
SgdResult reconstruct(const RatingMatrix &ratings,
                      const SgdOptions &options = {},
                      const std::vector<double> *row_context = nullptr,
                      const SgdFactors *warm_start = nullptr);

/** Per-run statistics of one reconstructInto() call. */
struct SgdRunStats
{
    std::size_t iterations = 0;
    /** The factors were (re)initialized instead of warm-started. */
    bool coldStart = false;
    /** Rows re-solved by the ridge fold-in: churn-reset rows before
     *  the first epoch plus every sampled row after the last. */
    std::size_t foldInSolves = 0;
};

/**
 * Allocation-free core of reconstruct(), for the per-quantum loop.
 *
 * @param factors in/out: a non-empty value whose (rows, cols, rank)
 *        match the current problem is the warm starting point and is
 *        updated *in place* (no copy); otherwise it is re-shaped —
 *        reusing its buffer capacity — and cold-started.
 * @param out receives the predictions for rows [first_row, rows):
 *        resized (capacity-reusing) to (rows - first_row) x cols, so
 *        a caller that only consumes the live-job rows never
 *        materializes the training rows.
 * @param first_row index of the first row written to @p out.
 * @param arena scratch storage for every transient of the run (sample
 *        lists, strata tables, solver workspaces). The caller resets
 *        it between runs; after warm-up a steady-state call performs
 *        zero heap allocations.
 */
SgdRunStats reconstructInto(const RatingMatrix &ratings,
                            const SgdOptions &options,
                            const std::vector<double> *row_context,
                            SgdFactors &factors, Matrix &out,
                            std::size_t first_row, ScratchArena &arena);

/** Weight of one unit of context gap in the blend's row distance. */
inline constexpr double kContextDistanceWeight = 1.5;

} // namespace cuttlesys

#endif // CUTTLESYS_CF_SGD_HH
