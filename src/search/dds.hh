/**
 * @file
 * Dynamically Dimensioned Search (Section VI, Algorithm 2).
 *
 * DDS (Tolson & Shoemaker 2007) searches high-dimensional spaces by
 * perturbing the current best point in a random subset of dimensions,
 * with the subset shrinking as the search progresses — broad
 * exploration early, fine refinement late. We provide:
 *
 *  - serialDds(): the textbook single-threaded algorithm, and
 *  - parallelDds(): the paper's new parallel variant, where thread
 *    groups use different perturbation radii r = {0.2,0.3,0.4,0.5}
 *    so threads do not re-explore the same neighborhood, each thread
 *    generates pointsPerIteration candidates per round, and a barrier
 *    reduction picks the next shared best point.
 *
 * Default parameters reproduce Fig 6's table.
 */

#ifndef CUTTLESYS_SEARCH_DDS_HH
#define CUTTLESYS_SEARCH_DDS_HH

#include <cstdint>
#include <vector>

#include "common/rng.hh"
#include "search/objective.hh"

namespace cuttlesys {

/** DDS tuning knobs (defaults = Fig 6). */
struct DdsOptions
{
    std::size_t initialRandomPoints = 50;
    std::vector<double> rValues = {0.2, 0.3, 0.4, 0.5};
    std::size_t pointsPerIteration = 10;
    std::size_t maxIterations = 40;
    std::size_t threads = 8;   //!< parallelDds worker count
    std::uint64_t seed = 9;
    /**
     * Evaluate candidates as O(#perturbed-dims) deltas against the
     * incumbent's accumulators instead of re-walking every job
     * (incumbent metrics are always recomputed exactly, so search
     * results match the reference path — see DeltaEvaluator). Off =
     * the reference evaluatePoint path, the oracle DdsDeltaTest.*
     * compares the delta path against bit for bit.
     */
    bool useDeltaEval = true;
    /**
     * Dimensions may be pinned (the LC job's configuration is fixed
     * before the search); pinned entries of the seed point are never
     * perturbed. Empty = all dimensions free.
     */
    std::vector<bool> pinned;
    /**
     * Points evaluated alongside the random initial pool (Algorithm 2
     * line 5 seeds structured points). The runtime passes the
     * previous slice's decision and a greedy warm start so the search
     * refines instead of rediscovering.
     */
    std::vector<Point> seedPoints;
};

/** Search outcome. */
struct SearchResult
{
    Point best;
    PointMetrics metrics;
    std::size_t evaluations = 0;
};

/**
 * Per-worker reusable state of one parallel DDS run. Internal to the
 * DDS implementation; exposed only so DdsScratch can own a vector of
 * them across quanta. Cache-line aligned: every candidate writes its
 * worker's RNG state, counters and `changed` end pointer, and packed
 * neighbours in the vector would false-share those lines.
 */
struct alignas(64) DdsWorkerState
{
    Point localBest;
    Point candidate;
    PointMetrics localMetrics;
    std::size_t evaluations = 0;
    std::vector<PointMetrics> trace;
    Rng rng{0};
    double r = 0.0;
    DeltaEvaluator incumbent;
    std::vector<std::size_t> changed;
};

/**
 * Reusable buffers for the allocation-free DDS entry points. The
 * runtime keeps one instance alive across decision quanta; every
 * run re-fills the same vectors, so after the first quantum at a
 * given problem shape a DDS search touches the heap zero times.
 */
struct DdsScratch
{
    std::vector<DdsWorkerState> workers;
    Point xbest;
    Point candidate;
    std::vector<std::size_t> changed;
    DeltaEvaluator incumbent;  //!< serial path's evaluator
};

/** Single-threaded DDS. @p trace, if non-null, records exploration. */
SearchResult serialDds(const ObjectiveContext &ctx,
                       const DdsOptions &options = {},
                       SearchTrace *trace = nullptr);

/** The paper's parallel DDS (Algorithm 2). */
SearchResult parallelDds(const ObjectiveContext &ctx,
                         const DdsOptions &options = {},
                         SearchTrace *trace = nullptr);

/**
 * Allocation-free serial DDS over a shared prepared objective.
 * Produces exactly the results of the ObjectiveContext overload for
 * the same options; @p scratch and @p out are overwritten (their
 * capacity is reused).
 */
void serialDds(const PreparedObjective &prep, const DdsOptions &options,
               DdsScratch &scratch, SearchResult &out,
               SearchTrace *trace = nullptr);

/** Allocation-free parallel DDS; see the serial overload's contract. */
void parallelDds(const PreparedObjective &prep,
                 const DdsOptions &options, DdsScratch &scratch,
                 SearchResult &out, SearchTrace *trace = nullptr);

namespace detail {

/**
 * std::lround(v) for 0 <= v < 2^52, without the libm call: the cast
 * truncates to floor(v), and v - floor(v) is exact in that range, so
 * the comparison rounds halves away from zero exactly as lround does
 * (0.49999999999999994 stays 0, where floor(v + 0.5) gives 1).
 */
inline long
roundNonNegative(double v)
{
    const auto i = static_cast<long>(v);
    return i + (v - static_cast<double>(i) >= 0.5 ? 1 : 0);
}

/**
 * Perturb one dimension by r * #confs * N(0,1), reflecting
 * out-of-range values about the true domain bounds 0 and
 * num_configs - 1 (Algorithm 2 lines 13-15). Exposed for the
 * boundary-distribution test.
 */
std::uint16_t perturbDim(std::uint16_t value, double r,
                         std::size_t num_configs, cuttlesys::Rng &rng);

} // namespace detail

} // namespace cuttlesys

#endif // CUTTLESYS_SEARCH_DDS_HH
