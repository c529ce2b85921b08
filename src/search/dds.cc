#include "search/dds.hh"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/logging.hh"
#include "common/rng.hh"
#include "common/thread_pool.hh"

namespace cuttlesys {

namespace detail {

std::uint16_t
perturbDim(std::uint16_t value, double r, std::size_t num_configs,
           Rng &rng)
{
    const double n = static_cast<double>(num_configs);
    const double top = n - 1.0;
    double v = static_cast<double>(value) + r * n * rng.normal();
    // Reflect until inside [0, n-1] — the true domain bounds. Using
    // n as the upper reflection test would let values in [n-1, n)
    // through unreflected, to be clamped (and rounded) onto the top
    // configuration, biasing the search toward the widest config.
    // The loop terminates because each reflection strictly shrinks
    // |v|'s distance to the interval.
    for (int guard = 0; guard < 64; ++guard) {
        if (v < 0.0) {
            v = -v;
        } else if (v > top) {
            v = 2.0 * top - v;
        } else {
            break;
        }
    }
    v = std::clamp(v, 0.0, top);
    return static_cast<std::uint16_t>(roundNonNegative(v));
}

} // namespace detail

namespace {

/** Fill @p x with a uniformly random point (capacity-reusing). */
void
randomPointInto(Point &x, std::size_t jobs, std::size_t configs,
                Rng &rng)
{
    x.resize(jobs);
    for (auto &v : x) {
        v = static_cast<std::uint16_t>(rng.uniformInt(
            0, static_cast<std::int64_t>(configs) - 1));
    }
}

/** Dimension-selection probability at iteration i (1-based). */
double
selectionProbability(std::size_t i, std::size_t max_iter)
{
    if (max_iter <= 1)
        return 1.0;
    return 1.0 - std::log(static_cast<double>(i)) /
           std::log(static_cast<double>(max_iter));
}

/**
 * Generate one DDS candidate from @p base into @p x (capacity-
 * reusing). When @p changed is non-null it receives the indices of
 * the perturbed dimensions (for the delta evaluation path). Consumes
 * the same RNG stream as it always did: one uniform per dimension,
 * the perturbation draws, and — only on the all-skipped fallback —
 * exactly one uniformInt to pick the forced dimension.
 */
void
makeCandidateInto(const Point &base, double p, double r,
                  std::size_t num_configs,
                  const std::vector<bool> &pinned, Rng &rng, Point &x,
                  std::vector<std::size_t> *changed = nullptr)
{
    if (changed)
        changed->clear();
    x = base;
    bool any = false;
    for (std::size_t d = 0; d < x.size(); ++d) {
        if (!pinned.empty() && pinned[d])
            continue;
        if (rng.uniform() < p) {
            x[d] = detail::perturbDim(x[d], r, num_configs, rng);
            if (changed)
                changed->push_back(d);
            any = true;
        }
    }
    if (!any) {
        // Always perturb at least one free dimension: draw a rank
        // among the free dimensions, then scan to it.
        std::size_t n_free = 0;
        for (std::size_t d = 0; d < x.size(); ++d) {
            if (pinned.empty() || !pinned[d])
                ++n_free;
        }
        if (n_free > 0) {
            std::size_t pick = static_cast<std::size_t>(rng.uniformInt(
                0, static_cast<std::int64_t>(n_free) - 1));
            std::size_t d = 0;
            for (;; ++d) {
                if (!pinned.empty() && pinned[d])
                    continue;
                if (pick == 0)
                    break;
                --pick;
            }
            x[d] = detail::perturbDim(x[d], r, num_configs, rng);
            if (changed)
                changed->push_back(d);
        }
    }
}

void
recordTrace(SearchTrace *trace, const PointMetrics &m)
{
    if (trace)
        trace->explored.push_back(m);
}

} // namespace

void
serialDds(const PreparedObjective &prep, const DdsOptions &options,
          DdsScratch &scratch, SearchResult &out, SearchTrace *trace)
{
    CS_ASSERT(prep.ready(), "prepared objective not built");
    CS_ASSERT(options.maxIterations >= 1, "need at least one iteration");
    CS_ASSERT(!options.rValues.empty(), "need a perturbation radius");
    const std::size_t jobs = prep.numJobs();
    const std::size_t configs = prep.numConfigs();
    Rng rng(options.seed);

    out.best.clear();
    out.metrics = PointMetrics{};
    out.evaluations = 0;

    // Initial pool: caller-provided seed points plus random samples.
    auto consider = [&](const Point &x) {
        const PointMetrics m = prep.evaluate(x);
        ++out.evaluations;
        recordTrace(trace, m);
        if (out.best.empty() ||
            m.objective > out.metrics.objective) {
            out.best = x;
            out.metrics = m;
        }
    };
    for (const Point &seed : options.seedPoints) {
        CS_ASSERT(seed.size() == jobs,
                  "seed point dimensionality mismatch");
        consider(seed);
    }
    for (std::size_t i = 0; i < std::max<std::size_t>(
             options.initialRandomPoints, 1); ++i) {
        randomPointInto(scratch.candidate, jobs, configs, rng);
        consider(scratch.candidate);
    }

    const double r = options.rValues.front();
    scratch.incumbent.attach(prep);
    if (options.useDeltaEval)
        scratch.incumbent.setIncumbent(out.best);
    for (std::size_t i = 1; i <= options.maxIterations; ++i) {
        const double p = selectionProbability(i, options.maxIterations);
        makeCandidateInto(out.best, p, r, configs, options.pinned, rng,
                          scratch.candidate,
                          options.useDeltaEval ? &scratch.changed
                                               : nullptr);
        const PointMetrics m = options.useDeltaEval
            ? scratch.incumbent.evaluateCandidate(
                  scratch.candidate.data(), scratch.changed.data(),
                  scratch.changed.size())
            : evaluatePoint(scratch.candidate, prep.context());
        ++out.evaluations;
        recordTrace(trace, m);
        if (m.objective > out.metrics.objective) {
            out.best = scratch.candidate;
            if (options.useDeltaEval) {
                // Re-anchor exactly so delta drift never compounds.
                scratch.incumbent.setIncumbent(out.best);
                out.metrics = scratch.incumbent.incumbentMetrics();
            } else {
                out.metrics = m;
            }
        }
    }
    if (trace)
        trace->best = out.metrics;
}

SearchResult
serialDds(const ObjectiveContext &ctx, const DdsOptions &options,
          SearchTrace *trace)
{
    const PreparedObjective prep(ctx);
    DdsScratch scratch;
    SearchResult out;
    serialDds(prep, options, scratch, out, trace);
    return out;
}

void
parallelDds(const PreparedObjective &prep, const DdsOptions &options,
            DdsScratch &scratch, SearchResult &out, SearchTrace *trace)
{
    CS_ASSERT(prep.ready(), "prepared objective not built");
    CS_ASSERT(options.maxIterations >= 1, "need at least one iteration");
    CS_ASSERT(!options.rValues.empty(), "need perturbation radii");
    const std::size_t nthreads = std::max<std::size_t>(options.threads,
                                                       1);
    const std::size_t jobs = prep.numJobs();
    const std::size_t configs = prep.numConfigs();
    Rng rng(options.seed);

    // Initial points: seeds plus random samples (Alg 2 lines 5-6).
    Point &xbest = scratch.xbest;
    xbest.clear();
    PointMetrics best_metrics;
    std::size_t evaluations = 0;
    auto consider = [&](const Point &x) {
        const PointMetrics m = prep.evaluate(x);
        ++evaluations;
        if (xbest.empty() || m.objective > best_metrics.objective) {
            xbest = x;
            best_metrics = m;
        }
    };
    for (const Point &seed : options.seedPoints) {
        CS_ASSERT(seed.size() == jobs,
                  "seed point dimensionality mismatch");
        consider(seed);
    }
    for (std::size_t i = 0; i < std::max<std::size_t>(
             options.initialRandomPoints, 1); ++i) {
        randomPointInto(scratch.candidate, jobs, configs, rng);
        consider(scratch.candidate);
    }

    // Thread groups use different perturbation radii: the first T/4
    // workers r1, the next T/4 r2, ... (Section VI-B). Worker slots
    // persist in the scratch across runs; only their run-dependent
    // fields are re-initialized here.
    if (scratch.workers.size() < nthreads)
        scratch.workers.resize(nthreads);
    for (std::size_t t = 0; t < nthreads; ++t) {
        DdsWorkerState &st = scratch.workers[t];
        const std::size_t r_idx =
            std::min(t * options.rValues.size() / nthreads,
                     options.rValues.size() - 1);
        st.rng = Rng(options.seed + 7919 * (t + 1));
        st.r = options.rValues[r_idx];
        st.incumbent.attach(prep);
        st.evaluations = 0;
        st.trace.clear();
    }

    // Fork-join rounds on the shared pool: each round every logical
    // worker refines the shared best with its own radius and RNG
    // stream, then the caller reduces in worker order — the same
    // semantics as the barrier version, deterministic regardless of
    // how the pool schedules the tasks.
    ThreadPool &pool = ThreadPool::global();
    for (std::size_t i = 1; i <= options.maxIterations; ++i) {
        const double p = selectionProbability(i, options.maxIterations);
        pool.parallelFor(nthreads, [&](std::size_t tid) {
            DdsWorkerState &st = scratch.workers[tid];
            st.localBest = xbest;
            st.localMetrics = best_metrics;
            if (options.useDeltaEval)
                st.incumbent.setIncumbent(st.localBest);
            for (std::size_t j = 0; j < options.pointsPerIteration;
                 ++j) {
                makeCandidateInto(
                    st.localBest, p, st.r, configs, options.pinned,
                    st.rng, st.candidate,
                    options.useDeltaEval ? &st.changed : nullptr);
                const PointMetrics m = options.useDeltaEval
                    ? st.incumbent.evaluateCandidate(
                          st.candidate.data(), st.changed.data(),
                          st.changed.size())
                    : evaluatePoint(st.candidate, prep.context());
                ++st.evaluations;
                if (trace)
                    st.trace.push_back(m);
                if (m.objective > st.localMetrics.objective) {
                    st.localBest = st.candidate;
                    if (options.useDeltaEval) {
                        st.incumbent.setIncumbent(st.localBest);
                        st.localMetrics =
                            st.incumbent.incumbentMetrics();
                    } else {
                        st.localMetrics = m;
                    }
                }
            }
        });
        for (std::size_t t = 0; t < nthreads; ++t) {
            const DdsWorkerState &other = scratch.workers[t];
            if (!other.localBest.empty() &&
                other.localMetrics.objective >
                best_metrics.objective) {
                xbest = other.localBest;
                best_metrics = other.localMetrics;
            }
        }
    }

    out.best = xbest;
    out.metrics = best_metrics;
    out.evaluations = evaluations;
    for (std::size_t t = 0; t < nthreads; ++t) {
        DdsWorkerState &st = scratch.workers[t];
        out.evaluations += st.evaluations;
        if (trace) {
            trace->explored.insert(trace->explored.end(),
                                   st.trace.begin(), st.trace.end());
        }
    }
    if (trace)
        trace->best = out.metrics;
}

SearchResult
parallelDds(const ObjectiveContext &ctx, const DdsOptions &options,
            SearchTrace *trace)
{
    const PreparedObjective prep(ctx);
    DdsScratch scratch;
    SearchResult out;
    parallelDds(prep, options, scratch, out, trace);
    return out;
}

} // namespace cuttlesys
