/**
 * @file
 * Decision-quantum hot-path timing: the combined per-quantum cost of
 * the three matrix reconstructions plus the parallel DDS search,
 * before and after the hot-path optimizations of this change set.
 *
 * "before" reproduces the seed configuration's algorithmic work:
 * cold-start SGD every quantum (no factor reuse), convergence checked
 * on every observed cell, full evaluatePoint per DDS candidate, and
 * the allocating per-call entry points. "after" is the shipped
 * configuration: cross-quantum factor warm starts, subsampled
 * convergence checks, delta-evaluated DDS, and the arena-backed
 * zero-allocation entry points (predictInto + prepared objective +
 * persistent DDS scratch). Both run on the persistent pool.
 *
 * Three extra sections audit this change set directly:
 *  - scalar-vs-vector micro rows time the kernel layer's
 *    lane-blocked primitives against their scalar reference twins on
 *    the hot primitive shapes,
 *  - a steady-state allocations-per-quantum row, counted by the
 *    cs_alloc_probe operator-new replacement (must be 0),
 *  - a paired telemetry-overhead row: interleaved best-of-K quanta
 *    with and without a trace attached (null sink), and
 *  - --smoke: exit nonzero unless speedup >= 1.5x, the steady-state
 *    allocation count is 0, and telemetry overhead < 1%, for CI.
 *
 * Emits BENCH_hotpath.json next to stdout for scripted comparison.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>

#include "bench_common.hh"
#include "cf/engine.hh"
#include "common/alloc_probe.hh"
#include "common/arena.hh"
#include "common/kernels.hh"
#include "common/thread_pool.hh"
#include "search/dds.hh"
#include "telemetry/quantum_trace.hh"

using namespace cuttlesys;
using namespace cuttlesys::bench;

namespace {

using Clock = std::chrono::steady_clock;

constexpr std::size_t kLiveJobs = 17;
constexpr std::size_t kBatchJobs = 16;
constexpr std::size_t kQuanta = 12;

/** One decision quantum's model work, parameterized by fidelity. */
struct HotPath
{
    CfEngine bips;
    CfEngine power;
    CfEngine latency;
    Matrix predBips, predPower, predLatency;
    Matrix searchBips{kBatchJobs, kNumJobConfigs};
    Matrix searchPower{kBatchJobs, kNumJobConfigs};
    DdsOptions dds;
    Rng rng{83};
    /** true = the shipped arena + prepared-objective path. */
    bool fastPath = false;
    ScratchArena arena;
    ObjectiveContext objCtx;
    PreparedObjective prepared;
    DdsScratch ddsScratch;
    SearchResult found;
    /** Non-null: per-quantum tracing with the sink disabled. */
    telemetry::QuantumTrace *trace = nullptr;

    HotPath(bool warm_start, std::size_t conv_samples, bool delta,
            bool fast_path)
        : bips(trainingTables().bips, kLiveJobs, kNumJobConfigs),
          power(trainingTables().power, kLiveJobs, kNumJobConfigs),
          latency(trainingTables().latency, 1, kNumJobConfigs),
          fastPath(fast_path)
    {
        for (CfEngine *e : {&bips, &power, &latency}) {
            e->setFactorWarmStart(warm_start);
            e->options().convergenceSamples = conv_samples;
        }
        bips.options().threads = 4;
        power.options().threads = 4;
        latency.options().threads = 2;
        latency.options().logTransform = true;
        dds.threads = 8;
        dds.useDeltaEval = delta;

        // Two profiling samples per live row, like the runtime's
        // steady state.
        for (std::size_t j = 0; j < kLiveJobs; ++j) {
            bips.observe(j, 0, rng.uniform(0.5, 8.0));
            bips.observe(j, kNumJobConfigs - 1, rng.uniform(0.5, 8.0));
            power.observe(j, 0, rng.uniform(0.5, 3.0));
            power.observe(j, kNumJobConfigs - 1, rng.uniform(0.5, 3.0));
        }
        latency.observe(0, kNumJobConfigs - 1, 5e-3);
    }

    /** One quantum: ingest a fresh cell, reconstruct x3, search. */
    double quantum(std::size_t slice)
    {
        if (trace) {
            trace->begin(slice, static_cast<double>(slice) * 0.1);
            trace->record().scheduler = "bench-hotpath";
            trace->record().batchPowerBudgetW = 30.0;
            trace->record().cacheBudgetWays = 28.0;
        }
        arena.reset();

        // A trickle of new observations, as the runtime sees.
        const auto cfg = static_cast<std::size_t>(
            rng.uniformInt(0, static_cast<std::int64_t>(
                                  kNumJobConfigs) - 1));
        bips.observe(slice % kLiveJobs, cfg, rng.uniform(0.5, 8.0));
        power.observe(slice % kLiveJobs, cfg, rng.uniform(0.5, 3.0));

        {
            telemetry::PhaseTimer timer(
                trace, telemetry::Phase::Reconstruct);
            ThreadPool::global().parallelFor(3,
                                             [&](std::size_t metric) {
                switch (metric) {
                  case 0:
                    if (fastPath)
                        bips.predictInto(predBips, arena);
                    else
                        bips.predictInto(predBips);
                    break;
                  case 1:
                    if (fastPath)
                        power.predictInto(predPower, arena);
                    else
                        power.predictInto(predPower);
                    break;
                  default:
                    if (fastPath)
                        latency.predictInto(predLatency, arena);
                    else
                        latency.predictInto(predLatency);
                    break;
                }
            });
        }

        kernels::copy(searchBips.data(), predBips.rowPtr(1),
                      kBatchJobs * kNumJobConfigs);
        kernels::copy(searchPower.data(), predPower.rowPtr(1),
                      kBatchJobs * kNumJobConfigs);
        objCtx.bips = &searchBips;
        objCtx.power = &searchPower;
        objCtx.powerBudgetW = 30.0;
        objCtx.cacheBudgetWays = 28.0;
        dds.seed = 11 + slice; // fresh exploration each quantum
        {
            telemetry::PhaseTimer timer(
                trace, telemetry::Phase::Search);
            if (fastPath) {
                prepared.rebuild(objCtx);
                parallelDds(prepared, dds, ddsScratch, found);
            } else {
                found = parallelDds(objCtx, dds);
            }
        }

        if (trace) {
            telemetry::QuantumRecord &rec = trace->record();
            rec.searchEvaluations = found.evaluations;
            rec.searchObjective = found.metrics.objective;
            rec.searchPowerW = found.metrics.powerW;
            rec.searchWays = found.metrics.cacheWays;
            trace->end();
        }
        return found.metrics.objective;
    }
};

struct RunStats
{
    double meanMs = 0.0;
    double minMs = 0.0;
    double meanObjective = 0.0;
};

RunStats
run(bool warm_start, std::size_t conv_samples, bool delta,
    bool fast_path)
{
    HotPath path(warm_start, conv_samples, delta, fast_path);
    // Untimed cold quantum: fills the factor caches for the "after"
    // configuration, and gives both configurations identical warmup.
    path.quantum(0);

    RunStats stats;
    stats.minMs = 1e18;
    for (std::size_t q = 1; q <= kQuanta; ++q) {
        const auto start = Clock::now();
        const double objective = path.quantum(q);
        const double ms =
            std::chrono::duration<double, std::milli>(Clock::now() -
                                                      start).count();
        stats.meanMs += ms;
        stats.minMs = std::min(stats.minMs, ms);
        stats.meanObjective += objective;
    }
    stats.meanMs /= kQuanta;
    stats.meanObjective /= kQuanta;
    return stats;
}

/** Paired telemetry-overhead measurement (see telemetryOverhead). */
struct TelemetryStats
{
    double bareMinMs = 0.0;   //!< best block avg, trace pointer null
    double tracedMinMs = 0.0; //!< best block avg, trace attached
    double medianDiffUs = 0.0; //!< median per-pair (traced - bare)
    double bestDiffUs = 0.0;   //!< smallest per-pair (traced - bare)
    double overheadPct = 0.0;  //!< best diff / bare min, clamped >= 0
};

/**
 * Cost of compiled-in telemetry (record fill + phase timers, sink
 * stays null), measured as a paired comparison on a single
 * shipped-path instance: each round times one bare and one traced
 * *block* of quanta back to back over the same slice range — same
 * DDS seeds, so both halves run the same search trajectories over
 * near-identical model state — and records the per-quantum traced
 * minus bare difference. Blocks rather than single quanta because a
 * 1.7 ms quantum's wall time on a busy core swings by hundreds of
 * microseconds of timeslice luck; an 8-quantum block averages that
 * down before the subtraction. The order alternates round to round
 * (ABBA), cancelling the second half's warm-cache advantage. Sharing
 * one instance means both sides also see identical buffer addresses
 * and layout; the only systematic difference between the halves is
 * the telemetry itself.
 *
 * The gated estimate is the *best* (smallest) per-round difference
 * over the bare floor — best-of-K on the paired diff, not per side.
 * Preemption noise is one-sided: it can only inflate a round's diff
 * (whichever half it lands on makes that half slower), so the
 * cleanest round approaches the true overhead from above, while a
 * real regression is paid in every round and survives the min. The
 * median diff rides along in the report as a cross-check. Comparing
 * two *independent* run() calls here is hopeless — the overhead is
 * well under the quantum's run-to-run noise, which is how the report
 * once showed telemetry making the loop 2% faster — and even
 * best-of-K per side stays a few percent noisy, because the minima
 * of two heavy-tailed timing distributions converge slowly. The
 * result is clamped at zero: the traced quantum cannot be genuinely
 * faster, so a negative raw diff just means the overhead is below
 * the measurement floor.
 */
TelemetryStats
telemetryOverhead()
{
    HotPath path(true, 512, true, true);
    telemetry::QuantumTrace trace;

    for (std::size_t q = 0; q < 4; ++q)
        path.quantum(q);

    constexpr std::size_t kBlock = 8;   //!< quanta per timed block
    constexpr std::size_t kRounds = 12; //!< paired blocks
    TelemetryStats stats;
    stats.bareMinMs = 1e18;
    stats.tracedMinMs = 1e18;
    std::vector<double> diffsUs;
    diffsUs.reserve(kRounds);
    std::size_t slice = 4;
    for (std::size_t r = 0; r < kRounds; ++r) {
        const bool traced_first = (r % 2 == 1);
        double bare_ms = 0.0, traced_ms = 0.0;
        for (int half = 0; half < 2; ++half) {
            const bool with_trace = (half == 0) == traced_first;
            path.trace = with_trace ? &trace : nullptr;
            const auto start = Clock::now();
            for (std::size_t b = 0; b < kBlock; ++b)
                path.quantum(slice + b);
            const double ms =
                std::chrono::duration<double, std::milli>(
                    Clock::now() - start).count() /
                static_cast<double>(kBlock);
            (with_trace ? traced_ms : bare_ms) = ms;
        }
        slice += kBlock;
        stats.bareMinMs = std::min(stats.bareMinMs, bare_ms);
        stats.tracedMinMs = std::min(stats.tracedMinMs, traced_ms);
        diffsUs.push_back((traced_ms - bare_ms) * 1e3);
    }
    path.trace = nullptr;
    stats.bestDiffUs =
        *std::min_element(diffsUs.begin(), diffsUs.end());
    std::nth_element(diffsUs.begin(),
                     diffsUs.begin() + kRounds / 2, diffsUs.end());
    stats.medianDiffUs = diffsUs[kRounds / 2];
    stats.overheadPct = std::max(
        0.0, stats.bestDiffUs / (stats.bareMinMs * 1e3) * 100.0);
    return stats;
}

/**
 * Steady-state allocations per quantum on the shipped path, counted
 * by the cs_alloc_probe global operator-new replacement. The warmup
 * quanta grow every buffer to its high-water mark; after that the
 * decision loop must not touch the heap at all.
 */
std::uint64_t
steadyStateAllocs()
{
    HotPath path(true, 512, true, true);
    // Warm up: slab growth, factor caches, pool batch freelist, DDS
    // scratch. A few quanta so every code path (fallback candidate,
    // adoption) has run at least once.
    for (std::size_t q = 0; q < 4; ++q)
        path.quantum(q);

    constexpr std::size_t kSteady = 8;
    const std::uint64_t before = AllocProbe::newCount();
    for (std::size_t q = 4; q < 4 + kSteady; ++q)
        path.quantum(q);
    const std::uint64_t after = AllocProbe::newCount();
    return (after - before) / kSteady;
}

/** One scalar-vs-vector kernel micro row. */
struct MicroRow
{
    const char *name;
    double scalarNs = 0.0;
    double vectorNs = 0.0;
    double ratio = 0.0;
};

template <typename F>
double
timeNs(F &&body, std::size_t reps)
{
    // One untimed rep warms the caches.
    body();
    const auto start = Clock::now();
    for (std::size_t i = 0; i < reps; ++i) {
        body();
        // Compiler barrier: without it the optimizer proves the pure
        // kernel call loop-invariant and hoists it, timing nothing.
        asm volatile("" ::: "memory");
    }
    return std::chrono::duration<double, std::nano>(Clock::now() -
                                                    start).count() /
           static_cast<double>(reps);
}

/**
 * Time the vector kernels against their scalar reference twins on
 * the hot shapes: rank-8 SGD steps, jobs x configs log-table fills,
 * and 16-wide gathers.
 */
std::vector<MicroRow>
microKernels()
{
    constexpr std::size_t kRank = kernels::padded(8);
    constexpr std::size_t kCells = 17 * kNumJobConfigs;
    constexpr std::size_t kReps = 20'000;
    Rng rng(29);

    std::vector<double> a(kCells), b(kCells), table(kCells);
    for (std::size_t i = 0; i < kCells; ++i) {
        a[i] = rng.uniform(0.1, 4.0);
        b[i] = rng.uniform(0.1, 4.0);
    }
    std::vector<std::uint16_t> idx(kBatchJobs);
    for (auto &v : idx) {
        v = static_cast<std::uint16_t>(rng.uniformInt(
            0, static_cast<std::int64_t>(kNumJobConfigs) - 1));
    }
    double sink = 0.0;

    std::vector<MicroRow> rows;
    {
        MicroRow row{"dot rank-8"};
        row.scalarNs = timeNs([&] {
            sink += kernels::detail::dotScalar(a.data(), b.data(),
                                               kRank);
        }, kReps);
        row.vectorNs = timeNs([&] {
            sink += kernels::detail::dotVec(a.data(), b.data(), kRank);
        }, kReps);
        rows.push_back(row);
    }
    {
        MicroRow row{"sgd rank step"};
        row.scalarNs = timeNs([&] {
            kernels::detail::sgdRankStepScalar(a.data(), b.data(),
                                               kRank, 1e-4, 1e-4, 0.1);
        }, kReps);
        row.vectorNs = timeNs([&] {
            kernels::detail::sgdRankStepVec(a.data(), b.data(), kRank,
                                            1e-4, 1e-4, 0.1);
        }, kReps);
        rows.push_back(row);
    }
    {
        MicroRow row{"logFill 17x108"};
        row.scalarNs = timeNs([&] {
            sink += kernels::detail::logFillScalar(table.data(),
                                                   a.data(), kCells,
                                                   1e-6);
        }, 200);
        row.vectorNs = timeNs([&] {
            sink += kernels::detail::logFillVec(table.data(), a.data(),
                                                kCells, 1e-6);
        }, 200);
        rows.push_back(row);
    }
    {
        MicroRow row{"gatherSum 16 jobs"};
        row.scalarNs = timeNs([&] {
            sink += kernels::detail::gatherSumScalar(
                table.data(), kNumJobConfigs, idx.data(), kBatchJobs);
        }, kReps);
        row.vectorNs = timeNs([&] {
            sink += kernels::detail::gatherSumVec(
                table.data(), kNumJobConfigs, idx.data(), kBatchJobs);
        }, kReps);
        rows.push_back(row);
    }
    for (MicroRow &row : rows)
        row.ratio = row.scalarNs / row.vectorNs;
    // Keep the side effects alive without printing garbage.
    if (sink == 42.424242)
        std::printf("\n");
    return rows;
}

} // namespace

int
main(int argc, char **argv)
{
    const bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;
    setInformEnabled(false);
    banner("bench_hotpath", "decision-quantum hot path before/after",
           "Table II budget: 4.8 ms SGD + 1.3 ms DDS per 100 ms "
           "quantum");

    const RunStats before = run(false, 0, false, false);
    const RunStats after = run(true, 512, true, true);
    const TelemetryStats telem = telemetryOverhead();
    const double speedup = before.meanMs / after.meanMs;
    const double speedup_min = before.minMs / after.minMs;
    const std::uint64_t allocs = steadyStateAllocs();
    const std::vector<MicroRow> micro = microKernels();

    std::printf("%-28s %10s %10s %14s\n", "configuration", "mean ms",
                "min ms", "mean objective");
    std::printf("%-28s %10.3f %10.3f %14.4f\n",
                "before (cold/full/ref)", before.meanMs, before.minMs,
                before.meanObjective);
    std::printf("%-28s %10.3f %10.3f %14.4f\n",
                "after (warm/delta/arena)", after.meanMs, after.minMs,
                after.meanObjective);
    std::printf("combined speedup: %.2fx (min-ms %.2fx)\n", speedup,
                speedup_min);
    std::printf("telemetry overhead (paired diff best %+.1f / median "
                "%+.1f us over %.3f ms floor): %.2f%%\n",
                telem.bestDiffUs, telem.medianDiffUs, telem.bareMinMs,
                telem.overheadPct);
    std::printf("steady-state allocations/quantum: %llu\n",
                static_cast<unsigned long long>(allocs));

    std::printf("\n%-28s %10s %10s %8s  (backend: %s)\n", "kernel",
                "scalar ns", "vector ns", "ratio",
                kernels::backendName());
    for (const MicroRow &row : micro) {
        std::printf("%-28s %10.2f %10.2f %7.2fx\n", row.name,
                    row.scalarNs, row.vectorNs, row.ratio);
    }

    if (FILE *f = std::fopen("BENCH_hotpath.json", "w")) {
        std::fprintf(f,
                     "{\n"
                     "  \"quanta\": %zu,\n"
                     "  \"before_mean_ms\": %.4f,\n"
                     "  \"before_min_ms\": %.4f,\n"
                     "  \"before_mean_objective\": %.6f,\n"
                     "  \"after_mean_ms\": %.4f,\n"
                     "  \"after_min_ms\": %.4f,\n"
                     "  \"after_mean_objective\": %.6f,\n"
                     "  \"speedup\": %.4f,\n"
                     "  \"speedup_min_ms\": %.4f,\n"
                     "  \"telemetry_bare_min_ms\": %.4f,\n"
                     "  \"telemetry_traced_min_ms\": %.4f,\n"
                     "  \"telemetry_best_paired_diff_us\": %.3f,\n"
                     "  \"telemetry_median_paired_diff_us\": %.3f,\n"
                     "  \"telemetry_overhead_pct\": %.4f,\n"
                     "  \"steady_state_allocs_per_quantum\": %llu,\n"
                     "  \"kernel_backend\": \"%s\",\n"
                     "  \"micro_kernels\": [\n",
                     kQuanta, before.meanMs, before.minMs,
                     before.meanObjective, after.meanMs, after.minMs,
                     after.meanObjective, speedup, speedup_min,
                     telem.bareMinMs, telem.tracedMinMs,
                     telem.bestDiffUs, telem.medianDiffUs,
                     telem.overheadPct,
                     static_cast<unsigned long long>(allocs),
                     kernels::backendName());
        for (std::size_t i = 0; i < micro.size(); ++i) {
            std::fprintf(f,
                         "    {\"name\": \"%s\", \"scalar_ns\": %.2f, "
                         "\"vector_ns\": %.2f, \"ratio\": %.3f}%s\n",
                         micro[i].name, micro[i].scalarNs,
                         micro[i].vectorNs, micro[i].ratio,
                         i + 1 < micro.size() ? "," : "");
        }
        std::fprintf(f, "  ]\n}\n");
        std::fclose(f);
        std::printf("wrote BENCH_hotpath.json\n");
    }

    if (smoke) {
        bool ok = true;
        if (speedup_min < 1.5) {
            std::printf("SMOKE FAIL: min-ms speedup %.2fx < 1.5x\n",
                        speedup_min);
            ok = false;
        }
        if (allocs != 0) {
            std::printf("SMOKE FAIL: %llu steady-state allocations "
                        "per quantum (expected 0)\n",
                        static_cast<unsigned long long>(allocs));
            ok = false;
        }
        // DESIGN.md §8 budgets compiled-in telemetry at under 1% of
        // the decision quantum.
        if (telem.overheadPct >= 1.0) {
            std::printf("SMOKE FAIL: telemetry overhead %.2f%% >= "
                        "1%%\n", telem.overheadPct);
            ok = false;
        }
        if (ok)
            std::printf("SMOKE PASS\n");
        return ok ? 0 : 1;
    }
    return 0;
}
