/**
 * @file
 * Decision-quantum hot-path timing of the shipped path, row by row
 * against the paper's Table II budget: 4.8 ms of SGD reconstruction
 * plus 1.3 ms of DDS per 100 ms quantum.
 *
 * Each timed quantum ingests a fresh cell, runs the runtime's three
 * reconstructions concurrently on the pool (factor warm starts,
 * subsampled convergence checks, arena-fed predictInto), then the
 * 8-logical-worker delta-evaluated DDS over a prepared objective with
 * persistent scratch. Rows, each a median with mean and min:
 *  - quantum: the whole quantum (reconstruct + DDS), against 6.1 ms,
 *  - reconstruct: its three warm reconstructions, against 4.8 ms,
 *  - churn reconstruct: the three reconstructions of the quantum
 *    after a batch slot changes tenant, when the BIPS and power
 *    engines have reset the slot's latent row and warm-start from
 *    the kept factors, against 4.8 ms,
 *  - seed and DDS: the greedy knapsack warm start
 *    (greedyKnapsackSeed) and the parallel DDS, re-timed on each
 *    quantum's prepared tables. The runtime runs the two inside one
 *    search phase, so together they are what the 1.3 ms DDS budget
 *    has to cover,
 *  - cold SGD, serial and parallel(4): one reconstruction from
 *    scratch of a runtime-shaped throughput matrix, the paper's
 *    Hogwild-vs-serial comparison.
 *
 * Three more rows audit the loop itself:
 *  - pool region: the median of back-to-back empty parallelFor(8)
 *    regions on the global pool,
 *  - telemetry: a paired overhead row, interleaved blocks of quanta
 *    with and without a trace attached (null sink),
 *  - a steady-state allocations-per-quantum row, counted by the
 *    cs_alloc_probe operator-new replacement.
 *
 * --smoke exits nonzero unless the median quantum fits the 6.1 ms
 * budget, the steady-state allocation count is 0 and the telemetry
 * overhead is under 1%, for CI.
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
#include "common/stats.hh"
#include "common/thread_pool.hh"
#include "core/batch_policy.hh"
#include "search/dds.hh"
#include "telemetry/quantum_trace.hh"

using namespace cuttlesys;
using namespace cuttlesys::bench;

namespace {

using Clock = std::chrono::steady_clock;

constexpr std::size_t kLiveJobs = 17;
constexpr std::size_t kBatchJobs = 16;
constexpr std::size_t kQuanta = 12;
constexpr double kPowerBudgetW = 30.0;
constexpr double kCacheBudgetWays = 28.0;

/** Table II budgets, ms per quantum. */
constexpr double kSgdBudgetMs = 4.8;
constexpr double kDdsBudgetMs = 1.3;
constexpr double kQuantumBudgetMs = kSgdBudgetMs + kDdsBudgetMs;

double
msSince(Clock::time_point start)
{
    return std::chrono::duration<double, std::milli>(Clock::now() -
                                                     start).count();
}

/** One decision quantum's model work on the shipped path. */
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
    ScratchArena arena;
    ObjectiveContext objCtx;
    PreparedObjective prepared;
    DdsScratch ddsScratch;
    SearchResult found;
    KnapsackSeed seed;
    /** Non-null: per-quantum tracing with the sink disabled. */
    telemetry::QuantumTrace *trace = nullptr;
    /** Wall ms of the last quantum's three reconstructions. */
    double reconstructMs = 0.0;

    HotPath()
        : bips(trainingTables().bips, kLiveJobs, kNumJobConfigs),
          power(trainingTables().power, kLiveJobs, kNumJobConfigs),
          latency(trainingTables().latency, 1, kNumJobConfigs)
    {
        bips.options().threads = 4;
        power.options().threads = 4;
        latency.options().threads = 2;
        latency.options().logTransform = true;
        dds.threads = 8;

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
            trace->record().batchPowerBudgetW = kPowerBudgetW;
            trace->record().cacheBudgetWays = kCacheBudgetWays;
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
            const auto start = Clock::now();
            reconstruct();
            reconstructMs = msSince(start);
        }

        kernels::copy(searchBips.data(), predBips.rowPtr(1),
                      kBatchJobs * kNumJobConfigs);
        kernels::copy(searchPower.data(), predPower.rowPtr(1),
                      kBatchJobs * kNumJobConfigs);
        objCtx.bips = &searchBips;
        objCtx.power = &searchPower;
        objCtx.powerBudgetW = kPowerBudgetW;
        objCtx.cacheBudgetWays = kCacheBudgetWays;
        dds.seed = 11 + slice; // fresh exploration each quantum
        {
            telemetry::PhaseTimer timer(
                trace, telemetry::Phase::Search);
            prepared.rebuild(objCtx);
            parallelDds(prepared, dds, ddsScratch, found);
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

    /** The three reconstructions, concurrently on the pool. */
    void reconstruct()
    {
        ThreadPool::global().parallelFor(3, [&](std::size_t metric) {
            switch (metric) {
              case 0: bips.predictInto(predBips, arena); break;
              case 1: power.predictInto(predPower, arena); break;
              default: latency.predictInto(predLatency, arena); break;
            }
        });
    }

    /**
     * Batch slot @p slot changes tenant: what the runtime's
     * onJobChurn does to the engines (clear the slot's rows and zero
     * their latent rows), then the newcomer's two profiling samples.
     */
    void churn(std::size_t slot)
    {
        const std::size_t job = 1 + slot;
        bips.clearJob(job);
        power.clearJob(job);
        bips.observe(job, 0, rng.uniform(0.5, 8.0));
        bips.observe(job, kNumJobConfigs - 1, rng.uniform(0.5, 8.0));
        power.observe(job, 0, rng.uniform(0.5, 3.0));
        power.observe(job, kNumJobConfigs - 1, rng.uniform(0.5, 3.0));
    }

    /** Wall ms of the parallel DDS on the last quantum's tables. */
    double timeDds()
    {
        const auto start = Clock::now();
        parallelDds(prepared, dds, ddsScratch, found);
        return msSince(start);
    }

    /** Wall ms of the warm start on the last quantum's tables. */
    double timeSeed()
    {
        const auto start = Clock::now();
        greedyKnapsackSeed(prepared, kPowerBudgetW, kCacheBudgetWays,
                           seed);
        return msSince(start);
    }
};

/** Median, mean and min of one timed row's per-quantum samples. */
struct Row
{
    double median = 0.0;
    double mean = 0.0;
    double min = 0.0;
};

Row
summarize(const std::vector<double> &ms)
{
    return {percentile(ms, 50.0), mean(ms), minValue(ms)};
}

struct SteadyStats
{
    Row quantum;
    Row reconstruct;
    Row seed;
    Row dds;
    double meanObjective = 0.0;
};

/** kQuanta steady-state quanta, with the seed and DDS re-timed. */
SteadyStats
steadyQuanta()
{
    HotPath path;
    // Untimed cold quantum: fills the factor caches; one seed call
    // sizes the seed's buffers.
    path.quantum(0);
    path.timeSeed();

    std::vector<double> quantum_ms, reconstruct_ms, seed_ms, dds_ms;
    SteadyStats stats;
    for (std::size_t q = 1; q <= kQuanta; ++q) {
        const auto start = Clock::now();
        stats.meanObjective += path.quantum(q);
        quantum_ms.push_back(msSince(start));
        reconstruct_ms.push_back(path.reconstructMs);
        seed_ms.push_back(path.timeSeed());
        dds_ms.push_back(path.timeDds());
    }
    stats.quantum = summarize(quantum_ms);
    stats.reconstruct = summarize(reconstruct_ms);
    stats.seed = summarize(seed_ms);
    stats.dds = summarize(dds_ms);
    stats.meanObjective /= kQuanta;
    return stats;
}

/**
 * The three reconstructions of a quantum that follows onJobChurn of one
 * slot, with the runtime's options (Jacobi-SVD initialization on, taken
 * only by the first quantum's cold start): the BIPS and power engines
 * warm-start and fold-in solve the slot's zeroed latent row before
 * their first epoch, the latency engine is untouched. Each timed churn hits the next slot after a normal
 * quantum.
 */
Row
churnReconstruct()
{
    HotPath path;
    for (CfEngine *e : {&path.bips, &path.power, &path.latency})
        e->options().svdWarmStart = true;
    // Warm-up, one churn included, so the timed churn quanta reuse
    // warm buffers.
    for (std::size_t q = 0; q < 4; ++q)
        path.quantum(q);
    path.churn(kBatchJobs - 1);
    path.arena.reset();
    path.reconstruct();

    std::vector<double> ms;
    for (std::size_t q = 0; q < kQuanta; ++q) {
        path.quantum(4 + q);
        path.churn(q % kBatchJobs);
        path.arena.reset();
        const auto start = Clock::now();
        path.reconstruct();
        ms.push_back(msSince(start));
    }
    return summarize(ms);
}

/**
 * Cold reconstructions of the runtime's throughput matrix (the
 * training rows plus kLiveJobs live rows of two samples each) with
 * @p threads SGD threads, no warm start.
 */
Row
coldSgd(std::size_t threads)
{
    const Matrix &train = trainingTables().bips;
    RatingMatrix ratings(train.rows() + kLiveJobs, kNumJobConfigs);
    for (std::size_t r = 0; r < train.rows(); ++r) {
        for (std::size_t c = 0; c < kNumJobConfigs; ++c)
            ratings.set(r, c, train(r, c));
    }
    Rng rng(77);
    for (std::size_t r = train.rows(); r < ratings.rows(); ++r) {
        for (auto c : rng.sampleWithoutReplacement(kNumJobConfigs, 2))
            ratings.set(r, c, rng.uniform(0.5, 8.0));
    }
    SgdOptions options;
    options.threads = threads;
    reconstruct(ratings, options); // warm-up
    std::vector<double> ms;
    for (std::size_t q = 0; q < kQuanta; ++q) {
        const auto start = Clock::now();
        reconstruct(ratings, options);
        ms.push_back(msSince(start));
    }
    return summarize(ms);
}

/**
 * Median wall us of an empty parallelFor(8) on the global pool, run
 * back to back: what a fork-join region costs before any work, the
 * floor under each of DDS's 40 rounds and SGD's sub-epochs.
 */
double
poolRegionUs()
{
    constexpr std::size_t kWarm = 1000;
    constexpr std::size_t kRegions = 5001;
    ThreadPool &pool = ThreadPool::global();
    auto empty = [](std::size_t) {};
    for (std::size_t r = 0; r < kWarm; ++r)
        pool.parallelFor(8, empty);
    std::vector<double> us(kRegions);
    for (double &sample : us) {
        const auto start = Clock::now();
        pool.parallelFor(8, empty);
        sample = std::chrono::duration<double, std::micro>(Clock::now() -
                                                           start).count();
    }
    std::nth_element(us.begin(), us.begin() + kRegions / 2, us.end());
    return us[kRegions / 2];
}

/** Paired telemetry-overhead measurement (see telemetryOverhead). */
struct TelemetryStats
{
    double bareMinMs = 0.0;   //!< best block avg, trace pointer null
    double tracedMinMs = 0.0; //!< best block avg, trace attached
    double medianDiffUs = 0.0; //!< median per-pair (traced - bare)
    double bestDiffUs = 0.0;   //!< smallest per-pair (traced - bare)
    double overheadPct = 0.0;  //!< best diff / bare min, clamped >= 0
    double medianPct = 0.0;    //!< median diff / bare min
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
 * real regression is paid in every round and survives the min. That
 * estimate is clamped at zero: the traced quantum cannot be genuinely
 * faster, so a negative raw diff just means the overhead is below
 * the measurement floor. The best diff is routinely far below zero,
 * though, so the reported overhead is the *median* diff over the
 * same floor, unclamped. Comparing two *independent* runs here is
 * hopeless — the overhead is well under the quantum's run-to-run
 * noise, which is how the report once showed telemetry making the
 * loop 2% faster — and even best-of-K per side stays a few percent
 * noisy, because the minima of two heavy-tailed timing distributions
 * converge slowly.
 */
TelemetryStats
telemetryOverhead()
{
    HotPath path;
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
                msSince(start) / static_cast<double>(kBlock);
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
    stats.medianPct =
        stats.medianDiffUs / (stats.bareMinMs * 1e3) * 100.0;
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
    HotPath path;
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

void
printRow(const char *name, const Row &row, double budget_ms,
         const char *budget_note)
{
    std::printf("%-30s %8.3f %8.3f %8.3f %8.1f  %s\n", name,
                row.median, row.mean, row.min, budget_ms, budget_note);
}

void
writeRow(std::FILE *f, const char *key, const Row &row)
{
    std::fprintf(f,
                 "  \"%s_median\": %.4f,\n"
                 "  \"%s_mean\": %.4f,\n"
                 "  \"%s_min\": %.4f,\n",
                 key, row.median, key, row.mean, key, row.min);
}

} // namespace

int
main(int argc, char **argv)
{
    const bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;
    setInformEnabled(false);
    std::printf("bench_hotpath: decision-quantum hot path vs Table II "
                "(4.8 ms SGD + 1.3 ms DDS per 100 ms quantum)\n");

    const SteadyStats steady = steadyQuanta();
    const Row churn = churnReconstruct();
    const Row sgd_serial = coldSgd(1);
    const Row sgd_parallel = coldSgd(4);
    const double region_us = poolRegionUs();
    const TelemetryStats telem = telemetryOverhead();
    const std::uint64_t allocs = steadyStateAllocs();

    std::printf("%-30s %8s %8s %8s %8s  (%zu quanta per row)\n",
                "row (ms per quantum)", "median", "mean", "min",
                "budget", kQuanta);
    printRow("quantum: reconstruct + DDS", steady.quantum,
             kQuantumBudgetMs, "Table II SGD + DDS");
    printRow("reconstruct x3, warm", steady.reconstruct, kSgdBudgetMs,
             "Table II SGD");
    printRow("reconstruct x3, after churn", churn, kSgdBudgetMs,
             "Table II SGD (churned row reset)");
    printRow("greedy knapsack seed", steady.seed, kDdsBudgetMs,
             "Table II DDS, shared with the search");
    printRow("parallel DDS, 8 workers", steady.dds, kDdsBudgetMs,
             "Table II DDS");
    printRow("cold SGD, serial", sgd_serial, kSgdBudgetMs,
             "Table II SGD, one matrix");
    printRow("cold SGD, parallel(4)", sgd_parallel, kSgdBudgetMs,
             "Table II SGD, one matrix");
    std::printf("mean search objective: %.4f\n", steady.meanObjective);
    std::printf("empty parallelFor(8) round trip: median %.2f us\n",
                region_us);
    std::printf("telemetry overhead (paired diff median %+.1f / best "
                "%+.1f us over %.3f ms floor): median %.2f%%, gated "
                "best %.2f%%\n",
                telem.medianDiffUs, telem.bestDiffUs, telem.bareMinMs,
                telem.medianPct, telem.overheadPct);
    std::printf("steady-state allocations/quantum: %llu\n",
                static_cast<unsigned long long>(allocs));

    if (FILE *f = std::fopen("BENCH_hotpath.json", "w")) {
        std::fprintf(f, "{\n");
        writeProvenance(f, kQuanta);
        std::fprintf(f, "  \"quanta\": %zu,\n", kQuanta);
        writeRow(f, "quantum_ms", steady.quantum);
        writeRow(f, "reconstruct_ms", steady.reconstruct);
        writeRow(f, "churn_reconstruct_ms", churn);
        writeRow(f, "seed_ms", steady.seed);
        writeRow(f, "dds_ms", steady.dds);
        writeRow(f, "cold_sgd_serial_ms", sgd_serial);
        writeRow(f, "cold_sgd_parallel4_ms", sgd_parallel);
        std::fprintf(f,
                     "  \"mean_objective\": %.6f,\n"
                     "  \"pool_region_us_median\": %.3f,\n"
                     "  \"telemetry_bare_min_ms\": %.4f,\n"
                     "  \"telemetry_traced_min_ms\": %.4f,\n"
                     "  \"telemetry_best_paired_diff_us\": %.3f,\n"
                     "  \"telemetry_median_paired_diff_us\": %.3f,\n"
                     "  \"telemetry_overhead_pct\": %.4f,\n"
                     "  \"telemetry_overhead_median_pct\": %.4f,\n"
                     "  \"steady_state_allocs_per_quantum\": %llu\n"
                     "}\n",
                     steady.meanObjective, region_us, telem.bareMinMs,
                     telem.tracedMinMs, telem.bestDiffUs,
                     telem.medianDiffUs, telem.overheadPct,
                     telem.medianPct,
                     static_cast<unsigned long long>(allocs));
        std::fclose(f);
        std::printf("wrote BENCH_hotpath.json\n");
    }

    if (smoke) {
        bool ok = true;
        if (steady.quantum.median > kQuantumBudgetMs) {
            std::printf("SMOKE FAIL: median quantum %.3f ms > %.1f ms "
                        "Table II budget\n",
                        steady.quantum.median, kQuantumBudgetMs);
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
