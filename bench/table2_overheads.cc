/**
 * @file
 * Table II: runtime overheads of the CuttleSys scheduling pipeline,
 * measured with google-benchmark at the paper's operating point
 * (21 training rows + 17 live rows x 108 configurations for SGD;
 * 16-dimensional space, Fig 6 parameters for DDS).
 *
 * Paper: 2 x 1 ms profiling samples, 4.8 ms total SGD reconstruction
 * (three instances in parallel), 1.3 ms DDS search. The Hogwild
 * parallel SGD is 3.5x faster than locked/serial execution.
 */

#include <benchmark/benchmark.h>

#include "bench_common.hh"
#include "cf/engine.hh"
#include "common/arena.hh"
#include "common/thread_pool.hh"
#include "search/dds.hh"
#include "search/ga.hh"

using namespace cuttlesys;
using namespace cuttlesys::bench;

namespace {

/** Rating matrix shaped like the runtime's throughput matrix. */
RatingMatrix
runtimeShapedMatrix(std::size_t live_samples_per_row)
{
    const TrainingTables &tables = trainingTables();
    const std::size_t training = tables.bips.rows();
    const std::size_t live = 17;
    RatingMatrix ratings(training + live, kNumJobConfigs);
    for (std::size_t r = 0; r < training; ++r) {
        for (std::size_t c = 0; c < kNumJobConfigs; ++c)
            ratings.set(r, c, tables.bips(r, c));
    }
    Rng rng(77);
    for (std::size_t r = training; r < training + live; ++r) {
        const auto picks = rng.sampleWithoutReplacement(
            kNumJobConfigs, live_samples_per_row);
        for (auto c : picks)
            ratings.set(r, c, rng.uniform(0.5, 8.0));
    }
    return ratings;
}

void
BM_SgdSerial(benchmark::State &state)
{
    const RatingMatrix ratings = runtimeShapedMatrix(2);
    SgdOptions options;
    options.threads = 1;
    for (auto _ : state) {
        benchmark::DoNotOptimize(reconstruct(ratings, options));
    }
}
BENCHMARK(BM_SgdSerial)->Unit(benchmark::kMillisecond);

void
BM_SgdParallel4(benchmark::State &state)
{
    const RatingMatrix ratings = runtimeShapedMatrix(2);
    SgdOptions options;
    options.threads = 4;
    for (auto _ : state) {
        benchmark::DoNotOptimize(reconstruct(ratings, options));
    }
}
BENCHMARK(BM_SgdParallel4)->Unit(benchmark::kMillisecond);

void
BM_SgdWarmStart(benchmark::State &state)
{
    // The steady-state quantum: reconstruct the same matrix starting
    // from the previous quantum's factors.
    const RatingMatrix ratings = runtimeShapedMatrix(2);
    SgdOptions options;
    options.threads = 4;
    const SgdResult cold = reconstruct(ratings, options);
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            reconstruct(ratings, options, nullptr, &cold.factors));
    }
}
BENCHMARK(BM_SgdWarmStart)->Unit(benchmark::kMillisecond);

void
BM_TripleReconstructPooled(benchmark::State &state)
{
    // The runtime's reconstructAll(): three engines on the shared
    // pool and one per-quantum arena, steady state (warm factors
    // after the first call).
    const TrainingTables &tables = trainingTables();
    CfEngine bips(tables.bips, 17, kNumJobConfigs);
    CfEngine power(tables.power, 17, kNumJobConfigs);
    CfEngine latency(tables.latency, 1, kNumJobConfigs);
    bips.options().threads = 4;
    power.options().threads = 4;
    latency.options().threads = 2;
    latency.options().logTransform = true;
    Rng rng(79);
    for (std::size_t j = 0; j < 17; ++j) {
        bips.observe(j, 0, rng.uniform(0.5, 8.0));
        bips.observe(j, kNumJobConfigs - 1, rng.uniform(0.5, 8.0));
        power.observe(j, 0, rng.uniform(0.5, 3.0));
        power.observe(j, kNumJobConfigs - 1, rng.uniform(0.5, 3.0));
    }
    latency.observe(0, kNumJobConfigs - 1, 5e-3);
    Matrix pred_bips, pred_power, pred_latency;
    ScratchArena arena;
    for (auto _ : state) {
        arena.reset();
        ThreadPool::global().parallelFor(3, [&](std::size_t metric) {
            switch (metric) {
              case 0: bips.predictInto(pred_bips, arena); break;
              case 1: power.predictInto(pred_power, arena); break;
              default: latency.predictInto(pred_latency, arena); break;
            }
        });
        benchmark::DoNotOptimize(pred_bips);
    }
}
BENCHMARK(BM_TripleReconstructPooled)->Unit(benchmark::kMillisecond);

/** Objective landscape shaped like one decision quantum's. */
struct SearchSetup
{
    Matrix bips{16, kNumJobConfigs};
    Matrix power{16, kNumJobConfigs};
    ObjectiveContext ctx;

    SearchSetup()
    {
        const TrainingTables &tables = trainingTables();
        for (std::size_t j = 0; j < 16; ++j) {
            const std::size_t src = j % tables.bips.rows();
            for (std::size_t c = 0; c < kNumJobConfigs; ++c) {
                bips(j, c) = tables.bips(src, c);
                power(j, c) = tables.power(src, c);
            }
        }
        ctx.bips = &bips;
        ctx.power = &power;
        ctx.powerBudgetW = 30.0;
        ctx.cacheBudgetWays = 28.0;
    }
};

void
BM_ParallelDds(benchmark::State &state)
{
    const SearchSetup setup;
    DdsOptions options;
    options.threads = static_cast<std::size_t>(state.range(0));
    for (auto _ : state) {
        benchmark::DoNotOptimize(parallelDds(setup.ctx, options));
    }
}
BENCHMARK(BM_ParallelDds)->Arg(1)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);

void
BM_SerialDds(benchmark::State &state)
{
    const SearchSetup setup;
    DdsOptions options;
    // Match the parallel evaluation budget.
    options.maxIterations = 40 * 10 * 8;
    for (auto _ : state) {
        benchmark::DoNotOptimize(serialDds(setup.ctx, options));
    }
}
BENCHMARK(BM_SerialDds)->Unit(benchmark::kMillisecond);

void
BM_GeneticSearch(benchmark::State &state)
{
    const SearchSetup setup;
    for (auto _ : state) {
        benchmark::DoNotOptimize(geneticSearch(setup.ctx));
    }
}
BENCHMARK(BM_GeneticSearch)->Unit(benchmark::kMillisecond);

} // namespace

int
main(int argc, char **argv)
{
    setInformEnabled(false);
    banner("table2_overheads", "scheduling-pipeline overheads",
           "sampling 2x1 ms; SGD reconstruction 4.8 ms; DDS search "
           "1.3 ms; Hogwild SGD ~3.5x faster than serial");
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
