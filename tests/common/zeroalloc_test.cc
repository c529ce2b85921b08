/**
 * @file
 * Steady-state zero-allocation gate for the decision-quantum hot path.
 *
 * This binary links cs_alloc_probe, which replaces the global
 * operator new/delete with counting forwarders (which is why these
 * tests live in their own executable instead of test_common). The
 * gate drives the same quantum loop as the runtime — arena reset,
 * three reconstructions, matrix copies, objective table rebuild,
 * parallel DDS — with an accreting observation trickle, and asserts
 * that after warm-up the loop performs literally zero heap
 * allocations per quantum.
 */

#include <algorithm>
#include <cstdint>
#include <memory>

#include <gtest/gtest.h>

#include "cf/engine.hh"
#include "cluster/accounting.hh"
#include "cluster/dag/artifact_cache.hh"
#include "cluster/dag/workflow.hh"
#include "cluster/fleet.hh"
#include "cluster/node.hh"
#include "cluster/placement.hh"
#include "common/alloc_probe.hh"
#include "common/arena.hh"
#include "common/kernels.hh"
#include "common/logging.hh"
#include "common/rng.hh"
#include "common/thread_pool.hh"
#include "config/job_config.hh"
#include "power/power_model.hh"
#include "search/dds.hh"
#include "../core/core_fixture.hh"

namespace cuttlesys {
namespace {

constexpr std::size_t kTrainingRows = 10;
constexpr std::size_t kLiveJobs = 17;
constexpr std::size_t kBatchJobs = 16;

Matrix
makeTraining(std::uint64_t seed, double lo, double hi)
{
    Matrix m(kTrainingRows, kNumJobConfigs);
    Rng rng(seed);
    for (std::size_t r = 0; r < kTrainingRows; ++r) {
        for (std::size_t c = 0; c < kNumJobConfigs; ++c) {
            const double size =
                static_cast<double>(c) / kNumJobConfigs;
            m(r, c) = lo + (hi - lo) * size + rng.uniform(0.0, 0.3);
        }
    }
    return m;
}

/** The runtime's per-quantum hot path over persistent state. */
struct QuantumLoop
{
    CfEngine bips{makeTraining(3, 0.5, 6.0), kLiveJobs,
                  kNumJobConfigs};
    CfEngine power{makeTraining(5, 1.0, 3.5), kLiveJobs,
                   kNumJobConfigs};
    Rng rng{83};
    ScratchArena arena;
    Matrix predBips, predPower;
    Matrix searchBips{kBatchJobs, kNumJobConfigs};
    Matrix searchPower{kBatchJobs, kNumJobConfigs};
    ObjectiveContext ctx;
    PreparedObjective prepared;
    DdsOptions dds;
    DdsScratch scratch;
    SearchResult found;
    std::size_t quantum = 0;

    QuantumLoop()
    {
        for (CfEngine *e : {&bips, &power}) {
            e->options().threads = 4;
            e->options().convergenceSamples = 512;
        }
        for (std::size_t j = 0; j < kLiveJobs; ++j) {
            bips.observe(j, 0, rng.uniform(0.5, 6.0));
            bips.observe(j, kNumJobConfigs - 1,
                         rng.uniform(0.5, 6.0));
            power.observe(j, 0, rng.uniform(0.5, 3.0));
            power.observe(j, kNumJobConfigs - 1,
                          rng.uniform(0.5, 3.0));
        }
        dds.threads = 8;
        dds.useDeltaEval = true;
        dds.maxIterations = 20;
    }

    void
    run()
    {
        // The observation set accretes like the real runtime's: one
        // fresh measured cell per metric per quantum. This is what
        // forces the arena's amortized-headroom growth policy — an
        // exact-fit slab would overflow by a few bytes every quantum.
        const std::size_t job = quantum % kLiveJobs;
        const std::size_t cfg = 1 + quantum % (kNumJobConfigs - 2);
        bips.observe(job, cfg, rng.uniform(0.5, 6.0));
        power.observe(job, cfg, rng.uniform(0.5, 3.0));

        arena.reset();
        bips.predictInto(predBips, arena);
        power.predictInto(predPower, arena);

        kernels::copy(searchBips.data(), predBips.rowPtr(1),
                      kBatchJobs * kNumJobConfigs);
        kernels::copy(searchPower.data(), predPower.rowPtr(1),
                      kBatchJobs * kNumJobConfigs);

        ctx.bips = &searchBips;
        ctx.power = &searchPower;
        ctx.powerBudgetW = 30.0;
        ctx.cacheBudgetWays = 28.0;
        prepared.rebuild(ctx);

        dds.seed = 11 + quantum;
        parallelDds(prepared, dds, scratch, found);
        ++quantum;
    }
};

TEST(ZeroAlloc, ProbeCountsThisBinarysAllocations)
{
    const std::uint64_t new_before = AllocProbe::newCount();
    const std::uint64_t del_before = AllocProbe::deleteCount();
    {
        auto p = std::make_unique<int>(7);
        EXPECT_EQ(AllocProbe::newCount(), new_before + 1);
    }
    EXPECT_EQ(AllocProbe::deleteCount(), del_before + 1);
}

TEST(ZeroAlloc, DecisionQuantumIsHeapFreeAfterWarmUp)
{
    setInformEnabled(false);
    QuantumLoop loop;
    // Warm-up: buffers size themselves, the thread pool spins up, the
    // arena grows to its high-water (with headroom).
    for (int q = 0; q < 4; ++q)
        loop.run();

    constexpr int kMeasured = 8;
    const std::uint64_t before = AllocProbe::newCount();
    for (int q = 0; q < kMeasured; ++q)
        loop.run();
    const std::uint64_t allocs = AllocProbe::newCount() - before;

    EXPECT_EQ(allocs, 0u)
        << "steady-state decision quantum touched the heap "
        << allocs << " times over " << kMeasured << " quanta";
}

TEST(ZeroAlloc, FleetNodeSteadyStateQuantumIsHeapFree)
{
    // The cluster gate: a full fleet node — MulticoreSim +
    // CuttleSysScheduler + ColocationRun behind the ClusterNode
    // stepper — must run its steady-state quantum without touching
    // the heap when untraced and not keeping slice records. This is
    // what keeps an N-node fleet step allocation-free outside churn.
    setInformEnabled(false);
    const SystemParams params;
    DriverOptions opts;
    opts.durationSec = 10.0;
    opts.loadPattern = LoadPattern::constant(0.45);
    opts.powerPattern = LoadPattern::constant(0.7);
    opts.maxPowerW = 150.0;
    opts.keepSliceRecords = false;
    // Steady state means stable load AND a stable colocation (churn
    // has its own gate below). At constant offered load the default
    // load-change threshold can still fire off completion-count
    // noise, so widen it — the gate measures the no-churn quantum.
    CuttleSysOptions sched;
    sched.loadChangeThreshold = 1.0;
    // This gate covers the FULL pipeline (reconstruct + DDS) every
    // measured quantum; the stability gate would skip most of it.
    // The fast-reuse path has its own gate below.
    sched.fastPath = false;
    cluster::ClusterNode node(params, testTrainingTables(),
                              makeTestMix(), 21, opts, 3, sched);

    // Warm-up: profiling slices, buffer growth, factor caches, the
    // thread pool, and the validator's scratch all settle.
    for (int q = 0; q < 12; ++q)
        node.step();

    constexpr int kMeasured = 8;
    const std::uint64_t before = AllocProbe::newCount();
    for (int q = 0; q < kMeasured; ++q)
        node.step();
    const std::uint64_t allocs = AllocProbe::newCount() - before;

    EXPECT_EQ(allocs, 0u)
        << "steady-state fleet-node quantum touched the heap "
        << allocs << " times over " << kMeasured << " quanta";
}

TEST(ZeroAlloc, FastReuseQuantumIsHeapFree)
{
    // The incremental-decision gate: with the stability gate enabled,
    // steady-state quanta alternate fast-reuse with the forced
    // K-quantum refresh, and neither leg may touch the heap — the
    // fast path's revalidation, decision copy-out, and cache refresh
    // all reuse capacity sized during warm-up.
    setInformEnabled(false);
    const SystemParams params;
    DriverOptions opts;
    opts.durationSec = 10.0;
    opts.loadPattern = LoadPattern::constant(0.45);
    opts.powerPattern = LoadPattern::constant(0.7);
    opts.maxPowerW = 150.0;
    opts.keepSliceRecords = false;
    CuttleSysOptions sched;
    sched.loadChangeThreshold = 1.0;
    cluster::ClusterNode node(params, testTrainingTables(),
                              makeTestMix(), 21, opts, 3, sched);

    for (int q = 0; q < 12; ++q)
        node.step();
    ASSERT_GT(node.scheduler().fastPathHits(), 0u)
        << "constant-load warm-up must engage the fast path";

    constexpr int kMeasured = 8;
    const std::uint64_t hitsBefore = node.scheduler().fastPathHits();
    const std::uint64_t before = AllocProbe::newCount();
    for (int q = 0; q < kMeasured; ++q)
        node.step();
    const std::uint64_t allocs = AllocProbe::newCount() - before;

    EXPECT_EQ(allocs, 0u)
        << "steady-state fast-reuse quantum touched the heap "
        << allocs << " times over " << kMeasured << " quanta";
    EXPECT_GT(node.scheduler().fastPathHits(), hitsBefore)
        << "the measured window must contain fast-reuse quanta";
}

TEST(ZeroAlloc, ChurnQuantumIsHeapFree)
{
    // The churn gate: onJobChurn clears a slot's rows and zeroes its
    // latent row, and the next decision re-searches on warm-started
    // reconstructions that first fold-in solve that row, with the
    // solver's scratch from the quantum arena. Every other measured
    // quantum also drops all
    // three engines' factors first, so that decision cold-starts
    // every reconstruction — Jacobi-SVD initialization included. The
    // cold start's buffers come from the quantum arena and the
    // engines' SVD workspace, both sized by the first quantum's cold
    // start, so either churn quantum is as heap-free as a steady one.
    setInformEnabled(false);
    const SystemParams params;
    DriverOptions opts;
    opts.durationSec = 10.0;
    opts.loadPattern = LoadPattern::constant(0.45);
    opts.powerPattern = LoadPattern::constant(0.7);
    opts.maxPowerW = 150.0;
    opts.keepSliceRecords = false;
    CuttleSysOptions sched;
    sched.loadChangeThreshold = 1.0;
    cluster::ClusterNode node(params, testTrainingTables(),
                              makeTestMix(), 21, opts, 3, sched);
    const std::size_t slots = node.numBatchSlots();

    std::size_t churned = 0;
    auto churnStep = [&](bool cold) {
        node.scheduler().onJobChurn(churned++ % slots);
        if (cold)
            node.scheduler().invalidateFactors();
        node.step();
    };
    for (int q = 0; q < 12; ++q)
        node.step();
    for (int q = 0; q < 4; ++q)
        churnStep(q % 2 == 1);

    constexpr int kMeasured = 8;
    const std::uint64_t before = AllocProbe::newCount();
    for (int q = 0; q < kMeasured; ++q)
        churnStep(q % 2 == 1);
    const std::uint64_t allocs = AllocProbe::newCount() - before;

    EXPECT_EQ(allocs, 0u)
        << "churn quantum touched the heap " << allocs
        << " times over " << kMeasured << " quanta";
    EXPECT_TRUE(node.scheduler().bipsEngine().lastColdStart())
        << "the last measured quantum must be the cold leg";
}

/** Heap allocations over the next @p quanta fleet quanta. */
std::uint64_t
allocsOver(cluster::FleetController &fleet, int quanta)
{
    const std::uint64_t before = AllocProbe::newCount();
    for (int q = 0; q < quanta; ++q)
        fleet.stepQuantum();
    return AllocProbe::newCount() - before;
}

TEST(ZeroAlloc, FleetQuiescentQuantumIsHeapFree)
{
    // The shipped controller end to end: a real FleetController's
    // untraced steady-state quantum — every control phase, the
    // parallel node step, and the accounting gather — must not touch
    // the heap, as fleet.hh promises. Two inputs: a quiescent fleet,
    // and a hot one whose measured window places, preempts and
    // completes workflows. The offered load is flat in both (the LC
    // queue sim's buffers grow with load, so a diurnal day would keep
    // finding new high-water marks), and the stability gate keeps its
    // default (on). As in the node gates above, the load-change
    // threshold is widened: at constant load it can still fire off
    // completion-count noise.
    setInformEnabled(false);
    const SystemParams params;
    const TrainTestSplit split = splitSpecGallery();
    const double nodeMaxW = systemMaxPower(split.test, params);
    cluster::BackfillBinPack placement;
    cluster::FleetOptions opts;
    opts.scenario.loadTrough = 0.45;
    opts.scenario.loadPeak = 0.45;
    opts.loadScaleMin = 1.0;
    opts.loadScaleMax = 1.0;
    opts.scheduler = fastCuttleSysOptions();
    opts.scheduler.loadChangeThreshold = 1.0;

    // Input 1: four nodes, churn off. A long warm-up: buffers size
    // themselves the first time a node reaches each decision leg
    // (full search, fast reuse, forced refresh, budget re-fit) or LC
    // queue-sim shape (a slice opening with holdover completions),
    // and when that happens is data-dependent, not a fixed prefix.
    // This fleet is heap-free from its third quantum; 50 keep the
    // gate clear of warm-up under other seeds and tunings.
    {
        cluster::FleetOptions quiet = opts;
        quiet.numNodes = 4;
        quiet.seed = 11;
        quiet.scenario.daySeconds = 7.0;
        quiet.churn.departureProbability = 0.0;
        quiet.churn.meanArrivalsPerQuantum = 0.0;
        cluster::FleetController fleet(
            params, testTrainingTables(), calibratedTailbench()[0],
            split.test, nodeMaxW, placement, quiet);
        for (int q = 0; q < 50; ++q)
            fleet.stepQuantum();
        const std::uint64_t allocs = allocsOver(fleet, 16);
        EXPECT_EQ(allocs, 0u)
            << "quiescent fleet quantum touched the heap " << allocs
            << " times over 16 quanta";
    }

    // Input 2: 64 nodes (two parallel blocks) under hot churn, three
    // tenants of rising class (so preemption runs), DAG workflows
    // (releases, artifact caches, the locality deltas) and a scarce
    // rack budget (so cap enforcement gates jobs). Every per-quantum
    // buffer is reserved to its bound, so churn, placement,
    // preemption, gating and workflow completion stay off the heap.
    {
        cluster::FleetOptions hot = opts;
        hot.numNodes = 64;
        hot.seed = 17;
        hot.scenario.daySeconds = 9.0;
        hot.rackBudgetFrac = 0.55;
        hot.churn.departureProbability = 0.03;
        hot.churn.meanArrivalsPerQuantum = 1.5 * 64;
        hot.churn.meanWorkflowArrivalsPerQuantum = 0.05 * 64;
        // Names within std::string's SSO buffer, like the SPEC
        // gallery's: a job or tenant copy must not allocate.
        hot.tenants = {
            {.name = "t-a", .arrivalWeight = 0.65,
             .qosClass = cluster::QosClass::Batch},
            {.name = "t-b", .arrivalWeight = 0.25,
             .qosClass = cluster::QosClass::Normal},
            {.name = "t-c", .arrivalWeight = 0.10,
             .qosClass = cluster::QosClass::Interactive},
        };
        hot.dag.enable = true;
        hot.dag.maxLiveWorkflows = 2 * 64;
        cluster::FleetController fleet(
            params, testTrainingTables(), calibratedTailbench()[0],
            split.test, nodeMaxW, placement, hot);
        for (int q = 0; q < 50; ++q)
            fleet.stepQuantum();
        // summary() builds vectors, so it brackets the window.
        const cluster::FleetSummary warm = fleet.summary();
        const std::uint64_t allocs = allocsOver(fleet, 40);
        const cluster::FleetSummary end = fleet.summary();
        EXPECT_EQ(allocs, 0u)
            << "hot fleet quantum touched the heap " << allocs
            << " times over 40 quanta";
        EXPECT_GT(end.preemptions, warm.preemptions)
            << "the measured window must contain preemptions";
        EXPECT_GT(end.workflowsCompleted, warm.workflowsCompleted)
            << "the measured window must complete workflows";
    }
}

TEST(ZeroAlloc, DagWorkflowQuantumIsHeapFree)
{
    // The DAG overlay's serial-merge mutations — admit (artifact-id
    // pass over reserved per-slot storage), place, cache
    // insert/touch/evict, complete-with-release — must not touch the
    // heap once every template has cycled through every live slot.
    // The cache is sized below the mapred working set so eviction
    // runs inside the measured window, not just insertion.
    using cluster::dag::ArtifactCache;
    using cluster::dag::WorkflowEngine;

    WorkflowEngine engine(cluster::dag::standardWorkflowTemplates(),
                          /*max_live=*/8);
    ArtifactCache cache(96.0 * 1024.0 * 1024.0, /*max_entries=*/6);
    std::vector<WorkflowEngine::ReadyTask> ready;
    ready.reserve(engine.capacityTasks());

    std::uint64_t quantum = 0;
    std::uint64_t wfId = 0;
    auto step = [&] {
        // One admission per quantum, rotating templates; then drain
        // the frontier by placing and completing every released task
        // in release order, exactly the mutations the controller's
        // merge phases perform (compressed: tasks depart the quantum
        // they start, which exercises the full release chain).
        engine.admit(wfId % engine.numTemplates(),
                     0x9e3779b97f4a7c15ULL * (wfId + 1), /*account=*/0,
                     quantum, wfId, ready);
        ++wfId;
        while (!ready.empty()) {
            const WorkflowEngine::ReadyTask t = ready.back();
            ready.pop_back();
            engine.onTaskPlaced(t.workflow, t.task);
            for (const cluster::dag::ArtifactRef &in :
                 engine.taskInputs(t.workflow, t.task)) {
                if (cache.find(in.id) != nullptr)
                    cache.touch(in.id, quantum);
                else
                    cache.insert(in.id, in.bytes, quantum);
            }
            const cluster::dag::ArtifactRef out =
                engine.taskOutput(t.workflow, t.task);
            WorkflowEngine::Completion done;
            engine.onTaskCompleted(t.workflow, t.task, quantum, ready,
                                   done);
            cache.insert(out.id, out.bytes, quantum);
        }
        ++quantum;
    };

    // Warm-up: enough admissions that every template's task/input
    // high-water mark has visited every pool slot.
    for (int q = 0; q < 32; ++q)
        step();

    constexpr int kMeasured = 16;
    const std::uint64_t before = AllocProbe::newCount();
    for (int q = 0; q < kMeasured; ++q)
        step();
    const std::uint64_t allocs = AllocProbe::newCount() - before;

    EXPECT_EQ(allocs, 0u)
        << "steady-state DAG workflow quantum touched the heap "
        << allocs << " times over " << kMeasured << " quanta";
    EXPECT_GT(cache.evictions(), 0u)
        << "cache never evicted — the gate missed the eviction path";
}

TEST(ZeroAlloc, ParallelForSteadyStateIsHeapFree)
{
    // The pool recycles batch records through a refcount free list;
    // after the first dispatch a fork-join region must not allocate.
    auto &pool = ThreadPool::global();
    std::atomic<std::size_t> sink{0};
    for (int warm = 0; warm < 4; ++warm)
        pool.parallelFor(8, [&](std::size_t i) { sink += i; });

    const std::uint64_t before = AllocProbe::newCount();
    for (int q = 0; q < 32; ++q)
        pool.parallelFor(8, [&](std::size_t i) { sink += i; });
    EXPECT_EQ(AllocProbe::newCount() - before, 0u);
}

TEST(ZeroAlloc, ArenaSteadyStateCycleIsHeapFree)
{
    ScratchArena arena;
    auto cycle = [&arena] {
        arena.alloc<double>(4096);
        arena.alloc<std::uint16_t>(333);
        arena.reset();
    };
    cycle(); // warm-up growth
    const std::uint64_t before = AllocProbe::newCount();
    for (int i = 0; i < 64; ++i)
        cycle();
    EXPECT_EQ(AllocProbe::newCount() - before, 0u);
}

} // namespace
} // namespace cuttlesys
