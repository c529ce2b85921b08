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
#include "cluster/churn.hh"
#include "cluster/dag/artifact_cache.hh"
#include "cluster/dag/workflow.hh"
#include "cluster/fleet.hh"
#include "cluster/node.hh"
#include "cluster/placement.hh"
#include "cluster/power_manager.hh"
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
    // The churn gate: onJobChurn clears a slot's rows and drops both
    // engines' factors, so the next decision cold-starts the BIPS and
    // power reconstructions — Jacobi-SVD warm start included — and
    // re-searches. The cold start's buffers come from the quantum
    // arena and the engines' SVD workspace, both sized by earlier
    // cold starts, so a churn quantum is as heap-free as a steady one.
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
    auto churnStep = [&] {
        node.scheduler().onJobChurn(churned++ % slots);
        node.step();
    };
    for (int q = 0; q < 12; ++q)
        node.step();
    for (int q = 0; q < 4; ++q)
        churnStep();

    constexpr int kMeasured = 8;
    const std::uint64_t before = AllocProbe::newCount();
    for (int q = 0; q < kMeasured; ++q)
        churnStep();
    const std::uint64_t allocs = AllocProbe::newCount() - before;

    EXPECT_EQ(allocs, 0u)
        << "churn quantum touched the heap " << allocs
        << " times over " << kMeasured << " quanta";
}

TEST(ZeroAlloc, FleetQuiescentQuantumIsHeapFree)
{
    // The shipped controller end to end: a real FleetController's
    // untraced steady-state quantum — every control phase, the
    // parallel node step, and the accounting gather — must not touch
    // the heap, as fleet.hh promises. Churn is off and the offered
    // load is flat; the stability gate keeps its default (on). As in
    // the node gates above, the load-change threshold is widened: at
    // constant load it can still fire off completion-count noise, and
    // the gate measures the quiescent quantum.
    setInformEnabled(false);
    const SystemParams params;
    const TrainTestSplit split = splitSpecGallery();
    cluster::FleetOptions opts;
    opts.numNodes = 4;
    opts.seed = 11;
    opts.scenario.daySeconds = 7.0;
    opts.scenario.loadTrough = 0.45;
    opts.scenario.loadPeak = 0.45;
    opts.loadScaleMin = 1.0;
    opts.loadScaleMax = 1.0;
    opts.churn.departureProbability = 0.0;
    opts.churn.meanArrivalsPerQuantum = 0.0;
    opts.scheduler = fastCuttleSysOptions();
    opts.scheduler.loadChangeThreshold = 1.0;
    cluster::BackfillBinPack placement;
    cluster::FleetController fleet(params, testTrainingTables(),
                                   calibratedTailbench()[0], split.test,
                                   systemMaxPower(split.test, params),
                                   placement, opts);

    // A long warm-up. Buffers size themselves the first time a node
    // reaches each decision leg (full search, fast reuse, forced
    // refresh, budget re-fit) or LC queue-sim shape (a slice opening
    // with holdover completions), and when that happens is
    // data-dependent, not a fixed prefix. This fleet is heap-free
    // from its third quantum; 50 keep the gate clear of warm-up under
    // other seeds and tunings.
    for (int q = 0; q < 50; ++q)
        fleet.stepQuantum();

    constexpr int kMeasured = 16;
    const std::uint64_t before = AllocProbe::newCount();
    for (int q = 0; q < kMeasured; ++q)
        fleet.stepQuantum();
    const std::uint64_t allocs = AllocProbe::newCount() - before;

    EXPECT_EQ(allocs, 0u)
        << "steady-state fleet quantum touched the heap " << allocs
        << " times over " << kMeasured << " quanta";
}

/**
 * One full controller quantum over a 256-node fleet, built from the
 * production control-phase components: the parallel churn scan
 * staging per-node departure lists in per-worker arenas, the serial
 * node-order merge admitting account-stamped arrivals into the
 * pending queue, the accounting ledger's decay/fair-share step and
 * per-slot usage charging, the O(1) view gather, PlacementRound's
 * score-once/heap-commit placement in priority order (fair-share x
 * age x class, ties to sequence), an eviction through the refresh
 * seam every quantum, ClusterPowerManager's block-parallel split,
 * and the parallel load scan. Per-node simulators are replaced by a
 * planned-occupancy state machine so the gate isolates the
 * controller phases themselves.
 */
struct ControllerQuantum
{
    static constexpr std::size_t kNodes = 256;
    static constexpr std::size_t kSlots = 16;

    cluster::BackfillBinPack policy;
    cluster::JobChurnEngine churn;
    cluster::AccountingLedger ledger;
    cluster::ClusterPowerManager power;
    cluster::PlacementRound round;
    WorkerArenaSet arenas{ThreadPool::global().slotCount()};

    struct NodePlan
    {
        std::uint16_t *departSlots = nullptr;
        std::uint16_t numDeparts = 0;
        std::uint16_t arrivals = 0;
    };
    std::vector<NodePlan> plan;

    std::vector<std::uint8_t> occupied;
    std::vector<std::size_t> freeCount;
    std::vector<std::size_t> firstVacant;
    std::vector<cluster::NodeView> views;
    std::vector<double> budgets;
    std::vector<double> loads;
    std::vector<cluster::PendingJob> pending;
    std::vector<double> prio;
    std::vector<std::uint32_t> order;
    std::vector<char> placedFlags;
    std::vector<std::int32_t> slotAccount;
    std::uint32_t nextSeq = 0;
    std::uint64_t quantum = 0;

    static std::vector<AppProfile>
    jobPool()
    {
        // Short names stay within std::string's SSO buffer, like the
        // SPEC gallery's: a profile copy must not allocate.
        std::vector<AppProfile> pool(4);
        for (std::size_t i = 0; i < pool.size(); ++i) {
            pool[i].name = "job-";
            pool[i].name += static_cast<char>('a' + i);
            pool[i].seed = 7 + i;
        }
        return pool;
    }

    static std::vector<cluster::TenantSpec>
    tenants()
    {
        // Names within the SSO buffer: the ledger copy-constructing
        // its TenantSpec vector at setup is the only allocation.
        return {
            cluster::TenantSpec{.name = "t-a", .arrivalWeight = 0.65,
                                .shares = 1.0,
                                .qosClass = cluster::QosClass::Batch},
            cluster::TenantSpec{.name = "t-b", .arrivalWeight = 0.25,
                                .shares = 1.0,
                                .qosClass = cluster::QosClass::Normal},
            cluster::TenantSpec{
                .name = "t-c", .arrivalWeight = 0.10, .shares = 1.0,
                .qosClass = cluster::QosClass::Interactive},
        };
    }

    ControllerQuantum()
        : churn(jobPool(), kNodes, 31,
                cluster::ChurnOptions{
                    .departureProbability = 0.10,
                    .meanArrivalsPerQuantum = 64.0,
                    .maxPendingJobs = 2 * kNodes,
                    .tenantArrivalWeights = {0.65, 0.25, 0.10}}),
          ledger(tenants()),
          power(cluster::PowerManagerOptions{.rackBudgetW = 24000.0,
                                             .nodeFloorW = 30.0,
                                             .nodeCapW = 130.0,
                                             .qosBoostW = 10.0})
    {
        plan.resize(kNodes);
        occupied.assign(kNodes * kSlots, 0);
        freeCount.assign(kNodes, kSlots);
        firstVacant.assign(kNodes, 0);
        views.resize(kNodes);
        budgets.assign(kNodes, 90.0);
        loads.assign(kNodes, 0.0);
        pending.reserve(4 * kNodes);
        prio.reserve(4 * kNodes);
        order.reserve(4 * kNodes);
        placedFlags.reserve(4 * kNodes);
        slotAccount.assign(kNodes * kSlots, -1);
        Rng rng(5);
        for (std::size_t i = 0; i < kNodes; ++i) {
            for (std::size_t s = 0; s < kSlots; ++s) {
                if (rng.uniform(0.0, 1.0) < 0.5) {
                    occupied[i * kSlots + s] = 1;
                    slotAccount[i * kSlots + s] =
                        static_cast<std::int32_t>(churn.accountAt(
                            cluster::JobChurnEngine::kResidentQuantum,
                            i, s));
                    --freeCount[i];
                }
            }
            while (firstVacant[i] < kSlots &&
                   occupied[i * kSlots + firstVacant[i]]) {
                ++firstVacant[i];
            }
        }
        // Worst-case staging prewarm, as FleetController performs:
        // the worker schedule (never the results) varies per run, so
        // each arena must already fit a whole-fleet scan.
        for (std::size_t s = 0; s < arenas.size(); ++s)
            arenas.at(s).alloc<std::uint16_t>(kNodes * kSlots);
        arenas.resetAll();
    }

    void
    run()
    {
        auto &pool = ThreadPool::global();
        // Quantum head: decay the ledger and refresh the fair-share
        // factors admission and ordering consult below.
        ledger.beginQuantum();
        // Phase 1: churn — parallel scan into arena staging, serial
        // node-order merge.
        arenas.resetAll();
        pool.parallelChunks(
            kNodes, 32,
            [this](std::size_t, std::size_t begin, std::size_t end) {
                ScratchArena &arena =
                    arenas.at(ThreadPool::currentSlot());
                for (std::size_t i = begin; i < end; ++i) {
                    std::uint16_t *stage =
                        arena.alloc<std::uint16_t>(kSlots);
                    std::uint16_t count = 0;
                    for (std::size_t s = 0; s < kSlots; ++s) {
                        if (occupied[i * kSlots + s] &&
                            churn.departs(quantum, i, s)) {
                            stage[count++] =
                                static_cast<std::uint16_t>(s);
                        }
                    }
                    plan[i].departSlots = stage;
                    plan[i].numDeparts = count;
                    plan[i].arrivals = static_cast<std::uint16_t>(
                        churn.arrivalsAt(quantum, i));
                }
            });
        for (std::size_t i = 0; i < kNodes; ++i) {
            for (std::uint16_t d = 0; d < plan[i].numDeparts; ++d) {
                const std::size_t s = plan[i].departSlots[d];
                occupied[i * kSlots + s] = 0;
                slotAccount[i * kSlots + s] = -1;
                ++freeCount[i];
                firstVacant[i] = std::min(firstVacant[i], s);
            }
            for (std::uint16_t k = 0; k < plan[i].arrivals; ++k) {
                if (pending.size() >= 2 * kNodes)
                    continue;
                cluster::PendingJob job;
                job.profile = churn.drawJobAt(quantum, i, k);
                job.submitSlice = quantum;
                job.account = static_cast<std::int32_t>(
                    churn.accountAt(quantum, i, k));
                job.qosClass = ledger.qosClass(
                    static_cast<std::size_t>(job.account));
                job.arrivalSeq = nextSeq++;
                ledger.recordArrival(
                    static_cast<std::size_t>(job.account));
                pending.push_back(std::move(job));
            }
        }
        // Charge every occupied slot's usage for the quantum (the
        // fleet's gather-phase accounting: pure arithmetic over the
        // ledger's fixed-size arrays).
        for (std::size_t i = 0; i < kNodes; ++i) {
            for (std::size_t s = 0; s < kSlots; ++s) {
                const std::int32_t a = slotAccount[i * kSlots + s];
                if (a >= 0)
                    ledger.chargeUsage(static_cast<std::size_t>(a),
                                       0.5, 0.1, 0.05, 2.0);
            }
        }
        // Phase 2: gather — O(1) counters, disjoint writes.
        pool.parallelChunks(
            kNodes, 32,
            [this](std::size_t, std::size_t begin, std::size_t end) {
                for (std::size_t i = begin; i < end; ++i) {
                    cluster::NodeView &v = views[i];
                    v.node = i;
                    v.freeSlots = freeCount[i];
                    v.occupiedSlots = kSlots - freeCount[i];
                    v.loadFraction = 0.3 +
                        0.4 * static_cast<double>(i % 7) / 7.0;
                    v.budgetW = budgets[i];
                    v.measuredPowerW = 50.0 + 40.0 * v.loadFraction;
                    v.headroomW = v.budgetW - v.measuredPowerW;
                    v.qosViolated = (i % 11) == 0;
                    v.stepped = true;
                }
            });
        // Phase 3: place — parallel scoring, priority-ordered heap
        // commit (the fair-share order the fleet uses: priority desc,
        // arrival sequence asc, over persistent scratch).
        round.begin(policy, views, pool);
        prio.resize(pending.size());
        order.resize(pending.size());
        placedFlags.assign(pending.size(), 0);
        for (std::size_t j = 0; j < pending.size(); ++j) {
            const cluster::PendingJob &job = pending[j];
            prio[j] = ledger.priority(
                static_cast<std::size_t>(job.account), job.qosClass,
                job.submitSlice, quantum);
            order[j] = static_cast<std::uint32_t>(j);
        }
        std::sort(order.begin(), order.end(),
                  [this](std::uint32_t a, std::uint32_t b) {
                      if (prio[a] != prio[b])
                          return prio[a] > prio[b];
                      return pending[a].arrivalSeq <
                          pending[b].arrivalSeq;
                  });
        // Exercise the eviction seam once per quantum: vacate one
        // occupied slot of a rotating node and re-enter it through
        // refresh(), exactly as the fleet's preemption path does.
        {
            const std::size_t victim = quantum % kNodes;
            for (std::size_t s = kSlots; s-- > 0;) {
                const std::size_t idx = victim * kSlots + s;
                if (!occupied[idx])
                    continue;
                ledger.recordPreemption(
                    2, static_cast<std::size_t>(slotAccount[idx]));
                occupied[idx] = 0;
                slotAccount[idx] = -1;
                ++freeCount[victim];
                firstVacant[victim] =
                    std::min(firstVacant[victim], s);
                ++views[victim].freeSlots;
                --views[victim].occupiedSlots;
                round.refresh(victim);
                break;
            }
        }
        std::size_t committed = 0;
        for (const std::uint32_t j : order) {
            const std::size_t target = round.placeOne();
            if (target == cluster::PlacementPolicy::kNoNode)
                break;
            std::size_t &hint = firstVacant[target];
            occupied[target * kSlots + hint] = 1;
            slotAccount[target * kSlots + hint] = pending[j].account;
            ledger.recordPlacement(
                static_cast<std::size_t>(pending[j].account));
            --freeCount[target];
            while (hint < kSlots && occupied[target * kSlots + hint])
                ++hint;
            placedFlags[j] = 1;
            ++committed;
        }
        // Stable in-place compaction of the unplaced entries.
        if (committed == pending.size()) {
            pending.clear();
        } else if (committed > 0) {
            std::size_t keep = 0;
            for (std::size_t j = 0; j < pending.size(); ++j) {
                if (placedFlags[j])
                    continue;
                if (keep != j)
                    pending[keep] = std::move(pending[j]);
                ++keep;
            }
            pending.resize(keep);
        }
        // Phase 4: budget — block-parallel weights, ordered clip.
        power.split(views, budgets, pool);
        // Phase 5: shift scan — parallel load lookups.
        pool.parallelChunks(
            kNodes, 32,
            [this](std::size_t, std::size_t begin, std::size_t end) {
                for (std::size_t i = begin; i < end; ++i) {
                    loads[i] = 0.5 +
                        0.3 * static_cast<double>((i + quantum) % 5) /
                            5.0;
                }
            });
        ++quantum;
    }
};

TEST(ZeroAlloc, ControllerQuantumAt256NodesIsHeapFree)
{
    // The fleet tentpole gate: a full 256-node controller quantum —
    // every parallel phase drawing scratch from per-worker arenas and
    // reduction buffers from persistent members — must not touch the
    // heap once warm.
    setInformEnabled(false);
    ControllerQuantum ctl;
    for (int q = 0; q < 4; ++q)
        ctl.run();

    constexpr int kMeasured = 8;
    const std::uint64_t before = AllocProbe::newCount();
    for (int q = 0; q < kMeasured; ++q)
        ctl.run();
    const std::uint64_t allocs = AllocProbe::newCount() - before;

    EXPECT_EQ(allocs, 0u)
        << "steady-state 256-node controller quantum touched the "
        << "heap " << allocs << " times over " << kMeasured
        << " quanta";
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
