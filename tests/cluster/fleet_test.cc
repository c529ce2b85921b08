/**
 * @file
 * Tests for the fleet controller: a small two-node cluster driven end
 * to end, counter consistency, trace stamping, and same-seed replay.
 */

#include <gtest/gtest.h>

#include <cstddef>

#include "check/trace_diff.hh"
#include "cluster/fleet.hh"
#include "power/power_model.hh"
#include "telemetry/trace_sink.hh"
#include "../core/core_fixture.hh"

namespace cuttlesys {
namespace cluster {
namespace {

FleetOptions
smallFleetOptions()
{
    FleetOptions opts;
    opts.numNodes = 2;
    opts.batchSlotsPerNode = 8;
    opts.seed = 7;
    opts.scenario.daySeconds = 0.5;
    opts.scenario.peakWindowStartSec = 0.2;
    opts.scenario.peakWindowEndSec = 0.35;
    opts.churn.departureProbability = 0.1;
    opts.churn.meanArrivalsPerQuantum = 1.0;
    return opts;
}

struct SmallFleet
{
    SystemParams params;
    TrainTestSplit split = splitSpecGallery();
    AppProfile lc = calibratedTailbench()[0];
    double nodeMaxW = systemMaxPower(split.test, params);
    BackfillBinPack placement;
    FleetController fleet;

    explicit SmallFleet(FleetOptions opts = smallFleetOptions())
        : fleet(params, testTrainingTables(), lc, split.test, nodeMaxW,
                placement, opts)
    {
    }
};

TEST(FleetTest, RunsTheConfiguredDay)
{
    SmallFleet f;
    const std::size_t quanta =
        smallFleetOptions().scenario.quanta(f.params.timesliceSec);
    EXPECT_EQ(f.fleet.numQuanta(), quanta);
    const FleetSummary s = f.fleet.run();
    EXPECT_TRUE(f.fleet.done());
    EXPECT_EQ(s.quanta, quanta);
    EXPECT_EQ(s.numNodes, 2u);
    ASSERT_EQ(s.nodes.size(), 2u);
    for (const NodeSummary &n : s.nodes) {
        EXPECT_EQ(n.quanta, quanta);
        EXPECT_EQ(n.invariantViolations, 0u);
        EXPECT_GT(n.meanPowerW, 0.0);
        EXPECT_GT(n.meanBudgetW, 0.0);
    }
    EXPECT_GE(s.clusterQosPct, 0.0);
    EXPECT_LE(s.clusterQosPct, 100.0);
    EXPECT_GT(s.totalBatchInstructions, 0.0);
    EXPECT_GT(s.rackBudgetW, 0.0);
    EXPECT_EQ(s.placementPolicy, "backfill-binpack");
}

/** The conservation law every fleet run must satisfy. */
void
expectCountersConserved(const FleetController &fleet,
                        const FleetSummary &s)
{
    // Every accepted submission — plus every preemption victim, which
    // re-enters the queue — is either placed onto a node, displaced
    // from the queue by a higher-priority newcomer, or still waiting
    // when the day ends.
    EXPECT_EQ(s.arrivals + s.preemptions,
              s.placements + s.droppedQueued + fleet.pendingJobs());
    std::size_t nodeArrivals = 0, nodeDepartures = 0;
    for (const NodeSummary &n : s.nodes) {
        nodeArrivals += n.arrivals;
        nodeDepartures += n.departures;
    }
    // Placements queue arrival events; each is applied exactly once.
    // A preemption's combined evict+install event counts one arrival
    // *and* one departure at the node.
    EXPECT_EQ(nodeArrivals, s.placements);
    EXPECT_EQ(nodeDepartures, s.departures + s.preemptions);
}

TEST(FleetTest, ChurnCountersAreConsistent)
{
    SmallFleet f;
    const FleetSummary s = f.fleet.run();
    expectCountersConserved(f.fleet, s);
    // The single anonymous tenant never preempts or displaces.
    EXPECT_EQ(s.preemptions, 0u);
    EXPECT_EQ(s.droppedQueued, 0u);
}

TEST(FleetTest, ArrivalQueueIsBounded)
{
    FleetOptions opts = smallFleetOptions();
    opts.churn.meanArrivalsPerQuantum = 50.0;
    opts.churn.maxPendingJobs = 8;
    SmallFleet f(opts);
    const FleetSummary s = f.fleet.run();
    EXPECT_GT(s.droppedArrivals, 0u);
    EXPECT_LE(f.fleet.pendingJobs(), 8u);
}

TEST(FleetTest, TraceRecordsStampedWithNodeAndOrdered)
{
    telemetry::MemorySink sink;
    FleetOptions opts = smallFleetOptions();
    opts.sink = &sink;
    SmallFleet f(opts);
    const FleetSummary s = f.fleet.run();
    // One record per node per quantum, drained quantum-major in
    // node-index order.
    ASSERT_EQ(sink.records().size(), s.quanta * s.numNodes);
    for (std::size_t i = 0; i < sink.records().size(); ++i) {
        const telemetry::QuantumRecord &rec = sink.records()[i];
        EXPECT_EQ(rec.node, i % s.numNodes);
        EXPECT_EQ(rec.slice, i / s.numNodes);
    }
}

TEST(FleetTest, SameSeedReplaysBitIdentically)
{
    telemetry::MemorySink sinkA, sinkB;
    FleetOptions opts = smallFleetOptions();
    opts.sink = &sinkA;
    SmallFleet a(opts);
    const FleetSummary sa = a.fleet.run();
    opts.sink = &sinkB;
    SmallFleet b(opts);
    const FleetSummary sb = b.fleet.run();
    const check::TraceDiff diff =
        check::diffDecisionTraces(sinkA.records(), sinkB.records());
    EXPECT_TRUE(diff.identical()) << diff.toString();
    EXPECT_GT(diff.comparedFields, 0u);
    EXPECT_EQ(sa.fastPathHits, sb.fastPathHits);
    EXPECT_EQ(sa.fullQuanta, sb.fullQuanta);
    // The decision split covers every node-quantum exactly once.
    EXPECT_EQ(sa.fastPathHits + sa.fullQuanta, sa.quanta * sa.numNodes);
}

// A four-node repeat of the diurnal churn day. The suite name dates
// from the schedule memo cache; the memo counters FleetSummary still
// carries for the benchmark must replay too, and stay 0.
TEST(MemoCacheTest, FleetRepeatRunReplaysBitwiseWithMemoOn)
{
    telemetry::MemorySink sink1, sink2;
    FleetOptions opts = smallFleetOptions();
    opts.numNodes = 4;
    opts.sink = &sink1;
    SmallFleet f1(opts);
    const FleetSummary s1 = f1.fleet.run();
    opts.sink = &sink2;
    SmallFleet f2(opts);
    const FleetSummary s2 = f2.fleet.run();

    const check::TraceDiff diff =
        check::diffDecisionTraces(sink1.records(), sink2.records());
    EXPECT_TRUE(diff.identical()) << diff.toString();
    EXPECT_EQ(s1.fastPathHits, s2.fastPathHits);
    EXPECT_EQ(s1.fullQuanta, s2.fullQuanta);
    EXPECT_EQ(s1.memoSeededQuanta, s2.memoSeededQuanta);
    EXPECT_EQ(s1.memoLookups, s2.memoLookups);
    EXPECT_EQ(s1.memoHits, s2.memoHits);
    EXPECT_EQ(s1.memoStores, s2.memoStores);
    EXPECT_EQ(s1.memoSeededQuanta + s1.memoLookups + s1.memoHits +
                  s1.memoStores,
              0u);
    // The decision split covers every node-quantum exactly once.
    EXPECT_EQ(s1.fastPathHits + s1.fullQuanta,
              s1.quanta * s1.numNodes);
}

std::vector<TenantSpec>
threeTenants()
{
    return {
        TenantSpec{.name = "ml-train", .arrivalWeight = 0.65,
                   .shares = 1.0, .qosClass = QosClass::Batch},
        TenantSpec{.name = "analytics", .arrivalWeight = 0.25,
                   .shares = 1.0, .qosClass = QosClass::Normal},
        TenantSpec{.name = "web-api", .arrivalWeight = 0.10,
                   .shares = 1.0, .qosClass = QosClass::Interactive},
    };
}

/** A saturated fleet: departures too rare to keep up with arrivals,
 *  so the queue fills and high-class arrivals must preempt. */
FleetOptions
saturatedTenantOptions()
{
    FleetOptions opts = smallFleetOptions();
    opts.scenario.daySeconds = 2.0;
    opts.scenario.peakWindowStartSec = 0.75;
    opts.scenario.peakWindowEndSec = 1.5;
    opts.churn.departureProbability = 0.01;
    opts.churn.meanArrivalsPerQuantum = 6.0;
    opts.churn.maxPendingJobs = 12;
    opts.tenants = threeTenants();
    return opts;
}

TEST(FleetTest, TenantAccountingSumsMatchClusterCounters)
{
    SmallFleet f(saturatedTenantOptions());
    const FleetSummary s = f.fleet.run();
    expectCountersConserved(f.fleet, s);
    ASSERT_EQ(s.accounts.size(), 3u);
    std::size_t arrivals = 0, placements = 0, dropsNew = 0,
                dropsQueued = 0, won = 0, suffered = 0;
    for (const AccountSummary &a : s.accounts) {
        arrivals += a.arrivals;
        placements += a.placements;
        dropsNew += a.dropsNew;
        dropsQueued += a.dropsQueued;
        won += a.preemptionsWon;
        suffered += a.preemptionsSuffered;
    }
    // The ledger records every churned submission; the cluster
    // arrivals counter only the admitted ones.
    EXPECT_EQ(arrivals, s.arrivals + s.droppedArrivals);
    EXPECT_EQ(placements, s.placements);
    EXPECT_EQ(dropsNew, s.droppedArrivals);
    EXPECT_EQ(dropsQueued, s.droppedQueued);
    EXPECT_EQ(won, s.preemptions);
    EXPECT_EQ(suffered, s.preemptions);
}

TEST(FleetTest, SaturationDrivesPreemptionAndQueueDisplacement)
{
    SmallFleet f(saturatedTenantOptions());
    const FleetSummary s = f.fleet.run();
    // With 2 nodes x 8 slots, ~6 arrivals/quantum and almost no
    // departures, the fleet fills within a few quanta; interactive
    // arrivals must then evict batch jobs, and the capped queue must
    // displace stale batch entries rather than reject every newcomer.
    EXPECT_GT(s.preemptions, 0u);
    EXPECT_GT(s.droppedQueued, 0u);
    ASSERT_EQ(s.accounts.size(), 3u);
    // Class strictness: interactive never suffers, batch never wins.
    EXPECT_EQ(s.accounts[2].preemptionsSuffered, 0u);
    EXPECT_EQ(s.accounts[0].preemptionsWon, 0u);
    // The highest class should not be the one eating the drops.
    EXPECT_GT(s.accounts[0].arrivals, s.accounts[2].arrivals);
}

TEST(FleetTest, TenantFleetReplaysBitIdentically)
{
    telemetry::MemorySink sinkA, sinkB;
    FleetOptions opts = saturatedTenantOptions();
    opts.sink = &sinkA;
    SmallFleet a(opts);
    const FleetSummary sa = a.fleet.run();
    opts.sink = &sinkB;
    SmallFleet b(opts);
    const FleetSummary sb = b.fleet.run();
    EXPECT_EQ(sa.preemptions, sb.preemptions);
    EXPECT_EQ(sa.droppedQueued, sb.droppedQueued);
    const check::TraceDiff diff =
        check::diffDecisionTraces(sinkA.records(), sinkB.records());
    EXPECT_TRUE(diff.identical()) << diff.toString();
    // The tenancy groups (slot accounts, evicted victims) are part of
    // the compared surface, not skipped fields.
    bool sawAccounts = false;
    for (const telemetry::QuantumRecord &rec : sinkA.records())
        sawAccounts = sawAccounts || !rec.slotAccounts.empty();
    EXPECT_TRUE(sawAccounts);
}

TEST(FleetTest, SingleTenantFairShareDegeneratesToFifo)
{
    // With one uniform account every priority factor is job-
    // independent and age is monotone in the submit quantum, so the
    // fair-share queue is the strict FIFO queue: on a saturated day
    // the newcomer is always the worst-ranked entry and drops at the
    // cap, nothing queued is displaced, and nothing is preempted.
    // (CI replays the single-tenant fleet against the frozen
    // tests/data/fleet_ref_pr8.jsonl, recorded while this queue was
    // still checked bitwise against a separate FIFO code path.)
    FleetOptions opts = saturatedTenantOptions();
    opts.tenants.clear();
    SmallFleet f(opts);
    const FleetSummary s = f.fleet.run();
    EXPECT_EQ(s.preemptions, 0u);
    EXPECT_EQ(s.droppedQueued, 0u);
    EXPECT_GT(s.droppedArrivals, 0u);
    expectCountersConserved(f.fleet, s);
}

// ---------------------------------------------------------------------
// DAG workflows: the engine/cache/gravity path threaded through the
// fleet. Subsystem unit tests live in dag_test.cc; these pin the
// integration invariants and the bitwise-compatibility contracts.
// ---------------------------------------------------------------------

/** A small fleet with churned workflow arrivals and a day long
 *  enough for whole workflows to finish. */
FleetOptions
dagFleetOptions()
{
    FleetOptions opts = smallFleetOptions();
    opts.scenario.daySeconds = 2.0;
    opts.scenario.peakWindowStartSec = 0.75;
    opts.scenario.peakWindowEndSec = 1.5;
    opts.dag.enable = true;
    opts.dag.maxLiveWorkflows = 8;
    opts.churn.meanWorkflowArrivalsPerQuantum = 0.5;
    return opts;
}

TEST(FleetTest, DagAtRateZeroKeepsTheLegacyTraceBitwise)
{
    // dag.enable consumes its churn draws from dedicated counter
    // streams, so a dag-enabled fleet that happens to see no workflow
    // arrivals must reproduce the dag-disabled trace bit for bit —
    // the replay-safety property the stream split exists for.
    telemetry::MemorySink sinkLegacy, sinkDag;
    FleetOptions opts = smallFleetOptions();
    opts.sink = &sinkLegacy;
    SmallFleet legacy(opts);
    legacy.fleet.run();
    opts.dag.enable = true;
    opts.churn.meanWorkflowArrivalsPerQuantum = 0.0;
    opts.sink = &sinkDag;
    SmallFleet dag(opts);
    const FleetSummary s = dag.fleet.run();
    EXPECT_EQ(s.workflowsSubmitted, 0u);
    const check::TraceDiff diff = check::diffDecisionTraces(
        sinkLegacy.records(), sinkDag.records());
    EXPECT_TRUE(diff.identical()) << diff.toString();
}

TEST(FleetTest, DagFleetReplaysBitIdentically)
{
    telemetry::MemorySink sinkA, sinkB;
    FleetOptions opts = dagFleetOptions();
    opts.sink = &sinkA;
    SmallFleet a(opts);
    const FleetSummary sa = a.fleet.run();
    opts.sink = &sinkB;
    SmallFleet b(opts);
    const FleetSummary sb = b.fleet.run();
    EXPECT_EQ(sa.workflowsSubmitted, sb.workflowsSubmitted);
    EXPECT_EQ(sa.workflowsCompleted, sb.workflowsCompleted);
    EXPECT_EQ(sa.artifactHits, sb.artifactHits);
    const check::TraceDiff diff =
        check::diffDecisionTraces(sinkA.records(), sinkB.records());
    EXPECT_TRUE(diff.identical()) << diff.toString();
    // The dag groups (slot workflow ids, completions) are part of the
    // compared surface, not skipped fields.
    bool sawWorkflowSlots = false, sawCompletions = false;
    for (const telemetry::QuantumRecord &rec : sinkA.records()) {
        for (std::int64_t wf : rec.slotWorkflows)
            sawWorkflowSlots = sawWorkflowSlots || wf >= 0;
        sawCompletions =
            sawCompletions || !rec.completedWorkflows.empty();
    }
    EXPECT_TRUE(sawWorkflowSlots);
    EXPECT_TRUE(sawCompletions);
}

TEST(FleetTest, DagWorkflowCountersAreConsistent)
{
    SmallFleet f(dagFleetOptions());
    const FleetSummary s = f.fleet.run();
    expectCountersConserved(f.fleet, s);
    EXPECT_GT(s.workflowsSubmitted, 0u);
    EXPECT_GT(s.workflowsCompleted, 0u);
    EXPECT_GT(s.dagTasksCompleted, 0u);
    // Every submission is finished, dropped at the full pool, or
    // still live when the day ends.
    EXPECT_EQ(s.workflowsSubmitted,
              s.workflowsCompleted +
                  f.fleet.workflowEngine()->liveWorkflows());
    EXPECT_GT(s.gmeanMakespanQuanta, 0.0);
    EXPECT_GE(s.meanMakespanQuanta, s.gmeanMakespanQuanta);
    if (s.artifactHits + s.artifactMisses > 0) {
        EXPECT_DOUBLE_EQ(
            s.artifactHitRate,
            static_cast<double>(s.artifactHits) /
                static_cast<double>(s.artifactHits +
                                    s.artifactMisses));
    }
    // The ledger's per-account makespans aggregate to the cluster
    // counters (single anonymous account in this config).
    std::size_t accountWorkflows = 0;
    for (const AccountSummary &a : s.accounts)
        accountWorkflows += a.workflowsCompleted;
    EXPECT_EQ(accountWorkflows, s.workflowsCompleted);
}

TEST(FleetTest, SingleTaskWorkflowsMakeAwareMatchBlindBitwise)
{
    // Input-free tasks have no data gravity: with every workflow a
    // one-task DAG the locality-aware fleet must produce the
    // locality-blind trace bit for bit (the aware path only engages
    // on jobs that carry inputs).
    dag::WorkflowSpec single;
    single.name = "single";
    single.tasks.push_back({"work", {}, 16.0 * 1024.0 * 1024.0, 2, 2});

    telemetry::MemorySink sinkAware, sinkBlind;
    FleetOptions opts = dagFleetOptions();
    opts.dag.templates = {single};
    opts.dag.localityAware = true;
    opts.sink = &sinkAware;
    SmallFleet aware(opts);
    const FleetSummary sa = aware.fleet.run();
    opts.dag.localityAware = false;
    opts.sink = &sinkBlind;
    SmallFleet blind(opts);
    blind.fleet.run();
    EXPECT_GT(sa.workflowsCompleted, 0u);
    const check::TraceDiff diff = check::diffDecisionTraces(
        sinkAware.records(), sinkBlind.records());
    EXPECT_TRUE(diff.identical()) << diff.toString();
}

TEST(FleetTest, StepQuantumAdvancesOneQuantum)
{
    SmallFleet f;
    EXPECT_EQ(f.fleet.nextQuantum(), 0u);
    f.fleet.stepQuantum();
    EXPECT_EQ(f.fleet.nextQuantum(), 1u);
    for (std::size_t i = 0; i < f.fleet.numNodes(); ++i)
        EXPECT_EQ(f.fleet.node(i).nextSlice(), 1u);
    const FleetSummary s = f.fleet.summary();
    EXPECT_EQ(s.quanta, 1u);
}

} // namespace
} // namespace cluster
} // namespace cuttlesys
