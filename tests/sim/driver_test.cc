/**
 * @file
 * Tests for the evaluation driver.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "baselines/no_gating.hh"
#include "common/logging.hh"
#include "sim/driver.hh"
#include "telemetry/trace_reader.hh"
#include "telemetry/trace_sink.hh"
#include "sim_fixture.hh"

namespace cuttlesys {
namespace {

/** Minimal test scheduler that records what it was shown. */
class RecordingScheduler : public Scheduler
{
  public:
    explicit RecordingScheduler(std::size_t batch_jobs)
        : batchJobs_(batch_jobs)
    {}

    std::string name() const override { return "recording"; }
    bool wantsProfiling() const override { return profiling; }
    bool usesReconfigurableCores() const override { return true; }

    SliceDecision
    decide(const SliceContext &ctx) override
    {
        contexts.push_back(ctx.sliceIndex);
        budgets.push_back(ctx.powerBudgetW);
        sawProfiles.push_back(!ctx.profiles.empty());
        sawPrevious.push_back(ctx.previous != nullptr);
        return allWideDecision(batchJobs_, lcCores);
    }

    void onJobChurn(std::size_t slot) override
    {
        churnSlots.push_back(slot);
    }

    bool profiling = true;
    std::size_t lcCores = 16;
    std::vector<std::size_t> contexts;
    std::vector<double> budgets;
    std::vector<bool> sawProfiles;
    std::vector<bool> sawPrevious;
    std::vector<std::size_t> churnSlots;

  private:
    std::size_t batchJobs_;
};

DriverOptions
basicOptions()
{
    DriverOptions opts;
    opts.durationSec = 0.5;
    opts.loadPattern = LoadPattern::constant(0.5);
    opts.powerPattern = LoadPattern::constant(0.7);
    opts.maxPowerW = 150.0;
    return opts;
}

TEST(DriverTest, RunsExpectedSliceCount)
{
    const SystemParams params;
    MulticoreSim sim(params, makeTestMix(), 1);
    RecordingScheduler sched(16);
    const RunResult result = runColocation(sim, sched, basicOptions());
    EXPECT_EQ(result.slices.size(), 5u);
    EXPECT_EQ(sched.contexts.size(), 5u);
    EXPECT_NEAR(sim.now(), 0.5, 1e-9);
}

TEST(DriverTest, ContextCarriesProfilesAndHistory)
{
    const SystemParams params;
    MulticoreSim sim(params, makeTestMix(), 2);
    RecordingScheduler sched(16);
    runColocation(sim, sched, basicOptions());
    EXPECT_TRUE(sched.sawProfiles[0]);
    EXPECT_FALSE(sched.sawPrevious[0]);
    for (std::size_t s = 1; s < 5; ++s) {
        EXPECT_TRUE(sched.sawProfiles[s]);
        EXPECT_TRUE(sched.sawPrevious[s]);
    }
}

TEST(DriverTest, BudgetFollowsPowerPattern)
{
    const SystemParams params;
    MulticoreSim sim(params, makeTestMix(), 3);
    RecordingScheduler sched(16);
    DriverOptions opts = basicOptions();
    opts.powerPattern =
        LoadPattern::steps({{0.0, 0.9}, {0.25, 0.6}});
    runColocation(sim, sched, opts);
    EXPECT_NEAR(sched.budgets[0], 0.9 * 150.0, 1e-9);
    EXPECT_NEAR(sched.budgets[4], 0.6 * 150.0, 1e-9);
}

TEST(DriverTest, SkipsProfilingWhenUnwanted)
{
    const SystemParams params;
    MulticoreSim sim(params, makeTestMix(), 4);
    RecordingScheduler sched(16);
    sched.profiling = false;
    const RunResult with_less = runColocation(sim, sched,
                                              basicOptions());
    EXPECT_FALSE(sched.sawProfiles[0]);
    EXPECT_GT(with_less.totalBatchInstructions, 0.0);
}

TEST(DriverTest, AggregatesInstructionsAcrossSlices)
{
    const SystemParams params;
    MulticoreSim sim(params, makeTestMix(), 5);
    RecordingScheduler sched(16);
    const RunResult result = runColocation(sim, sched, basicOptions());
    double sum = 0.0;
    for (const auto &slice : result.slices)
        sum += slice.measurement.batchInstructions;
    EXPECT_DOUBLE_EQ(result.totalBatchInstructions, sum);
    EXPECT_GT(result.meanPowerW, 0.0);
    EXPECT_GT(result.meanGmeanBips, 0.0);
}

TEST(DriverTest, CountsQosViolations)
{
    // Running everything narrow at near-saturation load must violate.
    const SystemParams params;
    MulticoreSim sim(params, makeTestMix(), 6);

    class NarrowScheduler : public Scheduler
    {
      public:
        std::string name() const override { return "narrow"; }
        bool wantsProfiling() const override { return false; }
        SliceDecision decide(const SliceContext &) override
        {
            SliceDecision d = allWideDecision(16);
            d.lcConfig = JobConfig(CoreConfig::narrowest(), 0);
            return d;
        }
    } sched;

    DriverOptions opts = basicOptions();
    opts.loadPattern = LoadPattern::constant(0.9);
    const RunResult result = runColocation(sim, sched, opts);
    EXPECT_GT(result.qosViolations, 2u);
}

TEST(DriverTest, GmeanFloorsGatedJobs)
{
    SliceMeasurement m;
    m.batchBips = {2.0, 0.0, 8.0};
    const double g = gmeanBatchBips(m, 1e-3);
    EXPECT_GT(g, 0.0);
    EXPECT_NEAR(g, std::cbrt(2.0 * 1e-3 * 8.0), 1e-12);
}

TEST(DriverTest, FirstSliceProfilingDerivesLcCoresFromMachine)
{
    // On an 8-core machine the first slice's profiling pass must use
    // numCores / 2 = 4 LC cores, not a hard-coded 16 (which does not
    // even fit the chip).
    SystemParams params;
    params.numCores = 8;
    MulticoreSim sim(params, makeTestMix(0, /*batch_jobs=*/4), 8);
    RecordingScheduler sched(4);
    sched.lcCores = 4;

    telemetry::MemorySink sink;
    DriverOptions opts = basicOptions();
    opts.traceSink = &sink;
    const RunResult result = runColocation(sim, sched, opts);

    ASSERT_EQ(sink.records().size(), result.slices.size());
    EXPECT_EQ(sink.records()[0].profiledLcCores, 4u);
    // Subsequent slices profile at the previous decision's count.
    for (std::size_t s = 1; s < sink.records().size(); ++s)
        EXPECT_EQ(sink.records()[s].profiledLcCores, 4u);
    EXPECT_EQ(result.traceSummary.records, result.slices.size());
}

TEST(DriverTest, InitialLcCoresOverrideIsHonored)
{
    const SystemParams params;
    MulticoreSim sim(params, makeTestMix(), 9);
    RecordingScheduler sched(16);

    telemetry::MemorySink sink;
    DriverOptions opts = basicOptions();
    opts.initialLcCores = 10;
    opts.traceSink = &sink;
    runColocation(sim, sched, opts);

    ASSERT_FALSE(sink.records().empty());
    EXPECT_EQ(sink.records()[0].profiledLcCores, 10u);
    EXPECT_EQ(sink.records()[1].profiledLcCores, 16u);
}

TEST(DriverTest, JsonlTraceCoversBaselines)
{
    const SystemParams params;
    MulticoreSim sim(params, makeTestMix(), 10);
    NoGatingScheduler sched(16, 16);

    std::ostringstream jsonl;
    telemetry::JsonlSink sink(jsonl);
    DriverOptions opts = basicOptions();
    opts.traceSink = &sink;
    const RunResult result = runColocation(sim, sched, opts);

    sink.flush();
    std::istringstream in(jsonl.str());
    const auto records = telemetry::readTrace(in);
    ASSERT_EQ(records.size(), result.slices.size());
    for (std::size_t s = 0; s < records.size(); ++s) {
        EXPECT_EQ(records[s].slice, s);
        EXPECT_EQ(records[s].lcPath,
                  telemetry::LcPath::StaticPolicy);
        EXPECT_EQ(records[s].scheduler, sched.name());
        EXPECT_GT(records[s].executedPowerW, 0.0);
        EXPECT_GT(records[s].phase(telemetry::Phase::Execute), 0.0);
    }
    EXPECT_EQ(result.traceSummary.pathCount(
                  telemetry::LcPath::StaticPolicy),
              records.size());
}

TEST(DriverTest, NoSinkLeavesSummaryEmpty)
{
    const SystemParams params;
    MulticoreSim sim(params, makeTestMix(), 11);
    RecordingScheduler sched(16);
    const RunResult result = runColocation(sim, sched, basicOptions());
    EXPECT_EQ(result.traceSummary.records, 0u);
}

TEST(DriverTest, RejectsUnsetMaxPower)
{
    const SystemParams params;
    MulticoreSim sim(params, makeTestMix(), 7);
    RecordingScheduler sched(16);
    DriverOptions opts = basicOptions();
    opts.maxPowerW = 0.0;
    EXPECT_THROW(runColocation(sim, sched, opts), PanicError);
}

TEST(DriverTest, QueuedJobEventsDriveChurn)
{
    const SystemParams params;
    MulticoreSim sim(params, makeTestMix(), 12);
    RecordingScheduler sched(16);
    ColocationRun run(sim, sched, basicOptions());
    // A job leaves slot 3 at slice 1 and a replacement arrives at
    // slice 3, queued between steps as the fleet controller does.
    while (!run.done()) {
        if (run.nextSlice() == 1) {
            JobEvent leave;
            leave.slot = 3;
            leave.departure = true;
            run.queueJobEvent(leave);
        } else if (run.nextSlice() == 3) {
            JobEvent arrive;
            arrive.slot = 3;
            arrive.arrival = splitSpecGallery().test[0];
            run.queueJobEvent(arrive);
        }
        run.step();
    }
    const RunResult &result = run.result();
    EXPECT_EQ(result.jobDepartures, 1u);
    EXPECT_EQ(result.jobArrivals, 1u);
    ASSERT_EQ(sched.churnSlots.size(), 2u);
    EXPECT_EQ(sched.churnSlots[0], 3u);
    EXPECT_EQ(sched.churnSlots[1], 3u);
    EXPECT_TRUE(sim.batchSlotOccupied(3));
}

TEST(DriverTest, QueuedDepartureVacatesTheSlot)
{
    const SystemParams params;
    MulticoreSim sim(params, makeTestMix(), 13);
    RecordingScheduler sched(16);
    ColocationRun run(sim, sched, basicOptions());
    EXPECT_TRUE(sim.batchSlotOccupied(5));
    JobEvent leave;
    leave.slot = 5;
    leave.departure = true;
    run.queueJobEvent(leave);
    // The event applies at the head of the next step, not eagerly.
    EXPECT_TRUE(sim.batchSlotOccupied(5));
    EXPECT_TRUE(sched.churnSlots.empty());
    run.step();
    EXPECT_FALSE(sim.batchSlotOccupied(5));
    EXPECT_EQ(run.result().jobDepartures, 1u);
    ASSERT_EQ(sched.churnSlots.size(), 1u);
    EXPECT_EQ(sched.churnSlots[0], 5u);
}

TEST(DriverTest, ArrivalRefillsAVacatedSlot)
{
    const SystemParams params;
    MulticoreSim sim(params, makeTestMix(), 14);
    RecordingScheduler sched(16);
    ColocationRun run(sim, sched, basicOptions());
    JobEvent leave;
    leave.slot = 2;
    leave.departure = true;
    run.queueJobEvent(leave);
    run.step();
    ASSERT_FALSE(sim.batchSlotOccupied(2));
    JobEvent arrive;
    arrive.slot = 2;
    arrive.arrival = splitSpecGallery().test[1];
    run.queueJobEvent(arrive);
    run.step();
    EXPECT_TRUE(sim.batchSlotOccupied(2));
    EXPECT_EQ(run.result().jobArrivals, 1u);
    EXPECT_EQ(run.result().jobDepartures, 1u);
}

TEST(DriverTest, PreemptionEvictsAndInstallsInOneEvent)
{
    // The fleet's preemption seam: one combined departure+arrival
    // event on an *occupied* slot swaps the tenant, fires onJobChurn
    // exactly once (the victim's learned CF state must drop), counts
    // as a preemption, and stamps both the new occupant's account and
    // the victim's account into the quantum record.
    const SystemParams params;
    MulticoreSim sim(params, makeTestMix(), 18);
    RecordingScheduler sched(16);
    telemetry::MemorySink sink;
    DriverOptions opts = basicOptions();
    opts.traceSink = &sink;
    ColocationRun run(sim, sched, opts);
    run.setSlotAccount(4, 1); // the sitting victim belongs to account 1
    run.step();
    ASSERT_TRUE(sim.batchSlotOccupied(4));

    JobEvent evict;
    evict.slot = 4;
    evict.departure = true;
    evict.arrival = splitSpecGallery().test[0];
    evict.account = 2;
    evict.preemption = true;
    run.queueJobEvent(evict);
    run.step();

    EXPECT_TRUE(sim.batchSlotOccupied(4));
    EXPECT_EQ(run.result().jobPreemptions, 1u);
    // One churn notification for the slot, not two.
    ASSERT_EQ(sched.churnSlots.size(), 1u);
    EXPECT_EQ(sched.churnSlots[0], 4u);
    EXPECT_EQ(run.slotAccounts()[4], 2);

    ASSERT_EQ(sink.records().size(), 2u);
    const telemetry::QuantumRecord &before = sink.records()[0];
    const telemetry::QuantumRecord &after = sink.records()[1];
    ASSERT_GT(before.slotAccounts.size(), 4u);
    EXPECT_EQ(before.slotAccounts[4], 1);
    EXPECT_TRUE(before.preemptedAccounts.empty());
    EXPECT_EQ(after.slotAccounts[4], 2);
    ASSERT_EQ(after.preemptedAccounts.size(), 1u);
    EXPECT_EQ(after.preemptedAccounts[0], 1);
}

TEST(DriverTest, NextQuantumOverridesApplyOnce)
{
    const SystemParams params;
    MulticoreSim sim(params, makeTestMix(), 15);
    RecordingScheduler sched(16);
    ColocationRun run(sim, sched, basicOptions());
    run.overrideLoadFraction(0.9);
    run.overridePowerBudgetW(42.0);
    run.step();
    EXPECT_NEAR(run.lastLoadFraction(), 0.9, 1e-9);
    EXPECT_NEAR(run.lastPowerBudgetW(), 42.0, 1e-9);
    // The next quantum falls back to the configured patterns.
    run.step();
    EXPECT_NEAR(run.lastLoadFraction(), 0.5, 1e-9);
    EXPECT_NEAR(run.lastPowerBudgetW(), 0.7 * 150.0, 1e-9);
}

TEST(DriverTest, NodeIndexStampsEveryTraceRecord)
{
    const SystemParams params;
    MulticoreSim sim(params, makeTestMix(), 16);
    RecordingScheduler sched(16);
    telemetry::MemorySink sink;
    DriverOptions opts = basicOptions();
    opts.traceSink = &sink;
    opts.nodeIndex = 5;
    runColocation(sim, sched, opts);
    ASSERT_EQ(sink.records().size(), 5u);
    for (const telemetry::QuantumRecord &rec : sink.records())
        EXPECT_EQ(rec.node, 5u);
}

TEST(DriverTest, AggregatesWithoutKeepingSliceRecords)
{
    const SystemParams params;
    MulticoreSim sim(params, makeTestMix(), 17);
    RecordingScheduler sched(16);
    DriverOptions opts = basicOptions();
    opts.keepSliceRecords = false;
    const RunResult result = runColocation(sim, sched, opts);
    EXPECT_TRUE(result.slices.empty());
    EXPECT_GT(result.totalBatchInstructions, 0.0);
    EXPECT_GT(result.meanGmeanBips, 0.0);
}

} // namespace
} // namespace cuttlesys
