/**
 * @file
 * The stability gate's invalidation matrix.
 *
 * Each test isolates one gate check and proves it independently
 * forces a full decision quantum: batch churn, offered-load drift,
 * the tail guard, a power-budget shift, the K-quantum forced refresh,
 * and the pending-yield (LC slack) override. The remaining tests pin
 * the telemetry contract: fast-reuse quanta stamp their decision path
 * and coast length, disabled fast path stamps nothing, and the
 * decision group survives a JSONL round trip.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

#include "common/logging.hh"
#include "core/cuttlesys.hh"
#include "sim/driver.hh"
#include "telemetry/trace_reader.hh"
#include "telemetry/trace_sink.hh"
#include "core_fixture.hh"

namespace cuttlesys {
namespace {

using telemetry::DecisionPath;
using telemetry::InvalidationReason;

DriverOptions
options(double cap, double load = 0.8, double duration = 2.0)
{
    DriverOptions opts;
    opts.durationSec = duration;
    opts.loadPattern = LoadPattern::constant(load);
    opts.powerPattern = LoadPattern::constant(cap);
    opts.maxPowerW = 150.0;
    return opts;
}

/**
 * Test-speed scheduler options with the forced refresh pushed out of
 * the way, so each test observes only the invalidation reason it
 * provokes (the gate checks Refresh before everything else).
 */
CuttleSysOptions
gateOptions()
{
    CuttleSysOptions opts = fastCuttleSysOptions();
    opts.fastPathRefreshQuanta = 64;
    return opts;
}

/** Traced colocation run; returns the sink's records. */
std::vector<telemetry::QuantumRecord>
tracedRun(std::uint64_t seed, const CuttleSysOptions &sched_opts,
          DriverOptions opts)
{
    const SystemParams params;
    MulticoreSim sim(params, makeTestMix(), seed);
    CuttleSysScheduler sched(params, testTrainingTables(0),
                             sim.mix().batch.size(),
                             sim.mix().lc.qosSeconds(), sched_opts);
    telemetry::MemorySink sink;
    opts.traceSink = &sink;
    runColocation(sim, sched, opts);
    return sink.records();
}

std::size_t
countPath(const std::vector<telemetry::QuantumRecord> &recs,
          DecisionPath path)
{
    std::size_t n = 0;
    for (const telemetry::QuantumRecord &r : recs)
        n += r.decisionPath == path ? 1 : 0;
    return n;
}

std::size_t
countReason(const std::vector<telemetry::QuantumRecord> &recs,
            InvalidationReason why)
{
    std::size_t n = 0;
    for (const telemetry::QuantumRecord &r : recs)
        n += r.invalidationReason == why ? 1 : 0;
    return n;
}

TEST(FastPathTest, SteadyStateCoastsOnFastReuse)
{
    const std::vector<telemetry::QuantumRecord> recs =
        tracedRun(51, gateOptions(), options(0.7, 0.45));
    ASSERT_FALSE(recs.empty());

    // Every quantum names its decision path, fast-reuse quanta carry
    // the coast length, and full quanta carry their reason.
    for (const telemetry::QuantumRecord &r : recs) {
        ASSERT_NE(r.decisionPath, DecisionPath::None)
            << "slice " << r.slice;
        if (r.decisionPath == DecisionPath::FastReuse) {
            EXPECT_EQ(r.invalidationReason, InvalidationReason::None);
            EXPECT_GE(r.quantaSinceFull, 1u);
        } else {
            EXPECT_NE(r.invalidationReason, InvalidationReason::None);
            EXPECT_EQ(r.quantaSinceFull, 0u);
        }
    }
    // Constant conditions: most of the day must coast.
    EXPECT_GT(countPath(recs, DecisionPath::FastReuse),
              recs.size() / 2);
    // Slice 0 has no cache and no feedback.
    EXPECT_EQ(recs.front().decisionPath, DecisionPath::Full);
    EXPECT_EQ(recs.front().invalidationReason,
              InvalidationReason::Cold);
}

TEST(FastPathTest, ChurnForcesFullQuantum)
{
    // A slot swap mid-run: the churned quantum must re-search (the
    // cached point prices a job that no longer exists).
    const WorkloadMix mix = makeTestMix();
    DriverOptions opts = options(0.7, 0.45);
    opts.jobEventHook = [&mix](std::size_t slice,
                               std::vector<JobEvent> &out) {
        if (slice == 12) {
            JobEvent ev;
            ev.slot = 3;
            ev.departure = true;
            ev.arrival = mix.batch[5];
            out.push_back(ev);
        }
    };
    const std::vector<telemetry::QuantumRecord> recs =
        tracedRun(52, gateOptions(), opts);
    ASSERT_GT(recs.size(), 12u);
    EXPECT_NE(recs[12].decisionPath, DecisionPath::FastReuse);
    EXPECT_EQ(recs[12].invalidationReason, InvalidationReason::Churn);
}

TEST(FastPathTest, LoadDriftForcesFullQuantum)
{
    // A mid-day load step well past the 20% drift band: the quantum
    // that observes it must fall off the fast path with LoadDrift.
    DriverOptions opts = options(0.7, 0.45);
    opts.loadPattern =
        LoadPattern::steps({{0.0, 0.45}, {1.0, 0.85}});
    const std::vector<telemetry::QuantumRecord> recs =
        tracedRun(53, gateOptions(), opts);
    EXPECT_GE(countReason(recs, InvalidationReason::LoadDrift), 1u);
    // The reverse check: before the step the fleet coasts.
    std::size_t early_fast = 0;
    for (const telemetry::QuantumRecord &r : recs) {
        if (r.slice < 10 &&
            r.decisionPath == DecisionPath::FastReuse)
            ++early_fast;
    }
    EXPECT_GE(early_fast, 1u);
}

TEST(FastPathTest, BudgetShiftForcesFullQuantum)
{
    // The rack re-split hands this node a different budget: past the
    // 5% band the cached decision's budgets are stale by definition.
    DriverOptions opts = options(0.7, 0.45);
    opts.powerPattern =
        LoadPattern::steps({{0.0, 0.7}, {1.0, 0.52}});
    const std::vector<telemetry::QuantumRecord> recs =
        tracedRun(54, gateOptions(), opts);
    EXPECT_GE(countReason(recs, InvalidationReason::BudgetShift), 1u);
}

TEST(FastPathTest, TailGuardForcesFullQuantum)
{
    // With the guard at zero, any observed tail grazes the floor:
    // once feedback exists the gate must never pass, so the whole
    // day runs full quanta — the guard alone suffices to kill reuse.
    CuttleSysOptions sched = gateOptions();
    sched.fastPathTailGuard = 0.0;
    const std::vector<telemetry::QuantumRecord> recs =
        tracedRun(55, sched, options(0.7, 0.45));
    EXPECT_EQ(countPath(recs, DecisionPath::FastReuse), 0u);
    EXPECT_GE(countReason(recs, InvalidationReason::TailFloor), 5u);
}

TEST(FastPathTest, RefreshCadenceBoundsCoasting)
{
    CuttleSysOptions sched = fastCuttleSysOptions();
    sched.fastPathRefreshQuanta = 4;
    const std::vector<telemetry::QuantumRecord> recs =
        tracedRun(56, sched, options(0.7, 0.45));
    std::size_t max_coast = 0;
    for (const telemetry::QuantumRecord &r : recs)
        max_coast = std::max(max_coast, r.quantaSinceFull);
    // K = 4 means at most 3 consecutive reused quanta.
    EXPECT_LE(max_coast, 3u);
    EXPECT_GE(countReason(recs, InvalidationReason::Refresh), 1u);
    EXPECT_GE(countPath(recs, DecisionPath::FastReuse), 1u);
}

TEST(FastPathTest, PendingYieldForcesFullQuantum)
{
    // Fig 8c's arc under the gate: overload relocates cores to the
    // LC service; when load collapses, the LcSlack override must keep
    // forcing full quanta until every relocated core is yielded back
    // — reuse would otherwise freeze the violation-time allocation.
    CuttleSysOptions sched = gateOptions();
    sched.initialLcCores = 16;
    DriverOptions opts = options(0.9);
    opts.durationSec = 2.0;
    opts.loadPattern = LoadPattern::steps({{0.0, 1.05}, {1.0, 0.2}});

    const SystemParams params;
    MulticoreSim sim(params, makeTestMix(), 38);
    CuttleSysScheduler scheduler(params, testTrainingTables(0),
                                 sim.mix().batch.size(),
                                 sim.mix().lc.qosSeconds(), sched);
    telemetry::MemorySink sink;
    opts.traceSink = &sink;
    runColocation(sim, scheduler, opts);

    EXPECT_EQ(scheduler.lcCores(), 16u);
    EXPECT_GE(countReason(sink.records(),
                          InvalidationReason::LcSlack), 1u);
}

TEST(FastPathTest, DisabledGateStampsNothing)
{
    CuttleSysOptions sched = fastCuttleSysOptions();
    sched.fastPath = false;
    const std::vector<telemetry::QuantumRecord> recs =
        tracedRun(57, sched, options(0.7, 0.45, 1.0));
    ASSERT_FALSE(recs.empty());
    for (const telemetry::QuantumRecord &r : recs) {
        EXPECT_EQ(r.decisionPath, DecisionPath::None);
        EXPECT_EQ(r.invalidationReason, InvalidationReason::None);
        EXPECT_EQ(r.quantaSinceFull, 0u);
    }
    // And the legacy JSONL shape is preserved: no decision group.
    EXPECT_EQ(telemetry::JsonlSink::toJson(recs.front())
                  .find("\"decision\""),
              std::string::npos);
}

TEST(FastPathTest, DecisionGroupSurvivesJsonlRoundTrip)
{
    const std::vector<telemetry::QuantumRecord> recs =
        tracedRun(58, gateOptions(), options(0.7, 0.45, 1.0));
    ASSERT_FALSE(recs.empty());

    std::ostringstream jsonl;
    for (const telemetry::QuantumRecord &r : recs)
        jsonl << telemetry::JsonlSink::toJson(r) << '\n';
    std::istringstream in(jsonl.str());
    const std::vector<telemetry::QuantumRecord> parsed =
        telemetry::readTrace(in);

    ASSERT_EQ(parsed.size(), recs.size());
    for (std::size_t i = 0; i < recs.size(); ++i) {
        EXPECT_EQ(parsed[i].decisionPath, recs[i].decisionPath);
        EXPECT_EQ(parsed[i].invalidationReason,
                  recs[i].invalidationReason);
        EXPECT_EQ(parsed[i].quantaSinceFull, recs[i].quantaSinceFull);
    }
}

} // namespace
} // namespace cuttlesys
