/**
 * @file
 * Tests for the CuttleSys runtime.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <sstream>
#include <vector>

#include "common/logging.hh"
#include "core/cuttlesys.hh"
#include "power/power_model.hh"
#include "sim/ground_truth.hh"
#include "sim/driver.hh"
#include "telemetry/trace_reader.hh"
#include "telemetry/trace_sink.hh"
#include "core_fixture.hh"

namespace cuttlesys {
namespace {

DriverOptions
options(double cap, double load = 0.8, double duration = 0.8)
{
    DriverOptions opts;
    opts.durationSec = duration;
    opts.loadPattern = LoadPattern::constant(load);
    opts.powerPattern = LoadPattern::constant(cap);
    opts.maxPowerW = 150.0;
    return opts;
}

CuttleSysScheduler
makeScheduler(const WorkloadMix &mix, const SystemParams &params)
{
    return CuttleSysScheduler(params, testTrainingTables(0),
                              mix.batch.size(), mix.lc.qosSeconds(),
                              fastCuttleSysOptions());
}

TEST(CuttleSysTest, ColdStartIsSafe)
{
    const SystemParams params;
    const WorkloadMix mix = makeTestMix();
    auto sched = makeScheduler(mix, params);

    SliceContext ctx;
    ctx.powerBudgetW = 100.0;
    ctx.lcQosSec = mix.lc.qosSeconds();
    const SliceDecision d = sched.decide(ctx);
    // No latency history yet: LC must run in the safest config.
    EXPECT_EQ(d.lcConfig.core(), CoreConfig::widest());
    EXPECT_DOUBLE_EQ(d.lcConfig.cacheWays(), 4.0);
    EXPECT_TRUE(d.reconfigurable);
    EXPECT_EQ(d.batchConfigs.size(), 16u);
}

TEST(CuttleSysTest, MeetsQosAtHighLoad)
{
    const SystemParams params;
    MulticoreSim sim(params, makeTestMix(), 31);
    auto sched = makeScheduler(sim.mix(), params);
    const RunResult r = runColocation(sim, sched, options(0.7));
    // The paper: QoS satisfied at all times. Our runtime must learn
    // the live service's load level from scratch (the paper's
    // training covers it), so allow a 3-slice warm-up.
    std::size_t late_violations = 0;
    for (std::size_t s = 3; s < r.slices.size(); ++s)
        late_violations += r.slices[s].qosViolated ? 1 : 0;
    EXPECT_EQ(late_violations, 0u);
}

TEST(CuttleSysTest, StaysNearPowerBudget)
{
    const SystemParams params;
    MulticoreSim sim(params, makeTestMix(), 32);
    auto sched = makeScheduler(sim.mix(), params);
    const RunResult r = runColocation(sim, sched, options(0.7));
    for (std::size_t s = 2; s < r.slices.size(); ++s) {
        EXPECT_LT(r.slices[s].measurement.totalPower,
                  0.7 * 150.0 * 1.15)
            << "slice " << s;
    }
}

TEST(CuttleSysTest, LowLoadUsesCheaperLcConfigThanHighLoad)
{
    const SystemParams params;
    MulticoreSim low_sim(params, makeTestMix(), 33);
    MulticoreSim high_sim(params, makeTestMix(), 33);
    auto low_sched = makeScheduler(low_sim.mix(), params);
    auto high_sched = makeScheduler(high_sim.mix(), params);
    const RunResult low =
        runColocation(low_sim, low_sched, options(0.7, 0.2));
    const RunResult high =
        runColocation(high_sim, high_sched, options(0.7, 0.9));
    // Compare the LC core power draw implied by the chosen configs.
    const auto &low_cfg = low.slices.back().decision.lcConfig;
    const auto &high_cfg = high.slices.back().decision.lcConfig;
    EXPECT_LE(coreStaticPower(low_cfg.core()),
              coreStaticPower(high_cfg.core()));
}

TEST(CuttleSysTest, CapEnforcementGatesWhenBudgetTiny)
{
    const SystemParams params;
    MulticoreSim sim(params, makeTestMix(), 34);
    auto sched = makeScheduler(sim.mix(), params);
    const RunResult r = runColocation(sim, sched, options(0.45));
    std::size_t gated = 0;
    for (bool on : r.slices.back().decision.batchActive)
        gated += on ? 0 : 1;
    // At a 45% cap some batch cores must be off or everything is in
    // the lowest configurations; either way power is under control.
    EXPECT_LT(r.slices.back().measurement.totalPower,
              0.45 * 150.0 * 1.2);
    (void)gated;
}

TEST(CuttleSysTest, PredictionsExposedForAccuracyStudies)
{
    const SystemParams params;
    MulticoreSim sim(params, makeTestMix(), 35);
    auto sched = makeScheduler(sim.mix(), params);
    runColocation(sim, sched, options(0.7, 0.8, 0.3));
    EXPECT_EQ(sched.lastBipsPrediction().rows(), 17u); // LC + batch
    EXPECT_EQ(sched.lastBipsPrediction().cols(), kNumJobConfigs);
    EXPECT_EQ(sched.lastPowerPrediction().rows(), 17u);
    EXPECT_EQ(sched.lastLatencyPrediction().rows(), 1u);
    // Predictions are physical quantities.
    for (std::size_t c = 0; c < kNumJobConfigs; ++c) {
        EXPECT_GE(sched.lastBipsPrediction()(0, c), 0.0);
        EXPECT_GE(sched.lastPowerPrediction()(0, c), 0.0);
        EXPECT_GE(sched.lastLatencyPrediction()(0, c), 0.0);
    }
}

TEST(CuttleSysTest, BatchPredictionsTrackMeasurements)
{
    // Fig 5b semantics: compare the prediction made before a slice to
    // what the slice then measured at the chosen configurations.
    const SystemParams params;
    MulticoreSim sim(params, makeTestMix(), 36);
    auto sched = makeScheduler(sim.mix(), params);
    const RunResult r = runColocation(sim, sched,
                                      options(0.7, 0.8, 0.5));

    const auto &last = r.slices.back();
    std::vector<double> errors;
    for (std::size_t j = 0; j < 16; ++j) {
        if (!last.decision.batchActive[j] ||
            last.measurement.batchBips[j] <= 0.0)
            continue;
        const std::size_t c = last.decision.batchConfigs[j].index();
        errors.push_back(
            std::abs(sched.lastBipsPrediction()(1 + j, c) -
                     last.measurement.batchBips[j]) /
            last.measurement.batchBips[j]);
    }
    ASSERT_GT(errors.size(), 4u);
    std::sort(errors.begin(), errors.end());
    EXPECT_LT(errors[errors.size() / 2], 0.15)
        << "median batch-BIPS prediction error vs measurement";
}

TEST(CuttleSysTest, PredictionsPreserveConfigOrdering)
{
    // Even where absolute error exists, predictions must rank the
    // widest configuration above the narrowest for every batch job.
    const SystemParams params;
    MulticoreSim sim(params, makeTestMix(), 39);
    auto sched = makeScheduler(sim.mix(), params);
    runColocation(sim, sched, options(0.7, 0.8, 0.4));
    const std::size_t wide = JobConfig(CoreConfig::widest(), 1).index();
    const std::size_t narrow =
        JobConfig(CoreConfig::narrowest(), 1).index();
    std::size_t ordered = 0;
    for (std::size_t j = 0; j < 16; ++j) {
        ordered += sched.lastBipsPrediction()(1 + j, wide) >
                   sched.lastBipsPrediction()(1 + j, narrow) ? 1 : 0;
    }
    EXPECT_GE(ordered, 15u);
}

TEST(CuttleSysTest, RelocatesCoresWhenQosUnreachable)
{
    // Make QoS unreachable at the initial core count by doubling the
    // offered work: the scheduler must reclaim cores.
    const SystemParams params;
    WorkloadMix mix = makeTestMix();
    mix.lc.maxQps *= 1.6; // driver loads become >100% of true knee
    MulticoreSim sim(params, mix, 37);
    CuttleSysScheduler sched(params, testTrainingTables(0),
                             mix.batch.size(), mix.lc.qosSeconds(),
                             fastCuttleSysOptions());
    const RunResult r = runColocation(sim, sched, options(0.9, 0.95,
                                                          1.2));
    EXPECT_GT(sched.lcCores(), 16u)
        << "scheduler should have reclaimed cores for the LC app";
    std::size_t max_cores = 0;
    for (const auto &slice : r.slices)
        max_cores = std::max(max_cores, slice.decision.lcCores);
    EXPECT_GT(max_cores, 16u);
}

TEST(CuttleSysTest, YieldsCoresBackWhenSlackReturns)
{
    const SystemParams params;
    WorkloadMix mix = makeTestMix();
    MulticoreSim sim(params, mix, 38);
    CuttleSysOptions opts = fastCuttleSysOptions();
    opts.initialLcCores = 16;
    CuttleSysScheduler sched(params, testTrainingTables(0),
                             mix.batch.size(), mix.lc.qosSeconds(),
                             opts);
    // High load then low load (Fig 8c's arc).
    DriverOptions dopts = options(0.9);
    dopts.durationSec = 2.0;
    dopts.loadPattern = LoadPattern::steps({{0.0, 1.05}, {1.0, 0.2}});
    runColocation(sim, sched, dopts);
    EXPECT_EQ(sched.lcCores(), 16u)
        << "relocated cores must be yielded back at low load";
}

// --- telemetry-backed regression tests -------------------------------

/** A measurement that looks like a healthy, well-sampled slice. */
SliceMeasurement
lcMeasurement(double tail_sec, std::size_t completed, double util)
{
    SliceMeasurement m;
    m.lcTailLatency = tail_sec;
    m.lcCompleted = completed;
    m.lcUtilization = util;
    m.lcPower = 20.0;
    m.batchBips.assign(16, 1.0);
    m.batchPower.assign(16, 1.0);
    return m;
}

SliceContext
contextWith(const SliceMeasurement &m, const SliceDecision &d,
            double qos_sec, std::size_t slice)
{
    SliceContext ctx;
    ctx.sliceIndex = slice;
    ctx.timeSec = static_cast<double>(slice) * 0.1;
    ctx.powerBudgetW = 100.0;
    ctx.lcQosSec = qos_sec;
    ctx.previous = &m;
    ctx.previousDecision = &d;
    return ctx;
}

TEST(CuttleSysTest, IngestIgnoresTailBelowSampleFloor)
{
    // A 5-request p99 above QoS is noise, not a violation: it must
    // not mark the next slice as a polluted drain slice, or the next
    // valid measurement gets dropped from the latency history.
    const SystemParams params;
    const WorkloadMix mix = makeTestMix();
    const double qos = mix.lc.qosSeconds();
    auto sched = makeScheduler(mix, params);
    telemetry::QuantumTrace trace;
    sched.attachTrace(&trace);

    SliceDecision prev = allWideDecision(mix.batch.size());
    prev.lcConfig = JobConfig(CoreConfig::widest(),
                              kNumCacheAllocs - 1);

    const SliceMeasurement noisy =
        lcMeasurement(2.0 * qos, /*completed=*/5, /*util=*/0.5);
    trace.begin(1, 0.1);
    sched.decide(contextWith(noisy, prev, qos, 1));
    EXPECT_FALSE(trace.record().tailObserved)
        << "a sub-floor sample must not enter the latency history";
    trace.end();

    const SliceMeasurement valid =
        lcMeasurement(0.5 * qos, /*completed=*/200, /*util=*/0.6);
    trace.begin(2, 0.2);
    sched.decide(contextWith(valid, prev, qos, 2));
    EXPECT_FALSE(trace.record().pollutedSlice)
        << "the noisy sub-floor tail must not poison the next slice";
    EXPECT_TRUE(trace.record().tailObserved);
    trace.end();
    sched.attachTrace(nullptr);
}

TEST(CuttleSysTest, TraceRecordsRelocateAndYieldDeltas)
{
    const SystemParams params;
    const WorkloadMix mix = makeTestMix();
    const double qos = mix.lc.qosSeconds();
    CuttleSysOptions opts = fastCuttleSysOptions();
    opts.initialLcCores = 16;
    CuttleSysScheduler sched(params, testTrainingTables(0),
                             mix.batch.size(), qos, opts);
    telemetry::QuantumTrace trace;
    sched.attachTrace(&trace);

    SliceDecision prev = allWideDecision(mix.batch.size());
    prev.lcConfig = JobConfig(CoreConfig::widest(),
                              kNumCacheAllocs - 1);

    // Saturated violation on the safest configuration: relocation.
    const SliceMeasurement overload =
        lcMeasurement(2.0 * qos, /*completed=*/200, /*util=*/0.99);
    trace.begin(1, 0.1);
    sched.decide(contextWith(overload, prev, qos, 1));
    EXPECT_EQ(trace.record().lcPath,
              telemetry::LcPath::ViolationRelocate);
    EXPECT_EQ(trace.record().lcCoreDelta, 1);
    EXPECT_EQ(trace.record().lcCores, 17u);
    trace.end();
    EXPECT_EQ(sched.lcCores(), 17u);

    // Comfortable slack (tail <= QoS * (1 - qosSlack)): yield.
    prev.lcCores = 17;
    const SliceMeasurement relaxed =
        lcMeasurement(0.5 * qos, /*completed=*/200, /*util=*/0.4);
    trace.begin(2, 0.2);
    sched.decide(contextWith(relaxed, prev, qos, 2));
    EXPECT_EQ(trace.record().lcCoreDelta, -1);
    EXPECT_EQ(trace.record().lcCores, 16u);
    trace.end();
    EXPECT_EQ(sched.lcCores(), 16u);

    const telemetry::RunSummary &sum = trace.summary();
    EXPECT_EQ(sum.relocations, 1u);
    EXPECT_EQ(sum.yields, 1u);
    sched.attachTrace(nullptr);
}

TEST(CuttleSysTest, JsonlTraceHasOneParseableRecordPerSlice)
{
    const SystemParams params;
    MulticoreSim sim(params, makeTestMix(), 39);
    auto sched = makeScheduler(sim.mix(), params);

    std::ostringstream jsonl;
    telemetry::JsonlSink sink(jsonl);
    DriverOptions dopts = options(0.7, 0.8, 0.5);
    dopts.traceSink = &sink;
    const RunResult r = runColocation(sim, sched, dopts);

    sink.flush();
    std::istringstream in(jsonl.str());
    const std::vector<telemetry::QuantumRecord> records =
        telemetry::readTrace(in);
    ASSERT_EQ(records.size(), r.slices.size());
    EXPECT_EQ(r.traceSummary.records, r.slices.size());
    for (std::size_t s = 0; s < records.size(); ++s) {
        const telemetry::QuantumRecord &rec = records[s];
        EXPECT_EQ(rec.slice, s);
        EXPECT_EQ(rec.scheduler, "CuttleSys");
        // Every quantum must name the LC feasibility path that fired.
        EXPECT_NE(rec.lcPath, telemetry::LcPath::None) << "slice " << s;
        EXPECT_NE(rec.lcPath, telemetry::LcPath::StaticPolicy);
        EXPECT_FALSE(rec.lcConfigName.empty());
        EXPECT_GT(rec.searchEvaluations, 0u);
        EXPECT_GT(rec.phase(telemetry::Phase::Search), 0.0);
        EXPECT_GT(rec.phase(telemetry::Phase::Execute), 0.0);
        EXPECT_GT(rec.executedPowerW, 0.0);
    }
    // Slice 0 has no history: the trace must show the cold start.
    EXPECT_EQ(records[0].lcPath, telemetry::LcPath::ColdStart);
}

/** Bitwise factor check after a churn of live row @p live. */
void
expectOnlyRowReset(const CfEngine &engine, const SgdFactors &before,
                   std::size_t live)
{
    EXPECT_TRUE(engine.hasCachedFactors());
    const SgdFactors &after = engine.factors();
    ASSERT_EQ(after.rows, before.rows);
    ASSERT_EQ(after.stride, before.stride);
    ASSERT_EQ(after.p.size(), before.p.size());
    EXPECT_EQ(std::memcmp(after.p.data(), before.p.data(),
                          before.p.size() * sizeof(double)),
              0);
    const std::size_t churned = after.rows - engine.numJobs() + live;
    const std::vector<double> zeros(after.stride, 0.0);
    for (std::size_t r = 0; r < after.rows; ++r) {
        const double *expected =
            r == churned ? zeros.data() : before.qRow(r);
        EXPECT_EQ(std::memcmp(after.qRow(r), expected,
                              after.stride * sizeof(double)),
                  0)
            << "q row " << r;
    }
}

TEST(CuttleSysTest, JobChurnClearsLearnedStateForTheSlot)
{
    const SystemParams params;
    MulticoreSim sim(params, makeTestMix(), 33);
    auto sched = makeScheduler(sim.mix(), params);
    runColocation(sim, sched, options(0.7, 0.5, 0.5));

    // A few quanta of ingest: the churned slot's live rows hold real
    // observations and the SGD warm-start cache is populated.
    const std::size_t slot = 4;
    const std::size_t live = 1 + slot; // row 0 is the LC service
    ASSERT_GT(sched.bipsEngine().observationsForJob(live), 0u);
    ASSERT_GT(sched.powerEngine().observationsForJob(live), 0u);
    ASSERT_TRUE(sched.bipsEngine().hasCachedFactors());
    ASSERT_TRUE(sched.powerEngine().hasCachedFactors());
    const SgdFactors bips_before = sched.bipsEngine().factors();
    const SgdFactors power_before = sched.powerEngine().factors();

    sched.onJobChurn(slot);

    // The departed job's observations and latent row are gone; P and
    // every other row's factors stay cached as the warm start.
    EXPECT_EQ(sched.bipsEngine().observationsForJob(live), 0u);
    EXPECT_EQ(sched.powerEngine().observationsForJob(live), 0u);
    expectOnlyRowReset(sched.bipsEngine(), bips_before, live);
    expectOnlyRowReset(sched.powerEngine(), power_before, live);

    // Untouched slots keep their history.
    EXPECT_GT(sched.bipsEngine().observationsForJob(1 + 5), 0u);

    sched.onJobChurn(slot); // idempotent on an already-cleared slot
    EXPECT_EQ(sched.bipsEngine().observationsForJob(live), 0u);
    expectOnlyRowReset(sched.bipsEngine(), bips_before, live);

    // The churn forces a full quantum, and its reconstructions
    // warm-start.
    SliceContext ctx;
    ctx.powerBudgetW = 100.0;
    ctx.lcQosSec = sim.mix().lc.qosSeconds();
    sched.decide(ctx);
    EXPECT_FALSE(sched.bipsEngine().lastColdStart());
    EXPECT_FALSE(sched.powerEngine().lastColdStart());
    EXPECT_GE(sched.bipsEngine().lastIterations(), 1u);
}

/**
 * Mean relative error of row @p job of @p pred against @p truth over
 * the cells @p measured does not mark.
 */
double
unmeasuredError(const Matrix &pred, std::size_t job, const double *truth,
                const std::vector<char> &measured)
{
    double sum = 0.0;
    std::size_t n = 0;
    for (std::size_t c = 0; c < pred.cols(); ++c) {
        if (measured[c])
            continue;
        sum += std::abs(pred(job, c) - truth[c]) / truth[c];
        ++n;
    }
    return n ? sum / static_cast<double>(n) : 0.0;
}

TEST(CuttleSysTest, ChurnResetPredictsNoWorseThanColdStart)
{
    // clearJob keeps P and the other rows' factors and zeroes only the
    // churned row; invalidateFactors() instead re-runs the cold start
    // (random + Jacobi-SVD initialization) over the same matrix. The
    // replacement job gains one measured cell per quantum on top of
    // its two profiling samples; once it holds rowBlendThreshold of
    // them the fold-in reads the factors (before that both arms take
    // the neighbourhood blend and agree). Over ten seeds, the warm
    // reset's predictions of its unmeasured cells must be as accurate
    // as the cold start's: a mean relative error at most kTolerance
    // (relative) above the cold arm's. Seed by seed the two arms
    // differ by a few percent either way.
    constexpr double kTolerance = 0.02;
    constexpr std::size_t kLive = 16;
    constexpr std::size_t kWarmUpQuanta = 8;
    constexpr std::size_t kChurnQuanta = 12;
    const SystemParams params;
    const std::vector<AppProfile> &apps = splitSpecGallery().test;
    const BatchTruth truth = batchTruthTables(apps, params);
    const CuttleSysOptions shipped;

    double warm_err = 0.0, cold_err = 0.0;
    std::size_t scored = 0;
    for (std::uint64_t seed = 1; seed <= 10; ++seed) {
        Rng rng(seed);
        auto pickApp = [&] {
            return static_cast<std::size_t>(rng.uniformInt(
                0, static_cast<std::int64_t>(apps.size()) - 1));
        };
        std::vector<std::size_t> app(kLive);
        for (std::size_t &a : app)
            a = pickApp();
        CfEngine warm(testTrainingTables().bips, kLive, kNumJobConfigs,
                      shipped.sgdBips);
        const std::size_t slot = seed % kLive;
        std::vector<char> measured(kNumJobConfigs, 0);
        // One quantum of ingest: the two profiling samples plus one
        // steady-state measurement per live job, with 1% measurement
        // noise.
        auto ingest = [&](std::vector<CfEngine *> engines) {
            for (std::size_t j = 0; j < kLive; ++j) {
                const double *row = truth.bips.rowPtr(app[j]);
                const auto cfg = static_cast<std::size_t>(
                    rng.uniformInt(
                        1, static_cast<std::int64_t>(kNumJobConfigs) - 2));
                for (std::size_t c : {std::size_t{0}, cfg,
                                      kNumJobConfigs - 1}) {
                    const double v =
                        row[c] * (1.0 + rng.normal(0.0, 0.01));
                    for (CfEngine *e : engines)
                        e->observe(j, c, v);
                    if (j == slot)
                        measured[c] = 1;
                }
            }
        };
        for (std::size_t q = 0; q < kWarmUpQuanta; ++q) {
            ingest({&warm});
            warm.predict();
        }

        app[slot] = pickApp();
        warm.clearJob(slot);
        std::fill(measured.begin(), measured.end(), 0);
        CfEngine cold = warm;
        cold.invalidateFactors();
        for (std::size_t q = 0; q < kChurnQuanta; ++q) {
            ingest({&warm, &cold});
            const Matrix warm_pred = warm.predict();
            const Matrix cold_pred = cold.predict();
            if (warm.observationsForJob(slot) <
                shipped.sgdBips.rowBlendThreshold)
                continue;
            const double *row = truth.bips.rowPtr(app[slot]);
            warm_err += unmeasuredError(warm_pred, slot, row, measured);
            cold_err += unmeasuredError(cold_pred, slot, row, measured);
            ++scored;
        }
    }
    ASSERT_GT(scored, 0u);
    warm_err /= static_cast<double>(scored);
    cold_err /= static_cast<double>(scored);
    RecordProperty("warm_mean_rel_err", std::to_string(warm_err));
    RecordProperty("cold_mean_rel_err", std::to_string(cold_err));
    EXPECT_LE(warm_err, cold_err * (1.0 + kTolerance))
        << "warm reset " << warm_err << " vs cold start " << cold_err;
}

TEST(CuttleSysTest, ConstructorValidation)
{
    const SystemParams params;
    EXPECT_THROW(CuttleSysScheduler(params, testTrainingTables(0), 0,
                                    0.01),
                 PanicError);
    EXPECT_THROW(CuttleSysScheduler(params, testTrainingTables(0), 4,
                                    0.0),
                 PanicError);
}

} // namespace
} // namespace cuttlesys
