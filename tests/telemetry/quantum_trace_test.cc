/**
 * @file
 * Tests for the per-quantum trace: lifecycle, summary aggregation,
 * sink emission, and the JSONL round-trip through the reader.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "common/logging.hh"
#include "telemetry/quantum_trace.hh"
#include "telemetry/trace_reader.hh"
#include "telemetry/trace_sink.hh"

namespace cuttlesys {
namespace telemetry {
namespace {

/** A record with every field set to a distinctive value. */
QuantumRecord
fullRecord()
{
    QuantumRecord rec;
    rec.slice = 42;
    rec.timeSec = 4.2;
    rec.scheduler = "CuttleSys \"test\"\n";
    rec.loadFraction = 0.75;
    rec.powerBudgetW = 105.5;
    rec.profiledLcCores = 16;
    rec.measuredTailSec = 0.005;
    rec.measuredUtil = 0.875;
    rec.measuredCompleted = 321;
    rec.measuredViolation = true;
    rec.tailObserved = true;
    rec.pollutedSlice = true;
    rec.lcPath = LcPath::QueueFeasible;
    rec.lcConfigIndex = 63;
    rec.lcConfigName = "{4,4,6}/2w";
    rec.lcCores = 17;
    rec.lcCoreDelta = -1;
    rec.scanSaturated = 19;
    rec.chosenCfFeasible = false;
    rec.chosenQueueFeasible = true;
    rec.batchPowerBudgetW = 44.5;
    rec.cacheBudgetWays = 26.0;
    rec.seedWays = 25.5;
    rec.seedRepaired = true;
    rec.searchEvaluations = 3251;
    rec.searchObjective = 5.125;
    rec.searchPowerW = 44.25;
    rec.searchWays = 24.5;
    rec.capVictims = {3, 1, 7};
    rec.reclaimedWays = 10.5;
    rec.executedTailSec = 0.0045;
    rec.executedPowerW = 91.5;
    rec.qosViolated = true;
    rec.gmeanBips = 5.625;
    rec.sgdEpochs = {14, 3, 27};
    rec.coldStarts = {true, false, true};
    rec.foldInSolves = {19, 18, 4};
    for (std::size_t p = 0; p < kNumPhases; ++p)
        rec.phaseSec[p] = 0.001 * static_cast<double>(p + 1);
    return rec;
}

TEST(QuantumTraceTest, BeginResetsTheRecord)
{
    QuantumTrace trace;
    trace.begin(0, 0.0);
    trace.record() = fullRecord();
    trace.end();

    trace.begin(7, 0.7);
    const QuantumRecord &rec = trace.record();
    EXPECT_EQ(rec.slice, 7u);
    EXPECT_DOUBLE_EQ(rec.timeSec, 0.7);
    EXPECT_EQ(rec.lcPath, LcPath::None);
    EXPECT_TRUE(rec.capVictims.empty());
    EXPECT_FALSE(rec.seedRepaired);
    EXPECT_DOUBLE_EQ(rec.phase(Phase::Search), 0.0);
}

TEST(QuantumTraceTest, SummaryAggregatesRecords)
{
    QuantumTrace trace;

    trace.begin(0, 0.0);
    trace.record().lcPath = LcPath::ColdStart;
    trace.end();

    trace.begin(1, 0.1);
    trace.record().lcPath = LcPath::ViolationRelocate;
    trace.record().lcCoreDelta = 1;
    trace.record().qosViolated = true;
    trace.end();

    trace.begin(2, 0.2);
    trace.record().lcPath = LcPath::CfFeasible;
    trace.record().lcCoreDelta = -1;
    trace.record().tailObserved = true;
    trace.record().capVictims = {5};
    trace.record().reclaimedWays = 3.5;
    trace.record().phaseSec[static_cast<std::size_t>(Phase::Search)] =
        0.002;
    trace.end();

    const RunSummary &sum = trace.summary();
    EXPECT_EQ(sum.records, 3u);
    EXPECT_EQ(sum.pathCount(LcPath::ColdStart), 1u);
    EXPECT_EQ(sum.pathCount(LcPath::ViolationRelocate), 1u);
    EXPECT_EQ(sum.pathCount(LcPath::CfFeasible), 1u);
    EXPECT_EQ(sum.pathCount(LcPath::StaticPolicy), 0u);
    EXPECT_EQ(sum.relocations, 1u);
    EXPECT_EQ(sum.yields, 1u);
    EXPECT_EQ(sum.gatedSlices, 1u);
    EXPECT_EQ(sum.tailObservations, 1u);
    EXPECT_EQ(sum.qosViolations, 1u);
    EXPECT_DOUBLE_EQ(sum.reclaimedWays, 3.5);
    const auto &search_ms = sum.phaseSec[
        static_cast<std::size_t>(Phase::Search)];
    EXPECT_EQ(search_ms.count(), 1u);

    const StatsRegistry &reg = trace.registry();
    EXPECT_EQ(reg.counterValue("quantum.records"), 3u);
    EXPECT_EQ(reg.counterValue("lc.path.cold-start"), 1u);
    EXPECT_EQ(reg.counterValue("lc.path.cf"), 1u);
    EXPECT_EQ(reg.counterValue("enforce.gated_slices"), 1u);
    EXPECT_DOUBLE_EQ(reg.statValue("enforce.reclaimed_ways").mean(),
                     3.5);
}

TEST(QuantumTraceTest, MemorySinkKeepsEveryRecord)
{
    MemorySink sink;
    QuantumTrace trace(&sink);
    for (std::size_t s = 0; s < 4; ++s) {
        trace.begin(s, static_cast<double>(s) * 0.1);
        trace.record().lcPath = LcPath::CfFeasible;
        trace.end();
    }
    ASSERT_EQ(sink.records().size(), 4u);
    EXPECT_EQ(sink.records()[3].slice, 3u);
    EXPECT_EQ(sink.records()[3].lcPath, LcPath::CfFeasible);
}

TEST(QuantumTraceTest, NullSinkStillAggregates)
{
    QuantumTrace trace; // no sink
    trace.begin(0, 0.0);
    trace.end();
    EXPECT_EQ(trace.summary().records, 1u);
}

TEST(LcPathTest, NamesRoundTrip)
{
    for (std::size_t p = 0; p < kNumLcPaths; ++p) {
        const LcPath path = static_cast<LcPath>(p);
        EXPECT_EQ(lcPathFromName(lcPathName(path)), path)
            << lcPathName(path);
    }
    EXPECT_EQ(lcPathFromName("no-such-path"), LcPath::None);
}

TEST(TraceRoundTripTest, JsonPreservesEveryField)
{
    const QuantumRecord rec = fullRecord();
    const QuantumRecord back = parseRecord(JsonlSink::toJson(rec));

    EXPECT_EQ(back.slice, rec.slice);
    EXPECT_DOUBLE_EQ(back.timeSec, rec.timeSec);
    EXPECT_EQ(back.scheduler, rec.scheduler);
    EXPECT_DOUBLE_EQ(back.loadFraction, rec.loadFraction);
    EXPECT_DOUBLE_EQ(back.powerBudgetW, rec.powerBudgetW);
    EXPECT_EQ(back.profiledLcCores, rec.profiledLcCores);
    EXPECT_NEAR(back.measuredTailSec, rec.measuredTailSec, 1e-12);
    EXPECT_DOUBLE_EQ(back.measuredUtil, rec.measuredUtil);
    EXPECT_EQ(back.measuredCompleted, rec.measuredCompleted);
    EXPECT_EQ(back.measuredViolation, rec.measuredViolation);
    EXPECT_EQ(back.tailObserved, rec.tailObserved);
    EXPECT_EQ(back.pollutedSlice, rec.pollutedSlice);
    EXPECT_EQ(back.lcPath, rec.lcPath);
    EXPECT_EQ(back.lcConfigIndex, rec.lcConfigIndex);
    EXPECT_EQ(back.lcConfigName, rec.lcConfigName);
    EXPECT_EQ(back.lcCores, rec.lcCores);
    EXPECT_EQ(back.lcCoreDelta, rec.lcCoreDelta);
    EXPECT_EQ(back.scanSaturated, rec.scanSaturated);
    EXPECT_EQ(back.chosenCfFeasible, rec.chosenCfFeasible);
    EXPECT_EQ(back.chosenQueueFeasible, rec.chosenQueueFeasible);
    EXPECT_DOUBLE_EQ(back.batchPowerBudgetW, rec.batchPowerBudgetW);
    EXPECT_DOUBLE_EQ(back.cacheBudgetWays, rec.cacheBudgetWays);
    EXPECT_DOUBLE_EQ(back.seedWays, rec.seedWays);
    EXPECT_EQ(back.seedRepaired, rec.seedRepaired);
    EXPECT_EQ(back.searchEvaluations, rec.searchEvaluations);
    EXPECT_DOUBLE_EQ(back.searchObjective, rec.searchObjective);
    EXPECT_DOUBLE_EQ(back.searchPowerW, rec.searchPowerW);
    EXPECT_DOUBLE_EQ(back.searchWays, rec.searchWays);
    EXPECT_EQ(back.capVictims, rec.capVictims);
    EXPECT_DOUBLE_EQ(back.reclaimedWays, rec.reclaimedWays);
    EXPECT_NEAR(back.executedTailSec, rec.executedTailSec, 1e-12);
    EXPECT_DOUBLE_EQ(back.executedPowerW, rec.executedPowerW);
    EXPECT_EQ(back.qosViolated, rec.qosViolated);
    EXPECT_DOUBLE_EQ(back.gmeanBips, rec.gmeanBips);
    EXPECT_EQ(back.sgdEpochs, rec.sgdEpochs);
    EXPECT_EQ(back.coldStarts, rec.coldStarts);
    EXPECT_EQ(back.foldInSolves, rec.foldInSolves);
    for (std::size_t p = 0; p < kNumPhases; ++p)
        EXPECT_NEAR(back.phaseSec[p], rec.phaseSec[p], 1e-12) << p;
}

TEST(TraceRoundTripTest, WorkGroupOnlyWhenSomethingWasReconstructed)
{
    // A quantum that ran no reconstruction (fast reuse, a baseline)
    // emits no work group and parses back as all zeros.
    QuantumRecord idle = fullRecord();
    idle.sgdEpochs = {};
    idle.coldStarts = {};
    idle.foldInSolves = {};
    const std::string idle_json = JsonlSink::toJson(idle);
    EXPECT_EQ(idle_json.find("\"work\""), std::string::npos);
    const QuantumRecord idle_back = parseRecord(idle_json);
    EXPECT_EQ(idle_back.sgdEpochs, idle.sgdEpochs);
    EXPECT_EQ(idle_back.coldStarts, idle.coldStarts);
    EXPECT_EQ(idle_back.foldInSolves, idle.foldInSolves);

    // A cold start is work even if no epoch ran (an empty matrix).
    QuantumRecord cold = idle;
    cold.coldStarts[2] = true;
    EXPECT_NE(JsonlSink::toJson(cold).find("\"work\""),
              std::string::npos);
    EXPECT_EQ(parseRecord(JsonlSink::toJson(cold)).coldStarts,
              cold.coldStarts);
}

TEST(TraceRoundTripTest, JsonlStreamRoundTrips)
{
    std::ostringstream out;
    JsonlSink sink(out);
    QuantumTrace trace(&sink);
    for (std::size_t s = 0; s < 3; ++s) {
        trace.begin(s, static_cast<double>(s) * 0.1);
        trace.record().lcPath = LcPath::ColdStart;
        trace.record().searchObjective = 1.5;
        trace.end();
    }
    EXPECT_EQ(sink.written(), 3u);

    sink.flush();
    std::istringstream in(out.str() + "\n"); // trailing blank line
    const std::vector<QuantumRecord> back = readTrace(in);
    ASSERT_EQ(back.size(), 3u);
    for (std::size_t s = 0; s < 3; ++s) {
        EXPECT_EQ(back[s].slice, s);
        EXPECT_EQ(back[s].lcPath, LcPath::ColdStart);
        EXPECT_DOUBLE_EQ(back[s].searchObjective, 1.5);
    }
}

TEST(TraceRoundTripTest, BufferedBytesMatchUnbufferedExactly)
{
    // The line buffer must change when the bytes reach the stream,
    // never what they are.
    std::string expected;
    std::ostringstream buffered;
    {
        JsonlSink sink(buffered, /*buffer_bytes=*/256);
        for (std::size_t s = 0; s < 64; ++s) {
            QuantumRecord rec = fullRecord();
            rec.slice = s;
            expected += JsonlSink::toJson(rec);
            expected += '\n';
            sink.record(rec);
        }
        EXPECT_EQ(sink.written(), 64u);
        // Destructor drains the tail that never crossed the
        // threshold.
    }
    EXPECT_EQ(buffered.str(), expected);
}

TEST(TraceRoundTripTest, RoundTripsAtBufferBoundaries)
{
    // Thresholds straddling one line's length put the drain exactly
    // at, just before, and just after a record boundary; every
    // variant must read back whole records.
    QuantumRecord rec = fullRecord();
    const std::size_t line = JsonlSink::toJson(rec).size() + 1;
    const std::size_t sizes[] = {1, line - 1, line, line + 1,
                                 3 * line, 3 * line + line / 2};
    for (const std::size_t buffer_bytes : sizes) {
        std::ostringstream out;
        JsonlSink sink(out, buffer_bytes);
        for (std::size_t s = 0; s < 7; ++s) {
            rec.slice = s;
            sink.record(rec);
        }
        sink.flush();
        std::istringstream in(out.str());
        const std::vector<QuantumRecord> back = readTrace(in);
        ASSERT_EQ(back.size(), 7u) << "buffer=" << buffer_bytes;
        for (std::size_t s = 0; s < back.size(); ++s)
            EXPECT_EQ(back[s].slice, s) << "buffer=" << buffer_bytes;
    }
}

TEST(TraceRoundTripTest, FlushIsIdempotentAndMidRunSafe)
{
    std::ostringstream out;
    JsonlSink sink(out);
    QuantumRecord rec = fullRecord();
    sink.record(rec);
    sink.flush();
    const std::string after_first = out.str();
    EXPECT_FALSE(after_first.empty());
    sink.flush();
    EXPECT_EQ(out.str(), after_first); // nothing new to drain
    rec.slice = 43;
    sink.record(rec);
    sink.flush();
    std::istringstream in(out.str());
    const std::vector<QuantumRecord> back = readTrace(in);
    ASSERT_EQ(back.size(), 2u);
    EXPECT_EQ(back[1].slice, 43u);
}

TEST(TraceRoundTripTest, UnknownKeysAreIgnored)
{
    QuantumRecord rec;
    rec.slice = 3;
    std::string js = JsonlSink::toJson(rec);
    js.insert(js.size() - 1, ",\"future_field\":{\"x\":[1,2]}");
    EXPECT_EQ(parseRecord(js).slice, 3u);
}

TEST(TraceRoundTripTest, MalformedJsonThrows)
{
    EXPECT_THROW(parseRecord("{\"slice\":"), FatalError);
    EXPECT_THROW(parseRecord("not json"), FatalError);
    EXPECT_THROW(parseRecord("{\"slice\":1} trailing"), FatalError);
}

TEST(TraceRoundTripTest, MissingFileThrows)
{
    EXPECT_THROW(readTraceFile("/nonexistent/trace.jsonl"),
                 FatalError);
}

} // namespace
} // namespace telemetry
} // namespace cuttlesys
