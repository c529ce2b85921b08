/**
 * @file
 * Tests for the structural trace diff behind the deterministic-replay
 * checker: identical traces compare clean, any structural mutation is
 * pinpointed to its slice and field, float fields compare exactly, and
 * the scan-path labels that float noise can legitimately flip collapse
 * into one class.
 */

#include <gtest/gtest.h>

#include <vector>

#include "check/trace_diff.hh"

namespace cuttlesys {
namespace check {
namespace {

telemetry::QuantumRecord
makeRecord(std::size_t slice)
{
    telemetry::QuantumRecord r;
    r.slice = slice;
    r.timeSec = static_cast<double>(slice) * 0.1;
    r.scheduler = "cuttlesys";
    r.loadFraction = 0.8;
    r.powerBudgetW = 105.0;
    r.profiledLcCores = 16;
    r.measuredTailSec = 0.004 + static_cast<double>(slice) * 1e-5;
    r.measuredUtil = 0.6;
    r.measuredCompleted = 1200 + slice;
    r.lcPath = telemetry::LcPath::CfFeasible;
    r.lcConfigIndex = 80;
    r.lcConfigName = "{6,6,6}/4w";
    r.lcCores = 16;
    r.capVictims = {3, 7};
    r.reclaimedWays = 6.0;
    r.executedTailSec = 0.0041;
    r.executedPowerW = 92.5;
    r.gmeanBips = 1.75;
    return r;
}

std::vector<telemetry::QuantumRecord>
makeTrace(std::size_t quanta)
{
    std::vector<telemetry::QuantumRecord> trace;
    for (std::size_t s = 0; s < quanta; ++s)
        trace.push_back(makeRecord(s));
    return trace;
}

TEST(TraceDiffTest, IdenticalTracesCompareClean)
{
    const auto a = makeTrace(5);
    const auto b = makeTrace(5);
    const TraceDiff diff = diffDecisionTraces(a, b);
    EXPECT_TRUE(diff.identical());
    EXPECT_EQ(diff.recordsA, 5u);
    EXPECT_EQ(diff.recordsB, 5u);
    EXPECT_GT(diff.comparedFields, 5u * 20u);
    EXPECT_NE(diff.toString().find("identical"), std::string::npos);
}

TEST(TraceDiffTest, PinpointsMutatedField)
{
    const auto a = makeTrace(5);
    auto b = makeTrace(5);
    b[2].lcConfigIndex = 81;
    const TraceDiff diff = diffDecisionTraces(a, b);
    EXPECT_FALSE(diff.identical());
    ASSERT_EQ(diff.mismatches.size(), 1u);
    EXPECT_EQ(diff.mismatches[0].slice, 2u);
    EXPECT_EQ(diff.mismatches[0].field, "lc.config_index");
    EXPECT_EQ(diff.mismatches[0].lhs, "80");
    EXPECT_EQ(diff.mismatches[0].rhs, "81");
}

TEST(TraceDiffTest, FloatFieldsCompareExactly)
{
    // Decisions run through the same deterministic simulator, so the
    // diff must not hide a 1-ulp drift behind a tolerance.
    const auto a = makeTrace(2);
    auto b = makeTrace(2);
    b[1].executedPowerW =
        a[1].executedPowerW * (1.0 + 1e-15);
    const TraceDiff diff = diffDecisionTraces(a, b);
    ASSERT_EQ(diff.mismatches.size(), 1u);
    EXPECT_EQ(diff.mismatches[0].field, "executed.power_w");
}

TEST(TraceDiffTest, WorkCountersAreStructural)
{
    // The reconstruction's work is deterministic given the inputs: an
    // extra epoch, a cold start where the reference warm-started or
    // an extra fold-in solve is a replay mismatch even when every
    // decision agrees.
    const auto a = makeTrace(3);
    auto b = makeTrace(3);
    b[1].sgdEpochs[1] = 4;
    b[2].coldStarts[0] = true;
    b[2].foldInSolves[2] = 1;
    const TraceDiff diff = diffDecisionTraces(a, b);
    ASSERT_EQ(diff.mismatches.size(), 3u);
    EXPECT_EQ(diff.mismatches[0].slice, 1u);
    EXPECT_EQ(diff.mismatches[0].field, "work.sgd_epochs");
    EXPECT_EQ(diff.mismatches[0].lhs, "[0,0,0]");
    EXPECT_EQ(diff.mismatches[0].rhs, "[0,4,0]");
    EXPECT_EQ(diff.mismatches[1].slice, 2u);
    EXPECT_EQ(diff.mismatches[1].field, "work.cold");
    EXPECT_EQ(diff.mismatches[1].rhs, "[1,0,0]");
    EXPECT_EQ(diff.mismatches[2].slice, 2u);
    EXPECT_EQ(diff.mismatches[2].field, "work.fold_ins");
    EXPECT_EQ(diff.mismatches[2].rhs, "[0,0,1]");
}

TEST(TraceDiffTest, VictimListsAreStructural)
{
    const auto a = makeTrace(3);
    auto b = makeTrace(3);
    b[0].capVictims = {3};
    const TraceDiff diff = diffDecisionTraces(a, b);
    ASSERT_EQ(diff.mismatches.size(), 1u);
    EXPECT_EQ(diff.mismatches[0].field, "enforce.victims");
    EXPECT_EQ(diff.mismatches[0].lhs, "[3,7]");
    EXPECT_EQ(diff.mismatches[0].rhs, "[3]");
}

TEST(TraceDiffTest, LengthMismatchIsNotIdentical)
{
    const auto a = makeTrace(5);
    const auto b = makeTrace(4);
    const TraceDiff diff = diffDecisionTraces(a, b);
    EXPECT_FALSE(diff.identical());
    // The common prefix still compares cleanly.
    EXPECT_TRUE(diff.mismatches.empty());
    EXPECT_NE(diff.toString().find("5 vs 4"), std::string::npos);
}

TEST(TraceDiffTest, ScanLabelsCollapseIntoOneClass)
{
    // cf vs queue-estimate depends on which prediction qualified,
    // which float noise can flip with the configuration unchanged.
    const auto a = makeTrace(1);
    auto b = makeTrace(1);
    b[0].lcPath = telemetry::LcPath::QueueFeasible;
    EXPECT_TRUE(diffDecisionTraces(a, b).identical());

    b[0].lcPath = telemetry::LcPath::NoFeasible;
    EXPECT_TRUE(diffDecisionTraces(a, b).identical());

    // Measurement-driven paths stay distinct.
    b[0].lcPath = telemetry::LcPath::ViolationEscalate;
    const TraceDiff diff = diffDecisionTraces(a, b);
    ASSERT_EQ(diff.mismatches.size(), 1u);
    EXPECT_EQ(diff.mismatches[0].field, "lc.path_class");
}

TEST(TraceDiffTest, PathClassNames)
{
    EXPECT_STREQ(lcPathClass(telemetry::LcPath::CfFeasible), "scan");
    EXPECT_STREQ(lcPathClass(telemetry::LcPath::QueueFeasible),
                 "scan");
    EXPECT_STREQ(lcPathClass(telemetry::LcPath::NoFeasible), "scan");
    EXPECT_STREQ(lcPathClass(telemetry::LcPath::ColdStart),
                 "cold-start");
    EXPECT_STREQ(lcPathClass(telemetry::LcPath::ViolationEscalate),
                 "violation-escalate");
    EXPECT_STREQ(lcPathClass(telemetry::LcPath::ViolationRelocate),
                 "violation-relocate");
    EXPECT_STREQ(lcPathClass(telemetry::LcPath::StaticPolicy),
                 "static");
    EXPECT_STREQ(lcPathClass(telemetry::LcPath::None), "none");
}

TEST(TraceDiffTest, EmptyTracesAreIdentical)
{
    const std::vector<telemetry::QuantumRecord> a;
    const std::vector<telemetry::QuantumRecord> b;
    const TraceDiff diff = diffDecisionTraces(a, b);
    EXPECT_TRUE(diff.identical());
    EXPECT_EQ(diff.recordsA, 0u);
    EXPECT_EQ(diff.recordsB, 0u);
    EXPECT_EQ(diff.comparedFields, 0u);
    EXPECT_NE(diff.toString().find("identical"), std::string::npos);
}

TEST(TraceDiffTest, EmptyVersusNonEmptyDiffers)
{
    const std::vector<telemetry::QuantumRecord> a;
    const auto b = makeTrace(3);
    const TraceDiff diff = diffDecisionTraces(a, b);
    EXPECT_FALSE(diff.identical());
    // No common prefix, so no per-field mismatches — the length
    // disagreement alone must carry the verdict.
    EXPECT_TRUE(diff.mismatches.empty());
    EXPECT_EQ(diff.comparedFields, 0u);
    EXPECT_NE(diff.toString().find("0 vs 3"), std::string::npos);
}

TEST(TraceDiffTest, SingleQuantumTraces)
{
    const auto a = makeTrace(1);
    auto b = makeTrace(1);
    EXPECT_TRUE(diffDecisionTraces(a, b).identical());

    b[0].lcCores = 12;
    const TraceDiff diff = diffDecisionTraces(a, b);
    ASSERT_EQ(diff.mismatches.size(), 1u);
    EXPECT_EQ(diff.mismatches[0].slice, 0u);
    EXPECT_EQ(diff.mismatches[0].field, "lc.cores");
}

TEST(TraceDiffTest, EvictionVictimStampsOnlyDifference)
{
    // Two replays that agree on every decision except who got
    // preempted in one quantum: under fair-share ordering the victim
    // set is part of the deterministic decision sequence, so this is
    // a real divergence even with all other fields equal.
    const auto a = makeTrace(4);
    auto b = makeTrace(4);
    for (auto &r : b)
        EXPECT_TRUE(r.preemptedAccounts.empty());
    b[2].preemptedAccounts = {7};
    const TraceDiff diff = diffDecisionTraces(a, b);
    ASSERT_EQ(diff.mismatches.size(), 1u);
    EXPECT_EQ(diff.mismatches[0].slice, 2u);
    EXPECT_EQ(diff.mismatches[0].field, "tenancy.preempted");
}

TEST(TraceDiffTest, NodeStampMismatchIsStructural)
{
    // Same decisions, different placement: a fleet replay that lands
    // slice 1 on another node is not a clean replay.
    const auto a = makeTrace(3);
    auto b = makeTrace(3);
    b[1].node = 5;
    const TraceDiff diff = diffDecisionTraces(a, b);
    ASSERT_EQ(diff.mismatches.size(), 1u);
    EXPECT_EQ(diff.mismatches[0].slice, 1u);
    EXPECT_EQ(diff.mismatches[0].field, "node");
    EXPECT_EQ(diff.mismatches[0].lhs, "0");
    EXPECT_EQ(diff.mismatches[0].rhs, "5");
}

TEST(TraceDiffTest, MismatchedNodeCounts)
{
    // A fleet trace interleaves per-node records; when one replay ran
    // with fewer nodes the tail of the longer trace has no partner.
    // The common prefix still pinpoints the first placement
    // divergence instead of drowning it in length noise.
    auto a = makeTrace(6);
    auto b = makeTrace(4);
    for (std::size_t s = 0; s < a.size(); ++s)
        a[s].node = s % 3;
    for (std::size_t s = 0; s < b.size(); ++s)
        b[s].node = s % 2;
    const TraceDiff diff = diffDecisionTraces(a, b);
    EXPECT_FALSE(diff.identical());
    EXPECT_EQ(diff.recordsA, 6u);
    EXPECT_EQ(diff.recordsB, 4u);
    // Prefix slices 0..3: node stamps 0,1,2,0 vs 0,1,0,1 — mismatch
    // at slices 2 and 3 only.
    ASSERT_EQ(diff.mismatches.size(), 2u);
    EXPECT_EQ(diff.mismatches[0].slice, 2u);
    EXPECT_EQ(diff.mismatches[0].field, "node");
    EXPECT_EQ(diff.mismatches[1].slice, 3u);
    EXPECT_NE(diff.toString().find("6 vs 4"), std::string::npos);
}

TEST(TraceDiffTest, ToStringCapsMismatchLines)
{
    const auto a = makeTrace(10);
    auto b = makeTrace(10);
    for (std::size_t s = 0; s < 10; ++s)
        b[s].lcCores = 15;
    const TraceDiff diff = diffDecisionTraces(a, b);
    EXPECT_EQ(diff.mismatches.size(), 10u);
    const std::string report = diff.toString(/*max_lines=*/3);
    EXPECT_NE(report.find("slice 0 lc.cores: 16 != 15"),
              std::string::npos);
    EXPECT_NE(report.find("... 7 more"), std::string::npos);
    EXPECT_EQ(report.find("slice 9"), std::string::npos);
}

} // namespace
} // namespace check
} // namespace cuttlesys
