/**
 * @file
 * Tests for the ground-truth characterization tables.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>

#include "common/logging.hh"
#include "sim/ground_truth.hh"
#include "sim_fixture.hh"

namespace cuttlesys {
namespace {

TEST(GroundTruthTest, BatchTablesHaveFullShape)
{
    const SystemParams params;
    const auto apps = splitSpecGallery().train;
    const BatchTruth truth = batchTruthTables(apps, params);
    EXPECT_EQ(truth.bips.rows(), apps.size());
    EXPECT_EQ(truth.bips.cols(), kNumJobConfigs);
    EXPECT_EQ(truth.power.rows(), apps.size());
    for (std::size_t a = 0; a < apps.size(); ++a) {
        for (std::size_t c = 0; c < kNumJobConfigs; ++c) {
            EXPECT_GT(truth.bips(a, c), 0.0);
            EXPECT_GT(truth.power(a, c), 0.0);
        }
    }
}

TEST(GroundTruthTest, NoiseZeroIsDeterministic)
{
    const SystemParams params;
    const auto apps = splitSpecGallery().train;
    const BatchTruth a = batchTruthTables(apps, params, true, 0.0);
    const BatchTruth b = batchTruthTables(apps, params, true, 0.0);
    EXPECT_DOUBLE_EQ(a.bips.subtract(b.bips).maxAbs(), 0.0);
}

TEST(GroundTruthTest, NoisePerturbsValuesModestly)
{
    const SystemParams params;
    std::vector<AppProfile> apps = {splitSpecGallery().train[0]};
    const BatchTruth clean = batchTruthTables(apps, params, true, 0.0);
    const BatchTruth noisy =
        batchTruthTables(apps, params, true, 0.02);
    double max_rel = 0.0;
    for (std::size_t c = 0; c < kNumJobConfigs; ++c) {
        max_rel = std::max(max_rel,
                           std::abs(noisy.bips(0, c) -
                                    clean.bips(0, c)) /
                               clean.bips(0, c));
    }
    EXPECT_GT(max_rel, 0.001);
    EXPECT_LT(max_rel, 0.15);
}

TEST(GroundTruthTest, FixedCoresAreFasterAndCooler)
{
    // Reconfigurable cores pay frequency + energy penalties.
    const SystemParams params;
    std::vector<AppProfile> apps = {splitSpecGallery().train[0]};
    const BatchTruth fixed = batchTruthTables(apps, params, false);
    const BatchTruth reconf = batchTruthTables(apps, params, true);
    for (std::size_t c = 0; c < kNumJobConfigs; ++c) {
        EXPECT_GT(fixed.bips(0, c), reconf.bips(0, c));
        EXPECT_LT(fixed.power(0, c), reconf.power(0, c));
    }
}

TEST(GroundTruthTest, LcTailCurveShapesMatchFig1)
{
    const SystemParams params;
    const AppProfile xapian = calibratedTailbench()[0];

    LcCurveOptions opts;
    opts.measureSec = 0.6;
    const auto low =
        lcTailCurve(xapian, 0.2 * xapian.maxQps, params, opts);
    const auto high =
        lcTailCurve(xapian, 0.8 * xapian.maxQps, params, opts);
    ASSERT_EQ(low.size(), kNumJobConfigs);

    const std::size_t widest =
        JobConfig(CoreConfig::widest(), 3).index();
    const std::size_t narrowest =
        JobConfig(CoreConfig::narrowest(), 0).index();
    // At high load the narrowest config saturates; the widest holds.
    EXPECT_LT(high[widest], xapian.qosSeconds());
    EXPECT_GT(high[narrowest], 4.0 * high[widest]);
    // At low load even weak configs stay comparatively flat (Fig 1).
    EXPECT_LT(low[narrowest], high[narrowest]);
    EXPECT_LT(low[widest], xapian.qosSeconds());
}

TEST(GroundTruthTest, LcPowerCurveTracksUtilization)
{
    const SystemParams params;
    const AppProfile silo = calibratedTailbench()[4];
    const auto low = lcPowerCurve(silo, 0.2 * silo.maxQps, params);
    const auto high = lcPowerCurve(silo, 0.9 * silo.maxQps, params);
    const std::size_t widest =
        JobConfig(CoreConfig::widest(), 3).index();
    EXPECT_GT(high[widest], low[widest]);
}

TEST(GroundTruthTest, LcCurvesRejectBatchApps)
{
    const SystemParams params;
    const AppProfile gcc = profileByName("gcc");
    EXPECT_THROW(lcTailCurve(gcc, 100.0, params), PanicError);
    EXPECT_THROW(lcPowerCurve(gcc, 100.0, params), PanicError);
}

TEST(GroundTruthTest, TrainingTableStacksAppsByLoad)
{
    const SystemParams params;
    std::vector<AppProfile> apps = {calibratedTailbench()[3],
                                    calibratedTailbench()[4]};
    LcCurveOptions opts;
    opts.measureSec = 0.4;
    const Matrix table =
        lcTailTrainingTable(apps, {0.2, 0.8}, params, opts);
    EXPECT_EQ(table.rows(), 4u);
    EXPECT_EQ(table.cols(), kNumJobConfigs);
    for (std::size_t r = 0; r < table.rows(); ++r)
        for (std::size_t c = 0; c < table.cols(); ++c)
            EXPECT_GT(table(r, c), 0.0);
}

TEST(GroundTruthTest, TrainingTableRowsMatchSerialCurvesBitwise)
{
    // The table's cells run concurrently on per-slot simulators; every
    // row must be exactly the serial curve at that load.
    const SystemParams params;
    const std::vector<AppProfile> apps = {calibratedTailbench()[0],
                                          calibratedTailbench()[4]};
    const std::vector<double> fractions = {0.3, 0.9};
    LcCurveOptions opts;
    opts.warmupSec = 0.1;
    opts.measureSec = 0.3;
    const Matrix table =
        lcTailTrainingTable(apps, fractions, params, opts);
    ASSERT_EQ(table.rows(), apps.size() * fractions.size());
    std::size_t mismatches = 0;
    for (std::size_t a = 0; a < apps.size(); ++a) {
        for (std::size_t f = 0; f < fractions.size(); ++f) {
            const auto curve = lcTailCurve(
                apps[a], fractions[f] * apps[a].maxQps, params, opts);
            const std::size_t row = a * fractions.size() + f;
            for (std::size_t c = 0; c < kNumJobConfigs; ++c)
                mismatches += std::bit_cast<std::uint64_t>(table(row, c)) !=
                    std::bit_cast<std::uint64_t>(curve[c]);
        }
    }
    EXPECT_EQ(mismatches, 0u);
}

TEST(GroundTruthTest, TrainingTableRequiresCalibration)
{
    const SystemParams params;
    std::vector<AppProfile> apps = {tailbenchGallery()[0]};
    EXPECT_THROW(lcTailTrainingTable(apps, {0.5}, params),
                 PanicError);
}

} // namespace
} // namespace cuttlesys
