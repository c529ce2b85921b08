/**
 * @file
 * Tests for the max-QPS knee-point calibration.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>

#include "apps/gallery.hh"
#include "common/logging.hh"
#include "lcsim/calibrate.hh"

namespace cuttlesys {
namespace {

MaxQpsOptions
fastOpts()
{
    MaxQpsOptions opts;
    opts.warmupSec = 0.2;
    opts.measureSec = 0.8;
    opts.iterations = 12;
    return opts;
}

TEST(CalibrateTest, TailAtLowLoadMeetsQos)
{
    const SystemParams params;
    for (const auto &app : tailbenchGallery()) {
        const double p99 =
            measureTailAtLoad(app, 200.0, params, fastOpts());
        EXPECT_LT(p99, app.qosSeconds()) << app.name;
        EXPECT_GT(p99, 0.0) << app.name;
    }
}

TEST(CalibrateTest, KneeIsBelowRawCapacityAndAboveHalf)
{
    const SystemParams params;
    const AppProfile app = profileByName("silo");
    const MaxQpsOptions opts = fastOpts();
    const double knee = findMaxQps(app, params, opts);
    EXPECT_GT(knee, 0.0);

    // Below the knee QoS holds, comfortably above it breaks.
    const double below =
        measureTailAtLoad(app, 0.9 * knee, params, opts);
    EXPECT_LT(below, app.qosSeconds());
    const double above =
        measureTailAtLoad(app, 1.3 * knee, params, opts);
    EXPECT_GT(above, app.qosSeconds());
}

TEST(CalibrateTest, CalibratesAllTailbenchApps)
{
    const SystemParams params;
    auto apps = tailbenchGallery();
    const auto loads = calibrateMaxQps(apps, params, fastOpts());
    ASSERT_EQ(loads.size(), apps.size());
    for (std::size_t i = 0; i < apps.size(); ++i) {
        EXPECT_GT(apps[i].maxQps, 0.0) << apps[i].name;
        EXPECT_DOUBLE_EQ(apps[i].maxQps, loads[i]);
        // The 16-core knee of a ms-scale service: thousands of QPS.
        EXPECT_GT(apps[i].maxQps, 1e3) << apps[i].name;
        EXPECT_LT(apps[i].maxQps, 1e5) << apps[i].name;
    }
}

TEST(CalibrateTest, PoolCalibrationMatchesPerAppSearchBitwise)
{
    // calibrateMaxQps runs the apps' knee searches concurrently on
    // reused simulators; each result must be exactly the serial one.
    const SystemParams params;
    MaxQpsOptions opts = fastOpts();
    opts.iterations = 8;
    auto apps = tailbenchGallery();
    const auto loads = calibrateMaxQps(apps, params, opts);
    ASSERT_EQ(loads.size(), apps.size());
    for (std::size_t i = 0; i < apps.size(); ++i) {
        const double serial = findMaxQps(apps[i], params, opts);
        EXPECT_EQ(std::bit_cast<std::uint64_t>(loads[i]),
                  std::bit_cast<std::uint64_t>(serial))
            << apps[i].name;
    }
}

TEST(CalibrateTest, MaxQpsOrderingTracksRequestWork)
{
    // Heavier requests (imgdnn, moses) must sustain less load than
    // light ones (silo, xapian), mirroring the paper's Section VII-A.
    const SystemParams params;
    auto apps = tailbenchGallery();
    calibrateMaxQps(apps, params, fastOpts());
    double silo = 0, xapian = 0, imgdnn = 0, moses = 0;
    for (const auto &app : apps) {
        if (app.name == "silo") silo = app.maxQps;
        if (app.name == "xapian") xapian = app.maxQps;
        if (app.name == "imgdnn") imgdnn = app.maxQps;
        if (app.name == "moses") moses = app.maxQps;
    }
    EXPECT_GT(silo, imgdnn);
    EXPECT_GT(silo, moses);
    EXPECT_GT(xapian, imgdnn);
}

TEST(CalibrateTest, RejectsBatchApps)
{
    const SystemParams params;
    EXPECT_THROW(
        measureTailAtLoad(profileByName("gcc"), 100.0, params),
        PanicError);
    std::vector<AppProfile> batch = {profileByName("gcc")};
    EXPECT_THROW(calibrateMaxQps(batch, params), PanicError);
}

} // namespace
} // namespace cuttlesys
