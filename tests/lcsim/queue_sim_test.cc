/**
 * @file
 * Tests for the LC discrete-event queueing simulator.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>

#include "apps/gallery.hh"
#include "common/logging.hh"
#include "lcsim/queue_sim.hh"

namespace cuttlesys {
namespace {

AppProfile
lcApp()
{
    AppProfile p = profileByName("silo");
    p.requestCv = 0.4;
    return p;
}

/** Bit pattern of a double, for exact rather than near comparisons. */
std::uint64_t
bits(double x)
{
    return std::bit_cast<std::uint64_t>(x);
}

/** Service rate giving a 1 ms mean service time. */
double
ipsForMeanService(const AppProfile &p, double service_sec)
{
    return p.requestInstructions() / service_sec;
}

TEST(QueueSimTest, NoLoadMeansNoCompletions)
{
    LcQueueSim sim(lcApp(), 4, 1e9, 1);
    sim.run(1.0);
    EXPECT_EQ(sim.completedInWindow(), 0u);
    EXPECT_DOUBLE_EQ(sim.tailLatency(), 0.0);
    EXPECT_DOUBLE_EQ(sim.utilization(), 0.0);
    EXPECT_NEAR(sim.now(), 1.0, 1e-12);
}

TEST(QueueSimTest, CompletionCountTracksLoad)
{
    LcQueueSim sim(lcApp(), 8, ipsForMeanService(lcApp(), 0.001), 2);
    sim.setLoadQps(1000.0);
    sim.run(0.5);
    sim.clearWindow();
    sim.run(2.0);
    const double rate =
        static_cast<double>(sim.completedInWindow()) / 2.0;
    EXPECT_NEAR(rate, 1000.0, 60.0);
}

TEST(QueueSimTest, LowLoadLatencyIsNearServiceTime)
{
    const double mean_service = 0.001;
    LcQueueSim sim(lcApp(), 8,
                   ipsForMeanService(lcApp(), mean_service), 3);
    sim.setLoadQps(100.0); // ~1.2% utilization
    sim.run(0.5);
    sim.clearWindow();
    sim.run(2.0);
    EXPECT_GT(sim.meanLatency(), 0.5 * mean_service);
    EXPECT_LT(sim.meanLatency(), 2.0 * mean_service);
    // Very little queueing: p99 within a few service times.
    EXPECT_LT(sim.tailLatency(99.0), 5.0 * mean_service);
}

TEST(QueueSimTest, TailLatencyGrowsWithLoad)
{
    const double mean_service = 0.001;
    const std::size_t servers = 8;
    const double capacity =
        static_cast<double>(servers) / mean_service; // 8000 qps
    double prev_tail = 0.0;
    for (double fraction : {0.2, 0.6, 0.9}) {
        LcQueueSim sim(lcApp(), servers,
                       ipsForMeanService(lcApp(), mean_service), 4);
        sim.setLoadQps(fraction * capacity);
        sim.run(0.5);
        sim.clearWindow();
        sim.run(2.0);
        const double tail = sim.tailLatency(99.0);
        EXPECT_GT(tail, prev_tail) << "at load fraction " << fraction;
        prev_tail = tail;
    }
}

TEST(QueueSimTest, SaturationGrowsBacklog)
{
    const double mean_service = 0.001;
    LcQueueSim sim(lcApp(), 4,
                   ipsForMeanService(lcApp(), mean_service), 5);
    sim.setLoadQps(8000.0); // 2x capacity
    sim.run(1.0);
    EXPECT_GT(sim.backlog(), 1000u);
    EXPECT_GT(sim.utilization(), 0.99);
}

TEST(QueueSimTest, UtilizationMatchesOfferedLoad)
{
    const double mean_service = 0.001;
    const std::size_t servers = 8;
    LcQueueSim sim(lcApp(), servers,
                   ipsForMeanService(lcApp(), mean_service), 6);
    sim.setLoadQps(0.5 * servers / mean_service); // rho = 0.5
    sim.run(0.5);
    sim.clearWindow();
    sim.run(2.0);
    EXPECT_NEAR(sim.utilization(), 0.5, 0.05);
}

TEST(QueueSimTest, FasterCoresCutLatency)
{
    LcQueueSim slow(lcApp(), 8, ipsForMeanService(lcApp(), 0.002), 7);
    LcQueueSim fast(lcApp(), 8, ipsForMeanService(lcApp(), 0.001), 7);
    for (auto *sim : {&slow, &fast}) {
        sim->setLoadQps(1500.0);
        sim->run(0.5);
        sim->clearWindow();
        sim->run(2.0);
    }
    EXPECT_LT(fast.tailLatency(99.0), slow.tailLatency(99.0));
}

TEST(QueueSimTest, MoreServersCutLatencyUnderLoad)
{
    LcQueueSim few(lcApp(), 4, ipsForMeanService(lcApp(), 0.001), 8);
    LcQueueSim many(lcApp(), 8, ipsForMeanService(lcApp(), 0.001), 8);
    for (auto *sim : {&few, &many}) {
        sim->setLoadQps(3200.0); // rho 0.8 on 4, 0.4 on 8
        sim->run(0.5);
        sim->clearWindow();
        sim->run(2.0);
    }
    EXPECT_LT(many.tailLatency(99.0), few.tailLatency(99.0));
}

TEST(QueueSimTest, BacklogDrainsAfterLoadDrop)
{
    LcQueueSim sim(lcApp(), 4, ipsForMeanService(lcApp(), 0.001), 9);
    sim.setLoadQps(8000.0);
    sim.run(0.5);
    EXPECT_GT(sim.backlog(), 0u);
    sim.setLoadQps(100.0);
    sim.run(2.0);
    EXPECT_EQ(sim.backlog(), 0u);
}

TEST(QueueSimTest, DeterministicForSameSeed)
{
    LcQueueSim a(lcApp(), 4, 5e9, 42);
    LcQueueSim b(lcApp(), 4, 5e9, 42);
    for (auto *sim : {&a, &b}) {
        sim->setLoadQps(2000.0);
        sim->run(1.0);
    }
    EXPECT_EQ(a.completedInWindow(), b.completedInWindow());
    EXPECT_DOUBLE_EQ(a.tailLatency(99.0), b.tailLatency(99.0));
}

TEST(QueueSimTest, ResetMatchesFreshSimulator)
{
    const AppProfile app = lcApp();
    const double ips = ipsForMeanService(app, 0.001);
    // Grow every buffer first: a saturating run on another profile
    // leaves a long backlog, a large window and a full service heap.
    LcQueueSim reused(profileByName("xapian"), 8, ips, 99);
    reused.setLoadQps(20000.0);
    reused.run(0.5);
    ASSERT_GT(reused.backlog(), 0u);

    reused.reset(app, 4, ips, 5);
    LcQueueSim fresh(app, 4, ips, 5);
    for (auto *sim : {&reused, &fresh}) {
        sim->setLoadQps(3800.0);
        sim->run(0.2);
        sim->clearWindow();
        sim->run(0.5);
    }
    ASSERT_GT(fresh.completedInWindow(), 0u);
    EXPECT_EQ(reused.completedInWindow(), fresh.completedInWindow());
    EXPECT_EQ(bits(reused.tailLatency()), bits(fresh.tailLatency()));
    EXPECT_EQ(bits(reused.meanLatency()), bits(fresh.meanLatency()));
    EXPECT_EQ(bits(reused.utilization()), bits(fresh.utilization()));
    EXPECT_EQ(reused.backlog(), fresh.backlog());
    EXPECT_EQ(reused.inService(), fresh.inService());
    EXPECT_EQ(bits(reused.now()), bits(fresh.now()));
}

TEST(QueueSimTest, ConsumeTailLatencyMatchesTailAndClears)
{
    LcQueueSim sim(lcApp(), 4, 5e9, 42);
    sim.setLoadQps(2000.0);
    sim.run(1.0);
    ASSERT_GT(sim.completedInWindow(), 0u);
    const double tail = sim.tailLatency(99.0);
    EXPECT_EQ(bits(sim.consumeTailLatency(99.0)), bits(tail));
    EXPECT_EQ(sim.completedInWindow(), 0u);
    EXPECT_EQ(sim.consumeTailLatency(99.0), 0.0);
}

TEST(QueueSimTest, TimeAdvancesExactly)
{
    LcQueueSim sim(lcApp(), 2, 1e9, 10);
    sim.setLoadQps(500.0);
    for (int i = 0; i < 10; ++i)
        sim.run(0.1);
    EXPECT_NEAR(sim.now(), 1.0, 1e-9);
}

TEST(QueueSimTest, InvalidConstructionPanics)
{
    EXPECT_THROW(LcQueueSim(lcApp(), 0, 1e9, 1), PanicError);
    EXPECT_THROW(LcQueueSim(lcApp(), 4, 0.0, 1), PanicError);
}

TEST(QueueSimTest, InvalidTransitionsPanics)
{
    LcQueueSim sim(lcApp(), 4, 1e9, 1);
    EXPECT_THROW(sim.setLoadQps(-1.0), PanicError);
    EXPECT_THROW(sim.setIpsPerCore(0.0), PanicError);
    EXPECT_THROW(sim.setServers(0), PanicError);
    EXPECT_THROW(sim.run(-0.1), PanicError);
}

} // namespace
} // namespace cuttlesys
