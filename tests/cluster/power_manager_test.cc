/**
 * @file
 * Tests for the cluster power manager: budget conservation, floors,
 * caps, and the demand weighting rules.
 */

#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "cluster/power_manager.hh"

namespace cuttlesys {
namespace cluster {
namespace {

NodeView
makeView(std::size_t node, double load, double measured_w,
         bool qos_violated = false, bool stepped = true)
{
    NodeView v;
    v.node = node;
    v.freeSlots = 4;
    v.occupiedSlots = 12;
    v.loadFraction = load;
    v.budgetW = 80.0;
    v.measuredPowerW = measured_w;
    v.headroomW = v.budgetW - measured_w;
    v.qosViolated = qos_violated;
    v.stepped = stepped;
    return v;
}

double
sum(const std::vector<double> &v)
{
    return std::accumulate(v.begin(), v.end(), 0.0);
}

TEST(PowerManagerTest, EqualDemandSplitsEqually)
{
    // Equal measured draw: equal shares, whatever the offered load.
    ClusterPowerManager mgr({.rackBudgetW = 400.0});
    const std::vector<NodeView> nodes = {
        makeView(0, 0.9, 50.0), makeView(1, 0.1, 50.0),
        makeView(2, 0.5, 50.0), makeView(3, 0.5, 50.0)};
    std::vector<double> out;
    mgr.split(nodes, out);
    ASSERT_EQ(out.size(), 4u);
    for (const double b : out)
        EXPECT_DOUBLE_EQ(b, 100.0);
}

TEST(PowerManagerTest, FloorsAreRespectedAndBudgetConserved)
{
    ClusterPowerManager mgr({.rackBudgetW = 100.0, .nodeFloorW = 20.0});
    const std::vector<NodeView> nodes = {
        makeView(0, 0.5, 50.0), makeView(1, 0.5, 50.0),
        makeView(2, 0.5, 50.0), makeView(3, 0.5, 50.0)};
    std::vector<double> out;
    mgr.split(nodes, out);
    for (const double b : out) {
        EXPECT_GE(b, 20.0);
        EXPECT_DOUBLE_EQ(b, 25.0);
    }
    EXPECT_NEAR(sum(out), 100.0, 1e-9);
}

TEST(PowerManagerTest, HeadroomRebalanceFollowsMeasuredDraw)
{
    ClusterPowerManager mgr({.rackBudgetW = 110.0, .nodeFloorW = 10.0});
    // Demands 80:20 over a distributable 90 W on top of the floors.
    const std::vector<NodeView> nodes = {makeView(0, 0.5, 80.0),
                                         makeView(1, 0.5, 20.0)};
    std::vector<double> out;
    mgr.split(nodes, out);
    EXPECT_NEAR(out[0], 10.0 + 72.0, 1e-9);
    EXPECT_NEAR(out[1], 10.0 + 18.0, 1e-9);
    EXPECT_NEAR(sum(out), 110.0, 1e-9);
}

TEST(PowerManagerTest, QosBoostShiftsBudgetTowardViolators)
{
    PowerManagerOptions opts;
    opts.rackBudgetW = 100.0;
    opts.qosBoostW = 10.0;
    ClusterPowerManager mgr(opts);
    const std::vector<NodeView> equal = {makeView(0, 0.5, 40.0),
                                         makeView(1, 0.5, 40.0)};
    std::vector<NodeView> boosted = equal;
    boosted[1].qosViolated = true;
    std::vector<double> flat, shifted;
    mgr.split(equal, flat);
    mgr.split(boosted, shifted);
    EXPECT_DOUBLE_EQ(flat[0], flat[1]);
    EXPECT_GT(shifted[1], shifted[0]);
    EXPECT_NEAR(sum(shifted), 100.0, 1e-9);
}

TEST(PowerManagerTest, UnsteppedNodesDemandEqually)
{
    // Before the first quantum there is no measured draw; headroom
    // rebalance degrades to an equal split.
    ClusterPowerManager mgr({.rackBudgetW = 90.0});
    const std::vector<NodeView> nodes = {
        makeView(0, 0.9, 0.0, false, /*stepped=*/false),
        makeView(1, 0.1, 0.0, false, /*stepped=*/false),
        makeView(2, 0.5, 0.0, false, /*stepped=*/false)};
    std::vector<double> out;
    mgr.split(nodes, out);
    for (const double b : out)
        EXPECT_NEAR(b, 30.0, 1e-9);
}

TEST(PowerManagerTest, CapClipsAndRedistributesOnce)
{
    PowerManagerOptions opts;
    opts.rackBudgetW = 300.0;
    opts.nodeCapW = 150.0;
    ClusterPowerManager mgr(opts);
    // Demands 100:10:10 -> raw shares 250/25/25; node 0 is clipped to
    // the cap and the 100 clipped-off watts split across the other
    // two.
    const std::vector<NodeView> nodes = {makeView(0, 0.5, 100.0),
                                         makeView(1, 0.5, 10.0),
                                         makeView(2, 0.5, 10.0)};
    std::vector<double> out;
    mgr.split(nodes, out);
    EXPECT_NEAR(out[0], 150.0, 1e-9);
    EXPECT_NEAR(out[1], 75.0, 1e-9);
    EXPECT_NEAR(out[2], 75.0, 1e-9);
    EXPECT_NEAR(sum(out), 300.0, 1e-9);
}

TEST(PowerManagerTest, AllCappedLeavesRackSlack)
{
    // When every node hits the cap the clipped watts have nowhere to
    // go; the manager leaves them as slack rather than exceeding any
    // node's chip max.
    PowerManagerOptions opts;
    opts.rackBudgetW = 300.0;
    opts.nodeCapW = 90.0;
    ClusterPowerManager mgr(opts);
    const std::vector<NodeView> nodes = {makeView(0, 0.5, 50.0),
                                         makeView(1, 0.5, 50.0),
                                         makeView(2, 0.5, 50.0)};
    std::vector<double> out;
    mgr.split(nodes, out);
    for (const double b : out)
        EXPECT_NEAR(b, 90.0, 1e-9);
    EXPECT_LT(sum(out), 300.0);
}

TEST(PowerManagerTest, OutputCapacityIsReusedAcrossQuanta)
{
    ClusterPowerManager mgr({.rackBudgetW = 200.0});
    const std::vector<NodeView> nodes = {
        makeView(0, 0.5, 0.0, false, /*stepped=*/false),
        makeView(1, 0.5, 0.0, false, /*stepped=*/false)};
    std::vector<double> out;
    mgr.split(nodes, out);
    const double *data = out.data();
    for (int q = 0; q < 16; ++q)
        mgr.split(nodes, out);
    EXPECT_EQ(out.data(), data);
}

} // namespace
} // namespace cluster
} // namespace cuttlesys
