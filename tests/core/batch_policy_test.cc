/**
 * @file
 * Tests for the batch-side policy helpers: the greedy knapsack warm
 * start's feasibility invariants, the cap-enforcement pass's way
 * reclamation, and the graded power repair / budget re-fit the
 * incremental fast path uses to track budget wiggles, plus a
 * randomized bitwise-equivalence check of the table-driven,
 * incremental implementation against a full-rescan reference.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <utility>

#include "common/rng.hh"
#include "config/job_config.hh"
#include "core/batch_policy.hh"

namespace cuttlesys {
namespace {

double
pointWays(const Point &x)
{
    double ways = 0.0;
    for (const std::uint16_t c : x)
        ways += JobConfig::fromIndex(c).cacheWays();
    return ways;
}

/**
 * A (bips, power) prediction pair with the prepared tables the batch
 * policy reads, built the way the runtime builds them each quantum.
 */
struct Tables
{
    Matrix bips;
    Matrix power;
    ObjectiveContext ctx;
    PreparedObjective prep;

    Tables(Matrix b, Matrix p) : bips(std::move(b)), power(std::move(p))
    {
        ctx.bips = &bips;
        ctx.power = &power;
        prep.rebuild(ctx);
    }
    Tables(const Tables &) = delete;
    Tables &operator=(const Tables &) = delete;
};

/** bips grows with the allocation; power is shaped per test. */
Matrix
waysBips(std::size_t jobs)
{
    Matrix bips(jobs, kNumJobConfigs);
    for (std::size_t j = 0; j < jobs; ++j) {
        for (std::size_t c = 0; c < kNumJobConfigs; ++c)
            bips(j, c) = 1.0 + JobConfig::fromIndex(c).cacheWays();
    }
    return bips;
}

TEST(KnapsackSeedTest, RepairsWayInfeasibleCheapestPowerSeed)
{
    // Power decreases with the allocation, so every job's
    // cheapest-power configuration carries the full 4 ways: the raw
    // seed uses 8 x 4 = 32 ways against an 8-way budget, and no
    // upgrade can fix that. The repair pass must downgrade it into
    // feasibility before DDS sees it.
    const std::size_t jobs = 8;
    const Matrix bips = waysBips(jobs);
    Matrix power(jobs, kNumJobConfigs);
    for (std::size_t j = 0; j < jobs; ++j) {
        for (std::size_t c = 0; c < kNumJobConfigs; ++c)
            power(j, c) = 10.0 - JobConfig::fromIndex(c).cacheWays();
    }

    const double cache_budget = 8.0;
    const Tables t(bips, power);
    const KnapsackSeed seed =
        greedyKnapsackSeed(t.prep, /*power_budget=*/1e6,
                           cache_budget);

    EXPECT_TRUE(seed.repaired);
    EXPECT_LE(seed.usedWays, cache_budget + 1e-9);
    EXPECT_NEAR(pointWays(seed.point), seed.usedWays, 1e-9);
}

TEST(KnapsackSeedTest, FeasibleSeedIsNotRepaired)
{
    // Power increases with the allocation: the cheapest-power seed
    // holds 0.5 ways per job and is feasible from the start.
    const std::size_t jobs = 8;
    const Matrix bips = waysBips(jobs);
    Matrix power(jobs, kNumJobConfigs);
    for (std::size_t j = 0; j < jobs; ++j) {
        for (std::size_t c = 0; c < kNumJobConfigs; ++c)
            power(j, c) = 1.0 + JobConfig::fromIndex(c).cacheWays();
    }

    const double cache_budget = 16.0;
    const Tables t(bips, power);
    const KnapsackSeed seed =
        greedyKnapsackSeed(t.prep, /*power_budget=*/1e6,
                           cache_budget);

    EXPECT_FALSE(seed.repaired);
    EXPECT_LE(seed.usedWays, cache_budget + 1e-9);
    // With power unconstrained the upgrade rounds should spend the
    // way budget rather than leave it idle.
    EXPECT_GT(seed.usedWays, cache_budget * 0.5);
}

TEST(KnapsackSeedTest, RepairRespectsPowerBudgetWhenPossible)
{
    // One power-feasible downgrade exists per job (same power, fewer
    // ways); the repair must prefer it over cheaper-throughput moves
    // that bust the power cap.
    const std::size_t jobs = 4;
    const Matrix bips = waysBips(jobs);
    Matrix power(jobs, kNumJobConfigs);
    for (std::size_t j = 0; j < jobs; ++j) {
        for (std::size_t c = 0; c < kNumJobConfigs; ++c)
            power(j, c) = 10.0 - JobConfig::fromIndex(c).cacheWays();
    }

    // Budget exactly the raw seed's power: any downgrade here raises
    // power (power = 10 - ways), so the "prefer power-feasible"
    // tie-break cannot apply; the repair still must terminate and
    // restore way feasibility.
    const Tables t(bips, power);
    const KnapsackSeed seed =
        greedyKnapsackSeed(t.prep, /*power_budget=*/4.0 * 6.0,
                           /*cache_budget=*/4.0);
    EXPECT_TRUE(seed.repaired);
    EXPECT_LE(seed.usedWays, 4.0 + 1e-9);
}

TEST(WayRepairTest, FeasiblePointIsUntouched)
{
    const std::size_t jobs = 4;
    const Matrix bips = waysBips(jobs);
    Matrix power(jobs, kNumJobConfigs);
    for (std::size_t j = 0; j < jobs; ++j) {
        for (std::size_t c = 0; c < kNumJobConfigs; ++c)
            power(j, c) = 2.0;
    }

    Point x(jobs, static_cast<std::uint16_t>(
                      JobConfig(CoreConfig::widest(), 1).index()));
    const Point before = x;
    const Tables t(bips, power);
    const WayRepair repair =
        repairWayOvercommit(x, t.prep, /*power_budget=*/1e6,
                            /*cache_budget=*/16.0);
    EXPECT_EQ(x, before);
    EXPECT_DOUBLE_EQ(repair.freedWays, 0.0);
    EXPECT_NEAR(repair.usedWays, pointWays(x), 1e-9);
    EXPECT_NEAR(repair.usedPowerW, 8.0, 1e-9);
}

TEST(WayRepairTest, RepairsOvercommittedPointInPlace)
{
    // Every job at the largest allocation: 8 x 4 = 32 ways against a
    // 6-way budget, exactly the shape a soft-penalty DDS point can
    // have. The repair must land under budget and report the ways it
    // released.
    const std::size_t jobs = 8;
    const Matrix bips = waysBips(jobs);
    Matrix power(jobs, kNumJobConfigs);
    for (std::size_t j = 0; j < jobs; ++j) {
        for (std::size_t c = 0; c < kNumJobConfigs; ++c)
            power(j, c) = 2.0;
    }

    Point x(jobs, static_cast<std::uint16_t>(
                      JobConfig(CoreConfig::widest(),
                                kNumCacheAllocs - 1).index()));
    const double before_ways = pointWays(x);
    const double cache_budget = 6.0;
    const Tables t(bips, power);
    const WayRepair repair =
        repairWayOvercommit(x, t.prep, /*power_budget=*/1e6,
                            cache_budget);

    EXPECT_LE(repair.usedWays, cache_budget + 1e-9);
    EXPECT_NEAR(repair.usedWays, pointWays(x), 1e-9);
    EXPECT_NEAR(repair.freedWays, before_ways - repair.usedWays, 1e-9);
    EXPECT_GT(repair.freedWays, 0.0);
    // Repair only ever releases ways: no job's allocation grew.
    for (const std::uint16_t c : x) {
        EXPECT_LE(JobConfig::fromIndex(c).cacheWays(),
                  kCacheAllocWays[kNumCacheAllocs - 1]);
    }
}

SliceDecision
fourWayDecision(std::size_t jobs)
{
    SliceDecision d;
    d.batchConfigs.assign(jobs, JobConfig(CoreConfig::widest(),
                                          kNumCacheAllocs - 1));
    d.batchActive.assign(jobs, true);
    return d;
}

TEST(CapEnforcementTest, GatedVictimsReleaseTheirWays)
{
    const std::size_t jobs = 4;
    SliceDecision d = fourWayDecision(jobs);
    Matrix power(jobs, kNumJobConfigs);
    for (std::size_t j = 0; j < jobs; ++j) {
        for (std::size_t c = 0; c < kNumJobConfigs; ++c)
            power(j, c) = 10.0 * static_cast<double>(j + 1);
    }

    // Total 100 W against 45 W: gate job 3 (40 W) then job 2 (30 W).
    CapEnforcement result;
    enforcePowerCap(d, power, 45.0, result);

    ASSERT_EQ(result.victims.size(), 2u);
    EXPECT_EQ(result.victims[0], 3u);
    EXPECT_EQ(result.victims[1], 2u);
    EXPECT_DOUBLE_EQ(result.finalPowerW, 30.0);

    for (const std::size_t v : result.victims) {
        EXPECT_FALSE(d.batchActive[v]);
        // The gated core's LLC allocation must shrink to the smallest
        // rank — leaving 4 ways assigned to an off core charges the
        // budget for cache nobody touches.
        EXPECT_DOUBLE_EQ(d.batchConfigs[v].cacheWays(),
                         kCacheAllocWays[0]);
    }
    EXPECT_DOUBLE_EQ(result.reclaimedWays,
                     2.0 * (kCacheAllocWays[kNumCacheAllocs - 1] -
                            kCacheAllocWays[0]));

    // Survivors keep their allocation.
    EXPECT_TRUE(d.batchActive[0]);
    EXPECT_TRUE(d.batchActive[1]);
    EXPECT_DOUBLE_EQ(d.batchConfigs[0].cacheWays(),
                     kCacheAllocWays[kNumCacheAllocs - 1]);
}

TEST(CapEnforcementTest, UnderBudgetIsUntouched)
{
    const std::size_t jobs = 3;
    SliceDecision d = fourWayDecision(jobs);
    Matrix power(jobs, kNumJobConfigs);
    for (std::size_t j = 0; j < jobs; ++j) {
        for (std::size_t c = 0; c < kNumJobConfigs; ++c)
            power(j, c) = 5.0;
    }

    // A reused result is overwritten, not appended to.
    CapEnforcement result{.victims = {7}, .reclaimedWays = 3.0};
    enforcePowerCap(d, power, 100.0, result);
    EXPECT_TRUE(result.victims.empty());
    EXPECT_DOUBLE_EQ(result.reclaimedWays, 0.0);
    EXPECT_DOUBLE_EQ(result.finalPowerW, 15.0);
    for (std::size_t j = 0; j < jobs; ++j) {
        EXPECT_TRUE(d.batchActive[j]);
        EXPECT_DOUBLE_EQ(d.batchConfigs[j].cacheWays(),
                         kCacheAllocWays[kNumCacheAllocs - 1]);
    }
}

TEST(CapEnforcementTest, GatesEverythingWhenBudgetBelowFloor)
{
    const std::size_t jobs = 2;
    SliceDecision d = fourWayDecision(jobs);
    Matrix power(jobs, kNumJobConfigs);
    for (std::size_t j = 0; j < jobs; ++j) {
        for (std::size_t c = 0; c < kNumJobConfigs; ++c)
            power(j, c) = 50.0;
    }

    CapEnforcement result;
    enforcePowerCap(d, power, 1.0, result);
    EXPECT_EQ(result.victims.size(), 2u);
    EXPECT_FALSE(d.batchActive[0]);
    EXPECT_FALSE(d.batchActive[1]);
}

double
pointPower(const Point &x, const Matrix &power)
{
    double w = 0.0;
    for (std::size_t j = 0; j < x.size(); ++j)
        w += power(j, x[j]);
    return w;
}

/** Power grows with the allocation (1 + ways per job). */
Matrix
waysPower(std::size_t jobs)
{
    Matrix power(jobs, kNumJobConfigs);
    for (std::size_t j = 0; j < jobs; ++j) {
        for (std::size_t c = 0; c < kNumJobConfigs; ++c)
            power(j, c) = 1.0 + JobConfig::fromIndex(c).cacheWays();
    }
    return power;
}

TEST(PowerRepairTest, UnderBudgetPointIsUntouched)
{
    const std::size_t jobs = 4;
    const Matrix bips = waysBips(jobs);
    const Matrix power = waysPower(jobs);

    Point x(jobs, static_cast<std::uint16_t>(
                      JobConfig(CoreConfig::widest(), 1).index()));
    const Point before = x;
    const Tables t(bips, power);
    const PowerRepair repair = repairPowerOvercommit(
        x, t.prep, /*power_budget=*/1e6, /*cache_budget=*/16.0);

    EXPECT_EQ(x, before);
    EXPECT_TRUE(repair.feasible);
    EXPECT_DOUBLE_EQ(repair.shavedPowerW, 0.0);
    EXPECT_NEAR(repair.usedPowerW, pointPower(x, power), 1e-9);
    EXPECT_NEAR(repair.usedWays, pointWays(x), 1e-9);
}

TEST(PowerRepairTest, ShedsWattsThroughGradedDowngrades)
{
    // Every job at the largest allocation (5 W each, 20 W total)
    // against an 18 W budget: the graded repair must shed the ~2 W
    // through config downgrades — no job gated, every job still
    // holding a real allocation.
    const std::size_t jobs = 4;
    const Matrix bips = waysBips(jobs);
    const Matrix power = waysPower(jobs);

    Point x(jobs, static_cast<std::uint16_t>(
                      JobConfig(CoreConfig::widest(),
                                kNumCacheAllocs - 1).index()));
    const double before_power = pointPower(x, power);
    const double power_budget = 18.0;
    const Tables t(bips, power);
    const PowerRepair repair = repairPowerOvercommit(
        x, t.prep, power_budget, /*cache_budget=*/16.0);

    EXPECT_TRUE(repair.feasible);
    EXPECT_LE(repair.usedPowerW, power_budget + 1e-9);
    EXPECT_NEAR(repair.usedPowerW, pointPower(x, power), 1e-9);
    EXPECT_NEAR(repair.shavedPowerW, before_power - repair.usedPowerW,
                1e-9);
    EXPECT_GT(repair.shavedPowerW, 0.0);
    // Graded, not gated: every job keeps a positive predicted bips.
    for (std::size_t j = 0; j < jobs; ++j)
        EXPECT_GT(bips(j, x[j]), 0.0);
}

TEST(PowerRepairTest, InfeasibleWhenFloorExceedsBudget)
{
    // Even each job's cheapest configuration burns 1 W; a 0.5 W
    // budget cannot be repaired by downgrading. The repair must say
    // so instead of looping or lying.
    const std::size_t jobs = 2;
    const Matrix bips = waysBips(jobs);
    const Matrix power = waysPower(jobs);

    Point x(jobs, static_cast<std::uint16_t>(
                      JobConfig(CoreConfig::widest(), 1).index()));
    const Tables t(bips, power);
    const PowerRepair repair = repairPowerOvercommit(
        x, t.prep, /*power_budget=*/0.5, /*cache_budget=*/16.0);
    EXPECT_FALSE(repair.feasible);
}

TEST(PowerRepairTest, NeverTradesPowerForWayOvercommit)
{
    // Power decreases with the allocation (cheap watts = many ways),
    // and the way budget is exactly the point's current usage: every
    // power downgrade would overcommit the LLC, so none is legal and
    // the repair must report infeasibility with the point untouched.
    const std::size_t jobs = 2;
    const Matrix bips = waysBips(jobs);
    Matrix power(jobs, kNumJobConfigs);
    for (std::size_t j = 0; j < jobs; ++j) {
        for (std::size_t c = 0; c < kNumJobConfigs; ++c)
            power(j, c) = 10.0 - JobConfig::fromIndex(c).cacheWays();
    }

    Point x(jobs, static_cast<std::uint16_t>(
                      JobConfig(CoreConfig::widest(), 0).index()));
    const Point before = x;
    const Tables t(bips, power);
    const PowerRepair repair = repairPowerOvercommit(
        x, t.prep, /*power_budget=*/1.0,
        /*cache_budget=*/pointWays(x));
    EXPECT_FALSE(repair.feasible);
    EXPECT_EQ(x, before);
}

TEST(RefitTest, SpendsHeadroomWhenBudgetAllows)
{
    // A modest point under a generous budget: the re-fit's upgrade
    // rounds must grow it toward the budgets instead of leaving the
    // headroom idle (the full search would have spent it).
    const std::size_t jobs = 4;
    const Matrix bips = waysBips(jobs);
    const Matrix power = waysPower(jobs);

    Point x(jobs, static_cast<std::uint16_t>(
                      JobConfig(CoreConfig::widest(), 0).index()));
    const double before_power = pointPower(x, power);
    const double power_budget = 16.0;
    const double cache_budget = 12.0;
    const Tables t(bips, power);
    UpgradeScratch scratch;
    const PowerRepair refit = refitPointToBudgets(
        x, t.prep, power_budget, cache_budget, scratch);

    EXPECT_TRUE(refit.feasible);
    EXPECT_GT(refit.usedPowerW, before_power);
    EXPECT_LE(refit.usedPowerW, power_budget + 1e-9);
    EXPECT_LE(refit.usedWays, cache_budget + 1e-9);
    EXPECT_NEAR(refit.usedPowerW, pointPower(x, power), 1e-9);
    EXPECT_NEAR(refit.usedWays, pointWays(x), 1e-9);
}

TEST(RefitTest, BudgetDipThenRecoveryRegrowsThePoint)
{
    // Shrink under a dipped budget, then re-fit the shrunken point
    // under the recovered budget: allocations must grow back instead
    // of staying pinned at the dip's configs.
    const std::size_t jobs = 4;
    const Matrix bips = waysBips(jobs);
    const Matrix power = waysPower(jobs);

    Point x(jobs, static_cast<std::uint16_t>(
                      JobConfig(CoreConfig::widest(),
                                kNumCacheAllocs - 1).index()));
    const double high_budget = pointPower(x, power);
    const Tables t(bips, power);
    UpgradeScratch scratch;
    const PowerRepair dipped = refitPointToBudgets(
        x, t.prep, 0.9 * high_budget, /*cache_budget=*/16.0, scratch);
    ASSERT_TRUE(dipped.feasible);
    EXPECT_LE(dipped.usedPowerW, 0.9 * high_budget + 1e-9);

    const PowerRepair recovered = refitPointToBudgets(
        x, t.prep, high_budget, /*cache_budget=*/16.0, scratch);
    EXPECT_TRUE(recovered.feasible);
    EXPECT_GT(recovered.usedPowerW, dipped.usedPowerW);
    EXPECT_LE(recovered.usedPowerW, high_budget + 1e-9);
}

// --- full-rescan reference ------------------------------------------
//
// The batch policy as it read the (bips, power) matrices directly: a
// std::log and a JobConfig decode per cell, and a rescan of every
// (job, config) cell in every upgrade round. The table-driven,
// incremental implementation must make exactly the same moves.
namespace ref {

double
logBips(const Matrix &bips, std::size_t j, std::size_t c)
{
    return std::log(std::max(bips(j, c), 1e-6));
}

double
ways(std::size_t c)
{
    return JobConfig::fromIndex(c).cacheWays();
}

void
upgradeRounds(Point &x, const Matrix &bips, const Matrix &power,
              double power_budget, double cache_budget,
              double &used_power, double &used_ways)
{
    const std::size_t jobs = bips.rows();
    const std::size_t configs = bips.cols();
    const double way_rate =
        cache_budget > 0.0 ? 0.1 * power_budget / cache_budget : 1e9;

    for (std::size_t round = 0; round < jobs * configs; ++round) {
        double best_gain = 0.0;
        std::size_t best_job = jobs;
        std::size_t best_cfg = 0;
        for (std::size_t j = 0; j < jobs; ++j) {
            const std::size_t cur = x[j];
            for (std::size_t c = 0; c < configs; ++c) {
                const double benefit =
                    logBips(bips, j, c) - logBips(bips, j, cur);
                if (benefit <= 0.0)
                    continue;
                const double d_power = power(j, c) - power(j, cur);
                const double d_ways = ways(c) - ways(cur);
                if (used_power + d_power > power_budget ||
                    used_ways + d_ways > cache_budget)
                    continue;
                const double cost = std::max(d_power, 0.0) +
                                    way_rate * std::max(d_ways, 0.0) +
                                    1e-6;
                const double gain = benefit / cost;
                if (gain > best_gain) {
                    best_gain = gain;
                    best_job = j;
                    best_cfg = c;
                }
            }
        }
        if (best_job == jobs)
            break;
        used_power +=
            power(best_job, best_cfg) - power(best_job, x[best_job]);
        used_ways += ways(best_cfg) - ways(x[best_job]);
        x[best_job] = static_cast<std::uint16_t>(best_cfg);
    }
}

WayRepair
repairWayOvercommit(Point &point, const Matrix &bips,
                    const Matrix &power, double power_budget,
                    double cache_budget)
{
    const std::size_t jobs = bips.rows();
    const std::size_t configs = bips.cols();
    WayRepair repair;
    double used_power = 0.0;
    double used_ways = 0.0;
    for (std::size_t j = 0; j < jobs; ++j) {
        used_power += power(j, point[j]);
        used_ways += ways(point[j]);
    }
    while (used_ways > cache_budget + 1e-9) {
        std::size_t best_job = jobs;
        std::size_t best_cfg = 0;
        double best_ratio = std::numeric_limits<double>::infinity();
        bool best_power_ok = false;
        for (std::size_t j = 0; j < jobs; ++j) {
            const std::size_t cur = point[j];
            for (std::size_t c = 0; c < configs; ++c) {
                const double d_ways = ways(c) - ways(cur);
                if (d_ways >= 0.0)
                    continue;
                const double d_power = power(j, c) - power(j, cur);
                const bool power_ok =
                    used_power + d_power <= power_budget ||
                    d_power <= 0.0;
                if (best_power_ok && !power_ok)
                    continue;
                const double loss =
                    logBips(bips, j, cur) - logBips(bips, j, c);
                const double ratio = loss / -d_ways;
                if ((power_ok && !best_power_ok) ||
                    ratio < best_ratio) {
                    best_ratio = ratio;
                    best_job = j;
                    best_cfg = c;
                    best_power_ok = power_ok;
                }
            }
        }
        if (best_job == jobs)
            break;
        used_power += power(best_job, best_cfg) -
                      power(best_job, point[best_job]);
        const double d_ways = ways(best_cfg) - ways(point[best_job]);
        used_ways += d_ways;
        repair.freedWays -= d_ways;
        point[best_job] = static_cast<std::uint16_t>(best_cfg);
    }
    repair.usedPowerW = used_power;
    repair.usedWays = used_ways;
    return repair;
}

PowerRepair
repairPowerOvercommit(Point &point, const Matrix &bips,
                      const Matrix &power, double power_budget,
                      double cache_budget)
{
    const std::size_t jobs = bips.rows();
    const std::size_t configs = bips.cols();
    PowerRepair repair;
    double used_power = 0.0;
    double used_ways = 0.0;
    for (std::size_t j = 0; j < jobs; ++j) {
        used_power += power(j, point[j]);
        used_ways += ways(point[j]);
    }
    const double start_power = used_power;
    while (used_power > power_budget + 1e-9) {
        std::size_t best_job = jobs;
        std::size_t best_cfg = 0;
        double best_ratio = std::numeric_limits<double>::infinity();
        for (std::size_t j = 0; j < jobs; ++j) {
            const std::size_t cur = point[j];
            for (std::size_t c = 0; c < configs; ++c) {
                const double d_power = power(j, c) - power(j, cur);
                if (d_power >= 0.0)
                    continue;
                const double d_ways = ways(c) - ways(cur);
                if (used_ways + d_ways > cache_budget + 1e-9)
                    continue;
                const double loss =
                    logBips(bips, j, cur) - logBips(bips, j, c);
                const double ratio = loss / -d_power;
                if (ratio < best_ratio) {
                    best_ratio = ratio;
                    best_job = j;
                    best_cfg = c;
                }
            }
        }
        if (best_job == jobs)
            break;
        used_power += power(best_job, best_cfg) -
                      power(best_job, point[best_job]);
        used_ways += ways(best_cfg) - ways(point[best_job]);
        point[best_job] = static_cast<std::uint16_t>(best_cfg);
    }
    repair.shavedPowerW = start_power - used_power;
    repair.usedPowerW = used_power;
    repair.usedWays = used_ways;
    repair.feasible = used_power <= power_budget + 1e-9;
    return repair;
}

PowerRepair
refitPointToBudgets(Point &point, const Matrix &bips,
                    const Matrix &power, double power_budget,
                    double cache_budget)
{
    PowerRepair repair = repairPowerOvercommit(
        point, bips, power, power_budget, cache_budget);
    if (!repair.feasible)
        return repair;
    double used_power = repair.usedPowerW;
    double used_ways = repair.usedWays;
    upgradeRounds(point, bips, power, power_budget, cache_budget,
                  used_power, used_ways);
    repair.usedPowerW = used_power;
    repair.usedWays = used_ways;
    return repair;
}

KnapsackSeed
greedyKnapsackSeed(const Matrix &bips, const Matrix &power,
                   double power_budget, double cache_budget)
{
    const std::size_t jobs = bips.rows();
    const std::size_t configs = bips.cols();
    KnapsackSeed seed;
    Point &x = seed.point;
    x.assign(jobs, 0);
    for (std::size_t j = 0; j < jobs; ++j) {
        std::size_t cheapest = 0;
        for (std::size_t c = 1; c < configs; ++c) {
            if (power(j, c) < power(j, cheapest))
                cheapest = c;
        }
        x[j] = static_cast<std::uint16_t>(cheapest);
    }
    const WayRepair repair = repairWayOvercommit(
        x, bips, power, power_budget, cache_budget);
    seed.repaired = repair.freedWays > 0.0;
    double used_power = repair.usedPowerW;
    double used_ways = repair.usedWays;
    upgradeRounds(x, bips, power, power_budget, cache_budget,
                  used_power, used_ways);
    seed.usedPowerW = used_power;
    seed.usedWays = used_ways;
    return seed;
}

} // namespace ref

/** Bitwise equality: EXPECT_EQ on doubles would let -0.0 == 0.0. */
::testing::AssertionResult
sameBits(double a, double b)
{
    if (std::bit_cast<std::uint64_t>(a) ==
        std::bit_cast<std::uint64_t>(b))
        return ::testing::AssertionSuccess();
    return ::testing::AssertionFailure()
           << a << " and " << b << " differ in their bits";
}

/**
 * A random instance whose values sit on coarse grids, so equal gains
 * (and equal loss ratios) are common and the first-max tie-break is
 * exercised; about a third of the rows repeat an earlier row, so
 * whole jobs tie. A few bips cells fall below the 1e-6 log floor.
 */
void
randomMatrices(Rng &rng, std::size_t jobs, Matrix &bips, Matrix &power)
{
    bips = Matrix(jobs, kNumJobConfigs);
    power = Matrix(jobs, kNumJobConfigs);
    for (std::size_t j = 0; j < jobs; ++j) {
        if (j > 0 && rng.bernoulli(0.3)) {
            const auto src = static_cast<std::size_t>(rng.uniformInt(
                0, static_cast<std::int64_t>(j) - 1));
            for (std::size_t c = 0; c < kNumJobConfigs; ++c) {
                bips(j, c) = bips(src, c);
                power(j, c) = power(src, c);
            }
            continue;
        }
        for (std::size_t c = 0; c < kNumJobConfigs; ++c) {
            bips(j, c) = rng.bernoulli(0.02)
                             ? 0.0
                             : 0.25 * static_cast<double>(
                                          rng.uniformInt(1, 16));
            power(j, c) =
                0.5 * static_cast<double>(rng.uniformInt(1, 8));
        }
    }
}

/** Budgets from one of three regimes, relative to the instance. */
void
randomBudgets(Rng &rng, const Matrix &power, double &power_budget,
              double &cache_budget)
{
    const std::size_t jobs = power.rows();
    double min_power = 0.0;
    double max_power = 0.0;
    for (std::size_t j = 0; j < jobs; ++j) {
        double lo = power(j, 0);
        double hi = power(j, 0);
        for (std::size_t c = 1; c < kNumJobConfigs; ++c) {
            lo = std::min(lo, power(j, c));
            hi = std::max(hi, power(j, c));
        }
        min_power += lo;
        max_power += hi;
    }
    const double n = static_cast<double>(jobs);
    switch (rng.uniformInt(0, 2)) {
      case 0: // way-infeasible: below even the smallest allocations
        power_budget = rng.uniform(min_power, max_power);
        cache_budget = rng.uniform(0.0, n * kCacheAllocWays[0]);
        break;
      case 1: // tight: just above the floors
        power_budget = min_power + rng.uniform(0.0, 0.15) *
                                       (max_power - min_power);
        cache_budget = n * kCacheAllocWays[0] + rng.uniform(0.0, n);
        break;
      default: // loose
        power_budget = rng.uniform(min_power, 1.2 * max_power);
        cache_budget = rng.uniform(
            n, n * kCacheAllocWays[kNumCacheAllocs - 1]);
        break;
    }
    // Quantized budgets land exactly on reachable totals now and then.
    if (rng.bernoulli(0.3)) {
        power_budget = 0.5 * std::round(2.0 * power_budget);
        cache_budget = 0.5 * std::round(2.0 * cache_budget);
    }
}

Point
randomPoint(Rng &rng, std::size_t jobs)
{
    Point x(jobs);
    for (std::uint16_t &c : x) {
        c = static_cast<std::uint16_t>(rng.uniformInt(
            0, static_cast<std::int64_t>(kNumJobConfigs) - 1));
    }
    return x;
}

TEST(BatchPolicyEquivalenceTest, TablesMatchTheFullRescanBitwise)
{
    Rng rng(20161);
    // One seed and one re-fit scratch across every instance, as the
    // runtime reuses them quantum over quantum, so scratch left by a
    // larger instance must not leak into a smaller one.
    KnapsackSeed seed;
    UpgradeScratch scratch;
    std::size_t repaired_seeds = 0;
    std::size_t infeasible_refits = 0;
    constexpr std::size_t kInstances = 600;
    for (std::size_t i = 0; i < kInstances; ++i) {
        const auto jobs = static_cast<std::size_t>(1 + i % 20);
        Matrix bips, power;
        randomMatrices(rng, jobs, bips, power);
        double power_budget = 0.0;
        double cache_budget = 0.0;
        randomBudgets(rng, power, power_budget, cache_budget);
        const Tables t(bips, power);
        SCOPED_TRACE(::testing::Message()
                     << "instance " << i << ", " << jobs << " jobs, "
                     << power_budget << " W, " << cache_budget
                     << " ways");

        greedyKnapsackSeed(t.prep, power_budget, cache_budget, seed);
        const KnapsackSeed want = ref::greedyKnapsackSeed(
            bips, power, power_budget, cache_budget);
        ASSERT_EQ(seed.point, want.point);
        EXPECT_TRUE(sameBits(seed.usedPowerW, want.usedPowerW));
        EXPECT_TRUE(sameBits(seed.usedWays, want.usedWays));
        EXPECT_EQ(seed.repaired, want.repaired);
        repaired_seeds += seed.repaired ? 1 : 0;

        const Point start = randomPoint(rng, jobs);
        {
            Point got = start;
            Point exp = start;
            const WayRepair a = repairWayOvercommit(
                got, t.prep, power_budget, cache_budget);
            const WayRepair b = ref::repairWayOvercommit(
                exp, bips, power, power_budget, cache_budget);
            ASSERT_EQ(got, exp);
            EXPECT_TRUE(sameBits(a.freedWays, b.freedWays));
            EXPECT_TRUE(sameBits(a.usedPowerW, b.usedPowerW));
            EXPECT_TRUE(sameBits(a.usedWays, b.usedWays));
        }
        {
            Point got = start;
            Point exp = start;
            const PowerRepair a = repairPowerOvercommit(
                got, t.prep, power_budget, cache_budget);
            const PowerRepair b = ref::repairPowerOvercommit(
                exp, bips, power, power_budget, cache_budget);
            ASSERT_EQ(got, exp);
            EXPECT_TRUE(sameBits(a.shavedPowerW, b.shavedPowerW));
            EXPECT_TRUE(sameBits(a.usedPowerW, b.usedPowerW));
            EXPECT_TRUE(sameBits(a.usedWays, b.usedWays));
            EXPECT_EQ(a.feasible, b.feasible);
        }
        {
            Point got = start;
            Point exp = start;
            const PowerRepair a = refitPointToBudgets(
                got, t.prep, power_budget, cache_budget, scratch);
            const PowerRepair b = ref::refitPointToBudgets(
                exp, bips, power, power_budget, cache_budget);
            ASSERT_EQ(got, exp);
            EXPECT_TRUE(sameBits(a.shavedPowerW, b.shavedPowerW));
            EXPECT_TRUE(sameBits(a.usedPowerW, b.usedPowerW));
            EXPECT_TRUE(sameBits(a.usedWays, b.usedWays));
            EXPECT_EQ(a.feasible, b.feasible);
            infeasible_refits += a.feasible ? 0 : 1;
        }
    }
    // The regimes must actually reach the repair and failure paths.
    EXPECT_GT(repaired_seeds, kInstances / 10);
    EXPECT_GT(infeasible_refits, kInstances / 20);
}

} // namespace
} // namespace cuttlesys
