#include "core/batch_policy.hh"

#include <algorithm>
#include <limits>

#include "common/logging.hh"

namespace cuttlesys {

namespace {

/** bestCfg value of a job with no affordable upgrade. */
constexpr std::uint16_t kNoUpgrade = 0xffff;

/**
 * Best-gain-per-cost upgrade rounds shared by the greedy warm start
 * and the fast-path budget re-fit: repeatedly buy the config upgrade
 * with the best log-throughput gain per unit of (power + priced way)
 * cost until neither budget admits another move. @p used_power /
 * @p used_ways must be the point's current totals and are updated in
 * place.
 *
 * Each round picks the first strict maximum in (job, config) order,
 * which is the first strict maximum over jobs of each job's own first
 * strict maximum over configs. The rounds cache that per-job best in
 * @p scratch and rescan a job only when its cached best can have
 * changed. A job's gains depend on its own config alone, never on the
 * totals; the totals only decide which upgrades are affordable. So
 * after an upgrade:
 *  - the upgraded job is rescanned (its gains moved);
 *  - an upgrade that freed power or ways can make any job's
 *    unaffordable moves affordable, so every job is rescanned;
 *  - otherwise both totals only grew (rounded addition is monotone),
 *    every job's affordable set only narrowed, and a cached best
 *    that is still affordable is still the first maximum of its
 *    narrowed set. Only jobs whose cached best became unaffordable
 *    are rescanned.
 * The moves bought are therefore exactly those of a full rescan every
 * round, bit for bit.
 */
void
upgradeRounds(Point &x, const PreparedObjective &prep,
              double power_budget, double cache_budget,
              double &used_power, double &used_ways,
              UpgradeScratch &scratch)
{
    const std::size_t jobs = prep.numJobs();
    const std::size_t configs = prep.numConfigs();
    const double *ways = prep.waysTable();

    // Ways are priced far below their power-equivalent exchange rate:
    // the hard feasibility checks below keep both budgets respected,
    // and when power is the binding constraint the leftover LLC ways
    // should flow to whoever's miss curve wants them rather than sit
    // unused.
    const double way_rate =
        cache_budget > 0.0 ? 0.1 * power_budget / cache_budget : 1e9;

    const auto affordable = [&](double d_power, double d_ways) {
        return !(used_power + d_power > power_budget ||
                 used_ways + d_ways > cache_budget);
    };
    const auto scan = [&](std::size_t j) {
        const double *log_bips = prep.logTable() + j * configs;
        const double *power = prep.powerTable() + j * configs;
        const std::size_t cur = x[j];
        double best_gain = 0.0;
        std::uint16_t best_cfg = kNoUpgrade;
        for (std::size_t c = 0; c < configs; ++c) {
            const double benefit = log_bips[c] - log_bips[cur];
            if (benefit <= 0.0)
                continue;
            const double d_power = power[c] - power[cur];
            const double d_ways = ways[c] - ways[cur];
            if (!affordable(d_power, d_ways))
                continue;
            const double cost = std::max(d_power, 0.0) +
                                way_rate * std::max(d_ways, 0.0) +
                                1e-6;
            const double gain = benefit / cost;
            if (gain > best_gain) {
                best_gain = gain;
                best_cfg = static_cast<std::uint16_t>(c);
            }
        }
        scratch.bestGain[j] = best_gain;
        scratch.bestCfg[j] = best_cfg;
    };

    scratch.bestGain.resize(jobs);
    scratch.bestCfg.resize(jobs);
    for (std::size_t j = 0; j < jobs; ++j)
        scan(j);

    for (std::size_t round = 0; round < jobs * configs; ++round) {
        double best_gain = 0.0;
        std::size_t best_job = jobs;
        for (std::size_t j = 0; j < jobs; ++j) {
            if (scratch.bestGain[j] > best_gain) {
                best_gain = scratch.bestGain[j];
                best_job = j;
            }
        }
        if (best_job == jobs)
            break;
        const std::size_t to = scratch.bestCfg[best_job];
        const std::size_t from = x[best_job];
        const double d_power =
            prep.power(best_job, to) - prep.power(best_job, from);
        const double d_ways = ways[to] - ways[from];
        used_power += d_power;
        used_ways += d_ways;
        x[best_job] = static_cast<std::uint16_t>(to);

        if (d_power < 0.0 || d_ways < 0.0) {
            for (std::size_t j = 0; j < jobs; ++j)
                scan(j);
            continue;
        }
        scan(best_job);
        for (std::size_t j = 0; j < jobs; ++j) {
            const std::size_t c = scratch.bestCfg[j];
            if (j == best_job || c == kNoUpgrade)
                continue;
            if (!affordable(prep.power(j, c) - prep.power(j, x[j]),
                            ways[c] - ways[x[j]]))
                scan(j);
        }
    }
}

/** Sum the point's predicted power and way usage in job order. */
void
pointTotals(const Point &point, const PreparedObjective &prep,
            double &used_power, double &used_ways)
{
    used_power = 0.0;
    used_ways = 0.0;
    for (std::size_t j = 0; j < point.size(); ++j) {
        used_power += prep.power(j, point[j]);
        used_ways += prep.ways(point[j]);
    }
}

} // namespace

WayRepair
repairWayOvercommit(Point &point, const PreparedObjective &prep,
                    double power_budget, double cache_budget)
{
    const std::size_t jobs = prep.numJobs();
    const std::size_t configs = prep.numConfigs();
    CS_ASSERT(point.size() == jobs, "point shape mismatch");

    WayRepair repair;
    double used_power = 0.0;
    double used_ways = 0.0;
    pointTotals(point, prep, used_power, used_ways);

    // Repeatedly take the downgrade that frees ways at the least
    // log-throughput cost, preferring moves that keep the power
    // budget respected.
    while (used_ways > cache_budget + 1e-9) {
        std::size_t best_job = jobs;
        std::size_t best_cfg = 0;
        double best_ratio = std::numeric_limits<double>::infinity();
        bool best_power_ok = false;
        for (std::size_t j = 0; j < jobs; ++j) {
            const std::size_t cur = point[j];
            const double cur_ways = prep.ways(cur);
            for (std::size_t c = 0; c < configs; ++c) {
                const double d_ways = prep.ways(c) - cur_ways;
                if (d_ways >= 0.0)
                    continue;
                const double d_power =
                    prep.power(j, c) - prep.power(j, cur);
                const bool power_ok =
                    used_power + d_power <= power_budget ||
                    d_power <= 0.0;
                // A power-feasible downgrade always beats one that
                // busts the cap, no matter the throughput ratio.
                if (best_power_ok && !power_ok)
                    continue;
                const double loss =
                    prep.logBips(j, cur) - prep.logBips(j, c);
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
            break; // every job already at its smallest allocation
        used_power += prep.power(best_job, best_cfg) -
                      prep.power(best_job, point[best_job]);
        const double d_ways =
            prep.ways(best_cfg) - prep.ways(point[best_job]);
        used_ways += d_ways;
        repair.freedWays -= d_ways;
        point[best_job] = static_cast<std::uint16_t>(best_cfg);
    }
    repair.usedPowerW = used_power;
    repair.usedWays = used_ways;
    return repair;
}

PowerRepair
repairPowerOvercommit(Point &point, const PreparedObjective &prep,
                      double power_budget, double cache_budget)
{
    const std::size_t jobs = prep.numJobs();
    const std::size_t configs = prep.numConfigs();
    CS_ASSERT(point.size() == jobs, "point shape mismatch");

    PowerRepair repair;
    double used_power = 0.0;
    double used_ways = 0.0;
    pointTotals(point, prep, used_power, used_ways);
    const double start_power = used_power;

    // Repeatedly take the downgrade that sheds watts at the least
    // log-throughput cost; moves that would overcommit the LLC ways
    // are never candidates.
    while (used_power > power_budget + 1e-9) {
        std::size_t best_job = jobs;
        std::size_t best_cfg = 0;
        double best_ratio = std::numeric_limits<double>::infinity();
        for (std::size_t j = 0; j < jobs; ++j) {
            const std::size_t cur = point[j];
            const double cur_ways = prep.ways(cur);
            for (std::size_t c = 0; c < configs; ++c) {
                const double d_power =
                    prep.power(j, c) - prep.power(j, cur);
                if (d_power >= 0.0)
                    continue;
                const double d_ways = prep.ways(c) - cur_ways;
                if (used_ways + d_ways > cache_budget + 1e-9)
                    continue;
                const double loss =
                    prep.logBips(j, cur) - prep.logBips(j, c);
                const double ratio = loss / -d_power;
                if (ratio < best_ratio) {
                    best_ratio = ratio;
                    best_job = j;
                    best_cfg = c;
                }
            }
        }
        if (best_job == jobs)
            break; // every job already at its cheapest configuration
        used_power += prep.power(best_job, best_cfg) -
                      prep.power(best_job, point[best_job]);
        used_ways += prep.ways(best_cfg) - prep.ways(point[best_job]);
        point[best_job] = static_cast<std::uint16_t>(best_cfg);
    }
    repair.shavedPowerW = start_power - used_power;
    repair.usedPowerW = used_power;
    repair.usedWays = used_ways;
    repair.feasible = used_power <= power_budget + 1e-9;
    return repair;
}

PowerRepair
refitPointToBudgets(Point &point, const PreparedObjective &prep,
                    double power_budget, double cache_budget,
                    UpgradeScratch &scratch)
{
    PowerRepair repair = repairPowerOvercommit(
        point, prep, power_budget, cache_budget);
    if (!repair.feasible)
        return repair;
    double used_power = repair.usedPowerW;
    double used_ways = repair.usedWays;
    upgradeRounds(point, prep, power_budget, cache_budget, used_power,
                  used_ways, scratch);
    repair.usedPowerW = used_power;
    repair.usedWays = used_ways;
    return repair;
}

void
greedyKnapsackSeed(const PreparedObjective &prep, double power_budget,
                   double cache_budget, KnapsackSeed &seed)
{
    const std::size_t jobs = prep.numJobs();
    const std::size_t configs = prep.numConfigs();
    seed.usedPowerW = 0.0;
    seed.usedWays = 0.0;
    seed.repaired = false;
    Point &x = seed.point;
    x.assign(jobs, 0);

    for (std::size_t j = 0; j < jobs; ++j) {
        std::size_t cheapest = 0;
        for (std::size_t c = 1; c < configs; ++c) {
            if (prep.power(j, c) < prep.power(j, cheapest))
                cheapest = c;
        }
        x[j] = static_cast<std::uint16_t>(cheapest);
    }

    // The cheapest-power configurations carry whatever allocation
    // happens to minimize power, so their combined ways can overshoot
    // the budget before a single upgrade happens. The upgrade loop
    // below only refuses moves, so an infeasible seed would stay
    // infeasible and hand DDS a penalized starting point: repair it
    // first.
    const WayRepair repair =
        repairWayOvercommit(x, prep, power_budget, cache_budget);
    seed.repaired = repair.freedWays > 0.0;
    double used_power = repair.usedPowerW;
    double used_ways = repair.usedWays;
    upgradeRounds(x, prep, power_budget, cache_budget, used_power,
                  used_ways, seed.upgrades);
    seed.usedPowerW = used_power;
    seed.usedWays = used_ways;
}

KnapsackSeed
greedyKnapsackSeed(const PreparedObjective &prep, double power_budget,
                   double cache_budget)
{
    KnapsackSeed seed;
    greedyKnapsackSeed(prep, power_budget, cache_budget, seed);
    return seed;
}

void
enforcePowerCap(SliceDecision &decision, const Matrix &power,
                double power_budget, CapEnforcement &out)
{
    const std::size_t jobs = decision.batchConfigs.size();
    CS_ASSERT(decision.batchActive.size() == jobs,
              "decision shape mismatch");
    CS_ASSERT(power.rows() >= jobs, "power matrix too small");

    out.victims.clear();
    out.reclaimedWays = 0.0;
    double batch_power = 0.0;
    for (std::size_t j = 0; j < jobs; ++j) {
        if (decision.batchActive[j])
            batch_power += power(j, decision.batchConfigs[j].index());
    }

    while (batch_power > power_budget) {
        std::size_t victim = jobs;
        double victim_power = -1.0;
        for (std::size_t j = 0; j < jobs; ++j) {
            if (!decision.batchActive[j])
                continue;
            const double p =
                power(j, decision.batchConfigs[j].index());
            if (p > victim_power) {
                victim_power = p;
                victim = j;
            }
        }
        if (victim == jobs)
            break; // everything is gated already
        decision.batchActive[victim] = false;
        batch_power -= victim_power;
        // A gated core holds no cache: release its LLC ways back to
        // the partition instead of leaving a phantom allocation
        // charged against the budget.
        const JobConfig &was = decision.batchConfigs[victim];
        const double freed = was.cacheWays() - kCacheAllocWays[0];
        if (freed > 0.0) {
            decision.batchConfigs[victim] = JobConfig(was.core(), 0);
            out.reclaimedWays += freed;
        }
        out.victims.push_back(victim);
    }
    out.finalPowerW = batch_power;
}

} // namespace cuttlesys
