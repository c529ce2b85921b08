/**
 * @file
 * Batch-side policy helpers of the CuttleSys runtime: the greedy
 * knapsack warm start that seeds the DDS search, and the power-cap
 * enforcement pass that gates victims when predictions still exceed
 * the budget (Section VI-B). Both are free functions so the
 * feasibility invariants they maintain are directly unit-testable.
 */

#ifndef CUTTLESYS_CORE_BATCH_POLICY_HH
#define CUTTLESYS_CORE_BATCH_POLICY_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/matrix.hh"
#include "search/objective.hh"
#include "sim/multicore.hh"

namespace cuttlesys {

/**
 * Caller-owned scratch of the upgrade rounds: each job's cached best
 * upgrade under the running totals. Buffer capacity is reused across
 * calls, so the rounds allocate nothing in steady state.
 */
struct UpgradeScratch
{
    std::vector<double> bestGain;       //!< per job; 0 = no upgrade
    std::vector<std::uint16_t> bestCfg; //!< per job
};

/** Outcome of the greedy warm start (seed plus feasibility info). */
struct KnapsackSeed
{
    Point point;
    double usedPowerW = 0.0;
    double usedWays = 0.0;
    /** Whether the cheapest-power seed was way-infeasible and had to
     *  be repaired by downgrading allocations before the upgrade
     *  rounds. */
    bool repaired = false;
    UpgradeScratch upgrades; //!< the upgrade rounds' per-job cache
};

/**
 * Greedy marginal-utility warm start for the batch search: seed every
 * job at its cheapest-power configuration, repair any LLC-way
 * overcommit by downgrading the cheapest-to-lose allocations, then
 * repeatedly buy the upgrade with the best log-throughput gain per
 * unit of cost until the budgets are exhausted. For concave
 * allocation curves this lands near the optimum; DDS refines it
 * globally. Reads the quantum's prepared log-throughput, power and
 * way tables; no per-cell log or config decode.
 */
KnapsackSeed greedyKnapsackSeed(const PreparedObjective &prep,
                                double power_budget,
                                double cache_budget);

/**
 * In-place form of greedyKnapsackSeed: @p seed is overwritten and its
 * buffers' capacity is reused, so the runtime's per-quantum warm
 * start allocates nothing in steady state.
 */
void greedyKnapsackSeed(const PreparedObjective &prep,
                        double power_budget, double cache_budget,
                        KnapsackSeed &seed);

/** Outcome of a way-overcommit repair pass. */
struct WayRepair
{
    double freedWays = 0.0;  //!< ways released (0 when none needed)
    double usedPowerW = 0.0; //!< predicted power of the final point
    double usedWays = 0.0;   //!< way usage of the final point
};

/**
 * Repair an LLC-way-overcommitted point in place: while the summed
 * allocation exceeds @p cache_budget, take the downgrade that frees
 * ways at the least log-throughput cost, preferring moves that keep
 * the power budget respected. The DDS search runs on soft penalties
 * (Section VI-B), so its final point can overshoot the way budget the
 * same way the greedy seed can — both go through this repair so the
 * emitted schedule always satisfies the machine's way invariant.
 */
WayRepair repairWayOvercommit(Point &point,
                              const PreparedObjective &prep,
                              double power_budget,
                              double cache_budget);

/** Outcome of a power-overcommit repair pass. */
struct PowerRepair
{
    double shavedPowerW = 0.0; //!< predicted watts the repair removed
    double usedPowerW = 0.0;   //!< predicted power of the final point
    double usedWays = 0.0;     //!< way usage of the final point
    /** False when even exhaustive downgrading could not reach the
     *  power budget (the point needs a full re-search or gating). */
    bool feasible = true;
};

/**
 * Repair a power-overcommitted point in place: while the summed
 * predicted power exceeds @p power_budget, take the downgrade that
 * sheds watts at the least log-throughput cost among moves that keep
 * the way budget respected. This is the graded counterpart of
 * enforcePowerCap for points that drifted slightly over budget — a
 * config downgrade costs a few percent of one job's throughput where
 * gating costs all of it — and the incremental fast path uses it to
 * re-fit the cached schedule under each quantum's budget.
 */
PowerRepair repairPowerOvercommit(Point &point,
                                  const PreparedObjective &prep,
                                  double power_budget,
                                  double cache_budget);

/**
 * Re-fit a converged point to a (slightly) different pair of budgets
 * in place: repair any power overcommit through the graded downgrade
 * pass, then spend remaining headroom through the same
 * best-gain-per-cost upgrade rounds the greedy warm start runs. The
 * incremental fast path uses this each reuse quantum so a cached
 * schedule tracks the power manager's budget wiggles in both
 * directions — shaving configs when the budget dips, growing back
 * into headroom when it recovers — exactly as a full re-search would,
 * at a tiny fraction of its cost. Deterministic, and heap-free once
 * @p scratch has been sized by an earlier call.
 */
PowerRepair refitPointToBudgets(Point &point,
                                const PreparedObjective &prep,
                                double power_budget,
                                double cache_budget,
                                UpgradeScratch &scratch);

/** What cap enforcement did to a decision. */
struct CapEnforcement
{
    std::vector<std::size_t> victims; //!< jobs gated, in gating order
    double reclaimedWays = 0.0;       //!< LLC ways freed by gating
    double finalPowerW = 0.0;         //!< predicted power after gating
};

/**
 * Cap enforcement (Section VI-B): gate batch cores in descending
 * order of predicted power until @p power_budget is met. A gated
 * core's LLC ways are released back to the partition — its
 * configuration is shrunk to the smallest allocation so downstream
 * way accounting never charges phantom allocations for cores that
 * are off — and the freed ways are reported for telemetry.
 *
 * @p power has one row per batch job over the joint config space.
 * Modifies decision.batchActive / decision.batchConfigs in place and
 * overwrites @p out, whose victim list reuses its capacity: a caller
 * that keeps @p out across quanta gates heap-free.
 */
void enforcePowerCap(SliceDecision &decision, const Matrix &power,
                     double power_budget, CapEnforcement &out);

} // namespace cuttlesys

#endif // CUTTLESYS_CORE_BATCH_POLICY_HH
