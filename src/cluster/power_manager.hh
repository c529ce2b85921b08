/**
 * @file
 * Cluster-wide power budgeting: split one rack budget across nodes.
 *
 * The paper frames CuttleSys as the per-server layer under a
 * datacenter-level power manager that "determines the per-server
 * power budgets" (Section I); this is that layer for the fleet
 * simulator. Once per quantum the manager divides the rack budget
 * into per-node budgets, which the controller feeds to each node via
 * ColocationRun::overridePowerBudgetW. Shares follow last quantum's
 * *measured* draw (plus a boost for QoS-violating nodes), so budget
 * parked at idle nodes flows to the nodes actually consuming it;
 * before the first quantum every node demands equally.
 *
 * The split is budget-conserving — the shares sum to the rack budget
 * (less any slack created by per-node caps) — and respects a
 * per-node floor so no node is starved below the power its LC
 * service needs to stay alive.
 */

#ifndef CUTTLESYS_CLUSTER_POWER_MANAGER_HH
#define CUTTLESYS_CLUSTER_POWER_MANAGER_HH

#include <cstddef>
#include <vector>

#include "cluster/node.hh"
#include "common/thread_pool.hh"

namespace cuttlesys {
namespace cluster {

/** Tuning for ClusterPowerManager. */
struct PowerManagerOptions
{
    double rackBudgetW = 0.0;  //!< total budget split each quantum
    double nodeFloorW = 0.0;   //!< minimum share per node
    /** Per-node cap (a node can't use more than its own chip max);
     *  0 disables capping. Capped-off watts are redistributed once
     *  to uncapped nodes; any remainder is left as rack slack. */
    double nodeCapW = 0.0;
    /** Extra demand weight (W) for a node whose last quantum
     *  violated QoS. */
    double qosBoostW = 10.0;
};

/** Splits the rack budget by measured demand. */
class ClusterPowerManager
{
  public:
    explicit ClusterPowerManager(PowerManagerOptions opts);

    const PowerManagerOptions &options() const { return opts_; }

    /**
     * Compute this quantum's per-node budgets from the node views.
     * @p out is resized to nodes.size(); capacity is reused across
     * quanta so the steady-state split is heap-free.
     *
     * Per-node demand weights and proportional shares are computed
     * block-parallel on @p pool; the weight reduction combines
     * fixed-size block partials in block order and the cap
     * clip/redistribute pass runs single-threaded in node-index
     * order, so the budgets are bitwise identical at any pool width
     * (DESIGN.md §12).
     */
    void split(const std::vector<NodeView> &nodes,
               std::vector<double> &out,
               ThreadPool &pool = ThreadPool::global());

  private:
    /** One node's demand weight (pure per-view). */
    double demandWeight(const NodeView &node) const;

    PowerManagerOptions opts_;
    std::vector<double> weights_;   //!< per-quantum scratch
    std::vector<double> blockSums_; //!< per-block weight partials
};

} // namespace cluster
} // namespace cuttlesys

#endif // CUTTLESYS_CLUSTER_POWER_MANAGER_HH
