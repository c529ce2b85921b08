#include "cluster/power_manager.hh"

#include <algorithm>

#include "common/logging.hh"

namespace cuttlesys {
namespace cluster {

namespace {

/** Nodes per parallel block (see ThreadPool::parallelChunks). */
constexpr std::size_t kSplitChunk = 64;

} // namespace

ClusterPowerManager::ClusterPowerManager(PowerManagerOptions opts)
    : opts_(opts)
{
    CS_ASSERT(opts_.rackBudgetW > 0.0, "rack budget must be positive");
    CS_ASSERT(opts_.nodeFloorW >= 0.0, "negative node floor");
    CS_ASSERT(opts_.nodeCapW == 0.0 ||
                  opts_.nodeCapW >= opts_.nodeFloorW,
              "node cap below node floor");
}

double
ClusterPowerManager::demandWeight(const NodeView &node) const
{
    // Demand = what the node actually drew last quantum, with a
    // boost when it violated QoS (it needs room to escalate the LC
    // configuration). Before the first quantum every node demands
    // equally.
    double demand = node.stepped
        ? std::max(node.measuredPowerW, opts_.nodeFloorW)
        : 1.0;
    if (node.qosViolated)
        demand += opts_.qosBoostW;
    return demand;
}

void
ClusterPowerManager::split(const std::vector<NodeView> &nodes,
                           std::vector<double> &out, ThreadPool &pool)
{
    const std::size_t n = nodes.size();
    CS_ASSERT(n > 0, "splitting across zero nodes");
    CS_ASSERT(opts_.rackBudgetW >=
                  opts_.nodeFloorW * static_cast<double>(n),
              "rack budget below the sum of node floors");

    // Parallel demand scan: each block writes its own weight range
    // and one partial sum. The decomposition is fixed by n alone, and
    // the partials are combined serially in block order, so weightSum
    // is the same double at any pool width.
    const std::size_t blocks = (n + kSplitChunk - 1) / kSplitChunk;
    weights_.resize(n);
    blockSums_.assign(blocks, 0.0);
    pool.parallelChunks(
        n, kSplitChunk,
        [this, &nodes](std::size_t b, std::size_t begin,
                       std::size_t end) {
            double partial = 0.0;
            for (std::size_t i = begin; i < end; ++i) {
                weights_[i] = demandWeight(nodes[i]);
                partial += weights_[i];
            }
            blockSums_[b] = partial;
        });
    double weightSum = 0.0;
    for (const double partial : blockSums_)
        weightSum += partial;

    const double distributable = opts_.rackBudgetW -
        opts_.nodeFloorW * static_cast<double>(n);
    out.resize(n);
    pool.parallelChunks(
        n, kSplitChunk,
        [this, &out, weightSum, distributable,
         n](std::size_t, std::size_t begin, std::size_t end) {
            for (std::size_t i = begin; i < end; ++i) {
                const double share = weightSum > 0.0
                    ? distributable * weights_[i] / weightSum
                    : distributable / static_cast<double>(n);
                out[i] = opts_.nodeFloorW + share;
            }
        });

    if (opts_.nodeCapW > 0.0) {
        // One redistribution pass: clip capped nodes and share the
        // clipped-off watts equally among the still-uncapped ones.
        // A second overflow is left as rack slack (conservative).
        double excess = 0.0;
        std::size_t uncapped = 0;
        for (std::size_t i = 0; i < n; ++i) {
            if (out[i] > opts_.nodeCapW) {
                excess += out[i] - opts_.nodeCapW;
                out[i] = opts_.nodeCapW;
            } else {
                ++uncapped;
            }
        }
        if (excess > 0.0 && uncapped > 0) {
            const double share =
                excess / static_cast<double>(uncapped);
            for (std::size_t i = 0; i < n; ++i) {
                if (out[i] < opts_.nodeCapW) {
                    out[i] = std::min(out[i] + share,
                                      opts_.nodeCapW);
                }
            }
        }
    }
}

} // namespace cluster
} // namespace cuttlesys
