#include "sim/ground_truth.hh"

#include <algorithm>

#include "common/logging.hh"
#include "common/rng.hh"
#include "common/thread_pool.hh"
#include "lcsim/queue_sim.hh"
#include "power/power_model.hh"
#include "model/core_model.hh"

namespace cuttlesys {

BatchTruth
batchTruthTables(const std::vector<AppProfile> &apps,
                 const SystemParams &params, bool reconfigurable,
                 double noise, std::uint64_t seed)
{
    BatchTruth truth;
    truth.bips = Matrix(apps.size(), kNumJobConfigs);
    truth.power = Matrix(apps.size(), kNumJobConfigs);
    Rng rng(seed);

    for (std::size_t a = 0; a < apps.size(); ++a) {
        for (std::size_t c = 0; c < kNumJobConfigs; ++c) {
            const JobConfig config = JobConfig::fromIndex(c);
            const double ipc = coreIpc(apps[a], config, params);
            const double bips =
                ipc * coreFrequencyGHz(params, reconfigurable);
            const double power = corePower(apps[a], config.core(), ipc,
                                           params, reconfigurable);
            const double nb =
                noise > 0.0 ? 1.0 + rng.normal(0.0, noise) : 1.0;
            const double np =
                noise > 0.0 ? 1.0 + rng.normal(0.0, noise) : 1.0;
            truth.bips(a, c) = bips * nb;
            truth.power(a, c) = power * np;
        }
    }
    return truth;
}

namespace {

/** Measured p99 of @p app at @p qps on joint config @p c, on @p sim. */
double
configTail(LcQueueSim &sim, const AppProfile &app, double qps,
           std::size_t c, const SystemParams &params,
           const LcCurveOptions &opts)
{
    const double ips = coreIps(app, JobConfig::fromIndex(c), params, 1.0,
                               opts.reconfigurable);
    // An empty window means the system is so saturated nothing
    // completed; report the whole backlog age as the tail.
    return oneShotTail(sim, app, opts.servers, ips, opts.seed + c, qps,
                       opts.warmupSec, opts.measureSec,
                       opts.warmupSec + opts.measureSec);
}

} // namespace

std::vector<double>
lcTailCurve(const AppProfile &app, double qps,
            const SystemParams &params, const LcCurveOptions &opts)
{
    CS_ASSERT(app.isLatencyCritical(), "lcTailCurve needs an LC app");
    std::vector<double> curve(kNumJobConfigs, 0.0);
    auto sims = oneShotSims(1, app, opts.servers, qps,
                            opts.warmupSec + opts.measureSec);
    for (std::size_t c = 0; c < kNumJobConfigs; ++c)
        curve[c] = configTail(sims[0], app, qps, c, params, opts);
    return curve;
}

std::vector<double>
lcPowerCurve(const AppProfile &app, double qps,
             const SystemParams &params, const LcCurveOptions &opts)
{
    CS_ASSERT(app.isLatencyCritical(), "lcPowerCurve needs an LC app");
    std::vector<double> curve(kNumJobConfigs, 0.0);
    for (std::size_t c = 0; c < kNumJobConfigs; ++c) {
        const JobConfig config = JobConfig::fromIndex(c);
        const double ips = coreIps(app, config, params, 1.0,
                                   opts.reconfigurable);
        const double util = std::min(
            1.0, qps * app.requestInstructions() /
                 (static_cast<double>(opts.servers) * ips));
        const double ipc = coreIpc(app, config, params);
        curve[c] = corePower(app, config.core(), ipc * util, params,
                             opts.reconfigurable);
    }
    return curve;
}

Matrix
lcTailTrainingTable(const std::vector<AppProfile> &apps,
                    const std::vector<double> &load_fractions,
                    const SystemParams &params,
                    const LcCurveOptions &opts)
{
    const std::size_t loads = load_fractions.size();
    Matrix table(apps.size() * loads, kNumJobConfigs);
    double max_qps = 0.0;
    for (const auto &app : apps) {
        CS_ASSERT(app.isLatencyCritical(), app.name, " is not an LC app");
        CS_ASSERT(app.maxQps > 0.0, app.name,
                  " is not calibrated; run calibrateMaxQps first");
        for (double fraction : load_fractions)
            max_qps = std::max(max_qps, fraction * app.maxQps);
    }
    if (table.rows() == 0)
        return table;
    // Every (row, config) cell is an independent run seeded by its
    // config alone, on a simulator its slot reset, and writes only its
    // own entry: the table is the same at any pool width. The caller
    // sizes the slots' buffers once for the grid's heaviest run.
    ThreadPool &pool = ThreadPool::global();
    auto sims = oneShotSims(pool.slotCount(), apps.front(), opts.servers,
                            max_qps, opts.warmupSec + opts.measureSec);
    pool.parallelFor(table.rows() * kNumJobConfigs, [&](std::size_t i) {
        const std::size_t row = i / kNumJobConfigs;
        const std::size_t c = i % kNumJobConfigs;
        const AppProfile &app = apps[row / loads];
        table(row, c) =
            configTail(sims[ThreadPool::currentSlot()], app,
                       load_fractions[row % loads] * app.maxQps, c,
                       params, opts);
    });
    return table;
}

} // namespace cuttlesys
