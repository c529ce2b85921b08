#include "lcsim/calibrate.hh"

#include <algorithm>

#include "common/logging.hh"
#include "common/thread_pool.hh"
#include "config/job_config.hh"
#include "lcsim/queue_sim.hh"
#include "model/core_model.hh"

namespace cuttlesys {

namespace {

/** Reference configuration: widest core, largest cache allocation. */
JobConfig
referenceConfig()
{
    return JobConfig(CoreConfig::widest(), kNumCacheAllocs - 1);
}

/**
 * Service capacity of @p app on the reference system: requests/s the
 * pool can complete flat out. The knee search brackets its load.
 */
double
capacityQps(const AppProfile &app, const SystemParams &params,
            const MaxQpsOptions &opts)
{
    CS_ASSERT(app.isLatencyCritical(),
              "calibration is only meaningful for LC apps");
    return static_cast<double>(opts.referenceCores) *
        coreIps(app, referenceConfig(), params) /
        app.requestInstructions();
}

/** Bisection bracket, as fractions of capacityQps(). */
constexpr double kLowFraction = 0.05;
constexpr double kHighFraction = 1.2;

/** measureTailAtLoad() on a caller-owned simulator. */
double
tailAtLoad(LcQueueSim &sim, const AppProfile &app, double qps,
           const SystemParams &params, const MaxQpsOptions &opts)
{
    CS_ASSERT(app.isLatencyCritical(),
              "calibration is only meaningful for LC apps");
    const double ips = coreIps(app, referenceConfig(), params);
    return oneShotTail(sim, app, opts.referenceCores, ips, opts.seed,
                       qps, opts.warmupSec, opts.measureSec, 0.0);
}

/** findMaxQps() on a caller-owned simulator. */
double
kneeSearch(LcQueueSim &sim, const AppProfile &app,
           const SystemParams &params, const MaxQpsOptions &opts)
{
    const double capacity = capacityQps(app, params, opts);
    double lo = capacity * kLowFraction;
    double hi = capacity * kHighFraction;
    const double unloaded_p99 = tailAtLoad(sim, app, lo, params, opts);
    CS_ASSERT(unloaded_p99 <= app.qosSeconds(),
              app.name, " violates QoS even at 5% capacity; the "
              "profile's qosMs is unachievable");
    const double bar =
        std::min(app.qosSeconds(), opts.kneeFactor * unloaded_p99);

    for (std::size_t i = 0; i < opts.iterations; ++i) {
        const double mid = 0.5 * (lo + hi);
        const double p99 = tailAtLoad(sim, app, mid, params, opts);
        if (p99 <= bar)
            lo = mid;
        else
            hi = mid;
    }
    return lo;
}

} // namespace

double
measureTailAtLoad(const AppProfile &app, double qps,
                  const SystemParams &params, const MaxQpsOptions &opts)
{
    auto sims = oneShotSims(1, app, opts.referenceCores, qps,
                            opts.warmupSec + opts.measureSec);
    return tailAtLoad(sims[0], app, qps, params, opts);
}

double
findMaxQps(const AppProfile &app, const SystemParams &params,
           const MaxQpsOptions &opts)
{
    auto sims = oneShotSims(
        1, app, opts.referenceCores,
        kHighFraction * capacityQps(app, params, opts),
        opts.warmupSec + opts.measureSec);
    return kneeSearch(sims[0], app, params, opts);
}

std::vector<double>
calibrateMaxQps(std::vector<AppProfile> &apps, const SystemParams &params,
                const MaxQpsOptions &opts)
{
    std::vector<double> loads(apps.size(), 0.0);
    if (apps.empty())
        return loads;
    double max_qps = 0.0;
    for (const auto &app : apps)
        max_qps = std::max(max_qps, kHighFraction *
                                        capacityQps(app, params, opts));
    // One bisection per app, each serial and seeded by opts alone, so
    // the apps run concurrently on simulators the caller sized and
    // the loads are the same at any pool width. maxQps is committed
    // after the region, in index order.
    ThreadPool &pool = ThreadPool::global();
    auto sims = oneShotSims(pool.slotCount(), apps.front(),
                            opts.referenceCores, max_qps,
                            opts.warmupSec + opts.measureSec);
    pool.parallelFor(apps.size(), [&](std::size_t i) {
        loads[i] = kneeSearch(sims[ThreadPool::currentSlot()], apps[i],
                              params, opts);
    });
    for (std::size_t i = 0; i < apps.size(); ++i)
        apps[i].maxQps = loads[i];
    return loads;
}

} // namespace cuttlesys
