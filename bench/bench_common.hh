/**
 * @file
 * Shared support for the figure/table reproduction benches.
 *
 * Every bench binary regenerates one table or figure from the paper:
 * it prints the same rows/series the paper reports, alongside the
 * paper's own numbers where they are quotable, so EXPERIMENTS.md can
 * be filled by running every binary under build/bench/ in turn.
 *
 * Heavyweight shared state (max-QPS calibration, offline training
 * tables) is built once per process and cached. Environment knobs:
 *   CS_BENCH_MIXES    mixes per LC service in sweep benches (default 2)
 *   CS_BENCH_DURATION simulated seconds per run (default 0.8)
 */

#ifndef CUTTLESYS_BENCH_COMMON_HH
#define CUTTLESYS_BENCH_COMMON_HH

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "apps/gallery.hh"
#include "apps/mix.hh"
#include "common/logging.hh"
#include "common/thread_pool.hh"
#include "core/cuttlesys.hh"
#include "core/training.hh"
#include "lcsim/calibrate.hh"
#include "power/power_model.hh"
#include "sim/driver.hh"
#include "sim/ground_truth.hh"

namespace cuttlesys::bench {

/** Reference system parameters for every bench. */
inline const SystemParams &
params()
{
    static const SystemParams p;
    return p;
}

/** Calibrated TailBench services (knee-point loads filled in). */
inline const std::vector<AppProfile> &
lcApps()
{
    static const std::vector<AppProfile> apps = [] {
        std::vector<AppProfile> gallery = tailbenchGallery();
        MaxQpsOptions opts;
        opts.warmupSec = 0.3;
        opts.measureSec = 1.0;
        opts.iterations = 14;
        calibrateMaxQps(gallery, params(), opts);
        return gallery;
    }();
    return apps;
}

/** Canonical 16/12 train/test split of the SPEC gallery. */
inline const TrainTestSplit &
specSplit()
{
    static const TrainTestSplit split = splitSpecGallery();
    return split;
}

/** Offline training tables (Section V), built once. */
inline const TrainingTables &
trainingTables()
{
    static const TrainingTables tables = [] {
        TrainingOptions opts;
        opts.latencyLoads = {0.25, 0.55, 0.85};
        return buildTrainingTables(specSplit().train, lcApps(),
                                   params(), opts);
    }();
    return tables;
}

/** The evaluation's reference maximum power (Section VII-A). */
inline double
maxPowerW()
{
    static const double watts =
        systemMaxPower(specSplit().test, params());
    return watts;
}

/** Evaluation colocations: each LC service x several mixes. */
inline const std::vector<WorkloadMix> &
evaluationMixes()
{
    static const std::vector<WorkloadMix> mixes =
        makeEvaluationMixes(lcApps(), specSplit().test, 10);
    return mixes;
}

inline std::size_t
envSize(const char *name, std::size_t fallback)
{
    if (const char *v = std::getenv(name)) {
        const long parsed = std::atol(v);
        if (parsed > 0)
            return static_cast<std::size_t>(parsed);
    }
    return fallback;
}

inline double
envDouble(const char *name, double fallback)
{
    if (const char *v = std::getenv(name)) {
        const double parsed = std::atof(v);
        if (parsed > 0.0)
            return parsed;
    }
    return fallback;
}

/** Mixes per LC service used by sweep benches. */
inline std::size_t
mixesPerLc()
{
    return envSize("CS_BENCH_MIXES", 2);
}

/** Simulated seconds per scheduler run. */
inline double
runDuration()
{
    return envDouble("CS_BENCH_DURATION", 0.8);
}

/** Fresh CuttleSys scheduler for a mix. */
inline std::unique_ptr<CuttleSysScheduler>
makeCuttleSys(const WorkloadMix &mix, CuttleSysOptions options = {})
{
    return std::make_unique<CuttleSysScheduler>(
        params(), trainingTables(), mix.batch.size(),
        mix.lc.qosSeconds(), std::move(options));
}

/** Standard driver options for a cap/load point. */
inline DriverOptions
driverOptions(double cap_fraction, double load_fraction = 0.8,
              double duration = -1.0)
{
    DriverOptions opts;
    opts.durationSec = duration > 0.0 ? duration : runDuration();
    opts.loadPattern = LoadPattern::constant(load_fraction);
    opts.powerPattern = LoadPattern::constant(cap_fraction);
    opts.maxPowerW = maxPowerW();
    return opts;
}

/**
 * Write where a BENCH_*.json's numbers came from — compiler, visible
 * cores, the global pool's width and the CS_POOL_THREADS that sized
 * it (null when unset), and the repetitions behind each point — as
 * one `"provenance": {...},` line of the enclosing JSON object.
 */
inline void
writeProvenance(std::FILE *f, std::size_t quanta_per_point)
{
    const char *poolEnv = std::getenv("CS_POOL_THREADS");
    const char *quote = poolEnv ? "\"" : "";
    std::fprintf(f,
                 "  \"provenance\": {\"compiler\": \"%s\", "
                 "\"hardware_concurrency\": %u, "
                 "\"pool_threads\": %zu, "
                 "\"cs_pool_threads\": %s%s%s, "
                 "\"quanta_per_point\": %zu},\n",
                 __VERSION__, std::thread::hardware_concurrency(),
                 ThreadPool::global().size(), quote,
                 poolEnv ? poolEnv : "null", quote, quanta_per_point);
}

/** Bench banner: which figure/table, what the paper reported. */
inline void
banner(const char *id, const char *title, const char *paper_says)
{
    std::printf("==============================================="
                "=========================\n");
    std::printf("%s — %s\n", id, title);
    std::printf("paper: %s\n", paper_says);
    std::printf("-----------------------------------------------"
                "-------------------------\n");
}

} // namespace cuttlesys::bench

#endif // CUTTLESYS_BENCH_COMMON_HH
