/**
 * @file
 * Shared support for the benches: the reference system, its
 * calibrated services, the offline training tables and the evaluation
 * mixes, each built once per process and cached, and the provenance
 * line every BENCH_*.json opens with.
 */

#ifndef CUTTLESYS_BENCH_COMMON_HH
#define CUTTLESYS_BENCH_COMMON_HH

#include <cstdio>
#include <cstdlib>
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

} // namespace cuttlesys::bench

#endif // CUTTLESYS_BENCH_COMMON_HH
