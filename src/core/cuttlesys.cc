#include "core/cuttlesys.hh"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/logging.hh"
#include "common/thread_pool.hh"
#include "core/batch_policy.hh"
#include "power/power_model.hh"

namespace cuttlesys {

namespace {

/** Rank of the 1.0-way allocation (profiling samples use 1 way). */
std::size_t
oneWayRank()
{
    for (std::size_t i = 0; i < kNumCacheAllocs; ++i) {
        if (kCacheAllocWays[i] == 1.0)
            return i;
    }
    panic("no 1-way cache allocation");
}

/** Minimum completions for a p99 measurement to be trustworthy. */
constexpr std::size_t kMinTailSamples = 20;

/**
 * Highest estimated utilization at which a candidate LC
 * configuration is still considered tail-safe: multi-server queues
 * keep bounded p99 only comfortably below saturation.
 */
constexpr double kSaturationGuard = 0.88;

/**
 * Latency observations required before the reconstruction's tail
 * predictions are trusted for configurations far from the observed
 * ones. With fewer samples a row's fold-in is optimistic somewhere
 * in 108 configurations, and the scan's preference for cheap
 * configurations selects exactly those errors (winner's curse);
 * until then only the measurement-grounded queueing path may
 * downsize.
 */
constexpr std::size_t kMinLatencyObsForCf = 1;

} // namespace

CuttleSysOptions::CuttleSysOptions()
{
    // Three reconstruction instances run concurrently; each is itself
    // the lock-free parallel SGD (Section V).
    sgdBips.threads = 4;
    sgdPower.threads = 4;
    sgdLatency.threads = 2;
    sgdBips.seed = 501;
    sgdPower.seed = 502;
    sgdLatency.seed = 503;
    // Tail latencies span orders of magnitude across configurations;
    // learn them in log space.
    sgdLatency.logTransform = true;
    // Cold starts (first quantum, job churn) take the Jacobi-SVD
    // initialization; every other quantum warm-starts from the
    // previous reconstruction's factors and skips the SVD entirely.
    sgdBips.svdWarmStart = true;
    sgdPower.svdWarmStart = true;
    sgdLatency.svdWarmStart = true;
}

CuttleSysScheduler::CuttleSysScheduler(const SystemParams &params,
                                       const TrainingTables &tables,
                                       std::size_t num_batch_jobs,
                                       double lc_qos_sec,
                                       CuttleSysOptions options)
    : params_(params), numBatchJobs_(num_batch_jobs),
      lcQos_(lc_qos_sec), options_(std::move(options)),
      bipsEngine_(tables.bips, 1 + num_batch_jobs, kNumJobConfigs,
                  options_.sgdBips),
      powerEngine_(tables.power, 1 + num_batch_jobs, kNumJobConfigs,
                   options_.sgdPower),
      latencyEngine_(tables.latency, 1, kNumJobConfigs,
                     options_.sgdLatency),
      lcCores_(options_.initialLcCores),
      configIdxWide_(JobConfig(CoreConfig::widest(), oneWayRank())
                         .index()),
      configIdxNarrow_(JobConfig(CoreConfig::narrowest(), oneWayRank())
                           .index())
{
    CS_ASSERT(num_batch_jobs > 0, "no batch jobs to manage");
    CS_ASSERT(lc_qos_sec > 0.0, "QoS target must be positive");
    if (!tables.latencyRowUtil.empty())
        latencyEngine_.setTrainingContext(tables.latencyRowUtil);
}

void
CuttleSysScheduler::ingest(const SliceContext &ctx)
{
    // --- fresh profiling samples (Section IV-B step 1) ---------------
    if (!ctx.profiles.empty()) {
        CS_ASSERT(ctx.profiles.size() == 1 + numBatchJobs_,
                  "unexpected profile count");
        const ProfilePair &lc = ctx.profiles[0];
        powerEngine_.observe(0, configIdxWide_, lc.powerWide);
        powerEngine_.observe(0, configIdxNarrow_, lc.powerNarrow);
        // The LC job's per-core BIPS samples pin its service-capacity
        // curve (used by the saturation guard in chooseLcConfig).
        bipsEngine_.observe(0, configIdxWide_, lc.bipsWide);
        bipsEngine_.observe(0, configIdxNarrow_, lc.bipsNarrow);
        for (std::size_t j = 0; j < numBatchJobs_; ++j) {
            const ProfilePair &pair = ctx.profiles[1 + j];
            bipsEngine_.observe(1 + j, configIdxWide_, pair.bipsWide);
            bipsEngine_.observe(1 + j, configIdxNarrow_,
                                pair.bipsNarrow);
            powerEngine_.observe(1 + j, configIdxWide_,
                                 pair.powerWide);
            powerEngine_.observe(1 + j, configIdxNarrow_,
                                 pair.powerNarrow);
        }
    }

    // --- steady-state feedback from the previous slice ----------------
    if (!ctx.previous || !ctx.previousDecision)
        return;
    const SliceMeasurement &m = *ctx.previous;
    const SliceDecision &d = *ctx.previousDecision;

    // Batch jobs report (BIPS, power) at the configuration they ran;
    // skip slices where jobs time-multiplexed (shared cores), since
    // the measured throughput then reflects the share, not the config.
    const bool full_core =
        params_.numCores - d.lcCores >= numBatchJobs_;
    for (std::size_t j = 0;
         j < numBatchJobs_ && j < d.batchConfigs.size(); ++j) {
        if (!d.batchActive[j] || !full_core)
            continue;
        const std::size_t cfg = d.batchConfigs[j].index();
        if (j < m.batchBips.size() && m.batchBips[j] > 0.0)
            bipsEngine_.observe(1 + j, cfg, m.batchBips[j]);
        if (j < m.batchPower.size() && m.batchPower[j] > 0.0)
            powerEngine_.observe(1 + j, cfg, m.batchPower[j]);
    }

    // The LC job's tail latency is measured over the whole previous
    // slice (Section IV-B). Latency history is only comparable at
    // similar load, so a big load swing invalidates it.
    const double load_estimate = static_cast<double>(m.lcCompleted) /
                                 params_.timesliceSec;
    if (lastLoadEstimate_ >= 0.0) {
        const double rel = std::abs(load_estimate - lastLoadEstimate_) /
                           std::max(lastLoadEstimate_, 1.0);
        if (rel > options_.loadChangeThreshold)
            latencyEngine_.clearJob(0);
    }
    lastLoadEstimate_ = load_estimate;

    // A slice that starts with a QoS-violation backlog measures the
    // drain, not the configuration: skip those tails so they do not
    // poison the matrix. The violation flag itself obeys the same
    // sample floor as the observation — a noisy 3-request tail must
    // not mark the next slice polluted and drop a valid measurement.
    const bool polluted = previousSliceViolated_;
    if (m.lcCompleted >= kMinTailSamples)
        previousSliceViolated_ = m.lcTailLatency > lcQos_;
    const bool tail_usable = !polluted &&
                             m.lcCompleted >= kMinTailSamples &&
                             m.lcTailLatency > 0.0;
    if (tail_usable) {
        latencyEngine_.observe(0, d.lcConfig.index(),
                               m.lcTailLatency);
    }
    if (telemetry::QuantumRecord *rec = traceRecord()) {
        rec->measuredTailSec = m.lcTailLatency;
        rec->measuredUtil = m.lcUtilization;
        rec->measuredCompleted = m.lcCompleted;
        rec->measuredViolation = m.lcTailLatency > lcQos_;
        rec->pollutedSlice = polluted;
        rec->tailObserved = tail_usable;
    }
    if (m.lcPower > 0.0 && d.lcCores > 0) {
        powerEngine_.observe(0, d.lcConfig.index(),
                             m.lcPower /
                             static_cast<double>(d.lcCores));
    }

    // The live row's utilization context: measured busy fraction,
    // mapped to the reference configuration through the service-rate
    // ratio so it is comparable with the training rows' contexts.
    if (m.lcUtilization > 0.0 && predBips_.rows() > 0) {
        const double ref_bips = predBips_(
            0, JobConfig(CoreConfig::widest(), kNumCacheAllocs - 1)
                   .index());
        const double cur_bips = predBips_(0, d.lcConfig.index());
        double util_ref = m.lcUtilization;
        if (ref_bips > 0.0 && cur_bips > 0.0)
            util_ref *= cur_bips / ref_bips;
        latencyEngine_.setJobContext(0, std::min(util_ref, 1.0));
    }
}

void
CuttleSysScheduler::reconstructAll()
{
    // Three reconstruction instances, one per metric, run in parallel
    // on the same server (Section V). The shared pool runs them; the
    // caller participates (work-sharing parallelFor), so the nested
    // SGD sub-epochs inside each engine never deadlock against this
    // outer region.
    // All three instances carve their scratch out of the shared
    // quantum arena (its bump pointer is atomic), so reconstruction
    // allocates nothing once the arena has grown to its high-water
    // mark.
    ThreadPool::global().parallelFor(3, [&](std::size_t metric) {
        switch (metric) {
          case 0:
            bipsEngine_.predictInto(predBips_, quantumArena_);
            break;
          case 1:
            powerEngine_.predictInto(predPower_, quantumArena_);
            break;
          default:
            latencyEngine_.predictInto(predLatency_, quantumArena_);
            break;
        }
    });
}

JobConfig
CuttleSysScheduler::chooseLcConfig(const SliceContext &ctx)
{
    const JobConfig safest(CoreConfig::widest(), kNumCacheAllocs - 1);
    telemetry::QuantumRecord *rec = traceRecord();
    auto chose = [&](telemetry::LcPath path, const JobConfig &config) {
        // Remembered outside the trace so fast-reuse quanta can
        // re-stamp the cached quantum's path even in untraced runs.
        lastLcPath_ = path;
        if (rec) {
            rec->lcPath = path;
            rec->lcConfigIndex = config.index();
            rec->lcConfigName = config.toString();
            rec->lcCores = lcCores_;
        }
        return config;
    };

    const bool was_safest =
        ctx.previousDecision &&
        ctx.previousDecision->lcConfig == safest;
    const bool measured_violation =
        ctx.previous && ctx.previous->lcTailLatency > lcQos_;

    // A measured violation overrides the predictions: escalate to the
    // widest configuration immediately (Fig 8a's recovery arc), and
    // if even the widest configuration is violating, reclaim one core
    // per timeslice from the batch jobs (Section VI-A). This check
    // precedes the cold-start fallback: during a sustained overload
    // the latency history stays empty (drain slices are never
    // ingested), yet relocation must still make progress.
    if (measured_violation) {
        // Reclaim only while the cluster is genuinely saturated: a
        // violation measured during a backlog drain (utilization
        // already below 1) does not need more cores, just time.
        if (was_safest && lcCores_ + 1 < params_.numCores &&
            ctx.previous->lcUtilization > 0.95) {
            ++lcCores_;
            if (rec)
                rec->lcCoreDelta = 1;
            return chose(telemetry::LcPath::ViolationRelocate, safest);
        }
        return chose(telemetry::LcPath::ViolationEscalate, safest);
    }

    // Yield relocated cores back once the measured latency has enough
    // slack (Section VIII-D3) — checked before the cold-start
    // fallback so cores return even while latency history is empty
    // (a load drop clears it).
    if (lcCores_ > options_.initialLcCores && ctx.previous &&
        ctx.previous->lcCompleted >= kMinTailSamples &&
        ctx.previous->lcTailLatency <=
            lcQos_ * (1.0 - params_.qosSlack)) {
        --lcCores_;
        if (rec)
            rec->lcCoreDelta = -1;
    }

    // Cold start: no latency history yet -> run safe.
    if (latencyEngine_.observationsForJob(0) == 0)
        return chose(telemetry::LcPath::ColdStart, safest);

    // Saturation guard: from the previous slice's measured busy
    // fraction and the LC job's reconstructed per-core BIPS curve,
    // estimate the utilization a candidate configuration would run
    // at; configurations that would saturate cannot meet any tail
    // target regardless of what the reconstruction predicts.
    double util_prev = 0.0;
    double bips_prev = 0.0;
    if (ctx.previous && ctx.previousDecision) {
        util_prev = ctx.previous->lcUtilization;
        bips_prev = predBips_(0, ctx.previousDecision->lcConfig
                                     .index());
    }
    auto saturates = [&](std::size_t c) {
        if (util_prev <= 0.0 || bips_prev <= 0.0)
            return false;
        const double cap = predBips_(0, c);
        if (cap <= 0.0)
            return true;
        return util_prev * bips_prev / cap > kSaturationGuard;
    };

    // Measurement-grounded queueing estimate of a candidate's tail:
    // scale the measured tail by the service-time inflation
    // bips_prev / bips(c) and the heavy-traffic queueing factor
    // (1 - rho_prev) / (1 - rho_c). This lets the runtime downsize
    // the LC configuration even before the reconstruction has
    // latency samples near the candidate (the exploration path).
    const double tail_prev =
        (ctx.previous && ctx.previous->lcCompleted >= kMinTailSamples)
            ? ctx.previous->lcTailLatency : 0.0;
    auto queueEstimate = [&](std::size_t c) -> double {
        if (tail_prev <= 0.0 || bips_prev <= 0.0 || util_prev <= 0.0)
            return std::numeric_limits<double>::infinity();
        // The estimate is only trustworthy along the core-width
        // dimension (the BIPS row is pinned by per-slice profiling
        // samples there); cache-allocation changes must earn their
        // way through the reconstruction instead.
        if (ctx.previousDecision &&
            JobConfig::fromIndex(c).cacheRank() !=
                ctx.previousDecision->lcConfig.cacheRank())
            return std::numeric_limits<double>::infinity();
        const double cap = predBips_(0, c);
        if (cap <= 0.0)
            return std::numeric_limits<double>::infinity();
        const double speed = bips_prev / cap;
        const double rho_prev = std::min(util_prev, 0.98);
        const double rho_c = std::min(util_prev * speed, 0.99);
        return tail_prev * speed * (1.0 - rho_prev) / (1.0 - rho_c);
    };

    // Scan the predicted tail latencies (Section VI-A): QoS-feasible
    // configs (with a safety margin absorbing prediction error),
    // preferring the smallest cache allocation, then the least
    // predicted power.
    const double bar = lcQos_ * options_.latencyMargin;
    const double queue_bar = lcQos_ * options_.queueMargin;
    std::optional<std::size_t> best;
    bool best_cf_ok = false;
    bool best_queue_ok = false;
    std::size_t saturated = 0;
    const bool cf_trusted =
        latencyEngine_.observationsForJob(0) >= kMinLatencyObsForCf;
    for (std::size_t c = 0; c < kNumJobConfigs; ++c) {
        // Two independent feasibility paths: the reconstruction's
        // tail prediction (structural knowledge from the latency
        // training rows), or the measurement-grounded queueing
        // estimate. The saturation guard belongs to the queueing
        // path only — it derives from the same BIPS ratio the
        // estimate uses.
        // Both paths respect the saturation guard: the LC job's
        // reconstructed BIPS curve is anchored by per-slice profiling
        // samples and the service's own offline rows, so the
        // utilization estimate is reliable.
        if (saturates(c)) {
            ++saturated;
            continue;
        }
        const bool cf_ok = cf_trusted && predLatency_(0, c) <= bar;
        const bool queue_ok = queueEstimate(c) <= queue_bar;
        if (!cf_ok && !queue_ok)
            continue;
        if (!best) {
            best = c;
            best_cf_ok = cf_ok;
            best_queue_ok = queue_ok;
            continue;
        }
        const JobConfig cand = JobConfig::fromIndex(c);
        const JobConfig cur = JobConfig::fromIndex(*best);
        if (cand.cacheWays() < cur.cacheWays() ||
            (cand.cacheWays() == cur.cacheWays() &&
             predPower_(0, c) < predPower_(0, *best))) {
            best = c;
            best_cf_ok = cf_ok;
            best_queue_ok = queue_ok;
        }
    }

    if (rec) {
        rec->scanSaturated = saturated;
        rec->chosenCfFeasible = best_cf_ok;
        rec->chosenQueueFeasible = best_queue_ok;
    }
    if (!best)
        return chose(telemetry::LcPath::NoFeasible, safest);
    return chose(best_cf_ok ? telemetry::LcPath::CfFeasible
                            : telemetry::LcPath::QueueFeasible,
                 JobConfig::fromIndex(*best));
}

void
CuttleSysScheduler::chooseBatchConfigs(const SliceContext &ctx,
                                       const JobConfig &lc_config,
                                       SliceDecision &decision)
{
    // Budgets left after the LC job's share (Section VI-A: the LC
    // configuration is fixed during the batch search).
    const double lc_power =
        predPower_(0, lc_config.index()) *
        static_cast<double>(lcCores_);
    const double power_budget =
        (ctx.powerBudgetW - lc_power - llcPower(params_)) *
        options_.powerHeadroom;
    const double cache_budget =
        static_cast<double>(params_.llcWays) - lc_config.cacheWays();

    // Batch rows of the predictions, contiguous for the objective.
    // The buffers are members so the allocation happens once, not
    // every quantum; the batch rows are a contiguous block of the
    // prediction matrices, so each refresh is one kernel copy.
    if (searchBips_.rows() != numBatchJobs_) {
        searchBips_ = Matrix(numBatchJobs_, kNumJobConfigs);
        searchPower_ = Matrix(numBatchJobs_, kNumJobConfigs);
    }
    Matrix &bips = searchBips_;
    Matrix &power = searchPower_;
    kernels::copy(bips.data(), predBips_.rowPtr(1),
                  numBatchJobs_ * kNumJobConfigs);
    kernels::copy(power.data(), predPower_.rowPtr(1),
                  numBatchJobs_ * kNumJobConfigs);

    objCtx_.bips = &bips;
    objCtx_.power = &power;
    objCtx_.powerBudgetW = power_budget;
    objCtx_.cacheBudgetWays = cache_budget;
    objCtx_.penaltyPower = options_.penaltyPower;
    objCtx_.penaltyCache = options_.penaltyCache;
    prepared_.rebuild(objCtx_);

    telemetry::QuantumRecord *rec = traceRecord();
    if (rec) {
        rec->batchPowerBudgetW = power_budget;
        rec->cacheBudgetWays = cache_budget;
    }

    SearchResult &found = searchResult_;
    {
        telemetry::PhaseTimer timer(trace_, telemetry::Phase::Search);

        // Refresh the persistent working copy of the DDS options
        // field by field: whole-struct assignment would reallocate the
        // option vectors (and free the seed points' element buffers)
        // every quantum, while element-wise copies reuse capacity.
        DdsOptions &dds = ddsOpts_;
        dds.initialRandomPoints = options_.dds.initialRandomPoints;
        dds.rValues = options_.dds.rValues;
        dds.pointsPerIteration = options_.dds.pointsPerIteration;
        dds.maxIterations = options_.dds.maxIterations;
        dds.threads = options_.dds.threads;
        dds.seed = options_.dds.seed;
        dds.useDeltaEval = options_.dds.useDeltaEval;
        dds.pinned = options_.dds.pinned;

        // Seed the search with a greedy warm start and the previous
        // slice's decision, so DDS refines instead of rediscovering.
        const std::size_t base_seeds = options_.dds.seedPoints.size();
        const bool prev_seed =
            options_.searchWarmStart && ctx.previousDecision &&
            ctx.previousDecision->batchConfigs.size() == numBatchJobs_;
        std::size_t nseeds = base_seeds;
        if (options_.searchWarmStart)
            nseeds += 1 + (prev_seed ? 1 : 0);
        dds.seedPoints.resize(nseeds);
        for (std::size_t i = 0; i < base_seeds; ++i)
            dds.seedPoints[i] = options_.dds.seedPoints[i];
        std::size_t next_seed = base_seeds;
        if (options_.searchWarmStart) {
            greedyKnapsackSeed(bips, power, power_budget, cache_budget,
                               knapsackSeed_);
            if (rec) {
                rec->seedWays = knapsackSeed_.usedWays;
                rec->seedRepaired = knapsackSeed_.repaired;
            }
            dds.seedPoints[next_seed++] = knapsackSeed_.point;
            if (prev_seed) {
                Point &prev = dds.seedPoints[next_seed++];
                prev.resize(numBatchJobs_);
                for (std::size_t j = 0; j < numBatchJobs_; ++j) {
                    prev[j] = static_cast<std::uint16_t>(
                        ctx.previousDecision->batchConfigs[j].index());
                }
            }
        }

        switch (options_.searchAlgo) {
          case SearchAlgo::ParallelDds:
            parallelDds(prepared_, dds, ddsScratch_, found);
            break;
          case SearchAlgo::SerialDds:
            serialDds(prepared_, dds, ddsScratch_, found);
            break;
          case SearchAlgo::Ga: {
              GaOptions ga = options_.ga;
              ga.seed = options_.ga.seed + 31 * ctx.sliceIndex;
              ga.seedPoints = dds.seedPoints; // same warm starts
              found = geneticSearch(prepared_, ga);
              break;
          }
        }
    }
    if (rec) {
        rec->searchEvaluations = found.evaluations;
        rec->searchObjective = found.metrics.objective;
        rec->searchPowerW = found.metrics.powerW;
        rec->searchWays = found.metrics.cacheWays;
    }

    // The DDS objective penalizes but does not forbid way overcommit
    // (Section VI-B's soft constraints), so the winning point can
    // allocate more LLC ways than the partition has left. The machine
    // cannot execute that: repair the overcommit the same way the
    // greedy seed is repaired before the decision leaves the runtime.
    const WayRepair repair = repairWayOvercommit(
        found.best, bips, power, power_budget, cache_budget);
    if (rec)
        rec->searchRepairedWays = repair.freedWays;

    decision.batchConfigs.resize(numBatchJobs_);
    decision.batchActive.assign(numBatchJobs_, true);
    for (std::size_t j = 0; j < numBatchJobs_; ++j)
        decision.batchConfigs[j] = JobConfig::fromIndex(found.best[j]);

    // Snapshot the converged, repair-applied point BEFORE cap
    // enforcement mutates the decision (gated victims lose their
    // ways): the fast path re-derives gating under each quantum's
    // budget, so it must restart from the un-gated schedule — else a
    // victim gated once would keep its zeroed-way config even after
    // the budget recovers.
    if (options_.fastPath) {
        cachedPoint_.resize(numBatchJobs_);
        for (std::size_t j = 0; j < numBatchJobs_; ++j)
            cachedPoint_[j] = found.best[j];
    }

    // Cap enforcement (Section VI-B): gate cores in descending order
    // of predicted power until the budget is met; gated cores release
    // their LLC ways back to the partition.
    telemetry::PhaseTimer timer(trace_, telemetry::Phase::Enforce);
    const CapEnforcement enforced =
        enforcePowerCap(decision, power, power_budget);
    if (rec) {
        rec->capVictims = enforced.victims;
        rec->reclaimedWays = enforced.reclaimedWays;
        rec->enforcedPowerW = enforced.finalPowerW;
    }
}

void
CuttleSysScheduler::decideInto(const SliceContext &ctx,
                               SliceDecision &decision)
{
    // The stability gate runs before ingest: it reads only the slice
    // context and anchors recorded at the last full quantum, so the
    // verdict is independent of this quantum's feedback fold-in.
    telemetry::InvalidationReason why =
        telemetry::InvalidationReason::Cold;
    if (options_.fastPath)
        why = fastPathGate(ctx);

    // Ingest runs on BOTH paths: profiling samples and steady-state
    // feedback keep flowing into the rating matrices during reuse, so
    // the next full quantum reconstructs from an uninterrupted
    // history (and load-swing invalidation of the latency matrix
    // keeps its exact legacy semantics).
    {
        telemetry::PhaseTimer timer(trace_, telemetry::Phase::Ingest);
        ingest(ctx);
    }

    if (options_.fastPath &&
        why == telemetry::InvalidationReason::None) {
        // The delta revalidation IS the fast quantum's search: one
        // incumbent evaluation against the current budgets, timed
        // under the same phase as the full path's DDS.
        telemetry::PhaseTimer timer(trace_, telemetry::Phase::Search);
        if (tryFastReuse(ctx, decision))
            return;
        why = telemetry::InvalidationReason::Revalidate;
    }

    // --- the full quantum --------------------------------------------
    // Recycle the quantum arena: the slab grows to its high-water
    // mark once, then every later reset is a pointer rewind. (Ingest
    // never touches the arena, so resetting after it is equivalent to
    // the legacy order.)
    quantumArena_.reset();
    {
        telemetry::PhaseTimer timer(trace_,
                                    telemetry::Phase::Reconstruct);
        reconstructAll();
    }

    decision.reconfigurable = true;
    decision.overheadSec = options_.overheadSec;

    decision.lcConfig = chooseLcConfig(ctx);
    decision.lcCores = lcCores_;
    chooseBatchConfigs(ctx, decision.lcConfig, decision);

    // With the gate disabled no decision-path telemetry is stamped, so
    // traces stay bitwise identical to the always-full scheduler's.
    if (options_.fastPath)
        finishFullQuantum(ctx, decision, why);
}

SliceDecision
CuttleSysScheduler::decide(const SliceContext &ctx)
{
    SliceDecision decision;
    decideInto(ctx, decision);
    return decision;
}

void
CuttleSysScheduler::onJobChurn(std::size_t slot)
{
    CS_ASSERT(slot < numBatchJobs_, "churn slot out of range");
    bipsEngine_.clearJob(1 + slot);
    powerEngine_.clearJob(1 + slot);
    // The cached schedule described the departed tenant: the next
    // quantum must re-search (InvalidationReason::Churn).
    churnDirty_ = true;
}

} // namespace cuttlesys
