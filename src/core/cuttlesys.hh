/**
 * @file
 * The CuttleSys runtime (Sections IV-VI) — the paper's contribution.
 *
 * Per 100 ms decision quantum:
 *  1. Fold the fresh 2 x 1 ms profiling samples and the previous
 *     slice's steady-state measurements into the three rating
 *     matrices (throughput, tail latency, power).
 *  2. Reconstruct all missing entries with PQ/SGD (three instances,
 *     run in parallel — Section V).
 *  3. Fix the LC job's configuration by scanning its predicted tail
 *     latencies: the least-power configuration with the smallest
 *     cache allocation that meets QoS (Section VI-A). If none
 *     qualifies, first escalate to the widest configuration, then
 *     reclaim one core per timeslice from the batch jobs; relocated
 *     cores are yielded back once measured latency has >= 20% slack
 *     (Section VIII-D3).
 *  4. Run parallel DDS over the batch jobs' joint configurations to
 *     maximize geometric-mean throughput under the remaining power
 *     and LLC-way budgets (soft penalties).
 *  5. Enforce the cap: if predictions still exceed the budget, gate
 *     batch cores in descending order of predicted power
 *     (Section VI-B).
 */

#ifndef CUTTLESYS_CORE_CUTTLESYS_HH
#define CUTTLESYS_CORE_CUTTLESYS_HH

#include <memory>
#include <optional>

#include "cf/engine.hh"
#include "common/arena.hh"
#include "core/batch_policy.hh"
#include "search/dds.hh"
#include "search/ga.hh"
#include "sim/scheduler.hh"

namespace cuttlesys {

/** Offline-characterization tables handed to the runtime. */
struct TrainingTables
{
    Matrix bips;     //!< known apps x 108 configs
    Matrix power;    //!< known apps x 108 configs
    Matrix latency;  //!< (LC app, load) rows x 108 configs, seconds
    /**
     * Utilization each latency row was characterized at (busy
     * fraction at the reference widest/4-way configuration) — the
     * side channel that disambiguates load levels (see
     * cf::reconstruct's row_context).
     */
    std::vector<double> latencyRowUtil;
};

/** Which optimizer explores the batch configuration space. */
enum class SearchAlgo
{
    ParallelDds, //!< the paper's contribution (default)
    SerialDds,   //!< textbook DDS (ablation)
    Ga,          //!< Flicker's optimizer (Fig 10 comparison)
};

/** Runtime tuning knobs. */
struct CuttleSysOptions
{
    SgdOptions sgdBips;
    SgdOptions sgdLatency;
    SgdOptions sgdPower;
    DdsOptions dds;
    GaOptions ga; //!< used when searchAlgo == SearchAlgo::Ga
    double penaltyPower = 2.0;
    double penaltyCache = 2.0;
    SearchAlgo searchAlgo = SearchAlgo::ParallelDds;
    /**
     * Seed the search with the greedy knapsack point and the previous
     * slice's decision. Disable to evaluate the raw optimizers as the
     * paper does (Fig 10).
     */
    bool searchWarmStart = true;
    /**
     * Scheduling overhead charged to each slice (Table II: 4.8 ms
     * SGD + 1.3 ms DDS); the previous configuration keeps running
     * while the runtime thinks. Set 0 to idealize.
     */
    double overheadSec = 0.0061;
    std::size_t initialLcCores = 16;
    /** Relative load change that invalidates latency history. */
    double loadChangeThreshold = 0.15;
    /**
     * Safety margin on predicted tails: a configuration is considered
     * QoS-feasible only if its predicted p99 <= margin * QoS, which
     * absorbs reconstruction error (Fig 5's 10-20% percentiles).
     */
    double latencyMargin = 0.75;
    /**
     * Margin for the measurement-grounded queueing estimate used to
     * explore configurations the reconstruction has no latency
     * samples near (tighter than latencyMargin because it is a
     * first-order model).
     */
    double queueMargin = 0.65;
    /**
     * Fraction of the remaining power budget handed to the batch
     * search: measured chip power runs a little above the predicted
     * sum (memory contention, noise), so leave headroom.
     */
    double powerHeadroom = 0.97;

    // --- incremental decision quanta (the stability gate) -------------
    /**
     * Reuse the previous schedule through a revalidated fast path when
     * the node is stable (no churn, bounded load/tail/budget drift).
     * Disabling reproduces the always-full decision loop bitwise: no
     * gate state is consulted and no decision-path telemetry is
     * stamped.
     */
    bool fastPath = true;
    /**
     * Force a full quantum every K slices regardless of stability (the
     * paper's exploration cadence): reuse can never mask drift for
     * longer than K - 1 timeslices.
     */
    std::size_t fastPathRefreshQuanta = 5;
    /** Relative drift of the observed load estimate (vs the last full
     *  quantum's anchor) that invalidates the cached decision. */
    double fastPathLoadDriftTol = 0.20;
    /**
     * Fraction of the QoS target the measured tail may reach before
     * the gate forces a full quantum: tighter than the violation
     * threshold so reuse ends while there is still slack to react,
     * but loose enough that the runtime's deliberate
     * smallest-feasible-allocation steady state (tail parked just
     * under QoS) can still coast.
     */
    double fastPathTailGuard = 0.95;
    /** Relative power-budget drift (vs the last full quantum's
     *  budget) that invalidates the cached decision. Within the band,
     *  revalidation still checks feasibility at the *current* budget. */
    double fastPathBudgetTol = 0.05;
    /**
     * Scheduling overhead charged to a fast-reuse slice: ingest plus
     * one delta revalidation instead of the full SGD + DDS pipeline
     * (overheadSec), and no reconfiguration since the schedule is
     * unchanged.
     */
    double fastPathOverheadSec = 0.0004;

    CuttleSysOptions();
};

/** The CuttleSys resource manager. */
class CuttleSysScheduler : public Scheduler
{
  public:
    /**
     * @param params system parameters
     * @param tables offline training tables (Section V)
     * @param num_batch_jobs batch jobs under management
     * @param lc_qos_sec the LC service's p99 target
     */
    CuttleSysScheduler(const SystemParams &params,
                       const TrainingTables &tables,
                       std::size_t num_batch_jobs, double lc_qos_sec,
                       CuttleSysOptions options = {});

    std::string name() const override { return "CuttleSys"; }
    bool wantsProfiling() const override { return true; }
    bool usesReconfigurableCores() const override { return true; }

    SliceDecision decide(const SliceContext &ctx) override;

    /**
     * The allocation-free primary entry point: after the first quantum
     * at a given problem shape, a steady-state decision performs zero
     * heap allocations — reconstruction scratch lives in the quantum
     * arena, search state in persistent scratch buffers, and @p out
     * reuses its capacity. decide() wraps this with a fresh decision.
     */
    void decideInto(const SliceContext &ctx, SliceDecision &out)
        override;

    /**
     * Drop batch slot @p slot's learned state on churn: its rows in
     * the BIPS and power rating matrices are cleared through
     * CfEngine::clearJob, which also invalidates the engines' cached
     * SGD warm-start factors — the next tenant's profiling samples
     * start a clean row instead of blending with the departed job's.
     */
    void onJobChurn(std::size_t slot) override;

    /** The per-quantum bump arena (exposed for allocation audits). */
    const ScratchArena &quantumArena() const { return quantumArena_; }

    /** Reconstruction engines (exposed for churn regression tests). */
    const CfEngine &bipsEngine() const { return bipsEngine_; }
    const CfEngine &powerEngine() const { return powerEngine_; }

    /** Predictions from the most recent decide(), for accuracy
     *  studies (rows: batch jobs; cols: joint configs). */
    const Matrix &lastBipsPrediction() const { return predBips_; }
    const Matrix &lastPowerPrediction() const { return predPower_; }
    /** Predicted LC tail per config (1 x 108), seconds. */
    const Matrix &lastLatencyPrediction() const { return predLatency_; }

    /** Current LC core count (after any relocation). */
    std::size_t lcCores() const { return lcCores_; }

    CuttleSysOptions &options() { return options_; }

    /** Fast-reuse decisions served since construction. */
    std::uint64_t fastPathHits() const { return statFastHits_; }
    /** Full decisions since construction. */
    std::uint64_t fullQuanta() const { return statFullQuanta_; }
    /** Always 0 (no memo cache); kept because cs_bench reads it. */
    std::uint64_t memoSeededQuanta() const { return 0; }

  private:
    /** Fold profiling samples + previous measurements into engines. */
    void ingest(const SliceContext &ctx);

    /** Run the three reconstructions (in parallel). */
    void reconstructAll();

    /** Pick the LC configuration; may bump/yield lcCores_. */
    JobConfig chooseLcConfig(const SliceContext &ctx);

    /** DDS over batch jobs + cap enforcement. */
    void chooseBatchConfigs(const SliceContext &ctx,
                            const JobConfig &lc_config,
                            SliceDecision &decision);

    // --- the stability gate (core/fastpath.cc) ------------------------
    /**
     * Pure gate: why the cached decision may NOT be reused this
     * quantum (InvalidationReason::None = reuse is allowed, pending
     * revalidation). Reads only the slice context and replayable
     * member state — no clocks, no RNG, no allocation.
     */
    telemetry::InvalidationReason fastPathGate(
        const SliceContext &ctx) const;

    /**
     * Revalidate the cached decision against the current budgets via
     * the delta evaluator and, on success, emit it into @p out (0
     * heap allocations in steady state). False = caller must run a
     * full quantum with reason Revalidate.
     */
    bool tryFastReuse(const SliceContext &ctx, SliceDecision &out);

    /** Cache @p decision and stamp the full quantum's telemetry. */
    void finishFullQuantum(const SliceContext &ctx,
                           const SliceDecision &decision,
                           telemetry::InvalidationReason why);

    SystemParams params_;
    std::size_t numBatchJobs_;
    double lcQos_;
    CuttleSysOptions options_;

    CfEngine bipsEngine_;     //!< rows: batch jobs
    CfEngine powerEngine_;    //!< rows: LC job + batch jobs
    CfEngine latencyEngine_;  //!< rows: the LC job

    Matrix predBips_;
    Matrix predPower_;   //!< row 0 = LC, rows 1.. = batch
    Matrix predLatency_;
    Matrix searchBips_;  //!< batch-row views for the DDS objective,
    Matrix searchPower_; //!< reused across quanta (no per-slice alloc)

    // Per-quantum reusable state: the bump arena backs reconstruction
    // scratch (reset each quantum), and the search objects below keep
    // their buffers across quanta so the steady-state decision loop
    // never touches the heap.
    ScratchArena quantumArena_;
    ObjectiveContext objCtx_;     //!< points at searchBips_/Power_
    PreparedObjective prepared_;  //!< rebuilt (in place) per quantum
    DdsScratch ddsScratch_;
    DdsOptions ddsOpts_;          //!< per-quantum working copy
    SearchResult searchResult_;
    KnapsackSeed knapsackSeed_;

    std::size_t lcCores_;
    double lastLoadEstimate_ = -1.0;
    bool previousSliceViolated_ = false;
    std::size_t configIdxWide_;
    std::size_t configIdxNarrow_;

    // --- stability-gate state (core/fastpath.cc) ----------------------
    // The cached decision is the last full quantum's output; the
    // anchors record the conditions it was made under, so the gate
    // measures drift against the decision's own context rather than
    // quantum-over-quantum deltas (which a slow ramp would evade).
    SliceDecision cachedDecision_;
    std::vector<std::uint16_t> cachedPoint_;  //!< converged indices
    Point fastRepairScratch_; //!< cached point re-fit to the budget
    telemetry::LcPath lastLcPath_ = telemetry::LcPath::None;
    bool haveCached_ = false;
    bool churnDirty_ = false;      //!< churn since the last full quantum
    std::size_t sinceFull_ = 0;    //!< fast quanta since the last full
    double anchorLoad_ = -1.0;     //!< load estimate at the last full
    double cachedBudgetW_ = 0.0;   //!< power budget at the last full
    DeltaEvaluator revalidator_;   //!< fast-path delta revalidation
    std::uint64_t statFastHits_ = 0;
    std::uint64_t statFullQuanta_ = 0;
};

} // namespace cuttlesys

#endif // CUTTLESYS_CORE_CUTTLESYS_HH
