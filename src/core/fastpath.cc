/**
 * @file
 * The stability gate: incremental decision quanta (fastpath).
 *
 * In steady state a node's job mix, load, and power budget barely
 * move between 100 ms timeslices, yet the legacy decision loop pays
 * the full reconstruct + DDS pipeline every quantum. The gate in this
 * file reuses the last full quantum's schedule when nothing material
 * changed: no churn, load and tail drift inside configured bands, the
 * power budget inside its band, and the cached decision revalidated
 * against the current PreparedObjective through the search's own
 * delta evaluator. Before revalidation the cached point is re-fit to
 * the quantum's exact power budget through a graded config-downgrade
 * repair (batch_policy.cc), so boundary-hugging schedules adapt to
 * budget wiggles the way a re-search would — by shaving configs, not
 * by gating victims. A forced full quantum every K slices bounds how
 * long reuse can mask drift.
 *
 * Everything here is pure in replayable state: the gate and the
 * revalidation read only the slice context and scheduler members that
 * are themselves deterministic functions of the decision history. No
 * wall clock, no RNG, no heap allocation in steady state (cslint's
 * fastpath-purity rule enforces the first two).
 */

#include <algorithm>
#include <cmath>

#include "common/logging.hh"
#include "core/cuttlesys.hh"
#include "power/power_model.hh"

namespace cuttlesys {

namespace {

/** Mirrors the ingest path's tail-sample floor (cuttlesys.cc): a
 *  noisy 3-request tail must not bounce the gate either. */
constexpr std::size_t kMinTailSamples = 20;

/** Relative drift of the observed load estimate (vs the last full
 *  quantum's anchor) that invalidates the cached decision. */
constexpr double kLoadDriftTol = 0.20;

/** Relative power-budget drift (vs the last full quantum's budget)
 *  that invalidates the cached decision. Within the band,
 *  revalidation still checks feasibility at the *current* budget. */
constexpr double kBudgetTol = 0.05;

/**
 * Scheduling overhead charged to a fast-reuse slice: ingest plus one
 * delta revalidation instead of the full SGD + DDS pipeline
 * (CuttleSysOptions::overheadSec), and no reconfiguration since the
 * schedule is unchanged.
 */
constexpr double kFastReuseOverheadSec = 0.0004;

} // namespace

telemetry::InvalidationReason
CuttleSysScheduler::fastPathGate(const SliceContext &ctx) const
{
    using telemetry::InvalidationReason;

    if (!haveCached_)
        return InvalidationReason::Cold;

    // The forced-refresh cadence outranks every stability signal:
    // even a perfectly stable node re-searches every K slices (the
    // paper's exploration cadence), so reuse can never mask slow
    // drift the other checks are blind to.
    if (sinceFull_ + 1 >= std::max<std::size_t>(
                              options_.fastPathRefreshQuanta, 1))
        return InvalidationReason::Refresh;

    if (churnDirty_)
        return InvalidationReason::Churn;

    const double rel_budget =
        std::abs(ctx.powerBudgetW - cachedBudgetW_) /
        std::max(cachedBudgetW_, 1.0);
    if (rel_budget > kBudgetTol)
        return InvalidationReason::BudgetShift;

    // No feedback to judge stability by (hand-built contexts): treat
    // like a cold cache rather than guessing.
    if (!ctx.previous)
        return InvalidationReason::Cold;

    // Drift is measured against the anchor recorded at the last full
    // quantum, not quantum-over-quantum: a slow ramp accumulates
    // against the decision's own context instead of evading a
    // per-slice delta check.
    const double load =
        static_cast<double>(ctx.previous->lcCompleted) /
        params_.timesliceSec;
    const double rel_load = std::abs(load - anchorLoad_) /
                            std::max(anchorLoad_, 1.0);
    if (anchorLoad_ < 0.0 || rel_load > kLoadDriftTol)
        return InvalidationReason::LoadDrift;

    if (ctx.previous->lcCompleted >= kMinTailSamples &&
        ctx.previous->lcTailLatency >
            lcQos_ * options_.fastPathTailGuard)
        return InvalidationReason::TailFloor;

    // A pending LC reconfiguration outranks reuse: once relocated
    // cores see yield-worthy slack (Section VIII-D3's condition,
    // mirrored from chooseLcConfig), the full path must run so the
    // cores return to the batch tier — reuse would pin the LC
    // allocation at its violation-time width forever.
    if (lcCores_ > options_.initialLcCores &&
        ctx.previous->lcCompleted >= kMinTailSamples &&
        ctx.previous->lcTailLatency <=
            lcQos_ * (1.0 - params_.qosSlack))
        return InvalidationReason::LcSlack;

    return InvalidationReason::None;
}

bool
CuttleSysScheduler::tryFastReuse(const SliceContext &ctx,
                                 SliceDecision &out)
{
    // Budgets under the CURRENT slice conditions, derived from the
    // cached predictions — predPower_ has not moved since the last
    // full quantum (reconstruction is exactly what the fast path
    // skips), so this is the same arithmetic chooseBatchConfigs
    // would perform.
    const JobConfig &lc = cachedDecision_.lcConfig;
    const double lc_power =
        predPower_(0, lc.index()) *
        static_cast<double>(cachedDecision_.lcCores);
    const double power_budget =
        (ctx.powerBudgetW - lc_power - llcPower(params_)) *
        kPowerHeadroom;
    const double cache_budget =
        static_cast<double>(params_.llcWays) - lc.cacheWays();

    // The LC job alone blows the budget: nothing the batch tier does
    // can fix that, so the full pipeline must reconfigure the LC side.
    if (power_budget <= 0.0)
        return false;

    // Re-fit the cached point to TODAY's budget. Decisions converge
    // onto the power boundary, so within the budget band the cached
    // point routinely sits a few watts off the current cap in either
    // direction; the full path would absorb that by re-searching —
    // shaving a config when the budget dips, spending the headroom
    // when it recovers — never by gating. The graded re-fit
    // reproduces both directions (prepared_'s tables still mirror
    // searchBips_ / searchPower_ and the prediction matrices — the
    // fast path skips exactly the step that would change them), and
    // restarts from the unmodified cached point each quantum, so
    // earlier downgrades are undone the moment the budget allows.
    fastRepairScratch_.assign(cachedPoint_.begin(), cachedPoint_.end());
    const PowerRepair refit =
        refitPointToBudgets(fastRepairScratch_, prepared_, power_budget,
                            cache_budget, refitUpgrades_);
    if (!refit.feasible)
        return false;

    // Delta-evaluated revalidation of the re-fit point against the
    // current PreparedObjective: the budget fields live in objCtx_
    // and are read at metrics time, so an in-place update re-prices
    // the point without rebuilding any table. A point whose penalties
    // now swamp its throughput is stale and must be re-searched, not
    // re-emitted.
    objCtx_.powerBudgetW = power_budget;
    objCtx_.cacheBudgetWays = cache_budget;
    revalidator_.attach(prepared_);
    revalidator_.setIncumbent(fastRepairScratch_.data(),
                              numBatchJobs_);
    const PointMetrics &m = revalidator_.incumbentMetrics();

    if (!(m.objective > 0.0))
        return false;

    // --- emit the re-fit cached decision -----------------------------
    out.reconfigurable = true;
    out.overheadSec = kFastReuseOverheadSec;
    out.lcConfig = cachedDecision_.lcConfig;
    out.lcCores = cachedDecision_.lcCores;
    out.batchConfigs.resize(numBatchJobs_);
    for (std::size_t j = 0; j < numBatchJobs_; ++j) {
        out.batchConfigs[j] =
            JobConfig::fromIndex(fastRepairScratch_[j]);
    }
    out.batchActive.assign(numBatchJobs_, true);

    // The repair leaves the point under the cap, so this is normally
    // a no-victim audit pass — kept so the emitted decision satisfies
    // the same enforcement invariant as a full quantum's even when
    // the repair bottomed out exactly at the budget.
    enforcePowerCap(out, searchPower_, power_budget, capEnforced_);

    ++sinceFull_;
    ++statFastHits_;

    if (telemetry::QuantumRecord *rec = traceRecord()) {
        rec->lcPath = lastLcPath_; // the cached quantum's path
        rec->lcConfigIndex = lc.index();
        rec->lcConfigName = lc.toString();
        rec->lcCores = cachedDecision_.lcCores;
        rec->batchPowerBudgetW = power_budget;
        rec->cacheBudgetWays = cache_budget;
        rec->searchEvaluations = 1; // the single delta revalidation
        rec->searchObjective = m.objective;
        rec->searchPowerW = m.powerW;
        rec->searchWays = m.cacheWays;
        // The re-derived enforcement is part of the emitted decision;
        // the validator audits it against today's budget like any
        // full decision's.
        rec->capVictims = capEnforced_.victims;
        rec->reclaimedWays = capEnforced_.reclaimedWays;
        rec->enforcedPowerW = capEnforced_.finalPowerW;
        rec->decisionPath = telemetry::DecisionPath::FastReuse;
        rec->invalidationReason = telemetry::InvalidationReason::None;
        rec->quantaSinceFull = sinceFull_;
    }
    return true;
}

void
CuttleSysScheduler::finishFullQuantum(const SliceContext &ctx,
                                      const SliceDecision &decision,
                                      telemetry::InvalidationReason why)
{
    // Cache the LC side of the decision; the batch side lives in
    // cachedPoint_ — the converged point chooseBatchConfigs stashed
    // BEFORE cap enforcement — not in the emitted decision, whose
    // gated victims carry zeroed-way configs that must not survive
    // into later (possibly richer) budgets. tryFastReuse re-fits and
    // re-audits that point under each quantum's budget.
    cachedDecision_.lcConfig = decision.lcConfig;
    cachedDecision_.lcCores = decision.lcCores;
    CS_ASSERT(cachedPoint_.size() == numBatchJobs_,
              "full quantum finished without a converged point");
    haveCached_ = true;
    churnDirty_ = false;
    sinceFull_ = 0;

    // Anchors: the conditions this decision was made under.
    cachedBudgetW_ = ctx.powerBudgetW;
    anchorLoad_ = -1.0;
    if (ctx.previous) {
        anchorLoad_ = static_cast<double>(ctx.previous->lcCompleted) /
                      params_.timesliceSec;
    }

    ++statFullQuanta_;

    if (telemetry::QuantumRecord *rec = traceRecord()) {
        rec->decisionPath = telemetry::DecisionPath::Full;
        rec->invalidationReason = why;
        rec->quantaSinceFull = 0;
    }
}

} // namespace cuttlesys
