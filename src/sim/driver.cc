#include "sim/driver.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"
#include "common/stats.hh"

namespace cuttlesys {

double
gmeanBatchBips(const SliceMeasurement &m, double floor_bips)
{
    if (m.batchBips.empty())
        return 0.0;
    // Inline flooring, replicating geomean()'s exact operation order
    // (sequential log-sum, then one exp) without the intermediate
    // vector — this is called once per quantum per node and must not
    // touch the heap.
    double logSum = 0.0;
    for (double b : m.batchBips)
        logSum += std::log(std::max(b, floor_bips));
    return std::exp(logSum /
                    static_cast<double>(m.batchBips.size()));
}

ColocationRun::ColocationRun(MulticoreSim &sim, Scheduler &scheduler,
                             const DriverOptions &opts)
    : sim_(sim), scheduler_(scheduler), opts_(opts),
      trace_(opts.traceSink),
      ownValidator_(
          check::ValidatorOptions{.failMode = opts.validatorFailMode})
{
    CS_ASSERT(opts_.maxPowerW > 0.0, "maxPowerW must be set");
    const SystemParams &params = sim_.params();
    numSlices_ = static_cast<std::size_t>(
        std::round(opts_.durationSec / params.timesliceSec));
    CS_ASSERT(numSlices_ > 0, "run shorter than one timeslice");

    if (opts_.keepSliceRecords)
        result_.slices.reserve(numSlices_);

    // Before the first decision exists, the profiling pass has to
    // assume some LC core count. Derive it from the machine (half the
    // cores) unless the caller pinned one explicitly.
    initialLcCores_ = opts_.initialLcCores > 0
        ? std::min(opts_.initialLcCores, params.numCores)
        : std::max<std::size_t>(1, params.numCores / 2);

    // Initial occupants are account 0 (the anonymous single tenant)
    // until a fleet controller stamps real identities through
    // setSlotAccount(); vacant slots are -1 from the start.
    slotAccounts_.resize(sim_.numBatchJobs());
    for (std::size_t j = 0; j < slotAccounts_.size(); ++j)
        slotAccounts_[j] = sim_.batchSlotOccupied(j) ? 0 : -1;
    slotWorkflows_.assign(sim_.numBatchJobs(), -1);
    slotDagTasks_.assign(sim_.numBatchJobs(), -1);

    // Between two steps a controller queues at most one departure and
    // one arrival per slot, plus class-strict preemptions, each of
    // which raises the slot's QoS class (so at most two per slot with
    // three classes). Reserving that bound, and one completion per
    // slot, keeps a churning quantum off the heap.
    const std::size_t slots = sim_.numBatchJobs();
    pendingEvents_.reserve(4 * slots);
    preemptedScratch_.reserve(2 * slots);
    completedWorkflows_.reserve(slots);
    completedAccounts_.reserve(slots);
    completedMakespans_.reserve(slots);

    // The trace object lives inside this run; schedulers only borrow
    // a pointer, so the destructor detaches.
    tracing_ = opts_.traceSink != nullptr;
    if (tracing_)
        scheduler_.attachTrace(&trace_);

    // The decision oracle follows the same borrow discipline. An
    // externally supplied validator wins over the run's own.
    validator_ = opts_.validator
        ? opts_.validator
        : (opts_.validateDecisions ? &ownValidator_ : nullptr);
    if (validator_) {
        scheduler_.attachValidator(validator_);
        violationsBefore_ = validator_->violationCount();
    }
}

ColocationRun::~ColocationRun()
{
    // A panicking validator (or a throwing scheduler) must not leave
    // the scheduler holding pointers into this object.
    scheduler_.attachTrace(nullptr);
    scheduler_.attachValidator(nullptr);
}

void
ColocationRun::overrideLoadFraction(double fraction)
{
    CS_ASSERT(fraction >= 0.0, "negative load fraction");
    loadOverride_ = fraction;
}

void
ColocationRun::overridePowerBudgetW(double watts)
{
    CS_ASSERT(watts > 0.0, "power budget must be positive");
    budgetOverride_ = watts;
}

void
ColocationRun::queueJobEvent(const JobEvent &event)
{
    CS_ASSERT(event.slot < sim_.numBatchJobs(),
              "job event slot out of range");
    pendingEvents_.push_back(event);
}

void
ColocationRun::setSlotAccount(std::size_t slot, std::int32_t account)
{
    CS_ASSERT(slot < slotAccounts_.size(),
              "slot account out of range");
    slotAccounts_[slot] = account;
}

void
ColocationRun::applyJobEvents()
{
    preemptedScratch_.clear();
    completedWorkflows_.clear();
    completedAccounts_.clear();
    completedMakespans_.clear();
    dagHits_ = 0;
    dagMisses_ = 0;
    dagTransferBytes_ = 0.0;
    for (const JobEvent &e : pendingEvents_) {
        CS_ASSERT(e.slot < sim_.numBatchJobs(),
                  "job event slot out of range");
        if (e.preemption) {
            // The victim's account is read before the arrival
            // overwrites the slot: the trace records who was evicted.
            ++result_.jobPreemptions;
            preemptedScratch_.push_back(slotAccounts_[e.slot]);
        }
        if (e.workflowId >= 0)
            dagSeen_ = true;
        // A departing DAG task that finishes its workflow is recorded
        // before the slot maps change hands below.
        if (e.departure && e.workflowMakespan >= 0) {
            completedWorkflows_.push_back(e.workflowId);
            completedAccounts_.push_back(slotAccounts_[e.slot]);
            completedMakespans_.push_back(e.workflowMakespan);
        }
        if (e.arrival) {
            sim_.replaceBatchJob(e.slot, *e.arrival);
            slotAccounts_[e.slot] = e.account;
            slotWorkflows_[e.slot] = e.workflowId;
            slotDagTasks_[e.slot] = e.workflowTask;
            dagHits_ += e.artifactHits;
            dagMisses_ += e.artifactMisses;
            dagTransferBytes_ += e.transferBytes;
            ++result_.jobArrivals;
        } else if (e.departure) {
            sim_.setBatchSlotOccupied(e.slot, false);
            slotAccounts_[e.slot] = -1;
            slotWorkflows_[e.slot] = -1;
            slotDagTasks_[e.slot] = -1;
        }
        if (e.departure)
            ++result_.jobDepartures;
        // Either way the slot's history belongs to a job that is no
        // longer (only) there: drop the scheduler's learned state.
        scheduler_.onJobChurn(e.slot);
    }
    pendingEvents_.clear();
}

void
ColocationRun::step()
{
    CS_ASSERT(!done(), "step() past the configured duration");
    const SystemParams &params = sim_.params();
    const std::size_t s = slice_;

    applyJobEvents();

    const double t = sim_.now();
    const double load_fraction =
        loadOverride_ ? *loadOverride_ : opts_.loadPattern.at(t);
    loadOverride_.reset();
    sim_.setLcLoadFraction(load_fraction);
    const double budget = budgetOverride_
        ? *budgetOverride_
        : opts_.powerPattern.at(t) * opts_.maxPowerW;
    budgetOverride_.reset();

    if (tracing_) {
        trace_.begin(s, t);
        telemetry::QuantumRecord &rec = trace_.record();
        rec.node = opts_.nodeIndex;
        rec.scheduler = scheduler_.name();
        rec.loadFraction = load_fraction;
        rec.powerBudgetW = budget;
    }

    ctx_.sliceIndex = s;
    ctx_.timeSec = t;
    ctx_.powerBudgetW = budget;
    ctx_.lcQosSec = sim_.mix().lc.qosSeconds();
    ctx_.previous = havePrev_ ? &prevMeasurement_ : nullptr;
    ctx_.previousDecision = havePrev_ ? &prevDecision_ : nullptr;
    ctx_.profiles.clear();

    double remaining = params.timesliceSec;
    if (scheduler_.wantsProfiling()) {
        const std::size_t lc_cores =
            havePrev_ ? prevDecision_.lcCores : initialLcCores_;
        telemetry::PhaseTimer timer(tracing_ ? &trace_ : nullptr,
                                    telemetry::Phase::Profile);
        if (tracing_)
            trace_.record().profiledLcCores = lc_cores;
        sim_.profileJobsInto(ctx_.profiles, lc_cores,
                             scheduler_.usesReconfigurableCores());
        remaining -= params.sampleSec *
            static_cast<double>(params.numProfilingSamples);
    }

    scheduler_.decideInto(ctx_, decision_);

    if (validator_) {
        check::DecisionContext vctx;
        vctx.params = &params;
        vctx.numBatchJobs = sim_.numBatchJobs();
        vctx.sliceIndex = s;
        vctx.powerBudgetW = budget;
        vctx.capEnforced = scheduler_.enforcesPowerCap();
        vctx.record = tracing_ ? &trace_.record() : nullptr;
        validator_->validate(decision_, vctx);
    }

    {
        telemetry::PhaseTimer timer(tracing_ ? &trace_ : nullptr,
                                    telemetry::Phase::Execute);
        sim_.runSliceInto(measurement_, decision_, remaining);
    }

    lastLoadFraction_ = load_fraction;
    lastBudgetW_ = budget;
    lastQosViolated_ =
        measurement_.lcTailLatency > sim_.mix().lc.qosSeconds();
    lastGmeanBips_ = gmeanBatchBips(measurement_);

    result_.totalBatchInstructions += measurement_.batchInstructions;
    result_.qosViolations += lastQosViolated_ ? 1 : 0;
    // Small tolerance: the budget is enforced on predicted power;
    // measurement noise alone should not count as a violation.
    result_.powerViolations +=
        measurement_.totalPower > budget * 1.02 ? 1 : 0;
    gmeanSum_ += lastGmeanBips_;
    powerSum_ += measurement_.totalPower;

    if (tracing_) {
        telemetry::QuantumRecord &rec = trace_.record();
        rec.executedTailSec = measurement_.lcTailLatency;
        rec.executedPowerW = measurement_.totalPower;
        rec.qosViolated = lastQosViolated_;
        rec.gmeanBips = lastGmeanBips_;
        // Tenancy stamping: who held each slot this quantum, what it
        // measured, and the width-weighted core allocation it was
        // charged (totalWidth/18; a gated or vacant slot charges 0).
        rec.slotAccounts = slotAccounts_;
        rec.slotBips = measurement_.batchBips;
        rec.slotCores.resize(slotAccounts_.size());
        for (std::size_t j = 0; j < slotAccounts_.size(); ++j) {
            const bool active = slotAccounts_[j] >= 0 &&
                j < decision_.batchActive.size() &&
                decision_.batchActive[j];
            rec.slotCores[j] = active
                ? static_cast<double>(
                      decision_.batchConfigs[j].core().totalWidth()) /
                    18.0
                : 0.0;
        }
        rec.preemptedAccounts = preemptedScratch_;
        // DAG stamping only once a DAG event has been seen: non-DAG
        // runs leave the group empty and their JSONL bitwise-legacy.
        if (dagSeen_) {
            rec.slotWorkflows = slotWorkflows_;
            rec.slotDagTasks = slotDagTasks_;
            rec.artifactHits = dagHits_;
            rec.artifactMisses = dagMisses_;
            rec.transferBytes = dagTransferBytes_;
            rec.completedWorkflows = completedWorkflows_;
            rec.completedAccounts = completedAccounts_;
            rec.completedMakespans = completedMakespans_;
        }
        trace_.end();
    }

    if (opts_.keepSliceRecords) {
        SliceRecord record;
        record.loadFraction = load_fraction;
        record.powerBudgetW = budget;
        record.qosViolated = lastQosViolated_;
        record.decision = decision_;
        record.measurement = measurement_;
        result_.slices.push_back(std::move(record));
    }

    // Swap (not copy) the previous-slice buffers: the vectors trade
    // storage, so no allocation and no stale aliasing.
    std::swap(prevDecision_, decision_);
    std::swap(prevMeasurement_, measurement_);
    havePrev_ = true;
    ++slice_;
}

const RunResult &
ColocationRun::result()
{
    const double steps =
        static_cast<double>(std::max<std::size_t>(slice_, 1));
    result_.meanGmeanBips = gmeanSum_ / steps;
    result_.meanPowerW = powerSum_ / steps;
    if (tracing_)
        result_.traceSummary = trace_.summary();
    if (validator_) {
        result_.invariantViolations =
            validator_->violationCount() - violationsBefore_;
    }
    return result_;
}

RunResult
ColocationRun::takeResult()
{
    result();
    return std::move(result_);
}

RunResult
runColocation(MulticoreSim &sim, Scheduler &scheduler,
              const DriverOptions &opts)
{
    ColocationRun run(sim, scheduler, opts);
    while (!run.done())
        run.step();
    return run.takeResult();
}

} // namespace cuttlesys
