/**
 * @file
 * Evaluation driver: runs a scheduler against a colocation.
 *
 * Implements the per-timeslice loop of Fig 3: set the offered load
 * and power budget from their traces, run the profiling pass if the
 * scheduler wants one, obtain the decision, execute the slice, and
 * record everything the figures need (instructions, tail latency,
 * power, chosen configurations).
 *
 * Two entry points share one implementation: runColocation() drives a
 * whole run in a loop, while ColocationRun exposes the same loop one
 * step() at a time so an outer controller — the fleet simulator —
 * can interleave many nodes, override each quantum's load and budget,
 * and inject batch-job churn between quanta. The stepper keeps every
 * per-quantum buffer persistent, so a steady-state step() performs
 * zero heap allocations (with tracing off and slice records not
 * kept), preserving PR 4's zero-alloc contract per fleet node.
 */

#ifndef CUTTLESYS_SIM_DRIVER_HH
#define CUTTLESYS_SIM_DRIVER_HH

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "check/schedule_validator.hh"
#include "lcsim/load_pattern.hh"
#include "sim/multicore.hh"
#include "sim/scheduler.hh"
#include "telemetry/quantum_trace.hh"

namespace cuttlesys {

/**
 * One batch-slot churn event, applied at the head of a quantum
 * (before the profiling pass, so an arriving job's first samples are
 * its own). A departure without an arrival vacates the slot; an
 * arrival installs @ref profile (replacing any sitting tenant).
 * Either way the scheduler's onJobChurn() fires for the slot, which
 * is what flows into CfEngine::clearJob and resets the row's
 * reconstruction history and its latent factors.
 */
struct JobEvent
{
    std::size_t slot = 0;
    bool departure = false;
    std::optional<AppProfile> arrival;
    /** Tenant identity of the arriving job (stamped into the quantum
     *  records' per-slot account map); ignored for pure departures. */
    std::int32_t account = 0;
    /** True when this event evicts a sitting tenant on behalf of a
     *  higher-class arrival (departure + arrival on one occupied
     *  slot). Counted in RunResult::jobPreemptions and the victim's
     *  account lands in the quantum record. The churn seam is
     *  otherwise identical: onJobChurn() fires and the slot's learned
     *  CF state drops, so the preemptor never inherits the victim's
     *  observations. */
    bool preemption = false;

    // --- DAG workflow identity (fleet controller side; the defaults
    // --- mark a plain non-DAG job and change nothing) ----------------
    /** Workflow instance the arriving/departing task belongs to;
     *  -1 for plain churned jobs. */
    std::int64_t workflowId = -1;
    /** Task index within that workflow; -1 for plain jobs. */
    std::int32_t workflowTask = -1;
    /** Input artifacts the placement found resident / had to pull in
     *  (arrivals only; stamped into the quantum record). */
    std::uint32_t artifactHits = 0;
    std::uint32_t artifactMisses = 0;
    /** Modeled bytes transferred for the misses. */
    double transferBytes = 0.0;
    /** On the departure that finishes a workflow: its submit->finish
     *  makespan in cluster quanta; -1 otherwise. */
    std::int64_t workflowMakespan = -1;
};

/** Driver configuration for one run. */
struct DriverOptions
{
    double durationSec = 1.0;   //!< total simulated time
    LoadPattern loadPattern = LoadPattern::constant(0.8);
    /** Power budget trace, as a fraction of maxPowerW. */
    LoadPattern powerPattern = LoadPattern::constant(0.7);
    double maxPowerW = 0.0;     //!< reference max power (Section VII-A)

    /**
     * LC core count used for the first slice's profiling pass, before
     * any decision exists. 0 means "derive from the machine": half the
     * cores, at least one.
     */
    std::size_t initialLcCores = 0;

    /**
     * Optional per-quantum trace sink. When set, the driver attaches a
     * telemetry::QuantumTrace to the scheduler and emits one
     * QuantumRecord per timeslice; when null, tracing stays off and
     * the hot path never touches a clock.
     */
    telemetry::TraceSink *traceSink = nullptr;

    /**
     * Zero-config decision oracle: audit every decision against the
     * machine invariants (grid membership, LLC way budget, power-cap
     * claim, core accounting, gated-release). On by default so every
     * test and CI colocation run — baselines included — fails loudly
     * on an infeasible schedule.
     */
    bool validateDecisions = true;

    /** What a failed invariant does (default: fail the run). */
    check::FailMode validatorFailMode = check::FailMode::Panic;

    /**
     * External validator to use instead of the driver's own. Lets a
     * caller aggregate audits across runs or pick non-default
     * tolerances; overrides validateDecisions/validatorFailMode.
     */
    check::ScheduleValidator *validator = nullptr;

    /**
     * Keep the per-slice SliceRecord list in RunResult::slices. Fleet
     * nodes turn this off: the aggregates still accumulate, but the
     * steady-state quantum stays allocation-free.
     */
    bool keepSliceRecords = true;

    /**
     * Stamped into every emitted QuantumRecord's node field so a
     * fleet-wide trace can interleave records from many nodes and
     * still be split back apart. 0 for single-node runs.
     */
    std::size_t nodeIndex = 0;
};

/** Everything recorded about one executed timeslice. */
struct SliceRecord
{
    SliceDecision decision;
    SliceMeasurement measurement;
    double loadFraction = 0.0;
    double powerBudgetW = 0.0;
    bool qosViolated = false;
};

/** Aggregate outcome of a run. */
struct RunResult
{
    std::vector<SliceRecord> slices;
    double totalBatchInstructions = 0.0;
    std::size_t qosViolations = 0;   //!< slices with p99 > QoS
    std::size_t powerViolations = 0; //!< slices with power > budget
    double meanPowerW = 0.0;

    /** Mean over slices of the geometric-mean batch BIPS. */
    double meanGmeanBips = 0.0;

    /** Per-quantum telemetry aggregate (empty when tracing is off). */
    telemetry::RunSummary traceSummary;

    /**
     * Schedule-invariant violations found by the decision oracle
     * (always 0 under the default panic fail mode, which throws
     * instead; meaningful with FailMode::Record / Log).
     */
    std::size_t invariantViolations = 0;

    /** Batch-job churn applied during the run. */
    std::size_t jobArrivals = 0;
    std::size_t jobDepartures = 0;
    /** Evictions on behalf of a higher-class arrival (a subset of
     *  both arrivals and departures: one preemption event counts as
     *  one of each). */
    std::size_t jobPreemptions = 0;
};

/**
 * The per-timeslice loop as a stepper object.
 *
 * Construction attaches the trace/validator to the scheduler
 * (detached again on destruction, exception-safe); each step() runs
 * one full decision quantum. Between steps a controller may override
 * the next quantum's load fraction and power budget (the fleet's
 * global power manager does both) and queue JobEvents. All
 * per-quantum state — profiling buffers, the decision, the
 * measurement, the previous slice's copies — lives in persistent
 * members, so steady-state steps are heap-free when tracing is off
 * and keepSliceRecords is false.
 */
class ColocationRun
{
  public:
    ColocationRun(MulticoreSim &sim, Scheduler &scheduler,
                  const DriverOptions &opts);
    ~ColocationRun();

    ColocationRun(const ColocationRun &) = delete;
    ColocationRun &operator=(const ColocationRun &) = delete;

    /** Quanta in the configured duration. */
    std::size_t numSlices() const { return numSlices_; }

    /** Index of the quantum the next step() will run. */
    std::size_t nextSlice() const { return slice_; }

    /** Whether the configured duration has fully run. */
    bool done() const { return slice_ >= numSlices_; }

    /**
     * Replace the load-pattern value for the next step() only (a
     * cluster controller shifting LC load between replicas).
     */
    void overrideLoadFraction(double fraction);

    /**
     * Replace the power-pattern budget (absolute watts) for the next
     * step() only (the global power manager's per-quantum split).
     */
    void overridePowerBudgetW(double watts);

    /** Queue a churn event for the head of the next step(). */
    void queueJobEvent(const JobEvent &event);

    /**
     * Stamp the account of a slot's *initial* occupant (the
     * construction-time mix). Later occupants carry their account on
     * their JobEvent; this seam exists because the initial mix never
     * arrives through an event.
     */
    void setSlotAccount(std::size_t slot, std::int32_t account);

    /** Per-slot account map (-1 = vacant), as of the last step(). */
    const std::vector<std::int32_t> &slotAccounts() const
    {
        return slotAccounts_;
    }

    /** Run one decision quantum. @pre !done() */
    void step();

    /** Last executed quantum's observables. @pre one step() ran. */
    const SliceMeasurement &lastMeasurement() const
    {
        return prevMeasurement_;
    }
    const SliceDecision &lastDecision() const { return prevDecision_; }
    double lastLoadFraction() const { return lastLoadFraction_; }
    double lastPowerBudgetW() const { return lastBudgetW_; }
    bool lastQosViolated() const { return lastQosViolated_; }
    double lastGmeanBips() const { return lastGmeanBips_; }

    /** Aggregates over the steps run so far (means up to date). */
    const RunResult &result();

    /** Move the aggregates out (the run must not step() afterwards). */
    RunResult takeResult();

  private:
    void applyJobEvents();

    MulticoreSim &sim_;
    Scheduler &scheduler_;
    DriverOptions opts_;

    std::size_t numSlices_ = 0;
    std::size_t slice_ = 0;
    std::size_t initialLcCores_ = 0;
    bool tracing_ = false;

    telemetry::QuantumTrace trace_;
    check::ScheduleValidator ownValidator_;
    check::ScheduleValidator *validator_ = nullptr;
    std::size_t violationsBefore_ = 0;

    // Persistent per-quantum buffers (capacity reused every step).
    SliceContext ctx_;
    SliceDecision decision_;
    SliceMeasurement measurement_;
    SliceDecision prevDecision_;
    SliceMeasurement prevMeasurement_;
    bool havePrev_ = false;
    std::vector<JobEvent> pendingEvents_;
    /** Per-slot tenant identity (-1 = vacant); initial occupants
     *  default to account 0 until setSlotAccount() says otherwise. */
    std::vector<std::int32_t> slotAccounts_;
    /** Victim accounts of this quantum's preemptions (trace only). */
    std::vector<std::int32_t> preemptedScratch_;
    /** Per-slot DAG identity (-1 = not a DAG task) and this quantum's
     *  cache/completion telemetry; all stay at their defaults — and
     *  out of the trace — until a DAG-stamped JobEvent arrives. */
    std::vector<std::int64_t> slotWorkflows_;
    std::vector<std::int32_t> slotDagTasks_;
    bool dagSeen_ = false;
    std::size_t dagHits_ = 0;
    std::size_t dagMisses_ = 0;
    double dagTransferBytes_ = 0.0;
    std::vector<std::int64_t> completedWorkflows_;
    std::vector<std::int32_t> completedAccounts_;
    std::vector<std::int64_t> completedMakespans_;

    double lastLoadFraction_ = 0.0;
    double lastBudgetW_ = 0.0;
    bool lastQosViolated_ = false;
    double lastGmeanBips_ = 0.0;
    std::optional<double> loadOverride_;
    std::optional<double> budgetOverride_;

    double gmeanSum_ = 0.0;
    double powerSum_ = 0.0;
    RunResult result_;
};

/**
 * Run @p scheduler on @p sim for the configured duration.
 * The simulator should be freshly constructed (time 0).
 */
RunResult runColocation(MulticoreSim &sim, Scheduler &scheduler,
                        const DriverOptions &opts);

/**
 * Geometric-mean batch throughput of one measurement, with gated jobs
 * floored at @p floor_bips so the gmean stays defined (the paper
 * switches to instruction totals for cross-scheme comparison for
 * exactly this reason).
 */
double gmeanBatchBips(const SliceMeasurement &m,
                      double floor_bips = 1e-3);

} // namespace cuttlesys

#endif // CUTTLESYS_SIM_DRIVER_HH
