/**
 * @file
 * The structured trace of one decision quantum.
 *
 * A QuantumRecord captures everything the runtime measured, predicted,
 * chose, and enforced in one 100 ms timeslice: the offered conditions,
 * the previous slice's feedback (and whether it was ingested), which
 * LC feasibility path fixed the configuration, the batch search's
 * budgets and outcome, cap-enforcement victims, the executed slice's
 * results, and per-phase timings. One record per timeslice is emitted
 * to the attached TraceSink (trace_sink.hh) as a JSONL line; the
 * trace-replay tool (examples/trace_timeline) renders them as a
 * human-readable timeline.
 */

#ifndef CUTTLESYS_TELEMETRY_QUANTUM_RECORD_HH
#define CUTTLESYS_TELEMETRY_QUANTUM_RECORD_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace cuttlesys {
namespace telemetry {

/**
 * Which feasibility path fixed the LC configuration this quantum
 * (Section VI-A's scan plus the escalation / relocation overrides).
 */
enum class LcPath : std::uint8_t
{
    None = 0,          //!< scheduler recorded no LC decision
    ColdStart,         //!< no latency history: safest configuration
    ViolationEscalate, //!< measured violation: widest configuration
    ViolationRelocate, //!< widest still violating: core reclaimed
    CfFeasible,        //!< reconstruction's tail prediction qualified
    QueueFeasible,     //!< queueing estimate qualified (CF did not)
    NoFeasible,        //!< scan found nothing: fall back to safest
    StaticPolicy,      //!< fixed-configuration baseline
};

inline constexpr std::size_t kNumLcPaths = 8;

/** Printable name of an LC path ("cf", "queue-estimate", ...). */
const char *lcPathName(LcPath path);

/** Inverse of lcPathName(); LcPath::None for unknown names. */
LcPath lcPathFromName(std::string_view name);

/**
 * How the scheduler produced this quantum's decision. Full quanta run
 * the complete ingest → reconstruct → search pipeline; fast-reuse
 * quanta re-emit the cached schedule after the stability gate's
 * revalidation. None means the scheduler does not implement (or has
 * disabled) the incremental path — the JSONL sink omits the group
 * entirely, keeping legacy traces bitwise.
 */
enum class DecisionPath : std::uint8_t
{
    None = 0,   //!< legacy scheduler, or the stability gate disabled
    Full,       //!< complete reconstruct + search pipeline
    FastReuse,  //!< cached decision re-emitted through the gate
    MemoSeeded, //!< never produced; kept because cs_bench names it
};

inline constexpr std::size_t kNumDecisionPaths = 4;

/** Printable name of a decision path ("fast-reuse", ...). */
const char *decisionPathName(DecisionPath path);

/** Inverse of decisionPathName(); None for unknown names. */
DecisionPath decisionPathFromName(std::string_view name);

/**
 * Why the stability gate forced a full quantum (stamped on full
 * quanta; None on fast-reuse quanta, whose gate passed).
 */
enum class InvalidationReason : std::uint8_t
{
    None = 0,    //!< gate passed (or gate not consulted)
    Cold,        //!< no cached decision yet
    Refresh,     //!< K-quantum forced refresh cadence
    Churn,       //!< batch slot changed occupant since the last full
    LoadDrift,   //!< observed load moved past the drift threshold
    TailFloor,   //!< measured tail violated (or grazed) the QoS floor
    LcSlack,     //!< relocated LC cores saw yield-worthy slack
    BudgetShift, //!< power budget moved past the drift threshold
    Revalidate,  //!< cached decision failed the delta revalidation
};

inline constexpr std::size_t kNumInvalidationReasons = 9;

/** Printable name of an invalidation reason ("load-drift", ...). */
const char *invalidationReasonName(InvalidationReason reason);

/** Inverse of invalidationReasonName(); None for unknown names. */
InvalidationReason invalidationReasonFromName(std::string_view name);

/**
 * Reconstruction engines of one CuttleSys node, in the order of the
 * per-metric work counters: BIPS, power, tail latency.
 */
inline constexpr std::size_t kNumCfMetrics = 3;

/** Phases timed inside one decision quantum. */
enum class Phase : std::uint8_t
{
    Profile = 0, //!< the 2 x 1 ms profiling pass (driver side)
    Ingest,      //!< folding samples + feedback into the matrices
    Reconstruct, //!< the three PQ/SGD reconstructions
    Search,      //!< parallel DDS over the batch configurations
    Enforce,     //!< cap enforcement (victim gating)
    Execute,     //!< running the slice in the simulator (driver side)
};

inline constexpr std::size_t kNumPhases = 6;

/** Printable name of a phase ("profile", "reconstruct", ...). */
const char *phaseName(Phase phase);

/** Everything observed / decided / enforced in one quantum. */
struct QuantumRecord
{
    // --- identity and offered conditions (driver side) ---------------
    std::size_t slice = 0;
    /** Fleet node index; 0 for single-node runs (the default). */
    std::size_t node = 0;
    double timeSec = 0.0;
    std::string scheduler;
    double loadFraction = -1.0;     //!< offered LC load (fraction)
    double powerBudgetW = 0.0;      //!< this slice's cap, W
    std::size_t profiledLcCores = 0; //!< LC cores during profiling

    // --- previous slice's feedback, as seen at decision time ---------
    double measuredTailSec = -1.0;
    double measuredUtil = -1.0;
    std::size_t measuredCompleted = 0;
    bool measuredViolation = false;
    bool tailObserved = false;  //!< tail ingested into latency matrix
    bool pollutedSlice = false; //!< drain slice: tail skipped

    // --- LC decision ---------------------------------------------------
    LcPath lcPath = LcPath::None;
    std::size_t lcConfigIndex = 0;
    std::string lcConfigName;
    std::size_t lcCores = 0;
    int lcCoreDelta = 0;          //!< +1 relocation, -1 yield
    std::size_t scanSaturated = 0; //!< configs the guard rejected
    bool chosenCfFeasible = false;
    bool chosenQueueFeasible = false;

    // --- batch search --------------------------------------------------
    double batchPowerBudgetW = 0.0;
    double cacheBudgetWays = 0.0;
    double seedWays = 0.0;      //!< greedy warm start's way usage
    bool seedRepaired = false;  //!< way-infeasible seed was repaired
    std::size_t searchEvaluations = 0;
    double searchObjective = 0.0;
    double searchPowerW = 0.0;
    double searchWays = 0.0;
    /** LLC ways the post-search repair had to free because the soft
     *  penalties let DDS return a way-overcommitted point. */
    double searchRepairedWays = 0.0;

    // --- cap enforcement -----------------------------------------------
    std::vector<std::size_t> capVictims; //!< gated batch jobs
    double reclaimedWays = 0.0;          //!< LLC ways freed by gating
    /** Predicted power after enforcement, audited by the validator
     *  against batchPowerBudgetW; -1 when the scheduler made no
     *  enforcement claim. */
    double enforcedPowerW = -1.0;

    // --- schedule-invariant audit (check/schedule_validator) ----------
    std::vector<std::string> invariantViolations;

    // --- executed slice (driver side, after runSlice) -----------------
    double executedTailSec = -1.0;
    double executedPowerW = -1.0;
    bool qosViolated = false;
    double gmeanBips = 0.0;

    // --- decision path (stability gate; None for legacy schedulers) ---
    DecisionPath decisionPath = DecisionPath::None;
    /** Why the gate forced a full quantum; None on fast-reuse quanta. */
    InvalidationReason invalidationReason = InvalidationReason::None;
    /** Quanta since the last full decision (0 on full quanta). */
    std::size_t quantaSinceFull = 0;

    // --- tenancy (driver side; empty in hand-built records) -----------
    /** Account holding each batch slot this quantum; -1 = vacant. */
    std::vector<std::int32_t> slotAccounts;
    /** Measured BIPS per batch slot (mirrors the measurement). */
    std::vector<double> slotBips;
    /** Width-weighted core allocation per slot (totalWidth/18; 0 for
     *  gated or vacant slots) — the core-seconds accounting basis. */
    std::vector<double> slotCores;
    /** Victim accounts of this quantum's preemption evictions. */
    std::vector<std::int32_t> preemptedAccounts;

    // --- DAG workflows (driver side; all empty/zero outside a DAG
    // --- fleet run, so legacy traces stay bitwise) --------------------
    /** Workflow instance holding each batch slot; -1 = not a DAG
     *  task (vacant or a plain churned job). */
    std::vector<std::int64_t> slotWorkflows;
    /** Task index within the slot's workflow; -1 = not a DAG task. */
    std::vector<std::int32_t> slotDagTasks;
    /** Input artifacts found resident by this quantum's DAG
     *  placements on this node. */
    std::size_t artifactHits = 0;
    /** Input artifacts that had to be transferred in. */
    std::size_t artifactMisses = 0;
    /** Modeled bytes moved for those misses. */
    double transferBytes = 0.0;
    /** Workflows whose final task departed this quantum, with the
     *  submitting account and the submit->finish makespan (quanta). */
    std::vector<std::int64_t> completedWorkflows;
    std::vector<std::int32_t> completedAccounts;
    std::vector<std::int64_t> completedMakespans;

    // --- deterministic work counters (full CuttleSys quanta) ----------
    /** SGD epochs each reconstruction ran this quantum (BIPS, power,
     *  latency); all zero when nothing was reconstructed (fast-reuse
     *  quanta, baseline schedulers). */
    std::array<std::size_t, kNumCfMetrics> sgdEpochs{};
    /** Engines whose reconstruction cold-started this quantum (random
     *  and Jacobi-SVD initialization instead of the cached factors). */
    std::array<bool, kNumCfMetrics> coldStarts{};
    /** Rows each reconstruction re-solved by ridge fold-in (churn-reset
     *  rows before SGD plus every sampled row after it). */
    std::array<std::size_t, kNumCfMetrics> foldInSolves{};

    // --- phase timers, seconds (indexed by Phase) ---------------------
    std::array<double, kNumPhases> phaseSec{};

    double phase(Phase p) const
    {
        return phaseSec[static_cast<std::size_t>(p)];
    }
};

} // namespace telemetry
} // namespace cuttlesys

#endif // CUTTLESYS_TELEMETRY_QUANTUM_RECORD_HH
