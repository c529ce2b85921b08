/**
 * @file
 * The fleet controller: N CuttleSys nodes under one cluster brain.
 *
 * Each node is a complete single-server stack (MulticoreSim +
 * CuttleSysScheduler + ColocationRun) running the shared
 * compressed-day scenario with a per-node phase shift and amplitude
 * — replicas of one service behind a load balancer, peaking at
 * different times. Per cluster quantum the controller, in order:
 *
 *  1. churn  — a block-parallel scan draws each node's seed-isolated
 *     departures and arrival counts (counter-based JobChurnEngine)
 *     into per-worker arena staging; a single-threaded merge then
 *     queues the events and admits arrivals — each stamped with its
 *     deterministic account draw — into the pending queue in
 *     node-index order. At capacity the *lowest-priority* entry is
 *     dropped, incumbent or newcomer, whichever ranks worse;
 *  2. place  — every node is scored once, block-parallel, and the
 *     pending queue commits single-threaded in *priority order*
 *     (fair-share x age x QoS class, ties to arrival sequence — exact
 *     FIFO for a single uniform tenant) through PlacementRound's
 *     heap: no double-booking, and the choices are bitwise those of
 *     the serial per-job rescan. A high-class job finding no vacancy
 *     may preempt the worst strictly-lower-class running job: the
 *     victim's slot is vacated and re-booked through the round
 *     (refresh + placeOne), the victim re-queues with its original
 *     submit quantum and sequence number, and the eviction rides the
 *     existing churn seam so the victim's learned CF state drops;
 *  3. budget — per-node demand weights are computed block-parallel
 *     with a block-ordered reduction; the cap clip/redistribute pass
 *     runs single-threaded in index order;
 *  4. shift  — a block-parallel scan gathers each replica's upcoming
 *     offered load; donor/receiver pairing and the load-shift commit
 *     run single-threaded in index order;
 *  5. step   — steps all nodes concurrently on the global thread
 *     pool. Nodes share no mutable state, and each node's own
 *     pipeline is bitwise deterministic at any pool width;
 *  6. gather — aggregates telemetry in node-index order: per-node
 *     trace records are drained into the fleet-wide sink (stamped
 *     with their node index) and the cluster counters accumulate.
 *
 * The discipline throughout (DESIGN.md §12): parallel regions scan —
 * they read shared state and write only disjoint per-node entries or
 * per-worker arena scratch — and single-threaded fixed-order merges
 * commit. Every draw is a pure function of its coordinates and every
 * floating-point reduction combines fixed-size block partials in
 * block order, so the cluster trace is bitwise identical at any
 * CS_POOL_THREADS.
 */

#ifndef CUTTLESYS_CLUSTER_FLEET_HH
#define CUTTLESYS_CLUSTER_FLEET_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cluster/accounting.hh"
#include "cluster/churn.hh"
#include "cluster/dag/artifact_cache.hh"
#include "cluster/dag/workflow.hh"
#include "cluster/node.hh"
#include "cluster/placement.hh"
#include "cluster/power_manager.hh"
#include "common/arena.hh"
#include "lcsim/scenarios.hh"
#include "telemetry/trace_sink.hh"

namespace cuttlesys {
namespace cluster {

/** Fleet-wide configuration. */
struct FleetOptions
{
    std::size_t numNodes = 8;
    std::size_t batchSlotsPerNode = 16;
    std::uint64_t seed = 2026;

    /** The shared day every node rides, its diurnal phase staggered
     *  across the day per node (replicas in different "time
     *  zones"). */
    CompressedDayScenario scenario;
    /** Per-node load-amplitude spread: node i's diurnal wave is
     *  scaled into [loadScaleMin, loadScaleMax] (heterogeneous
     *  replica popularity). Equal values disable the spread. */
    double loadScaleMin = 0.70;
    double loadScaleMax = 1.00;

    /**
     * Application phase-drift period forwarded to every node's
     * simulator (see MulticoreSim::setPhaseDrift; the amplitude is the
     * sim's kPhaseDriftAmplitude). The default is the sim's unit-test
     * default — a 7-timeslice phase cycle; scenario-scale runs should
     * slow the period to match their time compression so jobs do not
     * change identity every few quanta.
     */
    double phaseDriftPeriodSec = kPhaseDriftPeriodSec;

    /** Rack budget as a fraction of numNodes * nodeMaxPowerW. */
    double rackBudgetFrac = 0.70;

    ChurnOptions churn;

    /**
     * DAG batch workflows (dag/workflow.hh): when dag.enable is set
     * and churn.meanWorkflowArrivalsPerQuantum > 0, churned arrivals
     * include small task DAGs whose placements feel data gravity
     * through the per-node artifact caches. Disabled (the default)
     * the fleet replays the legacy trace bitwise.
     */
    dag::DagOptions dag;

    /**
     * The accounts submitting into the churned arrival stream. Empty
     * (the default) runs the legacy single anonymous tenant. When
     * set, each tenant's arrivalWeight drives the account draw
     * (overriding churn.tenantArrivalWeights), its shares its
     * fair-share entitlement, and its qosClass the class of every job
     * it submits.
     */
    std::vector<TenantSpec> tenants;

    /** Fleet-wide trace sink; per-node records are drained into it in
     *  node-index order, each stamped with its node. Null = untraced
     *  (and the steady-state cluster quantum stays heap-free). */
    telemetry::TraceSink *sink = nullptr;

    /** Runtime tuning shared by every node's scheduler. */
    CuttleSysOptions scheduler;
};

/** Per-node slice of the fleet outcome. */
struct NodeSummary
{
    std::size_t node = 0;
    std::size_t quanta = 0;
    std::size_t qosViolations = 0;
    double qosPct = 0.0;        //!< % quanta meeting QoS
    double meanGmeanBips = 0.0; //!< all-slots gmean (vacant floored)
    /** Mean over quanta of the occupied-slots-only gmean — per-job
     *  throughput, the metric placement actually moves. */
    double meanJobGmeanBips = 0.0;
    double meanPowerW = 0.0;
    double meanBudgetW = 0.0;
    double meanHeadroomW = 0.0;
    double totalBatchInstructions = 0.0;
    std::size_t arrivals = 0;
    std::size_t departures = 0;
    std::size_t invariantViolations = 0;
};

/** Per-account slice of the fleet outcome (sacct-style). */
struct AccountSummary
{
    std::string name;
    QosClass qosClass = QosClass::Batch;
    double shares = 1.0;
    double arrivalWeight = 1.0;
    std::size_t arrivals = 0;
    std::size_t placements = 0;
    std::size_t dropsNew = 0;    //!< this account's arrival rejected
    std::size_t dropsQueued = 0; //!< evicted from the pending queue
    std::size_t preemptionsWon = 0;
    std::size_t preemptionsSuffered = 0;
    double coreSeconds = 0.0; //!< width-weighted (totalWidth/18)
    double ginstr = 0.0;      //!< giga-instructions retired
    double gmeanBips = 0.0;   //!< gmean over charged slot-quanta
    double fairShare = 1.0;   //!< factor at the last quantum
    /** DAG workflows of this account that ran to completion, and the
     *  gmean of their submit->finish makespans (quanta; 0 if none). */
    std::size_t workflowsCompleted = 0;
    double gmeanMakespanQuanta = 0.0;
};

/** Cluster-wide outcome of one fleet run. */
struct FleetSummary
{
    std::vector<NodeSummary> nodes;
    std::size_t numNodes = 0;
    std::size_t quanta = 0;          //!< per node
    double clusterQosPct = 0.0;      //!< % node-quanta meeting QoS
    double gmeanBatchBips = 0.0;     //!< gmean over nodes' means
    /** Gmean over nodes of meanJobGmeanBips (occupied slots only). */
    double jobGmeanBips = 0.0;
    double meanClusterPowerW = 0.0;  //!< sum over nodes, mean over time
    double rackBudgetW = 0.0;
    double meanHeadroomW = 0.0;      //!< rack budget minus draw
    double totalBatchInstructions = 0.0;
    std::size_t arrivals = 0;        //!< submissions accepted
    std::size_t droppedArrivals = 0; //!< newcomers rejected at the cap
    /** Queued entries displaced at the cap by a higher-priority
     *  newcomer (always 0 with a single uniform tenant, whose
     *  newcomer always ranks worst). */
    std::size_t droppedQueued = 0;
    std::size_t departures = 0;
    std::size_t placements = 0;      //!< jobs placed onto a node
    std::size_t preemptions = 0;     //!< class-strict evictions
    std::size_t placementStalls = 0; //!< job-quanta spent waiting
    std::size_t loadShifts = 0;      //!< replica load-shift events
    // --- incremental-decision outcome (stability gate) --------------
    std::size_t fastPathHits = 0;    //!< fast-reuse node-quanta
    std::size_t fullQuanta = 0;      //!< full node-quanta
    double fastPathHitRate = 0.0;    //!< hits / (hits + full)
    std::size_t memoSeededQuanta = 0; //!< always 0; cs_bench reads it
    std::size_t memoLookups = 0;      //!< always 0; cs_bench reads it
    std::size_t memoHits = 0;         //!< always 0; cs_bench reads it
    std::size_t memoStores = 0;       //!< always 0; cs_bench reads it
    // --- DAG workflow outcome (all 0 with dag disabled) --------------
    std::size_t workflowsSubmitted = 0;
    std::size_t workflowsCompleted = 0;
    std::size_t workflowsDropped = 0; //!< live pool full at arrival
    std::size_t dagTasksCompleted = 0;
    std::size_t artifactHits = 0;     //!< inputs found resident
    std::size_t artifactMisses = 0;   //!< inputs transferred in
    std::size_t artifactEvictions = 0;
    double artifactHitRate = 0.0;     //!< hits / (hits + misses)
    double transferBytes = 0.0;       //!< modeled interconnect traffic
    /** Gmean over completed workflows of submit->finish quanta — the
     *  headline the locality A/B moves. 0 when none completed. */
    double gmeanMakespanQuanta = 0.0;
    double meanMakespanQuanta = 0.0;
    std::string placementPolicy;
    /** Per-account accounting, in account order (always at least the
     *  anonymous default account). */
    std::vector<AccountSummary> accounts;
};

/**
 * Where one stepQuantum() spends its wall time, in call order: the
 * five controller phases (Churn includes the ledger's quantum head),
 * the parallel node step, and the accounting + trace gather.
 */
enum class StepPhase : std::size_t
{
    Churn,
    Gather,
    Place,
    Power,
    Shift,
    NodeStep,
    Account,
};
constexpr std::size_t kNumStepPhases = 7;

/** Short printable name of @p phase. */
const char *stepPhaseName(StepPhase phase);

/** Wall seconds per StepPhase, indexed by the enum's value. */
using StepSeconds = std::array<double, kNumStepPhases>;

/** The cluster controller (see file header for the quantum loop). */
class FleetController
{
  public:
    /**
     * @param params machine parameters shared by every node
     * @param tables offline training tables shared by every node
     * @param lc_service the calibrated LC service each replica runs
     * @param batch_pool profiles for initial mixes and churn arrivals
     * @param node_max_power_w one node's reference max power
     *        (power::systemMaxPower of the pool)
     * @param placement the placement policy (borrowed)
     * @param opts fleet configuration
     */
    FleetController(const SystemParams &params,
                    const TrainingTables &tables,
                    const AppProfile &lc_service,
                    const std::vector<AppProfile> &batch_pool,
                    double node_max_power_w,
                    PlacementPolicy &placement, FleetOptions opts = {});
    ~FleetController();

    FleetController(const FleetController &) = delete;
    FleetController &operator=(const FleetController &) = delete;

    std::size_t numNodes() const { return nodes_.size(); }
    ClusterNode &node(std::size_t i) { return *nodes_[i]; }

    /** Quanta per node in the configured day. */
    std::size_t numQuanta() const { return numQuanta_; }
    std::size_t nextQuantum() const { return quantum_; }
    bool done() const { return quantum_ >= numQuanta_; }

    /** Run one cluster quantum (churn, place, budget, step, gather). */
    void stepQuantum();

    /** Drive the whole day, then summarize. */
    FleetSummary run();

    /** Aggregate the quanta run so far into a FleetSummary. */
    FleetSummary summary();

    /**
     * Per-phase wall seconds of the last stepQuantum() (all 0 before
     * the first). Telemetry only: recorded, never read by a decision,
     * and outside FleetSummary and the trace, so replay is unaffected.
     */
    const StepSeconds &lastStepSeconds() const { return stepSec_; }

    /** Jobs currently waiting in the arrival queue. */
    std::size_t pendingJobs() const { return pending_.size(); }

    /** The per-account usage ledger (fair-share state included). */
    const AccountingLedger &ledger() const { return ledger_; }

    /** The workflow engine (null with dag disabled; tests only). */
    const dag::WorkflowEngine *workflowEngine() const
    {
        return engine_.get();
    }
    /** Node @p i's artifact cache (dag-enabled fleets only). */
    const dag::ArtifactCache &artifactCache(std::size_t i) const
    {
        return caches_[i];
    }

  private:
    void applyChurn();
    void gatherViews();
    void placePending();
    void splitBudget();
    void shiftLoad();
    void gatherQuantum();

    /** Admit one churned arrival into the pending queue (drop-lowest
     *  at the capacity cap). */
    void admitArrival(PendingJob &&job);
    /** Try to evict a running lower-class job for @p job; returns
     *  true when the eviction and placement both committed. */
    bool tryPreempt(const PendingJob &job, double job_priority);

    bool dagEnabled() const { return engine_ != nullptr; }
    /** Serial head of applyChurn(): depart DAG tasks whose deadline
     *  is this quantum, publish their artifacts, release successors. */
    void applyDagCompletions();
    /** Drain dagReady_ into the pending queue (reserved capacity:
     *  released tasks never contend with the churn admission cap). */
    void enqueueReadyTasks(std::uint64_t submit_quantum);

    /** One node's staged churn draws (filled by the parallel scan,
     *  consumed by the serial merge; spans live in churnArenas_). */
    struct ChurnNodePlan
    {
        std::uint16_t *departSlots = nullptr;
        std::uint16_t numDeparts = 0;
        std::uint16_t arrivals = 0;
        std::uint16_t workflowArrivals = 0;
    };

    /**
     * One running batch job's cluster-side identity (node-major flat
     * map, slotsPerNode_ entries per node; job.account -1 = vacant,
     * stamped at construction for the initially empty slots):
     * the PendingJob it was placed from, so the preemption scan reads
     * victim candidates here and a victim re-queues as itself.
     * Mutated only in the single-threaded merge phases.
     */
    struct RunningJob
    {
        PendingJob job;
        /** A DAG task (job.wfSlot >= 0) departs deterministically
         *  when the quantum reaches dagDeadline (duration plus the
         *  modeled transfer quanta), never through the Bernoulli
         *  departure stream. */
        std::uint64_t dagDeadline = 0;
    };

    RunningJob &runningAt(std::size_t node, std::size_t slot)
    {
        return running_[node * slotsPerNode_ + slot];
    }

    FleetOptions opts_;
    PlacementPolicy &placement_;
    JobChurnEngine churn_;
    AccountingLedger ledger_;
    ClusterPowerManager power_;
    double timesliceSec_ = 0.0;
    std::size_t slotsPerNode_ = 0;

    std::vector<std::unique_ptr<telemetry::MemorySink>> nodeSinks_;
    std::vector<std::unique_ptr<ClusterNode>> nodes_;
    std::vector<std::size_t> drained_; //!< records already forwarded

    std::size_t numQuanta_ = 0;
    std::size_t quantum_ = 0;
    StepSeconds stepSec_{};

    // Persistent per-quantum scratch (heap-free steady state). The
    // parallel phase scans stage variable-length results in
    // per-worker arenas (churnArenas_) and fixed-length results in
    // the per-node vectors; the serial merges read them back in node
    // order.
    WorkerArenaSet churnArenas_;
    std::vector<ChurnNodePlan> churnPlan_;
    PlacementRound round_;
    std::vector<NodeView> views_;
    std::vector<double> budgets_;
    std::vector<double> loads_;     //!< next-quantum offered loads
    std::vector<double> loadExtra_; //!< load-shift receive buffer
    std::vector<PendingJob> pending_;
    std::vector<RunningJob> running_; //!< node-major running registry
    std::vector<double> prio_;        //!< per-pending priority scratch
    std::vector<std::uint32_t> order_; //!< sorted commit order scratch
    std::vector<char> placed_;         //!< per-pending placed flags
    std::uint32_t nextArrivalSeq_ = 0;
    std::size_t preemptionsThisQuantum_ = 0;

    // --- DAG workflow state (all empty/null with dag disabled) -------
    std::unique_ptr<dag::WorkflowEngine> engine_;
    std::vector<dag::ArtifactCache> caches_; //!< one per node
    /** Profile pool task draws pick from (the churn pool's copy). */
    std::vector<AppProfile> dagPool_;
    std::vector<dag::WorkflowEngine::ReadyTask> dagReady_;
    dag::WorkflowEngine::Completion dagDone_;
    /** Per-(dag row, node) score deltas for placeBest, row-major;
     *  sized queueBound x nodes at construction. */
    std::vector<double> dagDeltas_;
    /** Pending index -> delta row (-1 = not a data-gravity commit). */
    std::vector<std::int32_t> dagRow_;
    /** Delta row -> pending index (the parallel fill's work list). */
    std::vector<std::uint32_t> dagRowPending_;
    std::size_t pendingDag_ = 0; //!< DAG entries in pending_
    std::uint64_t nextWorkflowId_ = 1;

    // Cluster counters.
    std::size_t arrivals_ = 0;
    std::size_t droppedArrivals_ = 0;
    std::size_t droppedQueued_ = 0;
    std::size_t departures_ = 0;
    std::size_t placements_ = 0;
    std::size_t preemptions_ = 0;
    std::size_t placementStalls_ = 0;
    std::size_t loadShifts_ = 0;
    std::size_t workflowsSubmitted_ = 0;
    std::size_t workflowsDropped_ = 0;
    std::size_t artifactHits_ = 0;
    std::size_t artifactMisses_ = 0;
    double transferBytes_ = 0.0;
    double clusterPowerSum_ = 0.0;   //!< sum over node-quanta
    double clusterBudgetSum_ = 0.0;
    std::vector<double> nodeBudgetSum_;
    std::vector<double> nodePowerSum_;
    std::vector<double> nodeJobGmeanSum_;   //!< occupied-only gmeans
    std::vector<std::size_t> nodeJobGmeanCount_;
};

} // namespace cluster
} // namespace cuttlesys

#endif // CUTTLESYS_CLUSTER_FLEET_HH
