/**
 * @file
 * DAG batch workflows: specs, content-addressed artifacts, and the
 * frontier-tracking WorkflowEngine.
 *
 * CuttleSys's churned batch jobs were anonymous single-slot tenants;
 * real batch work arrives as small DAGs — a chain of transforms, a
 * diamond, a map/reduce fan — whose tasks *produce and consume named
 * artifacts*. This file models that class (CORD's structured batch
 * jobs, PAPERS.md) the TaskVine way (vine_cached_name.c): an
 * artifact's identity is a content hash — for a root task, the hash
 * of its workflow instance's seed folded with the task's name; for a
 * derived task, the hash of the task's name folded with its input
 * artifact ids in input order. Two identical computations on
 * identical inputs therefore name the same artifact, which is what
 * lets a per-node ArtifactCache (artifact_cache.hh) answer "does this
 * node already hold this task's inputs?" and turn placement into a
 * data-gravity problem (scorer.hh).
 *
 * The WorkflowEngine tracks every live workflow's frontier: a task is
 * *released* to the cluster's pending queue only when all of its
 * input artifacts have been published by completed producers. All
 * engine mutation happens in the fleet controller's single-threaded
 * merge phases, in deterministic (node, slot) completion order, so
 * release order — and therefore every arrival sequence number a
 * released task draws — replays bitwise at any pool width. Nothing
 * here reads a clock or an RNG: every draw a workflow instance needs
 * (task duration jitter, profile picks) is a pure counter hash of the
 * instance seed the churn engine handed it (cslint's fastpath-purity
 * rule gates this file's commit path).
 *
 * Cycle rejection happens at construction: validateWorkflowSpec()
 * runs Kahn's algorithm over the task graph and rejects any spec
 * whose edges do not admit a topological order, so the engine never
 * has to defend against a workflow that can deadlock its own
 * frontier.
 */

#ifndef CUTTLESYS_CLUSTER_DAG_WORKFLOW_HH
#define CUTTLESYS_CLUSTER_DAG_WORKFLOW_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace cuttlesys {
namespace cluster {
namespace dag {

/** Content hash naming one produced artifact (0 = invalid). */
using ArtifactId = std::uint64_t;

/** One splitmix64 mixing step folding @p v into @p h: a pure
 *  function of its inputs, sensitive to fold order. */
std::uint64_t hashCombine(std::uint64_t h, std::uint64_t v);

/** FNV-1a over @p s (artifact ids hash *names*, never pointers:
 *  addresses change run to run, names replay). */
std::uint64_t hashString(std::string_view s);

/** One named input/output edge: an artifact and its modeled size. */
struct ArtifactRef
{
    ArtifactId id = 0;
    double bytes = 0.0;
};

/** One task of a workflow template. */
struct TaskSpec
{
    std::string name;
    /** Producer task indices this task consumes (any order; the spec
     *  validator rejects cycles and out-of-range edges). */
    std::vector<std::uint16_t> inputs;
    /** Size of this task's single output artifact. */
    double outputBytes = 16.0 * 1024.0 * 1024.0;
    /** Service time floor, in cluster quanta (>= 1 enforced). */
    std::uint16_t baseDurationQuanta = 4;
    /** Uniform per-instance extra duration in [0, jitter], drawn from
     *  the instance seed's counter hash. */
    std::uint16_t durationJitterQuanta = 4;
};

/** One workflow template churned arrivals are instantiated from. */
struct WorkflowSpec
{
    std::string name;
    std::vector<TaskSpec> tasks;
};

/**
 * Validate @p spec: non-empty, every input edge in range and not a
 * self-loop, and the edge set acyclic (Kahn). Returns false — with a
 * reason in @p why when non-null — instead of asserting, so callers
 * building specs from external input can reject them gracefully; the
 * WorkflowEngine constructor asserts on an invalid template.
 */
bool validateWorkflowSpec(const WorkflowSpec &spec,
                          std::string *why = nullptr);

/**
 * The built-in template library: "single" (the degenerate one-task
 * DAG, equivalent to a legacy churned job), "chain3", "diamond4"
 * (one source, two parallel transforms, one join), and "mapred6"
 * (source, 4-way map, reduce).
 */
std::vector<WorkflowSpec> standardWorkflowTemplates();

/** Content id of a root task's output (no inputs): folds the template
 *  name, the task name, and the workflow instance seed — distinct
 *  instances produce distinct root artifacts. */
ArtifactId artifactIdRoot(const std::string &template_name,
                          const std::string &task_name,
                          std::uint64_t instance_seed);

/** Content id of a derived task's output: folds the task name with
 *  the input artifact ids in input order — identical computations on
 *  identical inputs name the same artifact (TaskVine's
 *  vine_cached_name rule). */
ArtifactId artifactIdDerived(const std::string &task_name,
                             const std::vector<ArtifactRef> &inputs);

/** DAG-workflow tuning carried inside FleetOptions. */
struct DagOptions
{
    /** Master switch. False (the default) runs the legacy fleet
     *  bitwise: no engine, no caches, no extra churn draws consumed. */
    bool enable = false;

    /** Live-workflow pool size; an arrival finding the pool full is
     *  dropped (counted, never queued). */
    std::size_t maxLiveWorkflows = 64;

    /** Per-node artifact cache capacity (bytes and entries). */
    double cacheCapacityBytes = 256.0 * 1024.0 * 1024.0;
    std::size_t cacheMaxEntries = 64;

    /** Modeled interconnect bandwidth: a placement whose inputs are
     *  not resident charges ceil(missingBytes / this) extra quanta of
     *  effective service time. Sized so a fully-remote placement of
     *  the largest template artifact costs one quantum — the stall
     *  delays the workflow without turning the slot into a multi-
     *  quantum phantom executor, which would skew the batch-Ginstr
     *  comparison between the locality A/B arms. */
    double transferBytesPerQuantum = 128.0 * 1024.0 * 1024.0;

    /** Locality term weights (watts of headroom at their reference
     *  point, like every other placement knob): the bonus a node with
     *  all inputs resident earns, and the charge a fully-remote node
     *  pays — linear in the resident byte fraction between them. */
    double localityBonusW = 24.0;
    double transferPenaltyW = 48.0;

    /** False runs the locality-blind A/B arm: transfers are still
     *  modeled and charged, but placement ignores data gravity. */
    bool localityAware = true;

    /** Workflow templates; empty = standardWorkflowTemplates(). */
    std::vector<WorkflowSpec> templates;
};

/**
 * Frontier tracker for all live workflow instances.
 *
 * The fleet controller admits an instance per churned workflow
 * arrival (admit), enqueues the returned ready tasks as pending
 * placements, reports placements/preemptions/completions back, and
 * collects newly released successors and finished workflows. All
 * storage — the instance pool and every per-task vector — reaches
 * its high-water size at construction / first admits, so the
 * steady-state controller quantum stays heap-free.
 */
class WorkflowEngine
{
  public:
    /** admit() result when the live pool is full. */
    static constexpr std::size_t kNoWorkflow =
        static_cast<std::size_t>(-1);

    /** One released task: a (live slot, task index) pair. */
    struct ReadyTask
    {
        std::uint32_t workflow = 0;
        std::uint16_t task = 0;
    };

    /** One finished workflow (for the ledger and the trace). */
    struct Completion
    {
        std::uint64_t workflowId = 0;
        std::int32_t account = 0;
        std::uint64_t makespanQuanta = 0; //!< submit -> last departure
    };

    /**
     * @param templates validated workflow templates (asserted here)
     * @param max_live live-instance pool size
     */
    WorkflowEngine(std::vector<WorkflowSpec> templates,
                   std::size_t max_live);

    std::size_t numTemplates() const { return templates_.size(); }
    const WorkflowSpec &spec(std::size_t tpl) const
    {
        return templates_[tpl];
    }
    std::size_t maxTasksPerWorkflow() const { return maxTasks_; }
    std::size_t maxLiveWorkflows() const { return pool_.size(); }
    /** Upper bound on simultaneously released tasks (queue sizing). */
    std::size_t capacityTasks() const
    {
        return pool_.size() * maxTasks_;
    }
    std::size_t liveWorkflows() const { return live_; }

    /**
     * Instantiate template @p tpl as a live workflow. Computes every
     * task's instance duration and artifact id (in topological
     * order), releases the zero-input frontier into @p ready_out, and
     * returns the live slot — or kNoWorkflow when the pool is full
     * (nothing released, nothing consumed).
     */
    std::size_t admit(std::size_t tpl, std::uint64_t seed,
                      std::int32_t account, std::uint64_t quantum,
                      std::uint64_t workflow_id,
                      std::vector<ReadyTask> &ready_out);

    /** Pure counter hash of (instance seed, task, salt): the draw
     *  source for a task's profile pick and residual seed. */
    std::uint64_t taskDrawHash(std::size_t wf, std::size_t task,
                               std::uint64_t salt) const;

    /** This instance's drawn service time for @p task (>= 1). */
    std::uint16_t durationQuanta(std::size_t wf,
                                 std::size_t task) const;

    /** Resolved input artifacts of @p task, in input order. */
    const std::vector<ArtifactRef> &taskInputs(std::size_t wf,
                                               std::size_t task) const;

    /** The artifact @p task publishes on completion. */
    ArtifactRef taskOutput(std::size_t wf, std::size_t task) const;

    std::int32_t account(std::size_t wf) const;
    std::uint64_t workflowId(std::size_t wf) const;
    const std::string &taskName(std::size_t wf,
                                std::size_t task) const;

    /** A released task left the pending queue for a node. */
    void onTaskPlaced(std::size_t wf, std::size_t task);

    /** A running task was evicted; it re-enters the pending queue and
     *  will restart (and re-pay its transfers) when re-placed. */
    void onTaskPreempted(std::size_t wf, std::size_t task);

    /**
     * A running task departed at @p quantum: successors whose inputs
     * are now all published are appended to @p ready_out in task
     * order. Returns true when this completion finished the whole
     * workflow — @p done_out is filled and the live slot freed.
     */
    bool onTaskCompleted(std::size_t wf, std::size_t task,
                         std::uint64_t quantum,
                         std::vector<ReadyTask> &ready_out,
                         Completion &done_out);

    // Lifetime counters (serial-merge mutation only).
    std::uint64_t admitted() const { return admitted_; }
    std::uint64_t completed() const { return completed_; }
    std::uint64_t tasksCompleted() const { return tasksCompleted_; }

  private:
    enum class TaskState : std::uint8_t
    {
        Blocked = 0, //!< waiting on unpublished inputs
        Ready,       //!< released into the pending queue
        Running,     //!< placed on a node
        Done,        //!< departed; output published
    };

    /** One task of one live instance. */
    struct LiveTask
    {
        TaskState state = TaskState::Blocked;
        std::uint16_t remainingInputs = 0;
        std::uint16_t duration = 1;
        ArtifactRef output;
        std::vector<ArtifactRef> inputs; //!< capacity reused
    };

    /** One live-instance pool slot. */
    struct LiveWorkflow
    {
        bool active = false;
        std::uint16_t templateIdx = 0;
        std::uint64_t id = 0;
        std::uint64_t seed = 0;
        std::int32_t account = 0;
        std::uint64_t submitQuantum = 0;
        std::uint16_t tasksDone = 0;
        std::vector<LiveTask> tasks; //!< capacity reused across reuse
    };

    const LiveTask &taskAt(std::size_t wf, std::size_t task) const;
    LiveTask &taskAt(std::size_t wf, std::size_t task);

    std::vector<WorkflowSpec> templates_;
    /** Per template, per task: consumer task indices (release scan). */
    std::vector<std::vector<std::vector<std::uint16_t>>> successors_;
    /** Per template: a topological task order (artifact id pass). */
    std::vector<std::vector<std::uint16_t>> topo_;
    std::size_t maxTasks_ = 0;
    std::vector<LiveWorkflow> pool_;
    std::size_t live_ = 0;
    std::uint64_t admitted_ = 0;
    std::uint64_t completed_ = 0;
    std::uint64_t tasksCompleted_ = 0;
};

} // namespace dag
} // namespace cluster
} // namespace cuttlesys

#endif // CUTTLESYS_CLUSTER_DAG_WORKFLOW_HH
