#include "cluster/dag/workflow.hh"

#include <algorithm>
#include <string_view>

#include "common/logging.hh"

namespace cuttlesys {
namespace cluster {
namespace dag {

namespace {

/** Salt tags keeping a workflow instance's draw families apart. */
constexpr std::uint64_t kDurationSalt = 0x51;

} // namespace

std::uint64_t
hashCombine(std::uint64_t h, std::uint64_t v)
{
    // splitmix64's finalizer over the running hash xor the value:
    // cheap, well-mixed, and a pure function of its inputs.
    std::uint64_t z = (h ^ v) + 0x9e3779b97f4a7c15ULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

std::uint64_t
hashString(std::string_view s)
{
    std::uint64_t h = 0xcbf29ce484222325ULL; // FNV-1a offset basis
    for (const char c : s) {
        h ^= static_cast<unsigned char>(c);
        h *= 0x100000001b3ULL; // FNV prime
    }
    return h;
}

bool
validateWorkflowSpec(const WorkflowSpec &spec, std::string *why)
{
    const auto fail = [why](const std::string &msg) {
        if (why)
            *why = msg;
        return false;
    };
    if (spec.tasks.empty())
        return fail("workflow '" + spec.name + "' has no tasks");
    const std::size_t n = spec.tasks.size();
    if (n > 0xffff)
        return fail("workflow '" + spec.name + "' has too many tasks");

    // Edge sanity: in range, no self-loops, no duplicate inputs.
    for (std::size_t t = 0; t < n; ++t) {
        const TaskSpec &task = spec.tasks[t];
        if (task.baseDurationQuanta == 0)
            return fail("task '" + task.name +
                        "' has a zero base duration");
        for (std::size_t a = 0; a < task.inputs.size(); ++a) {
            const std::uint16_t in = task.inputs[a];
            if (in >= n)
                return fail("task '" + task.name +
                            "' consumes an out-of-range producer");
            if (in == t)
                return fail("task '" + task.name +
                            "' consumes its own output (self-loop)");
            for (std::size_t b = 0; b < a; ++b) {
                if (task.inputs[b] == in)
                    return fail("task '" + task.name +
                                "' lists a duplicate input");
            }
        }
    }

    // Kahn's algorithm: a spec whose edges admit no topological order
    // carries a cycle and could deadlock its own frontier forever.
    std::vector<std::size_t> indegree(n, 0);
    for (const TaskSpec &task : spec.tasks)
        indegree[&task - spec.tasks.data()] = task.inputs.size();
    std::vector<std::uint16_t> queue;
    queue.reserve(n);
    for (std::size_t t = 0; t < n; ++t) {
        if (indegree[t] == 0)
            queue.push_back(static_cast<std::uint16_t>(t));
    }
    std::size_t visited = 0;
    while (visited < queue.size()) {
        const std::uint16_t t = queue[visited++];
        for (std::size_t s = 0; s < n; ++s) {
            for (const std::uint16_t in : spec.tasks[s].inputs) {
                if (in == t && --indegree[s] == 0)
                    queue.push_back(static_cast<std::uint16_t>(s));
            }
        }
    }
    if (visited != n)
        return fail("workflow '" + spec.name +
                    "' contains a dependency cycle");
    return true;
}

std::vector<WorkflowSpec>
standardWorkflowTemplates()
{
    constexpr double kMB = 1024.0 * 1024.0;
    std::vector<WorkflowSpec> out;

    // The degenerate DAG: one task, no edges — a legacy churned job
    // wearing a workflow id.
    WorkflowSpec single;
    single.name = "single";
    single.tasks.push_back(
        {"work", {}, 16.0 * kMB, 4, 4});
    out.push_back(std::move(single));

    WorkflowSpec chain;
    chain.name = "chain3";
    chain.tasks.push_back({"extract", {}, 48.0 * kMB, 3, 3});
    chain.tasks.push_back({"transform", {0}, 24.0 * kMB, 3, 3});
    chain.tasks.push_back({"load", {1}, 8.0 * kMB, 2, 2});
    out.push_back(std::move(chain));

    WorkflowSpec diamond;
    diamond.name = "diamond4";
    diamond.tasks.push_back({"source", {}, 64.0 * kMB, 3, 3});
    diamond.tasks.push_back({"left", {0}, 24.0 * kMB, 4, 4});
    diamond.tasks.push_back({"right", {0}, 24.0 * kMB, 4, 4});
    diamond.tasks.push_back({"join", {1, 2}, 8.0 * kMB, 2, 2});
    out.push_back(std::move(diamond));

    WorkflowSpec mapred;
    mapred.name = "mapred6";
    mapred.tasks.push_back({"source", {}, 96.0 * kMB, 3, 3});
    mapred.tasks.push_back({"map0", {0}, 16.0 * kMB, 3, 4});
    mapred.tasks.push_back({"map1", {0}, 16.0 * kMB, 3, 4});
    mapred.tasks.push_back({"map2", {0}, 16.0 * kMB, 3, 4});
    mapred.tasks.push_back({"map3", {0}, 16.0 * kMB, 3, 4});
    mapred.tasks.push_back(
        {"reduce", {1, 2, 3, 4}, 8.0 * kMB, 2, 2});
    out.push_back(std::move(mapred));

    return out;
}

ArtifactId
artifactIdRoot(const std::string &template_name,
               const std::string &task_name,
               std::uint64_t instance_seed)
{
    std::uint64_t h = hashString(template_name);
    h = hashCombine(h, hashString(task_name));
    h = hashCombine(h, instance_seed);
    // | 1 keeps every id distinct from the 0 = invalid sentinel.
    return h | 1;
}

ArtifactId
artifactIdDerived(const std::string &task_name,
                  const std::vector<ArtifactRef> &inputs)
{
    std::uint64_t h = hashString(task_name);
    for (const ArtifactRef &in : inputs)
        h = hashCombine(h, in.id);
    return h | 1;
}

WorkflowEngine::WorkflowEngine(std::vector<WorkflowSpec> templates,
                               std::size_t max_live)
    : templates_(std::move(templates))
{
    CS_ASSERT(!templates_.empty(), "workflow engine needs templates");
    CS_ASSERT(max_live > 0, "workflow engine needs a live pool");

    successors_.resize(templates_.size());
    topo_.resize(templates_.size());
    for (std::size_t tpl = 0; tpl < templates_.size(); ++tpl) {
        const WorkflowSpec &spec = templates_[tpl];
        std::string why;
        CS_ASSERT(validateWorkflowSpec(spec, &why),
                  "invalid workflow template: ", why);
        const std::size_t n = spec.tasks.size();
        maxTasks_ = std::max(maxTasks_, n);

        successors_[tpl].resize(n);
        for (std::size_t t = 0; t < n; ++t) {
            for (const std::uint16_t in : spec.tasks[t].inputs) {
                successors_[tpl][in].push_back(
                    static_cast<std::uint16_t>(t));
            }
        }

        // Kahn order, re-derived here (validate() proved it exists):
        // the admit() artifact-id pass walks producers before
        // consumers.
        std::vector<std::size_t> indegree(n);
        for (std::size_t t = 0; t < n; ++t)
            indegree[t] = spec.tasks[t].inputs.size();
        std::vector<std::uint16_t> &order = topo_[tpl];
        order.reserve(n);
        for (std::size_t t = 0; t < n; ++t) {
            if (indegree[t] == 0)
                order.push_back(static_cast<std::uint16_t>(t));
        }
        for (std::size_t v = 0; v < order.size(); ++v) {
            for (const std::uint16_t s : successors_[tpl][order[v]]) {
                if (--indegree[s] == 0)
                    order.push_back(s);
            }
        }
        CS_ASSERT(order.size() == n, "topological order incomplete");
    }

    // The live pool and every per-task vector reach their high-water
    // capacity here: admit() only ever re-fills reserved storage.
    pool_.resize(max_live);
    for (LiveWorkflow &wf : pool_) {
        wf.tasks.resize(maxTasks_);
        for (LiveTask &task : wf.tasks)
            task.inputs.reserve(maxTasks_);
    }
}

const WorkflowEngine::LiveTask &
WorkflowEngine::taskAt(std::size_t wf, std::size_t task) const
{
    CS_ASSERT(wf < pool_.size() && pool_[wf].active,
              "bad live-workflow slot");
    CS_ASSERT(task < templates_[pool_[wf].templateIdx].tasks.size(),
              "bad task index");
    return pool_[wf].tasks[task];
}

WorkflowEngine::LiveTask &
WorkflowEngine::taskAt(std::size_t wf, std::size_t task)
{
    return const_cast<LiveTask &>(
        static_cast<const WorkflowEngine *>(this)->taskAt(wf, task));
}

std::size_t
WorkflowEngine::admit(std::size_t tpl, std::uint64_t seed,
                      std::int32_t account, std::uint64_t quantum,
                      std::uint64_t workflow_id,
                      std::vector<ReadyTask> &ready_out)
{
    CS_ASSERT(tpl < templates_.size(), "bad template index");
    // Lowest free slot: the scan order is part of the deterministic
    // admission contract (the pool is small and serial-merge only).
    std::size_t slot = kNoWorkflow;
    for (std::size_t i = 0; i < pool_.size(); ++i) {
        if (!pool_[i].active) {
            slot = i;
            break;
        }
    }
    if (slot == kNoWorkflow)
        return kNoWorkflow;

    const WorkflowSpec &spec = templates_[tpl];
    LiveWorkflow &wf = pool_[slot];
    wf.active = true;
    wf.templateIdx = static_cast<std::uint16_t>(tpl);
    wf.id = workflow_id;
    wf.seed = seed;
    wf.account = account;
    wf.submitQuantum = quantum;
    wf.tasksDone = 0;

    // Artifact-id pass in topological order: producers first, so a
    // derived task's inputs are already named when it hashes them.
    for (const std::uint16_t t : topo_[tpl]) {
        const TaskSpec &ts = spec.tasks[t];
        LiveTask &task = wf.tasks[t];
        task.state = TaskState::Blocked;
        task.remainingInputs =
            static_cast<std::uint16_t>(ts.inputs.size());
        const std::uint64_t jitter = ts.durationJitterQuanta;
        task.duration = static_cast<std::uint16_t>(
            ts.baseDurationQuanta +
            (jitter ? hashCombine(hashCombine(seed, kDurationSalt), t) %
                          (jitter + 1)
                    : 0));
        task.inputs.clear();
        for (const std::uint16_t in : ts.inputs) {
            task.inputs.push_back(ArtifactRef{
                wf.tasks[in].output.id,
                spec.tasks[in].outputBytes});
        }
        task.output.bytes = ts.outputBytes;
        task.output.id = ts.inputs.empty()
            ? artifactIdRoot(spec.name, ts.name, seed)
            : artifactIdDerived(ts.name, task.inputs);
        if (task.remainingInputs == 0) {
            task.state = TaskState::Ready;
            ready_out.push_back(ReadyTask{
                static_cast<std::uint32_t>(slot), t});
        }
    }
    ++live_;
    ++admitted_;
    return slot;
}

std::uint64_t
WorkflowEngine::taskDrawHash(std::size_t wf, std::size_t task,
                             std::uint64_t salt) const
{
    const LiveWorkflow &w = pool_[wf];
    CS_ASSERT(w.active, "draw from an inactive workflow");
    return hashCombine(hashCombine(w.seed, salt), task);
}

std::uint16_t
WorkflowEngine::durationQuanta(std::size_t wf, std::size_t task) const
{
    return taskAt(wf, task).duration;
}

const std::vector<ArtifactRef> &
WorkflowEngine::taskInputs(std::size_t wf, std::size_t task) const
{
    return taskAt(wf, task).inputs;
}

ArtifactRef
WorkflowEngine::taskOutput(std::size_t wf, std::size_t task) const
{
    return taskAt(wf, task).output;
}

std::int32_t
WorkflowEngine::account(std::size_t wf) const
{
    CS_ASSERT(wf < pool_.size() && pool_[wf].active,
              "bad live-workflow slot");
    return pool_[wf].account;
}

std::uint64_t
WorkflowEngine::workflowId(std::size_t wf) const
{
    CS_ASSERT(wf < pool_.size() && pool_[wf].active,
              "bad live-workflow slot");
    return pool_[wf].id;
}

const std::string &
WorkflowEngine::taskName(std::size_t wf, std::size_t task) const
{
    CS_ASSERT(wf < pool_.size() && pool_[wf].active,
              "bad live-workflow slot");
    return templates_[pool_[wf].templateIdx].tasks[task].name;
}

void
WorkflowEngine::onTaskPlaced(std::size_t wf, std::size_t task)
{
    LiveTask &t = taskAt(wf, task);
    CS_ASSERT(t.state == TaskState::Ready,
              "placed a task that was not released");
    t.state = TaskState::Running;
}

void
WorkflowEngine::onTaskPreempted(std::size_t wf, std::size_t task)
{
    LiveTask &t = taskAt(wf, task);
    CS_ASSERT(t.state == TaskState::Running,
              "preempted a task that was not running");
    t.state = TaskState::Ready;
}

bool
WorkflowEngine::onTaskCompleted(std::size_t wf, std::size_t task,
                                std::uint64_t quantum,
                                std::vector<ReadyTask> &ready_out,
                                Completion &done_out)
{
    LiveWorkflow &w = pool_[wf];
    LiveTask &t = taskAt(wf, task);
    CS_ASSERT(t.state == TaskState::Running,
              "completed a task that was not running");
    t.state = TaskState::Done;
    ++w.tasksDone;
    ++tasksCompleted_;

    // Release successors whose last input just published, in task
    // order — together with the controller's (node, slot) completion
    // order this makes every release sequence deterministic.
    for (const std::uint16_t s : successors_[w.templateIdx][task]) {
        LiveTask &succ = w.tasks[s];
        CS_ASSERT(succ.remainingInputs > 0,
                  "successor released twice");
        if (--succ.remainingInputs == 0) {
            succ.state = TaskState::Ready;
            ready_out.push_back(ReadyTask{
                static_cast<std::uint32_t>(wf), s});
        }
    }

    const std::size_t n = templates_[w.templateIdx].tasks.size();
    if (w.tasksDone < n)
        return false;
    done_out.workflowId = w.id;
    done_out.account = w.account;
    done_out.makespanQuanta = quantum - w.submitQuantum;
    w.active = false;
    --live_;
    ++completed_;
    return true;
}

} // namespace dag
} // namespace cluster
} // namespace cuttlesys
