#include "cluster/fleet.hh"

#include <algorithm>
#include <chrono>
#include <cmath>

#include "apps/mix.hh"
#include "common/logging.hh"
#include "common/thread_pool.hh"

namespace cuttlesys {
namespace cluster {

namespace {

/** Nodes per parallel block (see ThreadPool::parallelChunks). */
constexpr std::size_t kNodeChunk = 32;

/** Salts for a dag task's profile draws (taskDrawHash domains). */
constexpr std::uint64_t kDagPickSalt = 0x11;
constexpr std::uint64_t kDagSeedSalt = 0x12;

/** Per-node power floor as a fraction of the node's max power. */
constexpr double kNodeFloorFrac = 0.30;
/** Power-split QoS boost, W (see PowerManagerOptions). */
constexpr double kQosBoostW = 10.0;
/** Cap on preemption evictions per cluster quantum. */
constexpr std::size_t kMaxPreemptionsPerQuantum = 8;
/** LC load-shift between replicas: when a replica violated QoS last
 *  quantum, this fraction of its offered load moves to the
 *  least-loaded replica for the next quantum. */
constexpr double kQosLoadShiftFrac = 0.15;

/** Tenant arrival weights flow into the churn engine's account draw
 *  (overriding any manually configured weights, so the two layers can
 *  never disagree about who account k is). */
ChurnOptions
withTenantWeights(ChurnOptions churn,
                  const std::vector<TenantSpec> &tenants)
{
    if (!tenants.empty())
        churn.tenantArrivalWeights = tenantArrivalWeights(tenants);
    return churn;
}

/** The clock behind FleetController::lastStepSeconds(). */
std::chrono::steady_clock::time_point
stepClock()
{
    // Telemetry-only wall clock: step timings are recorded for
    // benches and never read back by any decision path.
    // cslint: allow(wall-clock)
    return std::chrono::steady_clock::now();
}

} // namespace

const char *
stepPhaseName(StepPhase phase)
{
    switch (phase) {
      case StepPhase::Churn: return "churn";
      case StepPhase::Gather: return "gather";
      case StepPhase::Place: return "place";
      case StepPhase::Power: return "power";
      case StepPhase::Shift: return "shift";
      case StepPhase::NodeStep: return "node-step";
      case StepPhase::Account: return "account";
    }
    return "?";
}

FleetController::FleetController(const SystemParams &params,
                                 const TrainingTables &tables,
                                 const AppProfile &lc_service,
                                 const std::vector<AppProfile> &batch_pool,
                                 double node_max_power_w,
                                 PlacementPolicy &placement,
                                 FleetOptions opts)
    : opts_(std::move(opts)), placement_(placement),
      // The churn stream gets its own seed domain so reconfiguring
      // the fleet (scenario, node parameters) never perturbs it, and
      // vice versa.
      churn_(batch_pool, opts_.numNodes,
             opts_.seed ^ 0x94d049bb133111ebULL,
             withTenantWeights(opts_.churn, opts_.tenants)),
      ledger_(opts_.tenants),
      power_(PowerManagerOptions{
          .rackBudgetW = opts_.rackBudgetFrac *
              static_cast<double>(opts_.numNodes) * node_max_power_w,
          .nodeFloorW = kNodeFloorFrac * node_max_power_w,
          .nodeCapW = node_max_power_w,
          .qosBoostW = kQosBoostW}),
      churnArenas_(ThreadPool::global().slotCount())
{
    CS_ASSERT(opts_.numNodes > 0, "fleet needs at least one node");
    CS_ASSERT(opts_.batchSlotsPerNode > 0, "nodes need batch slots");
    CS_ASSERT(lc_service.maxQps > 0.0,
              "LC service must be calibrated (run calibrateMaxQps)");
    CS_ASSERT(opts_.loadScaleMin > 0.0 &&
                  opts_.loadScaleMax >= opts_.loadScaleMin,
              "bad load-scale spread");

    const std::size_t n = opts_.numNodes;
    numQuanta_ = opts_.scenario.quanta(params.timesliceSec);
    timesliceSec_ = params.timesliceSec;
    slotsPerNode_ = opts_.batchSlotsPerNode;
    running_.resize(n * slotsPerNode_);

    // One master stream hands every node its mix seed and sim seed,
    // so the whole fleet is a pure function of opts.seed.
    Rng master(opts_.seed);

    nodeSinks_.reserve(n);
    nodes_.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        const std::uint64_t mixSeed = master();
        const std::uint64_t simSeed = master();

        WorkloadMix mix;
        mix.lc = lc_service;
        mix.batch =
            makeBatchMix(batch_pool, opts_.batchSlotsPerNode, mixSeed);

        // Replicas of one service behind a load balancer: same day,
        // staggered phase, heterogeneous popularity. Node 0 carries
        // the largest amplitude so index-blind first-fit placement
        // piles work exactly where load is highest.
        const double phase = opts_.scenario.daySeconds *
            static_cast<double>(i) / static_cast<double>(n);
        const double scale = n > 1
            ? opts_.loadScaleMax -
                (opts_.loadScaleMax - opts_.loadScaleMin) *
                    static_cast<double>(i) /
                    static_cast<double>(n - 1)
            : opts_.loadScaleMax;

        DriverOptions driver;
        driver.durationSec = opts_.scenario.daySeconds;
        driver.loadPattern = opts_.scenario.loadPattern(phase, scale);
        driver.powerPattern = opts_.scenario.powerPattern();
        driver.maxPowerW = node_max_power_w;
        // The aggregates still accumulate; dropping the per-slice
        // records keeps the steady-state node quantum heap-free.
        driver.keepSliceRecords = false;
        if (opts_.sink) {
            nodeSinks_.push_back(
                std::make_unique<telemetry::MemorySink>());
            driver.traceSink = nodeSinks_.back().get();
        } else {
            nodeSinks_.push_back(nullptr);
        }

        // The resident mix gets its account identities from the same
        // pure counter-hash stream as churned arrivals, with the
        // reserved resident quantum coordinate — so the registry (and
        // the ledger) are a pure function of opts.seed too. Captured
        // before the mix moves into the node.
        for (std::size_t s = 0; s < mix.batch.size(); ++s) {
            PendingJob &r = runningAt(i, s).job;
            const std::size_t account = churn_.accountAt(
                JobChurnEngine::kResidentQuantum, i, s);
            r.profile = mix.batch[s];
            r.submitSlice = 0;
            r.arrivalSeq = nextArrivalSeq_++;
            r.account = static_cast<std::int32_t>(account);
            r.qosClass = ledger_.qosClass(account);
        }

        nodes_.push_back(std::make_unique<ClusterNode>(
            params, tables, std::move(mix), simSeed,
            std::move(driver), i, opts_.scheduler));
        nodes_.back()->sim().setPhaseDrift(kPhaseDriftAmplitude,
                                           opts_.phaseDriftPeriodSec);

        // Stamp the residents' accounts into the driver's per-slot
        // map (initial occupants never arrive through a JobEvent).
        ClusterNode &node = *nodes_.back();
        for (std::size_t s = 0; s < slotsPerNode_; ++s) {
            if (node.slotPlannedOccupied(s))
                node.setInitialSlotAccount(s, runningAt(i, s).job.account);
            else
                runningAt(i, s).job.account = -1;
        }
    }

    drained_.assign(n, 0);
    nodeBudgetSum_.assign(n, 0.0);
    nodePowerSum_.assign(n, 0.0);
    nodeJobGmeanSum_.assign(n, 0.0);
    nodeJobGmeanCount_.assign(n, 0);
    churnPlan_.resize(n);
    views_.resize(n);
    budgets_.reserve(n);
    loads_.assign(n, 0.0);
    loadExtra_.assign(n, 0.0);

    // DAG workflows: the engine and the per-node artifact caches
    // exist only when enabled — disabled, no dag state is built and
    // no workflow draw is ever consumed, so the legacy fleet replays
    // bitwise.
    if (opts_.dag.enable) {
        std::vector<dag::WorkflowSpec> templates =
            opts_.dag.templates.empty()
            ? dag::standardWorkflowTemplates()
            : opts_.dag.templates;
        engine_ = std::make_unique<dag::WorkflowEngine>(
            std::move(templates), opts_.dag.maxLiveWorkflows);
        caches_.resize(n);
        for (dag::ArtifactCache &c : caches_)
            c.reset(dag::kCacheCapacityBytes, dag::kCacheMaxEntries);
        dagPool_ = batch_pool;
        CS_ASSERT(!dagPool_.empty(), "dag tasks need a profile pool");
        dagReady_.reserve(engine_->capacityTasks());
    }

    // The queue is bounded by the admission cap plus one quantum's
    // worth of re-queued preemption victims (unplaced entries compact
    // in place, so the backing vector never grows past that bound),
    // plus — with dag on — the engine's released-task capacity (dag
    // entries ride the queue but never count against the churn cap);
    // reserving it up front makes the steady-state quantum provably
    // realloc-free. The priority scratch follows the same bound.
    const std::size_t queueBound = opts_.churn.maxPendingJobs +
        kMaxPreemptionsPerQuantum + 1 +
        (dagEnabled() ? engine_->capacityTasks() : 0);
    pending_.reserve(queueBound);
    prio_.reserve(queueBound);
    order_.reserve(queueBound);
    placed_.reserve(queueBound);
    if (dagEnabled()) {
        dagDeltas_.assign(queueBound * n, 0.0);
        dagRow_.reserve(queueBound);
        dagRowPending_.reserve(queueBound);
    }

    // Pre-grow every worker's staging arena to the worst case — one
    // worker staging the entire fleet's departure scan. Which worker
    // runs which block varies run to run (never the results, only the
    // addresses), so without this the arenas' high-water marks keep
    // shifting with the schedule and an unlucky quantum still touches
    // the heap; after this reset every staging alloc is a pure bump.
    for (std::size_t s = 0; s < churnArenas_.size(); ++s) {
        churnArenas_.at(s).alloc<std::uint16_t>(
            n * opts_.batchSlotsPerNode);
    }
    churnArenas_.resetAll();
}

FleetController::~FleetController() = default;

void
FleetController::applyChurn()
{
    // Parallel scan: each block stages its nodes' departure slots in
    // its worker's arena and records the plan entry — the draws are
    // pure functions of (seed, quantum, node, slot), so neither the
    // block schedule nor the worker identity can change them.
    std::vector<std::unique_ptr<ClusterNode>> &nodes = nodes_;
    churnArenas_.resetAll();
    ThreadPool::global().parallelChunks(
        nodes.size(), kNodeChunk,
        [this, &nodes](std::size_t, std::size_t begin,
                       std::size_t end) {
            ScratchArena &arena =
                churnArenas_.at(ThreadPool::currentSlot());
            for (std::size_t i = begin; i < end; ++i) {
                const ClusterNode &node = *nodes[i];
                const std::size_t slots = node.numBatchSlots();
                std::uint16_t *stage =
                    arena.alloc<std::uint16_t>(slots);
                std::uint16_t count = 0;
                for (std::size_t s = 0; s < slots; ++s) {
                    // DAG tasks depart at their deterministic
                    // deadline, never through the Bernoulli stream;
                    // skipping the draw is bitwise-safe because every
                    // draw is pure in its coordinates, not a shared
                    // sequence position.
                    if (node.slotPlannedOccupied(s) &&
                        runningAt(i, s).job.wfSlot < 0 &&
                        churn_.departs(quantum_, i, s)) {
                        stage[count++] =
                            static_cast<std::uint16_t>(s);
                    }
                }
                churnPlan_[i].departSlots = stage;
                churnPlan_[i].numDeparts = count;
                churnPlan_[i].arrivals = static_cast<std::uint16_t>(
                    churn_.arrivalsAt(quantum_, i));
                churnPlan_[i].workflowArrivals = dagEnabled()
                    ? static_cast<std::uint16_t>(
                          churn_.workflowArrivalsAt(quantum_, i))
                    : 0;
            }
        });

    // DAG completions commit before this quantum's churn events: a
    // departing task publishes its artifact and may release
    // successors, which enter the queue ahead of today's arrivals.
    applyDagCompletions();

    // Serial merge in node-index order: queue the departure events
    // and admit arrivals — each stamped with its deterministic
    // account draw — exactly as a sequential controller would.
    for (std::size_t i = 0; i < nodes_.size(); ++i) {
        const ChurnNodePlan &plan = churnPlan_[i];
        for (std::uint16_t d = 0; d < plan.numDeparts; ++d) {
            JobEvent event;
            event.slot = plan.departSlots[d];
            event.departure = true;
            nodes_[i]->queueJobEvent(event);
            runningAt(i, event.slot).job.account = -1;
            ++departures_;
        }
        for (std::uint16_t k = 0; k < plan.arrivals; ++k) {
            PendingJob job;
            job.profile = churn_.drawJobAt(quantum_, i, k);
            job.submitSlice = quantum_;
            job.account = static_cast<std::int32_t>(
                churn_.accountAt(quantum_, i, k));
            job.qosClass = ledger_.qosClass(
                static_cast<std::size_t>(job.account));
            job.arrivalSeq = nextArrivalSeq_++;
            ledger_.recordArrival(
                static_cast<std::size_t>(job.account));
            admitArrival(std::move(job));
        }
        for (std::uint16_t k = 0; k < plan.workflowArrivals; ++k) {
            const std::size_t tpl = static_cast<std::size_t>(
                churn_.workflowPickAt(quantum_, i, k) %
                engine_->numTemplates());
            const std::uint64_t seed =
                churn_.workflowSeedAt(quantum_, i, k);
            const std::size_t account =
                churn_.workflowAccountAt(quantum_, i, k);
            dagReady_.clear();
            const std::size_t wf = engine_->admit(
                tpl, seed, static_cast<std::int32_t>(account),
                quantum_, nextWorkflowId_, dagReady_);
            if (wf == dag::WorkflowEngine::kNoWorkflow) {
                ++workflowsDropped_;
                continue;
            }
            ++nextWorkflowId_;
            ++workflowsSubmitted_;
            enqueueReadyTasks(quantum_);
        }
    }
}

void
FleetController::applyDagCompletions()
{
    if (!dagEnabled())
        return;

    // Strict (node, slot) order: artifact publication, successor
    // release, and every sequence number a released task draws replay
    // bitwise. The Bernoulli departure scan above skipped dag slots,
    // so no slot departs twice.
    for (std::size_t i = 0; i < nodes_.size(); ++i) {
        for (std::size_t s = 0; s < slotsPerNode_; ++s) {
            RunningJob &r = runningAt(i, s);
            if (r.job.wfSlot < 0 || r.dagDeadline != quantum_)
                continue;
            const std::size_t wf =
                static_cast<std::size_t>(r.job.wfSlot);
            const std::size_t task =
                static_cast<std::size_t>(r.job.wfTask);

            JobEvent event;
            event.slot = s;
            event.departure = true;
            event.workflowId =
                static_cast<std::int64_t>(engine_->workflowId(wf));
            event.workflowTask = static_cast<std::int32_t>(task);

            // Publish the output on the node that ran the task, then
            // let the engine release whatever the artifact unblocks.
            const dag::ArtifactRef out = engine_->taskOutput(wf, task);
            caches_[i].insert(out.id, out.bytes, quantum_);
            dagReady_.clear();
            if (engine_->onTaskCompleted(wf, task, quantum_,
                                         dagReady_, dagDone_)) {
                event.workflowMakespan = static_cast<std::int64_t>(
                    dagDone_.makespanQuanta);
                ledger_.recordWorkflowDone(
                    static_cast<std::size_t>(dagDone_.account),
                    dagDone_.makespanQuanta);
            }
            nodes_[i]->queueJobEvent(event);
            r.job.account = -1;
            r.job.wfSlot = -1;
            r.job.wfTask = -1;
            r.dagDeadline = 0;
            ++departures_;
            enqueueReadyTasks(quantum_);
        }
    }
}

void
FleetController::enqueueReadyTasks(std::uint64_t submit_quantum)
{
    for (const dag::WorkflowEngine::ReadyTask &t : dagReady_) {
        const std::size_t wf = t.workflow;
        const std::size_t task = t.task;
        PendingJob job;
        // The task's compute identity is a pure counter hash of the
        // instance seed: a profile pick from the churn pool plus a
        // per-task residual seed, so re-running the same workflow
        // instance replays the same jobs.
        job.profile = dagPool_[engine_->taskDrawHash(
                                   wf, task, kDagPickSalt) %
                               dagPool_.size()];
        job.profile.seed ^=
            engine_->taskDrawHash(wf, task, kDagSeedSalt);
        job.submitSlice = submit_quantum;
        job.account = engine_->account(wf);
        job.qosClass = ledger_.qosClass(
            static_cast<std::size_t>(job.account));
        job.arrivalSeq = nextArrivalSeq_++;
        job.wfSlot = static_cast<std::int32_t>(wf);
        job.wfTask = static_cast<std::int16_t>(task);
        ledger_.recordArrival(static_cast<std::size_t>(job.account));
        ++arrivals_;
        ++pendingDag_;
        pending_.push_back(std::move(job));
    }
    dagReady_.clear();
}

void
FleetController::admitArrival(PendingJob &&job)
{
    // DAG entries occupy reserved queue capacity: they neither count
    // against the churn admission cap nor compete in the drop-lowest
    // scan (a released task must eventually run or its workflow
    // deadlocks). With dag off, pendingDag_ is always 0.
    if (pending_.size() - pendingDag_ < opts_.churn.maxPendingJobs) {
        ++arrivals_;
        pending_.push_back(std::move(job));
        return;
    }

    // Drop-lowest admission: the newcomer only loses to a queue whose
    // every entry outranks it. The worst incumbent is the last job
    // the commit order would reach — lowest priority, ties to the
    // youngest (highest sequence). With a single uniform tenant the
    // newcomer is always the worst (age 0 and the highest sequence),
    // so it is the one dropped, exactly as a FIFO queue would.
    const double newPrio = ledger_.priority(
        static_cast<std::size_t>(job.account), job.qosClass,
        job.submitSlice, quantum_);
    std::size_t worst = pending_.size();
    double worstPrio = 0.0;
    for (std::size_t i = 0; i < pending_.size(); ++i) {
        const PendingJob &p = pending_[i];
        if (p.wfSlot >= 0)
            continue; // dag entries are not displacement candidates
        const double prio = ledger_.priority(
            static_cast<std::size_t>(p.account), p.qosClass,
            p.submitSlice, quantum_);
        if (worst == pending_.size() || prio < worstPrio ||
            (prio == worstPrio &&
             p.arrivalSeq > pending_[worst].arrivalSeq)) {
            worst = i;
            worstPrio = prio;
        }
    }
    if (worst != pending_.size() && worstPrio < newPrio) {
        ledger_.recordDropQueued(
            static_cast<std::size_t>(pending_[worst].account));
        ++droppedQueued_;
        ++arrivals_;
        pending_[worst] = std::move(job);
    } else {
        ++droppedArrivals_;
        ledger_.recordDropNew(static_cast<std::size_t>(job.account));
    }
}

void
FleetController::gatherViews()
{
    // Disjoint per-node writes over read-only node state; freeSlots
    // is an O(1) counter, so the whole gather is O(nodes).
    std::vector<std::unique_ptr<ClusterNode>> &nodes = nodes_;
    ThreadPool::global().parallelChunks(
        nodes.size(), kNodeChunk,
        [this, &nodes](std::size_t, std::size_t begin,
                       std::size_t end) {
            for (std::size_t i = begin; i < end; ++i)
                nodes[i]->view(views_[i]);
        });
}

void
FleetController::placePending()
{
    preemptionsThisQuantum_ = 0;
    if (pending_.empty())
        return;

    // Parallel candidate scoring over the planned-occupancy views,
    // then a single-threaded commit through the round's heap in the
    // strict priority order (priority desc, arrival seq asc): every
    // choice (and every view booking) is bitwise what the serial
    // per-job rescan would produce, at O(log N) per job instead of
    // O(N). With a single uniform tenant the order is exact FIFO.
    round_.begin(placement_, views_, ThreadPool::global());

    const std::size_t n = pending_.size();
    prio_.resize(n);
    order_.resize(n);
    placed_.assign(n, 0);
    for (std::size_t i = 0; i < n; ++i) {
        const PendingJob &p = pending_[i];
        prio_[i] = ledger_.priority(
            static_cast<std::size_t>(p.account), p.qosClass,
            p.submitSlice, quantum_);
        order_[i] = static_cast<std::uint32_t>(i);
    }
    std::sort(order_.begin(), order_.end(),
              [this](std::uint32_t a, std::uint32_t b) {
                  if (prio_[a] != prio_[b])
                      return prio_[a] > prio_[b];
                  return pending_[a].arrivalSeq <
                      pending_[b].arrivalSeq;
              });

    // Data-gravity deltas: for every pending dag task with inputs,
    // score each node's resident input-byte fraction into a delta row
    // (block-parallel — cache find() is read-only and every row/node
    // write is disjoint). Locality-blind runs skip the fill entirely:
    // transfers are still charged at commit, placement just cannot
    // see them coming.
    const std::size_t numNodes = views_.size();
    if (dagEnabled() && pendingDag_ > 0) {
        dagRow_.assign(n, -1);
        dagRowPending_.clear();
        if (opts_.dag.localityAware) {
            for (std::size_t i = 0; i < n; ++i) {
                const PendingJob &p = pending_[i];
                if (p.wfSlot < 0 ||
                    engine_->taskInputs(
                               static_cast<std::size_t>(p.wfSlot),
                               static_cast<std::size_t>(p.wfTask))
                        .empty())
                    continue;
                dagRow_[i] = static_cast<std::int32_t>(
                    dagRowPending_.size());
                dagRowPending_.push_back(
                    static_cast<std::uint32_t>(i));
            }
        }
        if (!dagRowPending_.empty()) {
            ThreadPool::global().parallelChunks(
                numNodes, kNodeChunk,
                [this, numNodes](std::size_t, std::size_t begin,
                                 std::size_t end) {
                    for (std::size_t node = begin; node < end;
                         ++node) {
                        const dag::ArtifactCache &cache =
                            caches_[node];
                        for (std::size_t row = 0;
                             row < dagRowPending_.size(); ++row) {
                            const PendingJob &p =
                                pending_[dagRowPending_[row]];
                            const std::vector<dag::ArtifactRef>
                                &inputs = engine_->taskInputs(
                                    static_cast<std::size_t>(
                                        p.wfSlot),
                                    static_cast<std::size_t>(
                                        p.wfTask));
                            double total = 0.0;
                            double resident = 0.0;
                            for (const dag::ArtifactRef &in :
                                 inputs) {
                                total += in.bytes;
                                if (cache.find(in.id))
                                    resident += in.bytes;
                            }
                            const double frac = total > 0.0
                                ? resident / total
                                : 1.0;
                            dagDeltas_[row * numNodes + node] =
                                dag::kLocalityBonusW * frac -
                                dag::kTransferPenaltyW * (1.0 - frac);
                        }
                    }
                });
        }
    }

    for (std::size_t oi = 0; oi < n; ++oi) {
        const std::size_t idx = order_[oi];
        // By value: a preemption below re-queues its victim into
        // pending_, which may move the storage under a reference.
        const PendingJob job = pending_[idx];
        const bool dagJob = job.wfSlot >= 0;
        const std::int32_t row =
            dagJob && idx < dagRow_.size() ? dagRow_[idx] : -1;
        const std::size_t target = row >= 0
            ? round_.placeBest(
                  &dagDeltas_[static_cast<std::size_t>(row) *
                              numNodes])
            : round_.placeOne();
        if (target == PlacementPolicy::kNoNode) {
            // DAG tasks never initiate preemption: their class comes
            // from their tenant, but releasing compute by evicting
            // compute would thrash the frontier. They wait.
            if (!dagJob && tryPreempt(job, prio_[idx]))
                placed_[idx] = 1;
            continue;
        }
        CS_ASSERT(target < nodes_.size(), "policy chose a bad node");
        ClusterNode &node = *nodes_[target];
        const std::size_t slot = node.firstVacantSlot();
        CS_ASSERT(slot < node.numBatchSlots(),
                  "policy placed a job on a full node");
        JobEvent event;
        event.slot = slot;
        event.arrival = job.profile;
        event.account = job.account;
        std::uint64_t transferQuanta = 0;
        if (dagJob) {
            const std::size_t wf =
                static_cast<std::size_t>(job.wfSlot);
            const std::size_t task =
                static_cast<std::size_t>(job.wfTask);
            // Settle the inputs on the chosen node: resident ones are
            // touched (they are being read), missing ones start their
            // modeled transfer — inserted now, paid for in extra
            // effective service quanta below.
            dag::ArtifactCache &cache = caches_[target];
            std::uint32_t hits = 0;
            std::uint32_t misses = 0;
            double missingBytes = 0.0;
            for (const dag::ArtifactRef &in :
                 engine_->taskInputs(wf, task)) {
                if (cache.find(in.id)) {
                    ++hits;
                    cache.touch(in.id, quantum_);
                } else {
                    ++misses;
                    missingBytes += in.bytes;
                    cache.insert(in.id, in.bytes, quantum_);
                }
            }
            if (missingBytes > 0.0) {
                transferQuanta = static_cast<std::uint64_t>(
                    std::ceil(missingBytes /
                              dag::kTransferBytesPerQuantum));
            }
            event.workflowId =
                static_cast<std::int64_t>(engine_->workflowId(wf));
            event.workflowTask = static_cast<std::int32_t>(task);
            event.artifactHits = hits;
            event.artifactMisses = misses;
            event.transferBytes = missingBytes;
            artifactHits_ += hits;
            artifactMisses_ += misses;
            transferBytes_ += missingBytes;
            engine_->onTaskPlaced(wf, task);
            --pendingDag_;
        }
        node.queueJobEvent(event);
        RunningJob &r = runningAt(target, slot);
        r.job = job;
        r.dagDeadline = dagJob
            ? quantum_ +
                engine_->durationQuanta(
                    static_cast<std::size_t>(job.wfSlot),
                    static_cast<std::size_t>(job.wfTask)) +
                transferQuanta
            : 0;
        ledger_.recordPlacement(static_cast<std::size_t>(job.account));
        ++placements_;
        placed_[idx] = 1;
    }

    // Compact the unplaced entries in place — stable, so equal
    // priorities keep submission order. Entries past placed_'s range
    // are this quantum's re-queued preemption victims: always kept
    // (they re-enter the priority order next quantum with their
    // original submit quantum, i.e. all their accrued age).
    std::size_t w = 0;
    for (std::size_t i = 0; i < pending_.size(); ++i) {
        if (i < placed_.size() && placed_[i])
            continue;
        if (w != i)
            pending_[w] = std::move(pending_[i]);
        ++w;
    }
    pending_.resize(w);
    placementStalls_ += pending_.size();
}

bool
FleetController::tryPreempt(const PendingJob &job, double job_priority)
{
    // Class-strict: only a strictly lower class may be evicted, so a
    // victim can never preempt its preemptor back and every cascade
    // is bounded. Batch (the lowest class) can never preempt.
    if (job.qosClass == QosClass::Batch ||
        preemptionsThisQuantum_ >= kMaxPreemptionsPerQuantum)
        return false;

    // Victim: the worst running job the arrival outranks — lowest
    // priority first, ties to the youngest (highest sequence, itself
    // unique) — a strict total order, so the choice replays bitwise.
    const std::size_t none = running_.size();
    std::size_t victim = none;
    double victimPrio = 0.0;
    for (std::size_t i = 0; i < running_.size(); ++i) {
        const PendingJob &r = running_[i].job;
        if (r.account < 0 || r.qosClass >= job.qosClass)
            continue;
        const double prio = ledger_.priority(
            static_cast<std::size_t>(r.account), r.qosClass,
            r.submitSlice, quantum_);
        if (prio >= job_priority)
            continue;
        if (victim == none || prio < victimPrio ||
            (prio == victimPrio &&
             r.arrivalSeq > running_[victim].job.arrivalSeq)) {
            victim = i;
            victimPrio = prio;
        }
    }
    if (victim == none)
        return false;

    const std::size_t vnode = victim / slotsPerNode_;
    const std::size_t vslot = victim % slotsPerNode_;
    RunningJob &r = running_[victim];
    ledger_.recordPreemption(static_cast<std::size_t>(job.account),
                             static_cast<std::size_t>(r.job.account));

    // Re-queue the victim before its registry entry is overwritten,
    // keeping its submit quantum and sequence number. A dag victim
    // goes back to Ready — it restarts (and re-pays its transfers)
    // when re-placed.
    if (r.job.wfSlot >= 0) {
        engine_->onTaskPreempted(
            static_cast<std::size_t>(r.job.wfSlot),
            static_cast<std::size_t>(r.job.wfTask));
        ++pendingDag_;
    }
    pending_.push_back(r.job);

    // Vacate the victim's slot in the round's view and re-book it
    // through the round itself. placeOne() just returned kNoNode, so
    // after the refresh the freed slot is the only vacancy in the
    // fleet — the re-booking must land on the victim's node.
    views_[vnode].freeSlots += 1;
    views_[vnode].occupiedSlots -= 1;
    round_.refresh(vnode);
    const std::size_t target = round_.placeOne();
    CS_ASSERT(target == vnode, "preemption re-booking went astray");

    // One combined departure+arrival event on the occupied slot: the
    // node's planned occupancy is net-unchanged, and the driver fires
    // the churn seam once — the slot's learned CF state drops, so the
    // preemptor never inherits the victim's observations.
    JobEvent event;
    event.slot = vslot;
    event.departure = true;
    event.arrival = job.profile;
    event.account = job.account;
    event.preemption = true;
    nodes_[vnode]->queueJobEvent(event);

    r.job = job; // a plain job: dag tasks never preempt
    r.dagDeadline = 0;

    ledger_.recordPlacement(static_cast<std::size_t>(job.account));
    ++placements_;
    ++preemptions_;
    ++preemptionsThisQuantum_;
    return true;
}

void
FleetController::splitBudget()
{
    power_.split(views_, budgets_, ThreadPool::global());
    for (std::size_t i = 0; i < nodes_.size(); ++i)
        nodes_[i]->overridePowerBudgetW(budgets_[i]);
}

void
FleetController::shiftLoad()
{
    if (quantum_ == 0)
        return;

    // Parallel scan: each replica's upcoming offered load (a pattern
    // lookup) into its own loads_ entry.
    std::vector<std::unique_ptr<ClusterNode>> &nodes = nodes_;
    ThreadPool::global().parallelChunks(
        nodes.size(), kNodeChunk,
        [this, &nodes](std::size_t, std::size_t begin,
                       std::size_t end) {
            for (std::size_t i = begin; i < end; ++i)
                loads_[i] = nodes[i]->nextLoadFraction();
        });

    // Serial pairing and commit in node-index order. Donors: replicas
    // that violated QoS last quantum. Receiver: the replica with the
    // lowest upcoming offered load that is itself healthy (ties to
    // the lowest index). All replicas serve the same LC service
    // (identical calibrated maxQps), so load fractions transfer
    // one-to-one.
    std::size_t receiver = PlacementPolicy::kNoNode;
    double receiverLoad = 0.0;
    for (std::size_t i = 0; i < nodes_.size(); ++i) {
        if (views_[i].qosViolated)
            continue;
        if (receiver == PlacementPolicy::kNoNode ||
            loads_[i] < receiverLoad) {
            receiver = i;
            receiverLoad = loads_[i];
        }
    }
    if (receiver == PlacementPolicy::kNoNode)
        return; // every replica is violating; nowhere to shed to

    loadExtra_.assign(nodes_.size(), 0.0);
    bool shifted = false;
    for (std::size_t i = 0; i < nodes_.size(); ++i) {
        if (!views_[i].qosViolated || i == receiver)
            continue;
        const double moved = loads_[i] * kQosLoadShiftFrac;
        if (moved <= 0.0)
            continue;
        nodes_[i]->overrideLoadFraction(loads_[i] - moved);
        loadExtra_[receiver] += moved;
        ++loadShifts_;
        shifted = true;
    }
    if (shifted) {
        nodes_[receiver]->overrideLoadFraction(
            loads_[receiver] + loadExtra_[receiver]);
    }
}

void
FleetController::gatherQuantum()
{
    for (std::size_t i = 0; i < nodes_.size(); ++i) {
        ColocationRun &run = nodes_[i]->run();
        const double budget = run.lastPowerBudgetW();
        const double power = run.lastMeasurement().totalPower;
        clusterBudgetSum_ += budget;
        clusterPowerSum_ += power;
        nodeBudgetSum_[i] += budget;
        nodePowerSum_[i] += power;
        const double jobGmean = nodes_[i]->lastJobGmeanBips();
        if (jobGmean > 0.0) {
            nodeJobGmeanSum_[i] += jobGmean;
            ++nodeJobGmeanCount_[i];
        }

        // Charge each occupied slot's consumption to its account:
        // width-weighted core-seconds (totalWidth/18 — a full {6,6,6}
        // core is 1.0, a gated core 0) and the instructions retired.
        const SliceDecision &dec = run.lastDecision();
        const SliceMeasurement &m = run.lastMeasurement();
        const std::vector<std::int32_t> &accounts =
            run.slotAccounts();
        for (std::size_t s = 0; s < accounts.size(); ++s) {
            if (accounts[s] < 0)
                continue;
            const bool active =
                s < dec.batchActive.size() && dec.batchActive[s];
            const double coreFrac = active
                ? static_cast<double>(
                      dec.batchConfigs[s].core().totalWidth()) / 18.0
                : 0.0;
            const double bips =
                s < m.batchBips.size() ? m.batchBips[s] : 0.0;
            ledger_.chargeUsage(
                static_cast<std::size_t>(accounts[s]), coreFrac,
                timesliceSec_, bips * timesliceSec_, bips);
        }

        if (nodeSinks_[i] && opts_.sink) {
            const std::vector<telemetry::QuantumRecord> &recs =
                nodeSinks_[i]->records();
            for (std::size_t r = drained_[i]; r < recs.size(); ++r)
                opts_.sink->record(recs[r]);
            drained_[i] = recs.size();
        }
    }
}

void
FleetController::stepQuantum()
{
    CS_ASSERT(!done(), "stepQuantum() past the configured day");
    std::chrono::steady_clock::time_point mark = stepClock();
    const auto lap = [this, &mark](StepPhase phase) {
        const std::chrono::steady_clock::time_point now = stepClock();
        stepSec_[static_cast<std::size_t>(phase)] =
            std::chrono::duration<double>(now - mark).count();
        mark = now;
    };

    // Decay usage and recompute fair-share once, up front, so
    // admission, ordering, and preemption all see factors reflecting
    // consumption through the previous quantum.
    ledger_.beginQuantum();
    applyChurn();
    lap(StepPhase::Churn);
    gatherViews();
    lap(StepPhase::Gather);
    placePending();
    lap(StepPhase::Place);
    splitBudget();
    lap(StepPhase::Power);
    shiftLoad();
    lap(StepPhase::Shift);

    // The parallel region: nodes are fully independent (each owns its
    // sim, scheduler, and stepper), so any pool width produces the
    // same per-node state; the pool's nested-region support lets each
    // node's own SGD/DDS parallelism run inside this loop.
    std::vector<std::unique_ptr<ClusterNode>> &nodes = nodes_;
    ThreadPool::global().parallelFor(
        nodes.size(),
        [&nodes](std::size_t i) { nodes[i]->step(); });
    lap(StepPhase::NodeStep);

    gatherQuantum();
    lap(StepPhase::Account);
    ++quantum_;
}

FleetSummary
FleetController::run()
{
    while (!done())
        stepQuantum();
    return summary();
}

FleetSummary
FleetController::summary()
{
    const std::size_t n = nodes_.size();
    const double q =
        static_cast<double>(std::max<std::size_t>(quantum_, 1));

    FleetSummary s;
    s.numNodes = n;
    s.quanta = quantum_;
    s.rackBudgetW = power_.options().rackBudgetW;
    s.placementPolicy = placement_.name();
    s.arrivals = arrivals_;
    s.droppedArrivals = droppedArrivals_;
    s.droppedQueued = droppedQueued_;
    s.departures = departures_;
    s.placements = placements_;
    s.preemptions = preemptions_;
    s.placementStalls = placementStalls_;
    s.loadShifts = loadShifts_;

    for (std::size_t i = 0; i < n; ++i) {
        const CuttleSysScheduler &sched = nodes_[i]->scheduler();
        s.fastPathHits +=
            static_cast<std::size_t>(sched.fastPathHits());
        s.fullQuanta +=
            static_cast<std::size_t>(sched.fullQuanta());
    }
    const std::size_t decided = s.fastPathHits + s.fullQuanta;
    s.fastPathHitRate = decided
        ? static_cast<double>(s.fastPathHits) /
            static_cast<double>(decided)
        : 0.0;

    if (dagEnabled()) {
        s.workflowsSubmitted = workflowsSubmitted_;
        s.workflowsCompleted =
            static_cast<std::size_t>(engine_->completed());
        s.workflowsDropped = workflowsDropped_;
        s.dagTasksCompleted =
            static_cast<std::size_t>(engine_->tasksCompleted());
        s.artifactHits = artifactHits_;
        s.artifactMisses = artifactMisses_;
        for (const dag::ArtifactCache &c : caches_) {
            s.artifactEvictions +=
                static_cast<std::size_t>(c.evictions());
        }
        const std::size_t probes = artifactHits_ + artifactMisses_;
        s.artifactHitRate = probes
            ? static_cast<double>(artifactHits_) /
                static_cast<double>(probes)
            : 0.0;
        s.transferBytes = transferBytes_;
        double logMakespanSum = 0.0;
        double makespanSum = 0.0;
        std::size_t doneWorkflows = 0;
        for (std::size_t a = 0; a < ledger_.numAccounts(); ++a) {
            const AccountUsage &u = ledger_.usage(a);
            logMakespanSum += u.logMakespanSum;
            makespanSum += u.makespanQuantaSum;
            doneWorkflows += u.workflowsCompleted;
        }
        s.gmeanMakespanQuanta = doneWorkflows
            ? std::exp(logMakespanSum /
                       static_cast<double>(doneWorkflows))
            : 0.0;
        s.meanMakespanQuanta = doneWorkflows
            ? makespanSum / static_cast<double>(doneWorkflows)
            : 0.0;
    }

    s.accounts.reserve(ledger_.numAccounts());
    for (std::size_t a = 0; a < ledger_.numAccounts(); ++a) {
        const TenantSpec &t = ledger_.tenant(a);
        const AccountUsage &u = ledger_.usage(a);
        AccountSummary as;
        as.name = t.name;
        as.qosClass = t.qosClass;
        as.shares = t.shares;
        as.arrivalWeight = t.arrivalWeight;
        as.arrivals = u.arrivals;
        as.placements = u.placements;
        as.dropsNew = u.dropsNew;
        as.dropsQueued = u.dropsQueued;
        as.preemptionsWon = u.preemptionsWon;
        as.preemptionsSuffered = u.preemptionsSuffered;
        as.coreSeconds = u.coreSeconds;
        as.ginstr = u.ginstr;
        as.gmeanBips = ledger_.gmeanBips(a);
        as.fairShare = ledger_.fairShare(a);
        as.workflowsCompleted = u.workflowsCompleted;
        as.gmeanMakespanQuanta = ledger_.gmeanMakespan(a);
        s.accounts.push_back(std::move(as));
    }
    s.meanClusterPowerW = clusterPowerSum_ / q;
    s.meanHeadroomW = (clusterBudgetSum_ - clusterPowerSum_) / q;

    std::size_t totalViolations = 0;
    double logGmeanSum = 0.0;
    double logJobGmeanSum = 0.0;
    s.nodes.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        const RunResult &r = nodes_[i]->result();
        NodeSummary ns;
        ns.node = i;
        ns.quanta = quantum_;
        ns.qosViolations = r.qosViolations;
        ns.qosPct = 100.0 *
            (1.0 - static_cast<double>(r.qosViolations) / q);
        ns.meanGmeanBips = r.meanGmeanBips;
        ns.meanJobGmeanBips = nodeJobGmeanCount_[i] > 0
            ? nodeJobGmeanSum_[i] /
                static_cast<double>(nodeJobGmeanCount_[i])
            : 0.0;
        ns.meanPowerW = r.meanPowerW;
        ns.meanBudgetW = nodeBudgetSum_[i] / q;
        ns.meanHeadroomW =
            (nodeBudgetSum_[i] - nodePowerSum_[i]) / q;
        ns.totalBatchInstructions = r.totalBatchInstructions;
        ns.arrivals = r.jobArrivals;
        ns.departures = r.jobDepartures;
        ns.invariantViolations = r.invariantViolations;
        s.nodes.push_back(ns);

        totalViolations += r.qosViolations;
        logGmeanSum += std::log(std::max(r.meanGmeanBips, 1e-3));
        logJobGmeanSum +=
            std::log(std::max(ns.meanJobGmeanBips, 1e-3));
        s.totalBatchInstructions += r.totalBatchInstructions;
    }
    s.clusterQosPct = 100.0 *
        (1.0 - static_cast<double>(totalViolations) /
             (q * static_cast<double>(n)));
    s.gmeanBatchBips = std::exp(logGmeanSum / static_cast<double>(n));
    s.jobGmeanBips =
        std::exp(logJobGmeanSum / static_cast<double>(n));
    return s;
}

} // namespace cluster
} // namespace cuttlesys
