/**
 * @file
 * Fleet-controller phase timing: controller overhead vs fleet size.
 *
 * Times the per-quantum control phases — churn, view gather,
 * placement, power split, load shift — over a synthetic fleet (no
 * per-node simulators, so the rows isolate pure controller overhead)
 * at N = 16/64/256/1024 nodes. Two controllers drive identical state
 * machines:
 *
 *  - "serial" reproduces the pre-rework controller: a sequential
 *    churn RNG drawn node-major, O(slots) vacancy scans in the view
 *    gather, a full O(N) policy rescan per placed job, and
 *    single-threaded power/shift loops.
 *  - "parallel" is the shipped path, built from the production
 *    components: counter-based JobChurnEngine draws staged
 *    block-parallel in per-worker arenas, O(1) vacancy counters,
 *    PlacementRound's score-once-commit-through-a-heap placement,
 *    ClusterPowerManager's block-parallel split, and the parallel
 *    load scan.
 *
 * A determinism section replays the parallel controller at pool
 * widths 1/4/8 and folds every quantum's full state (occupancy
 * bytes, budget and load bits, counters) into a digest that must
 * match bitwise across widths (DESIGN.md §12). A steady-state
 * allocation row counts heap traffic per parallel quantum via the
 * cs_alloc_probe operator-new replacement (must be 0).
 *
 * An incremental-decisions section then drives the *real*
 * FleetController (full per-node simulators) through the compressed
 * diurnal day twice per fleet size — stability gate on vs.
 * --no-fastpath always-full — and reports the mean per-node
 * decision time (the scheduler-side phases: ingest, reconstruct,
 * search, enforce), the parallel node-step wall time per cluster
 * quantum, the fast-path hit rate, and the QoS / batch-Ginstr deltas
 * the reuse costs.
 *
 * A dag data-gravity section runs the real fleet with churned DAG
 * workflow arrivals twice — locality-aware placement vs the
 * locality-blind baseline (transfers modeled and charged in both) —
 * and reports completed workflows, gmean makespan, artifact hit
 * rate, transfer volume, and the QoS / Ginstr deltas.
 *
 * --smoke: exit nonzero unless the N=256 combined controller-phase
 * speedup is >= 3x, the width digests agree, the steady state is
 * allocation-free, the incremental A/B shows >= 2.5x mean
 * decision-time reduction at a >= 50% hit rate with QoS within 1
 * point and batch Ginstr within 1%, and the dag A/B completes
 * workflows with locality-aware gmean makespan strictly below blind
 * at unchanged QoS and batch throughput. Emits BENCH_fleet.json
 * next to stdout.
 */

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <vector>

#include "apps/app_profile.hh"
#include "apps/gallery.hh"
#include "cluster/churn.hh"
#include "cluster/fleet.hh"
#include "cluster/node.hh"
#include "cluster/placement.hh"
#include "cluster/power_manager.hh"
#include "common/alloc_probe.hh"
#include "common/arena.hh"
#include "common/thread_pool.hh"
#include "core/training.hh"
#include "lcsim/calibrate.hh"
#include "power/power_model.hh"
#include "telemetry/trace_sink.hh"

using namespace cuttlesys;
using namespace cuttlesys::cluster;

namespace {

using Clock = std::chrono::steady_clock;

// A high-churn rack: two arrivals per node per quantum against a
// matching departure rate, holding occupancy near 52% — placement
// pressure scales with N, which is exactly the load the rework
// targets.
constexpr std::size_t kSlots = 16;          //!< batch slots per node
constexpr double kDepartureProb = 0.24;     //!< per occupied slot
constexpr double kArrivalsPerNode = 2.0;    //!< mean per quantum
constexpr double kBudgetPerNodeW = 95.0;
constexpr double kNodeFloorW = 30.0;
constexpr double kNodeCapW = 130.0;
constexpr std::size_t kChunk = 32;          //!< nodes per block
constexpr double kTwoPi = 6.283185307179586;

/** SplitMix64 finisher, used for the synthetic state and digests. */
std::uint64_t
mixBits(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

/** The sequential RNG the pre-rework churn phase consumed. */
struct SeqRng
{
    std::uint64_t state;

    std::uint64_t
    next()
    {
        state += 0x9e3779b97f4a7c15ULL;
        return mixBits(state);
    }

    double
    uniform()
    {
        return static_cast<double>(next() >> 11) * 0x1.0p-53;
    }
};

/** Small pool of short-named profiles churn arrivals draw from. */
std::vector<AppProfile>
syntheticPool()
{
    std::vector<AppProfile> pool(8);
    for (std::size_t i = 0; i < pool.size(); ++i) {
        pool[i].name = "batch-";
        pool[i].name += static_cast<char>('a' + i);
        pool[i].seed = 101 + i;
        pool[i].apki = 2.0 + static_cast<double>(i);
    }
    return pool;
}

/** Replica i's offered LC load at @p quantum (phase-staggered day). */
double
offeredLoad(std::uint64_t quantum, std::size_t i, std::size_t n)
{
    const double phase = static_cast<double>(quantum) / 96.0 +
        static_cast<double>(i) / static_cast<double>(n);
    return 0.5 + 0.45 * std::sin(kTwoPi * phase);
}

/**
 * The controller-visible cluster state both implementations drive:
 * planned occupancy, per-quantum views, the budget feedback loop, and
 * the FIFO arrival queue. The parallel path additionally maintains
 * the O(1) vacancy counters and first-vacant hints the reworked
 * ClusterNode keeps; the serial path ignores them and re-scans, as
 * the pre-rework controller did.
 */
struct SyntheticFleet
{
    std::size_t n = 0;
    std::size_t maxPending = 0;
    std::vector<std::uint8_t> occupied;    //!< n x kSlots
    std::vector<std::size_t> freeCount;    //!< per node (O(1) gather)
    std::vector<std::size_t> firstVacant;  //!< per node hint
    std::vector<NodeView> views;
    std::vector<double> budgets;           //!< fed back into views
    std::vector<double> loads;
    std::vector<PendingJob> pending;
    std::size_t pendingHead = 0;
    std::uint64_t quantum = 0;
    std::size_t arrivals = 0;
    std::size_t departures = 0;
    std::size_t placements = 0;
    std::size_t dropped = 0;

    std::size_t queued() const { return pending.size() - pendingHead; }
};

SyntheticFleet
makeFleet(std::size_t n, std::uint64_t seed)
{
    SyntheticFleet st;
    st.n = n;
    st.maxPending = 2 * n;
    st.occupied.assign(n * kSlots, 0);
    st.freeCount.assign(n, kSlots);
    st.firstVacant.assign(n, 0);
    st.views.resize(n);
    st.budgets.assign(n, kBudgetPerNodeW);
    st.loads.assign(n, 0.0);
    st.pending.reserve(st.maxPending + n);

    // Start near the churn equilibrium (~52% occupied) so the timed
    // quanta measure steady-state phase work from the first rep.
    for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t s = 0; s < kSlots; ++s) {
            const std::uint64_t h =
                mixBits(seed ^ (i * kSlots + s) * 0x9e3779b97f4a7c15ULL);
            if ((static_cast<double>(h >> 11) * 0x1.0p-53) < 0.52) {
                st.occupied[i * kSlots + s] = 1;
                --st.freeCount[i];
            }
        }
        std::size_t v = 0;
        while (v < kSlots && st.occupied[i * kSlots + v])
            ++v;
        st.firstVacant[i] = v;
    }
    return st;
}

/** Fill node @p i's view for this quantum (shared by both paths). */
void
fillView(SyntheticFleet &st, std::size_t i, std::size_t free_slots)
{
    NodeView &v = st.views[i];
    const double load = offeredLoad(st.quantum, i, st.n);
    v.node = i;
    v.freeSlots = free_slots;
    v.occupiedSlots = kSlots - free_slots;
    v.loadFraction = load;
    v.budgetW = st.budgets[i];
    v.measuredPowerW = 40.0 + 55.0 * load +
        3.0 * static_cast<double>(v.occupiedSlots);
    v.headroomW = v.budgetW - v.measuredPowerW;
    v.qosViolated = load > 0.85;
    v.gmeanBips = 1.0;
    v.stepped = true;
}

/** Serial donor/receiver pairing and commit (shared by both paths). */
void
shiftCommit(SyntheticFleet &st)
{
    std::size_t receiver = PlacementPolicy::kNoNode;
    for (std::size_t i = 0; i < st.n; ++i) {
        if (st.views[i].qosViolated)
            continue;
        if (receiver == PlacementPolicy::kNoNode ||
            st.loads[i] < st.loads[receiver]) {
            receiver = i;
        }
    }
    if (receiver == PlacementPolicy::kNoNode)
        return;
    for (std::size_t i = 0; i < st.n; ++i) {
        if (!st.views[i].qosViolated || i == receiver)
            continue;
        const double moved = st.loads[i] * 0.15;
        st.loads[i] -= moved;
        st.loads[receiver] += moved;
    }
}

/** FIFO-queue compaction at end of quantum (shared by both paths). */
void
compactPending(SyntheticFleet &st)
{
    if (st.pendingHead == st.pending.size()) {
        st.pending.clear();
        st.pendingHead = 0;
    } else if (st.pendingHead >= 32 &&
               st.pendingHead * 2 >= st.pending.size()) {
        st.pending.erase(st.pending.begin(),
                         st.pending.begin() +
                             static_cast<std::ptrdiff_t>(st.pendingHead));
        st.pendingHead = 0;
    }
}

enum PhaseIdx { kChurn, kGather, kPlace, kPower, kShift, kNumPhases };

const char *const kPhaseNames[kNumPhases] = {
    "churn", "gather", "place", "power", "shift",
};

/** Per-phase accumulated microseconds for one configuration. */
struct PhaseUs
{
    double us[kNumPhases] = {};

    double
    total() const
    {
        double sum = 0.0;
        for (const double v : us)
            sum += v;
        return sum;
    }
};

class PhaseTimer
{
  public:
    PhaseTimer(PhaseUs &acc, PhaseIdx phase)
        : acc_(acc), phase_(phase), start_(Clock::now())
    {
    }

    ~PhaseTimer()
    {
        acc_.us[phase_] +=
            std::chrono::duration<double, std::micro>(Clock::now() -
                                                      start_).count();
    }

  private:
    PhaseUs &acc_;
    PhaseIdx phase_;
    Clock::time_point start_;
};

/**
 * The pre-rework controller quantum: every loop single-threaded,
 * every draw from one sequential stream, every vacancy re-scanned.
 */
struct SerialController
{
    const PlacementPolicy &policy;
    const std::vector<AppProfile> &pool;
    SeqRng rng;

    void
    quantum(SyntheticFleet &st, PhaseUs &acc)
    {
        const std::size_t n = st.n;
        {
            PhaseTimer t(acc, kChurn);
            // Departures: one Bernoulli per occupied slot, node-major
            // off the shared stream.
            for (std::size_t i = 0; i < n; ++i) {
                for (std::size_t s = 0; s < kSlots; ++s) {
                    std::uint8_t &occ = st.occupied[i * kSlots + s];
                    if (occ && rng.uniform() < kDepartureProb) {
                        occ = 0;
                        ++st.departures;
                    }
                }
            }
            // Arrivals: one cluster-wide count, then pool draws.
            const double mean =
                kArrivalsPerNode * static_cast<double>(n);
            const double whole = std::floor(mean);
            std::size_t count = static_cast<std::size_t>(whole);
            if (rng.uniform() < mean - whole)
                ++count;
            for (std::size_t k = 0; k < count; ++k) {
                if (st.queued() >= st.maxPending) {
                    ++st.dropped;
                    continue;
                }
                PendingJob job;
                job.profile = pool[rng.next() % pool.size()];
                job.profile.seed ^= rng.next();
                job.submitSlice = st.quantum;
                st.pending.push_back(std::move(job));
                ++st.arrivals;
            }
        }
        {
            PhaseTimer t(acc, kGather);
            // O(slots) vacancy scan per node, serial.
            for (std::size_t i = 0; i < n; ++i) {
                std::size_t free_slots = 0;
                for (std::size_t s = 0; s < kSlots; ++s) {
                    if (!st.occupied[i * kSlots + s])
                        ++free_slots;
                }
                fillView(st, i, free_slots);
            }
        }
        {
            PhaseTimer t(acc, kPlace);
            // Full policy rescan per job, O(slots) slot scan per
            // booking.
            while (st.pendingHead < st.pending.size()) {
                const std::size_t target =
                    policy.place(st.pending[st.pendingHead], st.views);
                if (target == PlacementPolicy::kNoNode)
                    break;
                std::size_t slot = 0;
                while (st.occupied[target * kSlots + slot])
                    ++slot;
                st.occupied[target * kSlots + slot] = 1;
                --st.views[target].freeSlots;
                ++st.views[target].occupiedSlots;
                ++st.placements;
                ++st.pendingHead;
            }
            compactPending(st);
        }
        {
            PhaseTimer t(acc, kPower);
            // The pre-rework ClusterPowerManager::split, verbatim
            // serial: weights, left-fold sum, fill, clip/redistribute.
            double weightSum = 0.0;
            for (std::size_t i = 0; i < n; ++i) {
                const NodeView &v = st.views[i];
                double demand = v.stepped
                    ? std::max(v.measuredPowerW, kNodeFloorW)
                    : 1.0;
                if (v.qosViolated)
                    demand += 10.0;
                st.loads[i] = demand; // reuse as weight scratch
                weightSum += demand;
            }
            const double distributable =
                (kBudgetPerNodeW - kNodeFloorW) *
                static_cast<double>(n);
            for (std::size_t i = 0; i < n; ++i) {
                const double share = weightSum > 0.0
                    ? distributable * st.loads[i] / weightSum
                    : distributable / static_cast<double>(n);
                st.budgets[i] = kNodeFloorW + share;
            }
            double excess = 0.0;
            std::size_t uncapped = 0;
            for (std::size_t i = 0; i < n; ++i) {
                if (st.budgets[i] > kNodeCapW) {
                    excess += st.budgets[i] - kNodeCapW;
                    st.budgets[i] = kNodeCapW;
                } else {
                    ++uncapped;
                }
            }
            if (excess > 0.0 && uncapped > 0) {
                const double share =
                    excess / static_cast<double>(uncapped);
                for (std::size_t i = 0; i < n; ++i) {
                    if (st.budgets[i] < kNodeCapW) {
                        st.budgets[i] =
                            std::min(st.budgets[i] + share, kNodeCapW);
                    }
                }
            }
        }
        {
            PhaseTimer t(acc, kShift);
            for (std::size_t i = 0; i < n; ++i)
                st.loads[i] = offeredLoad(st.quantum + 1, i, st.n);
            shiftCommit(st);
        }
        ++st.quantum;
    }
};

/**
 * The shipped controller quantum, built from the production
 * components: parallel scans with per-worker arena staging, ordered
 * serial commits (the FleetController phase structure without the
 * per-node simulators).
 */
struct ParallelController
{
    ThreadPool &pool;
    const PlacementPolicy &policy;
    JobChurnEngine churn;
    ClusterPowerManager power;
    PlacementRound round;
    WorkerArenaSet arenas;

    struct NodePlan
    {
        std::uint16_t *departSlots = nullptr;
        std::uint16_t numDeparts = 0;
        std::uint16_t arrivals = 0;
    };
    std::vector<NodePlan> plan;

    ParallelController(ThreadPool &pool_ref,
                       const PlacementPolicy &placement,
                       const std::vector<AppProfile> &job_pool,
                       std::size_t n, std::uint64_t seed)
        : pool(pool_ref), policy(placement),
          churn(job_pool, n, seed,
                ChurnOptions{.departureProbability = kDepartureProb,
                             .meanArrivalsPerQuantum =
                                 kArrivalsPerNode *
                                 static_cast<double>(n),
                             .maxPendingJobs = 2 * n,
                             .tenantArrivalWeights = {}}),
          power(PowerPolicy::HeadroomRebalance,
                PowerManagerOptions{
                    .rackBudgetW =
                        kBudgetPerNodeW * static_cast<double>(n),
                    .nodeFloorW = kNodeFloorW,
                    .nodeCapW = kNodeCapW,
                    .qosBoostW = 10.0}),
          arenas(pool_ref.slotCount())
    {
        plan.resize(n);
        // Worst-case staging prewarm (one worker scanning the whole
        // fleet), as the production FleetController does: the worker
        // schedule varies, so without it an unlucky quantum grows an
        // arena mid-measurement.
        for (std::size_t s = 0; s < arenas.size(); ++s)
            arenas.at(s).alloc<std::uint16_t>(n * kSlots);
        arenas.resetAll();
    }

    void
    quantum(SyntheticFleet &st, PhaseUs &acc)
    {
        const std::size_t n = st.n;
        {
            PhaseTimer t(acc, kChurn);
            // Parallel scan: stage per-node departure lists in the
            // worker's arena; every draw is a pure function of its
            // coordinates.
            arenas.resetAll();
            pool.parallelChunks(
                n, kChunk,
                [this, &st](std::size_t, std::size_t begin,
                            std::size_t end) {
                    ScratchArena &arena =
                        arenas.at(ThreadPool::currentSlot());
                    for (std::size_t i = begin; i < end; ++i) {
                        std::uint16_t *stage =
                            arena.alloc<std::uint16_t>(kSlots);
                        std::uint16_t count = 0;
                        for (std::size_t s = 0; s < kSlots; ++s) {
                            if (st.occupied[i * kSlots + s] &&
                                churn.departs(st.quantum, i, s)) {
                                stage[count++] =
                                    static_cast<std::uint16_t>(s);
                            }
                        }
                        plan[i].departSlots = stage;
                        plan[i].numDeparts = count;
                        plan[i].arrivals =
                            static_cast<std::uint16_t>(
                                churn.arrivalsAt(st.quantum, i));
                    }
                });
            // Serial merge in node-index order.
            for (std::size_t i = 0; i < n; ++i) {
                for (std::uint16_t d = 0; d < plan[i].numDeparts;
                     ++d) {
                    const std::size_t s = plan[i].departSlots[d];
                    st.occupied[i * kSlots + s] = 0;
                    ++st.freeCount[i];
                    st.firstVacant[i] =
                        std::min(st.firstVacant[i], s);
                    ++st.departures;
                }
                for (std::uint16_t k = 0; k < plan[i].arrivals;
                     ++k) {
                    if (st.queued() >= st.maxPending) {
                        ++st.dropped;
                        continue;
                    }
                    PendingJob job;
                    job.profile = churn.drawJobAt(st.quantum, i, k);
                    job.submitSlice = st.quantum;
                    st.pending.push_back(std::move(job));
                    ++st.arrivals;
                }
            }
        }
        {
            PhaseTimer t(acc, kGather);
            // O(1) vacancy counters, block-parallel disjoint writes.
            pool.parallelChunks(
                n, kChunk,
                [&st](std::size_t, std::size_t begin,
                      std::size_t end) {
                    for (std::size_t i = begin; i < end; ++i)
                        fillView(st, i, st.freeCount[i]);
                });
        }
        {
            PhaseTimer t(acc, kPlace);
            // Score once in parallel, commit the queue through the
            // heap.
            round.begin(policy, st.views, pool);
            while (st.pendingHead < st.pending.size()) {
                const std::size_t target = round.placeOne();
                if (target == PlacementPolicy::kNoNode)
                    break;
                std::size_t &hint = st.firstVacant[target];
                st.occupied[target * kSlots + hint] = 1;
                --st.freeCount[target];
                while (hint < kSlots &&
                       st.occupied[target * kSlots + hint]) {
                    ++hint;
                }
                ++st.placements;
                ++st.pendingHead;
            }
            compactPending(st);
        }
        {
            PhaseTimer t(acc, kPower);
            power.split(st.views, st.budgets, pool);
        }
        {
            PhaseTimer t(acc, kShift);
            pool.parallelChunks(
                n, kChunk,
                [&st](std::size_t, std::size_t begin,
                      std::size_t end) {
                    for (std::size_t i = begin; i < end; ++i) {
                        st.loads[i] =
                            offeredLoad(st.quantum + 1, i, st.n);
                    }
                });
            shiftCommit(st);
        }
        ++st.quantum;
    }
};

/** Fold one quantum's full controller state into a digest. */
std::uint64_t
digestState(const SyntheticFleet &st, std::uint64_t digest)
{
    for (const std::uint8_t occ : st.occupied)
        digest = mixBits(digest ^ occ);
    for (const double v : st.budgets) {
        std::uint64_t bits;
        std::memcpy(&bits, &v, sizeof(bits));
        digest = mixBits(digest ^ bits);
    }
    for (const double v : st.loads) {
        std::uint64_t bits;
        std::memcpy(&bits, &v, sizeof(bits));
        digest = mixBits(digest ^ bits);
    }
    digest = mixBits(digest ^ st.queued());
    digest = mixBits(digest ^ st.arrivals);
    digest = mixBits(digest ^ st.departures);
    digest = mixBits(digest ^ st.placements);
    digest = mixBits(digest ^ st.dropped);
    return digest;
}

constexpr std::size_t kWarmQuanta = 3;

/** One curve point: best-of-reps per-quantum phase times. */
struct CurvePoint
{
    std::size_t nodes = 0;
    PhaseUs serial;    //!< per-quantum, best rep
    PhaseUs parallel;  //!< per-quantum, best rep
    double speedup = 0.0;
};

CurvePoint
measure(std::size_t n, std::size_t quanta, std::size_t reps,
        const PlacementPolicy &policy,
        const std::vector<AppProfile> &job_pool)
{
    CurvePoint pt;
    pt.nodes = n;
    double bestSerial = 1e18;
    double bestParallel = 1e18;

    for (std::size_t r = 0; r < reps; ++r) {
        SyntheticFleet st = makeFleet(n, 42);
        SerialController ctl{policy, job_pool, SeqRng{977 + r}};
        PhaseUs warm;
        for (std::size_t q = 0; q < kWarmQuanta; ++q)
            ctl.quantum(st, warm);
        PhaseUs acc;
        for (std::size_t q = 0; q < quanta; ++q)
            ctl.quantum(st, acc);
        if (acc.total() < bestSerial) {
            bestSerial = acc.total();
            for (std::size_t p = 0; p < kNumPhases; ++p) {
                pt.serial.us[p] =
                    acc.us[p] / static_cast<double>(quanta);
            }
        }
    }
    for (std::size_t r = 0; r < reps; ++r) {
        SyntheticFleet st = makeFleet(n, 42);
        ParallelController ctl(ThreadPool::global(), policy,
                               job_pool, n, 977 + r);
        PhaseUs warm;
        for (std::size_t q = 0; q < kWarmQuanta; ++q)
            ctl.quantum(st, warm);
        PhaseUs acc;
        for (std::size_t q = 0; q < quanta; ++q)
            ctl.quantum(st, acc);
        if (acc.total() < bestParallel) {
            bestParallel = acc.total();
            for (std::size_t p = 0; p < kNumPhases; ++p) {
                pt.parallel.us[p] =
                    acc.us[p] / static_cast<double>(quanta);
            }
        }
    }
    pt.speedup = pt.serial.total() / pt.parallel.total();
    return pt;
}

/**
 * Replay the parallel controller at several pool widths; the state
 * digest after every quantum must agree bitwise across widths.
 */
bool
deterministicAcrossWidths(std::size_t n, std::size_t quanta,
                          const PlacementPolicy &policy,
                          const std::vector<AppProfile> &job_pool,
                          const std::vector<std::size_t> &widths)
{
    std::uint64_t reference = 0;
    bool haveReference = false;
    for (const std::size_t w : widths) {
        ThreadPool pool(w);
        SyntheticFleet st = makeFleet(n, 42);
        ParallelController ctl(pool, policy, job_pool, n, 977);
        PhaseUs acc;
        std::uint64_t digest = 0;
        for (std::size_t q = 0; q < quanta; ++q) {
            ctl.quantum(st, acc);
            digest = digestState(st, digest);
        }
        if (!haveReference) {
            reference = digest;
            haveReference = true;
        } else if (digest != reference) {
            return false;
        }
    }
    return true;
}

/** Heap allocations per steady-state parallel quantum (must be 0). */
std::uint64_t
steadyStateAllocs(std::size_t n, const PlacementPolicy &policy,
                  const std::vector<AppProfile> &job_pool)
{
    SyntheticFleet st = makeFleet(n, 42);
    ParallelController ctl(ThreadPool::global(), policy, job_pool, n,
                           977);
    PhaseUs acc;
    for (std::size_t q = 0; q < 4; ++q)
        ctl.quantum(st, acc);

    constexpr std::size_t kSteady = 8;
    const std::uint64_t before = AllocProbe::newCount();
    for (std::size_t q = 0; q < kSteady; ++q)
        ctl.quantum(st, acc);
    const std::uint64_t after = AllocProbe::newCount();
    return (after - before) / kSteady;
}

// ---------------------------------------------------------------------
// Incremental decisions: the real FleetController, A/B vs always-full.

/** Quanta of warm-up excluded from the steady-state decision means
 *  (cold-start fulls and the first anchor updates). */
constexpr std::size_t kAbWarmQuanta = 4;

/** Everything the offline stack needs to build real fleets once. */
struct RealStack
{
    SystemParams params;
    TrainTestSplit split = splitSpecGallery();
    std::vector<AppProfile> services = tailbenchGallery();
    AppProfile lc;
    TrainingTables tables;
    double nodeMaxW = 0.0;

    RealStack()
    {
        calibrateMaxQps(services, params);
        for (const AppProfile &s : services) {
            if (s.name == "masstree")
                lc = s;
        }
        // Test-speed reconstruction budgets: the A/B compares the two
        // decision paths under identical search settings, so the
        // *ratio* is representative while the absolute full-quantum
        // cost stays benchable at 1024 nodes.
        TrainingOptions topts;
        topts.latencyLoads = {0.25, 0.55, 0.85};
        tables = buildTrainingTables(split.train, services, params,
                                     topts);
        nodeMaxW = systemMaxPower(split.test, params);
    }
};

/** One arm of the A/B: a full diurnal fleet run, instrumented. */
struct AbArm
{
    double decisionUs = 0.0; //!< mean per-node decision time, steady
    double phaseUs[telemetry::kNumPhases] = {}; //!< per node-quantum
    double stepUs = 0.0;     //!< mean cluster-quantum wall time
    std::size_t invalidations[telemetry::kNumInvalidationReasons] =
        {}; //!< why full quanta ran (steady records)
    FleetSummary summary;
};

AbArm
runAbArm(const RealStack &stack, std::size_t n, std::size_t quanta,
         bool fastpath)
{
    telemetry::MemorySink sink;
    FleetOptions opts;
    opts.numNodes = n;
    opts.seed = 42;
    opts.scenario.daySeconds =
        static_cast<double>(quanta) * stack.params.timesliceSec;
    opts.scenario.peakWindowStartSec =
        0.375 * opts.scenario.daySeconds;
    opts.scenario.peakWindowEndSec = 0.75 * opts.scenario.daySeconds;
    // The calm diurnal fleet the incremental path targets: replicas
    // ride a moderate wave with light churn, so steady-state quanta
    // dominate and the stability gate earns its keep. The compressed
    // day makes per-quantum load deltas ~2000x a real day's, so the
    // wave stays inside [0.45, 0.80] — at the default [0.15, 0.95]
    // every quantum near the trough or the peak legitimately trips
    // the drift and tail-guard checks, which measures the scenario's
    // aggression, not the fast path.
    opts.scenario.loadTrough = 0.45;
    opts.scenario.loadPeak = 0.80;
    opts.loadScaleMin = 1.0;
    opts.loadScaleMax = 1.0;
    opts.churn.departureProbability = 0.002;
    opts.churn.meanArrivalsPerQuantum =
        0.01 * static_cast<double>(n);
    // Same compression argument for application phases: the sim's
    // unit-test default cycles a job's memory intensity every 7
    // timeslices, i.e. the job changes identity faster than any
    // scheduler — full or incremental — can track it. Real phases
    // span many decision quanta; 28 timeslices keeps drift live (the
    // refresh cadence still has work to do) without reducing the A/B
    // to a profile-oscillator microbenchmark.
    opts.phaseDriftPeriodSec = 28.0 * stack.params.timesliceSec;
    opts.sink = &sink;
    opts.scheduler.sgdBips.maxIterations = 40;
    opts.scheduler.sgdPower.maxIterations = 40;
    opts.scheduler.sgdLatency.maxIterations = 40;
    opts.scheduler.dds.maxIterations = 25;
    opts.scheduler.dds.threads = 4;
    if (!fastpath)
        opts.scheduler.fastPath = false;

    BackfillBinPack backfill;
    FleetController fleet(stack.params, stack.tables, stack.lc,
                          stack.split.test, stack.nodeMaxW, backfill,
                          opts);
    AbArm arm;
    double stepUsSum = 0.0;
    std::size_t steps = 0;
    while (!fleet.done()) {
        const Clock::time_point t0 = Clock::now();
        fleet.stepQuantum();
        const double us =
            std::chrono::duration<double, std::micro>(Clock::now() -
                                                      t0).count();
        if (fleet.nextQuantum() > kAbWarmQuanta) {
            stepUsSum += us;
            ++steps;
        }
    }
    arm.summary = fleet.summary();
    arm.stepUs = steps > 0 ? stepUsSum / static_cast<double>(steps)
                           : 0.0;

    // Mean per-node decision time over the steady records: the
    // scheduler-side phases only (ingest + reconstruct + search +
    // enforce) — profiling and slice execution are driver cost either
    // way.
    std::size_t records = 0;
    for (const telemetry::QuantumRecord &r : sink.records()) {
        if (r.slice < kAbWarmQuanta)
            continue;
        ++records;
        if (r.decisionPath != telemetry::DecisionPath::None &&
            r.decisionPath != telemetry::DecisionPath::FastReuse) {
            ++arm.invalidations[static_cast<std::size_t>(
                r.invalidationReason)];
        }
        for (std::size_t p = 0; p < telemetry::kNumPhases; ++p)
            arm.phaseUs[p] += r.phaseSec[p] * 1e6;
        arm.decisionUs +=
            (r.phase(telemetry::Phase::Ingest) +
             r.phase(telemetry::Phase::Reconstruct) +
             r.phase(telemetry::Phase::Search) +
             r.phase(telemetry::Phase::Enforce)) * 1e6;
    }
    if (records > 0) {
        arm.decisionUs /= static_cast<double>(records);
        for (std::size_t p = 0; p < telemetry::kNumPhases; ++p)
            arm.phaseUs[p] /= static_cast<double>(records);
    }
    return arm;
}

/** One fleet size's A/B outcome. */
struct AbPoint
{
    std::size_t nodes = 0;
    std::size_t quanta = 0;
    AbArm on;  //!< stability gate on (shipped default)
    AbArm off; //!< --no-fastpath always-full baseline
    double decisionSpeedup = 0.0;
    double qosDeltaPts = 0.0;    //!< on - off, percentage points
    double ginstrRelDelta = 0.0; //!< |on/off - 1|
};

AbPoint
measureIncremental(const RealStack &stack, std::size_t n,
                   std::size_t quanta)
{
    AbPoint pt;
    pt.nodes = n;
    pt.quanta = quanta;
    pt.off = runAbArm(stack, n, quanta, /*fastpath=*/false);
    pt.on = runAbArm(stack, n, quanta, /*fastpath=*/true);
    pt.decisionSpeedup = pt.on.decisionUs > 0.0
        ? pt.off.decisionUs / pt.on.decisionUs
        : 0.0;
    pt.qosDeltaPts =
        pt.on.summary.clusterQosPct - pt.off.summary.clusterQosPct;
    pt.ginstrRelDelta = pt.off.summary.totalBatchInstructions > 0.0
        ? std::fabs(pt.on.summary.totalBatchInstructions /
                        pt.off.summary.totalBatchInstructions -
                    1.0)
        : 0.0;
    return pt;
}

/**
 * One arm of the data-gravity A/B: the same calm diurnal fleet, but
 * churn also submits DAG workflows whose tasks publish and consume
 * content-addressed artifacts through the per-node caches. The two
 * arms differ only in dag.localityAware — whether placement sees the
 * per-node resident-byte deltas — so any makespan gap is the gravity
 * term's doing.
 */
FleetSummary
runDagArm(const RealStack &stack, std::size_t n, std::size_t quanta,
          bool aware)
{
    // The fleet_sim --dag configuration: churn hot enough that slots
    // free every few quanta (workflow tasks need somewhere to land)
    // and a scarce rack budget so placement quality matters. Only
    // the scheduler iteration caps differ, to keep the A/B benchable
    // at 256 nodes.
    FleetOptions opts;
    opts.numNodes = n;
    opts.seed = 2026;
    opts.scenario.daySeconds =
        static_cast<double>(quanta) * stack.params.timesliceSec;
    opts.scenario.peakWindowStartSec =
        0.375 * opts.scenario.daySeconds;
    opts.scenario.peakWindowEndSec = 0.75 * opts.scenario.daySeconds;
    opts.rackBudgetFrac = 0.55;
    opts.churn.departureProbability = 0.06;
    opts.churn.meanArrivalsPerQuantum =
        0.5 * static_cast<double>(n);
    opts.scheduler.sgdBips.maxIterations = 40;
    opts.scheduler.sgdPower.maxIterations = 40;
    opts.scheduler.sgdLatency.maxIterations = 40;
    opts.scheduler.dds.maxIterations = 25;
    opts.scheduler.dds.threads = 4;
    opts.dag.enable = true;
    opts.dag.maxLiveWorkflows = 2 * n;
    opts.dag.localityAware = aware;
    opts.churn.meanWorkflowArrivalsPerQuantum =
        0.05 * static_cast<double>(n);

    BackfillBinPack backfill;
    FleetController fleet(stack.params, stack.tables, stack.lc,
                          stack.split.test, stack.nodeMaxW, backfill,
                          opts);
    fleet.run();
    return fleet.summary();
}

/** One fleet size's data-gravity A/B outcome. */
struct DagPoint
{
    std::size_t nodes = 0;
    std::size_t quanta = 0;
    FleetSummary aware;
    FleetSummary blind;
    double makespanRelDelta = 0.0; //!< aware/blind - 1 (neg = win)
    double qosDeltaPts = 0.0;      //!< aware - blind, pct points
    double ginstrRelDelta = 0.0;   //!< aware/blind - 1, signed
};

DagPoint
measureDag(const RealStack &stack, std::size_t n, std::size_t quanta)
{
    DagPoint pt;
    pt.nodes = n;
    pt.quanta = quanta;
    pt.blind = runDagArm(stack, n, quanta, /*aware=*/false);
    pt.aware = runDagArm(stack, n, quanta, /*aware=*/true);
    pt.makespanRelDelta = pt.blind.gmeanMakespanQuanta > 0.0
        ? pt.aware.gmeanMakespanQuanta /
                pt.blind.gmeanMakespanQuanta - 1.0
        : 0.0;
    pt.qosDeltaPts =
        pt.aware.clusterQosPct - pt.blind.clusterQosPct;
    pt.ginstrRelDelta = pt.blind.totalBatchInstructions > 0.0
        ? pt.aware.totalBatchInstructions /
                pt.blind.totalBatchInstructions -
            1.0
        : 0.0;
    return pt;
}

} // namespace

int
main(int argc, char **argv)
{
    const bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;
    std::printf("==============================================="
                "=========================\n");
    std::printf("bench_fleet — controller overhead vs fleet size\n");
    std::printf("serial = pre-rework sequential phases; parallel = "
                "shipped scan/commit\n");
    std::printf("-----------------------------------------------"
                "-------------------------\n");

    const std::vector<AppProfile> jobPool = syntheticPool();
    const BackfillBinPack policy;
    const std::vector<std::size_t> sizes = {16, 64, 256, 1024};
    const std::size_t quanta = smoke ? 12 : 24;
    const std::size_t reps = smoke ? 2 : 3;

    std::vector<CurvePoint> curve;
    for (const std::size_t n : sizes)
        curve.push_back(measure(n, quanta, reps, policy, jobPool));

    const std::vector<std::size_t> widths = {1, 4, 8};
    const bool deterministic =
        deterministicAcrossWidths(256, 8, policy, jobPool, widths);
    const std::uint64_t allocs =
        steadyStateAllocs(256, policy, jobPool);

    // The real-fleet incremental-decisions A/B. Smoke keeps CI fast
    // with the 16-node day; the full run sweeps the ISSUE curve.
    const RealStack stack;
    std::vector<AbPoint> ab;
    if (smoke) {
        ab.push_back(measureIncremental(stack, 16, 40));
    } else {
        ab.push_back(measureIncremental(stack, 16, 40));
        ab.push_back(measureIncremental(stack, 64, 40));
        ab.push_back(measureIncremental(stack, 256, 24));
        ab.push_back(measureIncremental(stack, 1024, 12));
    }
    const AbPoint &gatePt = ab.front();

    // The DAG data-gravity A/B: locality-aware vs blind placement on
    // the same diurnal fleet with churned workflow arrivals.
    std::vector<DagPoint> dagPts;
    if (smoke) {
        dagPts.push_back(measureDag(stack, 16, 40));
    } else {
        dagPts.push_back(measureDag(stack, 16, 40));
        dagPts.push_back(measureDag(stack, 64, 40));
        dagPts.push_back(measureDag(stack, 256, 24));
    }
    const DagPoint &dagGate = dagPts.front();

    std::printf("%8s %14s %14s %9s\n", "nodes", "serial us/q",
                "parallel us/q", "speedup");
    double speedupAt256 = 0.0;
    for (const CurvePoint &pt : curve) {
        std::printf("%8zu %14.1f %14.1f %8.2fx\n", pt.nodes,
                    pt.serial.total(), pt.parallel.total(),
                    pt.speedup);
        if (pt.nodes == 256)
            speedupAt256 = pt.speedup;
    }

    std::printf("\nphase breakdown at N=256 (us/quantum):\n");
    std::printf("%8s", "");
    for (const char *name : kPhaseNames)
        std::printf(" %9s", name);
    std::printf("\n");
    for (const CurvePoint &pt : curve) {
        if (pt.nodes != 256)
            continue;
        std::printf("%8s", "serial");
        for (std::size_t p = 0; p < kNumPhases; ++p)
            std::printf(" %9.1f", pt.serial.us[p]);
        std::printf("\n%8s", "parallel");
        for (std::size_t p = 0; p < kNumPhases; ++p)
            std::printf(" %9.1f", pt.parallel.us[p]);
        std::printf("\n");
    }
    std::printf("\ndeterministic across pool widths 1/4/8: %s\n",
                deterministic ? "yes" : "NO");
    std::printf("steady-state allocations/quantum (N=256): %llu\n",
                static_cast<unsigned long long>(allocs));

    std::printf("\n-----------------------------------------------"
                "-------------------------\n");
    std::printf("incremental decisions — real fleet, diurnal day, "
                "gate vs always-full\n");
    std::printf("%7s %6s %12s %12s %8s %6s %9s %9s\n", "nodes",
                "quanta", "full us/dec", "fast us/dec", "speedup",
                "hit%", "dQoS(pt)", "dGinstr%");
    for (const AbPoint &pt : ab) {
        std::printf("%7zu %6zu %12.1f %12.1f %7.2fx %5.1f%% "
                    "%+9.2f %9.3f\n",
                    pt.nodes, pt.quanta, pt.off.decisionUs,
                    pt.on.decisionUs, pt.decisionSpeedup,
                    100.0 * pt.on.summary.fastPathHitRate,
                    pt.qosDeltaPts, 100.0 * pt.ginstrRelDelta);
    }
    std::printf("\nnode-step wall (us/cluster-quantum) and per-node "
                "decision phases at N=%zu:\n", gatePt.nodes);
    std::printf("%9s %10s", "", "step-wall");
    for (std::size_t p = 0; p < telemetry::kNumPhases; ++p) {
        std::printf(" %11s",
                    telemetry::phaseName(
                        static_cast<telemetry::Phase>(p)));
    }
    std::printf("\n%9s %10.1f", "always", gatePt.off.stepUs);
    for (std::size_t p = 0; p < telemetry::kNumPhases; ++p)
        std::printf(" %11.1f", gatePt.off.phaseUs[p]);
    std::printf("\n%9s %10.1f", "gate", gatePt.on.stepUs);
    for (std::size_t p = 0; p < telemetry::kNumPhases; ++p)
        std::printf(" %11.1f", gatePt.on.phaseUs[p]);
    std::printf("\ninvalidations:");
    for (std::size_t i = 0; i < telemetry::kNumInvalidationReasons;
         ++i) {
        if (gatePt.on.invalidations[i] > 0) {
            std::printf(
                " %s=%zu",
                telemetry::invalidationReasonName(
                    static_cast<telemetry::InvalidationReason>(i)),
                gatePt.on.invalidations[i]);
        }
    }
    std::printf("\ndecision split: full %zu, "
                "fast-reuse %zu of %zu node-quanta\n",
                gatePt.on.summary.fullQuanta,
                gatePt.on.summary.fastPathHits,
                gatePt.on.summary.fullQuanta +
                    gatePt.on.summary.fastPathHits);

    std::printf("\n-----------------------------------------------"
                "-------------------------\n");
    std::printf("dag workflows — data gravity: locality-aware vs "
                "locality-blind placement\n");
    std::printf("%7s %6s %5s %10s %10s %8s %6s %9s %9s %9s\n",
                "nodes", "quanta", "wfs", "gmean(aw)", "gmean(bl)",
                "dMk%", "hit%", "xfer(MB)", "dQoS(pt)", "dGinstr%");
    for (const DagPoint &pt : dagPts) {
        std::printf("%7zu %6zu %5zu %10.2f %10.2f %+7.2f %5.1f%% "
                    "%9.2f %+9.2f %+9.3f\n",
                    pt.nodes, pt.quanta,
                    pt.aware.workflowsCompleted,
                    pt.aware.gmeanMakespanQuanta,
                    pt.blind.gmeanMakespanQuanta,
                    100.0 * pt.makespanRelDelta,
                    100.0 * pt.aware.artifactHitRate,
                    pt.aware.transferBytes / (1024.0 * 1024.0),
                    pt.qosDeltaPts, 100.0 * pt.ginstrRelDelta);
    }

    if (FILE *f = std::fopen("BENCH_fleet.json", "w")) {
        std::fprintf(f,
                     "{\n"
                     "  \"slots_per_node\": %zu,\n"
                     "  \"quanta\": %zu,\n"
                     "  \"placement_policy\": \"%s\",\n"
                     "  \"curve\": [\n",
                     kSlots, quanta, policy.name());
        for (std::size_t i = 0; i < curve.size(); ++i) {
            const CurvePoint &pt = curve[i];
            std::fprintf(f,
                         "    {\"nodes\": %zu, "
                         "\"serial_us_per_quantum\": %.2f, "
                         "\"parallel_us_per_quantum\": %.2f, "
                         "\"speedup\": %.3f}%s\n",
                         pt.nodes, pt.serial.total(),
                         pt.parallel.total(), pt.speedup,
                         i + 1 < curve.size() ? "," : "");
        }
        std::fprintf(f,
                     "  ],\n"
                     "  \"incremental\": [\n");
        for (std::size_t i = 0; i < ab.size(); ++i) {
            const AbPoint &pt = ab[i];
            std::fprintf(
                f,
                "    {\"nodes\": %zu, \"quanta\": %zu, "
                "\"full_us_per_decision\": %.2f, "
                "\"fast_us_per_decision\": %.2f, "
                "\"decision_speedup\": %.3f, "
                "\"fast_path_hit_rate\": %.4f, "
                "\"step_wall_us_on\": %.1f, "
                "\"step_wall_us_off\": %.1f, "
                "\"qos_pct_on\": %.3f, \"qos_pct_off\": %.3f, "
                "\"ginstr_on\": %.1f, \"ginstr_off\": %.1f, "
                "\"ginstr_rel_delta\": %.5f}%s\n",
                pt.nodes, pt.quanta, pt.off.decisionUs,
                pt.on.decisionUs, pt.decisionSpeedup,
                pt.on.summary.fastPathHitRate, pt.on.stepUs,
                pt.off.stepUs, pt.on.summary.clusterQosPct,
                pt.off.summary.clusterQosPct,
                pt.on.summary.totalBatchInstructions,
                pt.off.summary.totalBatchInstructions,
                pt.ginstrRelDelta, i + 1 < ab.size() ? "," : "");
        }
        std::fprintf(f,
                     "  ],\n"
                     "  \"dag\": [\n");
        for (std::size_t i = 0; i < dagPts.size(); ++i) {
            const DagPoint &pt = dagPts[i];
            std::fprintf(
                f,
                "    {\"nodes\": %zu, \"quanta\": %zu, "
                "\"workflows_completed_aware\": %zu, "
                "\"workflows_completed_blind\": %zu, "
                "\"gmean_makespan_aware\": %.4f, "
                "\"gmean_makespan_blind\": %.4f, "
                "\"makespan_rel_delta\": %.5f, "
                "\"artifact_hit_rate_aware\": %.4f, "
                "\"artifact_hit_rate_blind\": %.4f, "
                "\"transfer_bytes_aware\": %.0f, "
                "\"transfer_bytes_blind\": %.0f, "
                "\"qos_delta_pts\": %.3f, "
                "\"ginstr_aware\": %.1f, \"ginstr_blind\": %.1f, "
                "\"ginstr_rel_delta\": %.5f}%s\n",
                pt.nodes, pt.quanta, pt.aware.workflowsCompleted,
                pt.blind.workflowsCompleted,
                pt.aware.gmeanMakespanQuanta,
                pt.blind.gmeanMakespanQuanta, pt.makespanRelDelta,
                pt.aware.artifactHitRate, pt.blind.artifactHitRate,
                pt.aware.transferBytes, pt.blind.transferBytes,
                pt.qosDeltaPts, pt.aware.totalBatchInstructions,
                pt.blind.totalBatchInstructions, pt.ginstrRelDelta,
                i + 1 < dagPts.size() ? "," : "");
        }
        std::fprintf(f,
                     "  ],\n"
                     "  \"speedup_at_256\": %.3f,\n"
                     "  \"decision_speedup\": %.3f,\n"
                     "  \"fast_path_hit_rate\": %.4f,\n"
                     "  \"deterministic_widths\": [1, 4, 8],\n"
                     "  \"deterministic\": %s,\n"
                     "  \"steady_state_allocs_per_quantum\": %llu\n"
                     "}\n",
                     speedupAt256, gatePt.decisionSpeedup,
                     gatePt.on.summary.fastPathHitRate,
                     deterministic ? "true" : "false",
                     static_cast<unsigned long long>(allocs));
        std::fclose(f);
        std::printf("wrote BENCH_fleet.json\n");
    }

    if (smoke) {
        bool ok = true;
        if (speedupAt256 < 3.0) {
            std::printf("SMOKE FAIL: N=256 controller speedup %.2fx "
                        "< 3.0x\n", speedupAt256);
            ok = false;
        }
        if (!deterministic) {
            std::printf("SMOKE FAIL: parallel controller diverges "
                        "across pool widths\n");
            ok = false;
        }
        if (allocs != 0) {
            std::printf("SMOKE FAIL: %llu steady-state allocations "
                        "per quantum (expected 0)\n",
                        static_cast<unsigned long long>(allocs));
            ok = false;
        }
        if (gatePt.decisionSpeedup < 2.5) {
            std::printf("SMOKE FAIL: incremental decision speedup "
                        "%.2fx < 2.5x (N=%zu)\n",
                        gatePt.decisionSpeedup, gatePt.nodes);
            ok = false;
        }
        if (gatePt.on.summary.fastPathHitRate < 0.5) {
            std::printf("SMOKE FAIL: fast-path hit rate %.1f%% < "
                        "50%% on the diurnal day\n",
                        100.0 * gatePt.on.summary.fastPathHitRate);
            ok = false;
        }
        if (std::fabs(gatePt.qosDeltaPts) > 1.0) {
            std::printf("SMOKE FAIL: QoS delta %+.2f points vs "
                        "always-full (|tol| 1.0)\n",
                        gatePt.qosDeltaPts);
            ok = false;
        }
        if (gatePt.ginstrRelDelta > 0.01) {
            std::printf("SMOKE FAIL: batch Ginstr drifts %.2f%% vs "
                        "always-full (tol 1%%)\n",
                        100.0 * gatePt.ginstrRelDelta);
            ok = false;
        }
        if (dagGate.aware.workflowsCompleted == 0) {
            std::printf("SMOKE FAIL: dag A/B completed no "
                        "workflows\n");
            ok = false;
        }
        if (dagGate.makespanRelDelta >= 0.0) {
            std::printf("SMOKE FAIL: locality-aware gmean makespan "
                        "%.2f not below blind %.2f (dag win "
                        "missing)\n",
                        dagGate.aware.gmeanMakespanQuanta,
                        dagGate.blind.gmeanMakespanQuanta);
            ok = false;
        }
        if (std::fabs(dagGate.qosDeltaPts) > 1.0) {
            std::printf("SMOKE FAIL: dag QoS delta %+.2f points vs "
                        "blind (|tol| 1.0)\n", dagGate.qosDeltaPts);
            ok = false;
        }
        // Asymmetric tolerance: the gravity term finishing MORE
        // batch work than blind placement is the win mechanism
        // (fewer slot-quanta burned on transfers); the regression
        // the gate guards against is locality bias starving batch
        // throughput.
        if (dagGate.ginstrRelDelta < -0.01) {
            std::printf("SMOKE FAIL: dag batch Ginstr %.2f%% below "
                        "blind placement (tol -1%%)\n",
                        100.0 * dagGate.ginstrRelDelta);
            ok = false;
        }
        if (ok)
            std::printf("SMOKE PASS\n");
        return ok ? 0 : 1;
    }
    return 0;
}
