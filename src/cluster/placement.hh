/**
 * @file
 * Cluster placement policies: which node an arriving batch job lands
 * on.
 *
 * The controller keeps arriving jobs in a pending queue — ordered by
 * the fair-share priority of cluster/accounting.hh, which degenerates
 * to FIFO for a single uniform tenant — and asks the policy for a
 * node once per job per quantum; a job the policy cannot place waits
 * in the queue (counted as a placement stall) and is retried next
 * quantum. Two policies ship:
 *
 *  - FifoFirstFit: the classic Slurm sched/builtin behavior — walk
 *    the nodes in index order and take the first one with a vacant
 *    batch slot. Ignores node state entirely, so under heterogeneous
 *    per-node load it piles arrivals onto the lowest-indexed nodes.
 *  - BackfillBinPack: Slurm-backfill-inspired scoring — among nodes
 *    with vacant slots, pick the one with the most predicted power
 *    headroom (budget minus last measured draw), penalizing nodes
 *    whose last quantum violated QoS, steering away from replicas
 *    near their diurnal load peak (batch colocated with a peaking LC
 *    replica both hurts that replica's QoS and runs gated), and
 *    lightly preferring emptier nodes. With phase-staggered replicas
 *    this lets the cluster "surf" the day: arrivals land on whichever
 *    replicas are currently in their trough — a signal an index-blind
 *    first fit cannot use.
 *
 * Policies are deterministic: ties break toward the lowest node
 * index, and no RNG is involved. Both are expressed as a per-node
 * score() that depends only on the node's view — never on the job —
 * which is what lets PlacementRound score all N nodes in parallel
 * once per quantum and then commit the whole arrival queue through a
 * heap in O(jobs x log N), instead of the serial O(jobs x N) rescan
 * place() performs. The two paths are bitwise-equivalent: the round
 * computes the same doubles and breaks ties the same way, a property
 * the placement tests assert up to 1024 nodes.
 */

#ifndef CUTTLESYS_CLUSTER_PLACEMENT_HH
#define CUTTLESYS_CLUSTER_PLACEMENT_HH

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "apps/app_profile.hh"
#include "cluster/accounting.hh"
#include "cluster/node.hh"

namespace cuttlesys {

class ThreadPool;

namespace cluster {

/** One batch job waiting in the cluster arrival queue. */
struct PendingJob
{
    AppProfile profile;
    std::size_t submitSlice = 0; //!< quantum the job arrived in
                                 //!< (preserved across preemption, so
                                 //!< a re-queued victim keeps its
                                 //!< accrued age)
    std::int32_t account = 0;    //!< tenant identity (ledger index)
    QosClass qosClass = QosClass::Batch;
    /** Global submission sequence number: the deterministic
     *  tie-breaker of the priority order (priority desc, seq asc). */
    std::uint32_t arrivalSeq = 0;
    /** DAG identity: the live workflow slot and task index of a
     *  released workflow task, or -1 for plain churned jobs. DAG
     *  entries ride the same queue and priority order but occupy
     *  reserved capacity (never the churn admission cap) and — when
     *  they carry inputs — commit through the data-gravity path. */
    std::int32_t wfSlot = -1;
    std::int16_t wfTask = -1;
};

/** Strategy interface: pick a node for one pending job. */
class PlacementPolicy
{
  public:
    virtual ~PlacementPolicy() = default;

    /** Sentinel for "no node can take the job this quantum". */
    static constexpr std::size_t kNoNode = static_cast<std::size_t>(-1);

    virtual const char *name() const = 0;

    /**
     * Desirability of placing the next job on @p node. Only consulted
     * for nodes with a vacant slot. A pure function of the view — in
     * particular job-agnostic — so PlacementRound may evaluate it
     * from any worker in any order and cache it across the queue.
     */
    virtual double score(const NodeView &node) const = 0;

    /**
     * Serial reference placement: scan the views in index order and
     * take the first strict argmax of score() among nodes with a
     * vacant slot (ties therefore break toward the lowest index), or
     * kNoNode when every slot is taken. @p job is carried for
     * interface symmetry; scores do not depend on it.
     *
     * PlacementRound commits the same choices without the per-job
     * rescan; this scan stays as the O(N) oracle the property tests
     * and the controller benchmark baseline compare against.
     */
    std::size_t place(const PendingJob &job,
                      const std::vector<NodeView> &nodes) const;
};

/** First node (by index) with a vacant slot. */
class FifoFirstFit final : public PlacementPolicy
{
  public:
    const char *name() const override { return "fifo-first-fit"; }

    /** Every vacant node ties at 0; lowest index wins = first fit. */
    double score(const NodeView &node) const override;
};

/**
 * Headroom-scored backfill (see file header).
 *
 * The score is a single formula on a single scale — watts of power
 * headroom (the one documented here; score() implements it verbatim):
 *
 *   score(v) = headroomW(v)
 *            - qos_penalty_w  * [v violated QoS last quantum]
 *            - load_penalty_w * loadFraction(v)
 *            + spread_bonus_w * freeSlots(v)
 *
 * headroomW is budgetW - measuredPowerW; a node that has not stepped
 * yet reports measuredPowerW = 0, so it scores its full opening
 * budget as headroom. (An earlier revision zeroed unstepped headroom,
 * which silently demoted the knobs from watts to unitless "points"
 * for the whole first quantum — the comparison tables in
 * EXPERIMENTS.md are regenerated against this normalized formula.)
 *
 * The score is job-agnostic. The one job-dependent placement signal,
 * data gravity (resident DAG task inputs), enters as the per-node
 * delta the fleet hands PlacementRound::placeBest(), never through
 * the cached score().
 */
class BackfillBinPack final : public PlacementPolicy
{
  public:
    /**
     * All knobs are in watts of headroom at their reference point, so
     * they trade off against each other directly:
     * @param qos_penalty_w headroom a QoS-violating node forfeits
     * @param load_penalty_w headroom forfeited at full offered LC
     *        load (scales linearly with the load fraction), steering
     *        arrivals toward replicas in their diurnal trough
     * @param spread_bonus_w headroom credited per vacant slot,
     *        nudging the pack toward emptier nodes when headrooms tie
     */
    explicit BackfillBinPack(double qos_penalty_w = 15.0,
                             double load_penalty_w = 80.0,
                             double spread_bonus_w = 0.5)
        : qosPenaltyW_(qos_penalty_w), loadPenaltyW_(load_penalty_w),
          spreadBonusW_(spread_bonus_w)
    {
    }

    const char *name() const override { return "backfill-binpack"; }

    double score(const NodeView &node) const override;

  private:
    double qosPenaltyW_;
    double loadPenaltyW_;
    double spreadBonusW_;
};

/**
 * One quantum's placement pass: parallel scan, ordered commit.
 *
 * begin() scores every node once, block-parallel over fixed-size
 * chunks (bitwise deterministic at any pool width — each score is a
 * pure function of one view), then builds a max-heap of the vacant
 * nodes. placeOne() pops the argmax, books the slot in the caller's
 * view (so no slot is ever double-booked within the quantum),
 * re-scores just the booked node in place while it still has
 * vacancies, and removes it the moment it reaches zero — a full node
 * can never re-enter the heap, with a stale score or otherwise.
 *
 * Views mutated *outside* placeOne() — the fleet's preemption path
 * vacates and re-books slots mid-round — must be reported through
 * refresh(idx): the round tracks every node's heap position, so
 * refresh re-scores, re-inserts, or removes the entry and the heap
 * never carries a score that disagrees with its view. placeOne()
 * asserts the invariant (a popped node must have a vacancy), so an
 * unreported external booking fails loudly instead of double-booking.
 *
 * The choices are bitwise identical to calling place() per job: same
 * score doubles, same (score desc, index asc) order.
 *
 * All buffers are persistent members that reach their high-water
 * size after the first quantum; steady-state rounds are heap-free.
 */
class PlacementRound
{
  public:
    PlacementRound() = default;

    PlacementRound(const PlacementRound &) = delete;
    PlacementRound &operator=(const PlacementRound &) = delete;

    /**
     * Score @p views (block-parallel on @p pool) and build the commit
     * heap. @p views must outlive the round and stay otherwise
     * untouched until the last placeOne().
     */
    void begin(const PlacementPolicy &policy,
               std::vector<NodeView> &views, ThreadPool &pool);

    /**
     * Commit the next job: the node with the highest score (ties to
     * the lowest index), with its view's freeSlots/occupiedSlots
     * updated, or PlacementPolicy::kNoNode when the fleet is full.
     */
    std::size_t placeOne();

    /**
     * Commit the next job under a per-node score *delta* (the
     * data-gravity path): choose the first strict argmax of
     * score(view) + delta[idx] over the vacant nodes in index order
     * (ties therefore break toward the lowest index, exactly like the
     * serial oracle), book the slot, and re-sync the winner's heap
     * entry. O(N) against placeOne()'s O(log N): the delta reshuffles
     * the order per job, so the cached heap cannot answer it — but
     * the base scores are still the round's cached scan, kept fresh
     * by every placeOne()/placeBest()/refresh() booking, so no score
     * is ever recomputed twice. @p delta must hold one entry per
     * view; kNoNode when the fleet is full.
     */
    std::size_t placeBest(const double *delta);

    /**
     * Re-sync node @p idx after the caller mutated its view outside
     * placeOne() (the fleet's preemption path vacating or re-booking
     * slots mid-round). Re-scores the entry in place, inserts a node
     * that regained a vacancy, or removes one that reached zero —
     * whichever the view now calls for.
     */
    void refresh(std::size_t idx);

    /** Nodes that still have at least one vacant slot. */
    std::size_t vacantNodes() const { return heap_.size(); }

  private:
    /** Heap record: cached score of one vacant node. */
    struct Entry
    {
        double score = 0.0;
        std::size_t idx = 0; //!< position in the views vector
    };

    /** pos_ value for a node not currently in the heap. */
    static constexpr std::size_t kNotInHeap =
        static_cast<std::size_t>(-1);

    static bool entryBelow(const Entry &a, const Entry &b);

    /** Restore the heap property downward from @p i. */
    void siftDown(std::size_t i);
    /** Restore the heap property upward from @p i. */
    void siftUp(std::size_t i);
    /** Remove the entry at heap position @p i. */
    void removeAt(std::size_t i);

    const PlacementPolicy *policy_ = nullptr;
    std::vector<NodeView> *views_ = nullptr;
    std::vector<double> scores_; //!< parallel-scan output, per view
    std::vector<Entry> heap_;    //!< max-heap of vacant nodes
    std::vector<std::size_t> pos_; //!< node idx -> heap position
};

} // namespace cluster
} // namespace cuttlesys

#endif // CUTTLESYS_CLUSTER_PLACEMENT_HH
