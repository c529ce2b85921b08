#include "cluster/placement.hh"

#include <algorithm>

#include "common/logging.hh"
#include "common/thread_pool.hh"

namespace cuttlesys {
namespace cluster {

namespace {

/** Nodes scored per parallel block (see ThreadPool::parallelChunks). */
constexpr std::size_t kScoreChunk = 64;

} // namespace

std::size_t
PlacementPolicy::place(const PendingJob &job,
                       const std::vector<NodeView> &nodes) const
{
    (void)job;
    std::size_t best = kNoNode;
    double best_score = 0.0;
    for (std::size_t i = 0; i < nodes.size(); ++i) {
        const NodeView &node = nodes[i];
        if (node.freeSlots == 0)
            continue;
        const double s = score(node);
        if (best == kNoNode || s > best_score) {
            best = node.node;
            best_score = s;
        }
    }
    return best;
}

double
FifoFirstFit::score(const NodeView &node) const
{
    (void)node;
    return 0.0;
}

double
BackfillBinPack::score(const NodeView &node) const
{
    // The one formula, on the one scale (watts of headroom), in the
    // operand order the class comment in placement.hh documents. An
    // unstepped node's view carries measuredPowerW = 0, so headroomW
    // is its full opening budget: no special case, and the
    // penalty/bonus knobs keep their units from the very first
    // quantum.
    return node.headroomW - (node.qosViolated ? qosPenaltyW_ : 0.0) -
        loadPenaltyW_ * node.loadFraction +
        spreadBonusW_ * static_cast<double>(node.freeSlots);
}

bool
PlacementRound::entryBelow(const Entry &a, const Entry &b)
{
    // Max-heap on score; equal scores order by ascending index so the
    // pop sequence reproduces the serial scan's first-strict-argmax
    // tie-breaking exactly.
    if (a.score != b.score)
        return a.score < b.score;
    return a.idx > b.idx;
}

void
PlacementRound::begin(const PlacementPolicy &policy,
                      std::vector<NodeView> &views, ThreadPool &pool)
{
    policy_ = &policy;
    views_ = &views;
    const std::size_t n = views.size();
    scores_.resize(n);
    // Parallel scan: each block writes only its own score range, and
    // every score is a pure function of one immutable view, so the
    // result is independent of worker count and execution order.
    pool.parallelChunks(
        n, kScoreChunk,
        [this, &policy, &views](std::size_t, std::size_t begin,
                                std::size_t end) {
            for (std::size_t i = begin; i < end; ++i) {
                if (views[i].freeSlots > 0)
                    scores_[i] = policy.score(views[i]);
            }
        });
    // Ordered commit structure, built single-threaded: entries land
    // in index order, then a bottom-up Floyd heapify. The pop
    // sequence of a binary heap under a strict total order (score
    // ties break on the index, and indices are unique) is the same
    // for every valid heap shape, so the build order cannot leak into
    // the placement choices.
    heap_.clear();
    pos_.assign(n, kNotInHeap);
    for (std::size_t i = 0; i < n; ++i) {
        if (views[i].freeSlots > 0) {
            pos_[i] = heap_.size();
            heap_.push_back(Entry{scores_[i], i});
        }
    }
    for (std::size_t i = heap_.size() / 2; i-- > 0;)
        siftDown(i);
}

void
PlacementRound::siftDown(std::size_t i)
{
    const std::size_t n = heap_.size();
    Entry moved = heap_[i];
    for (;;) {
        std::size_t child = 2 * i + 1;
        if (child >= n)
            break;
        if (child + 1 < n &&
            entryBelow(heap_[child], heap_[child + 1])) {
            ++child;
        }
        if (!entryBelow(moved, heap_[child]))
            break;
        heap_[i] = heap_[child];
        pos_[heap_[i].idx] = i;
        i = child;
    }
    heap_[i] = moved;
    pos_[moved.idx] = i;
}

void
PlacementRound::siftUp(std::size_t i)
{
    Entry moved = heap_[i];
    while (i > 0) {
        const std::size_t parent = (i - 1) / 2;
        if (!entryBelow(heap_[parent], moved))
            break;
        heap_[i] = heap_[parent];
        pos_[heap_[i].idx] = i;
        i = parent;
    }
    heap_[i] = moved;
    pos_[moved.idx] = i;
}

void
PlacementRound::removeAt(std::size_t i)
{
    pos_[heap_[i].idx] = kNotInHeap;
    const Entry moved = heap_.back();
    heap_.pop_back();
    if (i >= heap_.size())
        return;
    heap_[i] = moved;
    pos_[moved.idx] = i;
    siftDown(i);
    siftUp(pos_[moved.idx]);
}

std::size_t
PlacementRound::placeOne()
{
    CS_ASSERT(views_ != nullptr, "placeOne() before begin()");
    if (heap_.empty())
        return PlacementPolicy::kNoNode;
    const Entry top = heap_.front();
    NodeView &view = (*views_)[top.idx];
    // A popped node must have a vacancy: placeOne() removes nodes the
    // moment their last slot books, and external bookings must come
    // through refresh(). Tripping here means a caller mutated a view
    // behind the round's back.
    CS_ASSERT(view.freeSlots > 0, "placement heap booked a full node");
    --view.freeSlots;
    ++view.occupiedSlots;
    // The booking only changes this node's score, so re-scoring it in
    // place and sifting down keeps every heap entry fresh — and a
    // node at zero vacancies is removed outright, so it cannot
    // re-enter with any score, stale or fresh, until refresh()
    // reports a new vacancy.
    if (view.freeSlots > 0) {
        const double s = policy_->score(view);
        scores_[top.idx] = s; // keep the flat scan fresh (placeBest)
        heap_.front() = Entry{s, top.idx};
        siftDown(0);
    } else {
        removeAt(0);
    }
    return view.node;
}

std::size_t
PlacementRound::placeBest(const double *delta)
{
    CS_ASSERT(views_ != nullptr, "placeBest() before begin()");
    CS_ASSERT(delta != nullptr, "placeBest() without deltas");
    // Flat scan over the cached base scores plus the job's per-node
    // delta: the exact serial-oracle order (score desc, index asc by
    // first-strict-argmax), so the data-gravity path keeps the same
    // bitwise contract the heap path has. The cached scores are
    // trustworthy because every booking — placeOne, placeBest,
    // refresh — re-scores the node it touched.
    const std::vector<NodeView> &views = *views_;
    std::size_t best = PlacementPolicy::kNoNode;
    double bestScore = 0.0;
    for (std::size_t i = 0; i < views.size(); ++i) {
        if (views[i].freeSlots == 0)
            continue;
        const double s = scores_[i] + delta[i];
        if (best == PlacementPolicy::kNoNode || s > bestScore) {
            best = i;
            bestScore = s;
        }
    }
    if (best == PlacementPolicy::kNoNode)
        return PlacementPolicy::kNoNode;
    NodeView &view = (*views_)[best];
    --view.freeSlots;
    ++view.occupiedSlots;
    refresh(best); // re-score; removes the node when it filled up
    return view.node;
}

void
PlacementRound::refresh(std::size_t idx)
{
    CS_ASSERT(views_ != nullptr, "refresh() before begin()");
    CS_ASSERT(idx < views_->size(), "refresh() of a bad node index");
    const NodeView &view = (*views_)[idx];
    const std::size_t p = pos_[idx];
    if (view.freeSlots == 0) {
        if (p != kNotInHeap)
            removeAt(p);
        return;
    }
    const double s = policy_->score(view);
    scores_[idx] = s;
    if (p == kNotInHeap) {
        pos_[idx] = heap_.size();
        heap_.push_back(Entry{s, idx});
        siftUp(heap_.size() - 1);
    } else {
        heap_[p].score = s;
        siftDown(p);
        siftUp(pos_[idx]);
    }
}

} // namespace cluster
} // namespace cuttlesys
