/**
 * @file
 * Tests for the cluster placement policies.
 *
 * Pure-logic tests: policies see only NodeView vectors, so no
 * simulator is needed to pin down the selection rules.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "cluster/placement.hh"
#include "common/thread_pool.hh"

namespace cuttlesys {
namespace cluster {
namespace {

NodeView
makeView(std::size_t node, std::size_t free_slots, double headroom_w,
         double load = 0.5, bool qos_violated = false,
         bool stepped = true)
{
    NodeView v;
    v.node = node;
    v.freeSlots = free_slots;
    v.occupiedSlots = 16 - free_slots;
    v.loadFraction = load;
    v.budgetW = 80.0;
    v.measuredPowerW = 80.0 - headroom_w;
    v.headroomW = headroom_w;
    v.qosViolated = qos_violated;
    v.stepped = stepped;
    return v;
}

PendingJob
someJob()
{
    PendingJob job;
    job.profile.name = "churned";
    return job;
}

TEST(FifoFirstFitTest, PicksLowestIndexWithVacancy)
{
    FifoFirstFit fifo;
    const std::vector<NodeView> nodes = {
        makeView(0, 0, 30.0),
        makeView(1, 3, 1.0),
        makeView(2, 8, 50.0),
    };
    EXPECT_EQ(fifo.place(someJob(), nodes), 1u);
}

TEST(FifoFirstFitTest, ReturnsNoNodeWhenClusterFull)
{
    FifoFirstFit fifo;
    const std::vector<NodeView> nodes = {
        makeView(0, 0, 30.0),
        makeView(1, 0, 40.0),
    };
    EXPECT_EQ(fifo.place(someJob(), nodes), PlacementPolicy::kNoNode);
}

TEST(FifoFirstFitTest, IgnoresNodeState)
{
    // First fit is deliberately blind to headroom, load, and QoS.
    FifoFirstFit fifo;
    const std::vector<NodeView> nodes = {
        makeView(0, 1, 0.5, 0.95, true),
        makeView(1, 16, 60.0, 0.1, false),
    };
    EXPECT_EQ(fifo.place(someJob(), nodes), 0u);
}

TEST(BackfillTest, PrefersMostHeadroom)
{
    BackfillBinPack backfill(0.0, 0.0, 0.0);
    const std::vector<NodeView> nodes = {
        makeView(0, 4, 5.0),
        makeView(1, 4, 20.0),
        makeView(2, 4, 10.0),
    };
    EXPECT_EQ(backfill.place(someJob(), nodes), 1u);
}

TEST(BackfillTest, SkipsFullNodesEvenWithBestScore)
{
    BackfillBinPack backfill(0.0, 0.0, 0.0);
    const std::vector<NodeView> nodes = {
        makeView(0, 0, 60.0),
        makeView(1, 2, 10.0),
    };
    EXPECT_EQ(backfill.place(someJob(), nodes), 1u);
}

TEST(BackfillTest, ReturnsNoNodeWhenClusterFull)
{
    BackfillBinPack backfill;
    const std::vector<NodeView> nodes = {
        makeView(0, 0, 60.0),
        makeView(1, 0, 10.0),
    };
    EXPECT_EQ(backfill.place(someJob(), nodes),
              PlacementPolicy::kNoNode);
}

TEST(BackfillTest, QosViolationFlipsTheChoice)
{
    // Node 0 has 10 W more headroom, but a 15 W QoS penalty makes the
    // healthy node 1 win.
    BackfillBinPack backfill(15.0, 0.0, 0.0);
    const std::vector<NodeView> nodes = {
        makeView(0, 4, 20.0, 0.5, /*qos_violated=*/true),
        makeView(1, 4, 10.0, 0.5, /*qos_violated=*/false),
    };
    EXPECT_EQ(backfill.place(someJob(), nodes), 1u);
}

TEST(BackfillTest, SteersTowardTheDiurnalTrough)
{
    // Equal headroom; the load penalty sends the job to the replica
    // currently riding its trough.
    BackfillBinPack backfill(0.0, 40.0, 0.0);
    const std::vector<NodeView> nodes = {
        makeView(0, 4, 15.0, /*load=*/0.9),
        makeView(1, 4, 15.0, /*load=*/0.2),
    };
    EXPECT_EQ(backfill.place(someJob(), nodes), 1u);
}

TEST(BackfillTest, TiesBreakTowardLowestIndex)
{
    BackfillBinPack backfill;
    const std::vector<NodeView> nodes = {
        makeView(0, 4, 15.0),
        makeView(1, 4, 15.0),
        makeView(2, 4, 15.0),
    };
    EXPECT_EQ(backfill.place(someJob(), nodes), 0u);
}

TEST(BackfillTest, UnsteppedNodesScoredByVacancyAndLoad)
{
    // Before the first quantum there is no headroom measurement; the
    // spread bonus prefers the emptier node.
    BackfillBinPack backfill(0.0, 0.0, 1.0);
    const std::vector<NodeView> nodes = {
        makeView(0, 2, 0.0, 0.5, false, /*stepped=*/false),
        makeView(1, 9, 0.0, 0.5, false, /*stepped=*/false),
    };
    EXPECT_EQ(backfill.place(someJob(), nodes), 1u);
}

TEST(BackfillTest, DeterministicAcrossRepeatedCalls)
{
    BackfillBinPack backfill;
    const std::vector<NodeView> nodes = {
        makeView(0, 4, 5.0, 0.8),
        makeView(1, 4, 25.0, 0.3),
        makeView(2, 4, 18.0, 0.2),
    };
    const std::size_t first = backfill.place(someJob(), nodes);
    for (int i = 0; i < 8; ++i)
        EXPECT_EQ(backfill.place(someJob(), nodes), first);
}

TEST(BackfillTest, ScoreIsTheDocumentedFormula)
{
    // The formula in placement.hh, operand for operand, on a grid of
    // views: the frozen fleet replays depend on these exact doubles.
    const BackfillBinPack backfill(15.0, 10.0, 0.5);
    for (int h = -3; h <= 12; ++h) {
        for (int l = 0; l <= 10; ++l) {
            for (int qos = 0; qos <= 1; ++qos) {
                for (std::size_t slots : {0u, 1u, 7u, 16u}) {
                    const NodeView v = makeView(
                        0, slots, static_cast<double>(h) * 7.3,
                        static_cast<double>(l) / 10.0, qos != 0);
                    const double documented = v.headroomW -
                        (v.qosViolated ? 15.0 : 0.0) -
                        10.0 * v.loadFraction +
                        0.5 * static_cast<double>(v.freeSlots);
                    EXPECT_EQ(backfill.score(v), documented)
                        << "h=" << h << " l=" << l << " qos=" << qos
                        << " slots=" << slots;
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// PlacementRound property tests: the parallel-scored, heap-committed
// round must be bitwise-equivalent to the serial per-job rescan and
// must never double-book a slot, for fleets up to 1024 nodes and at
// any pool width.
// ---------------------------------------------------------------------

/** SplitMix64 — deterministic synthetic fleet state from an index. */
std::uint64_t
mixBits(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

std::vector<NodeView>
syntheticFleet(std::size_t n, std::uint64_t seed)
{
    std::vector<NodeView> views;
    views.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        const std::uint64_t h = mixBits(seed ^ i);
        // Includes full nodes (freeSlots 0), repeated headrooms (ties)
        // and unstepped nodes, so every commit-order rule is hit.
        views.push_back(makeView(
            i, h % 5, static_cast<double>((h >> 8) % 16),
            static_cast<double>((h >> 16) % 100) / 100.0,
            /*qos_violated=*/((h >> 24) & 3) == 0,
            /*stepped=*/((h >> 26) & 7) != 0));
    }
    return views;
}

/** Serial oracle: per-job rescan with manual slot bookkeeping. */
std::vector<std::size_t>
serialCommit(const PlacementPolicy &policy, std::vector<NodeView> views,
             std::size_t jobs, std::vector<NodeView> &final_views)
{
    std::vector<std::size_t> choices;
    for (std::size_t j = 0; j < jobs; ++j) {
        const std::size_t target = policy.place(someJob(), views);
        choices.push_back(target);
        if (target != PlacementPolicy::kNoNode) {
            --views[target].freeSlots;
            ++views[target].occupiedSlots;
        }
    }
    final_views = std::move(views);
    return choices;
}

void
expectRoundMatchesSerial(const PlacementPolicy &policy, std::size_t n,
                         std::size_t pool_threads)
{
    ThreadPool pool(pool_threads);
    std::vector<NodeView> serial_views;
    std::vector<NodeView> round_views = syntheticFleet(n, 0xfeedULL + n);
    // More jobs than capacity, so the round drains into kNoNode.
    std::size_t capacity = 0;
    for (const NodeView &v : round_views)
        capacity += v.freeSlots;
    const std::size_t jobs = capacity + 8;

    const std::vector<std::size_t> expect =
        serialCommit(policy, round_views, jobs, serial_views);

    PlacementRound round;
    round.begin(policy, round_views, pool);
    std::vector<std::size_t> booked(n, 0);
    for (std::size_t j = 0; j < jobs; ++j) {
        const std::size_t target = round.placeOne();
        ASSERT_EQ(target, expect[j])
            << policy.name() << " diverged at job " << j << " (n=" << n
            << ", threads=" << pool_threads << ")";
        if (target != PlacementPolicy::kNoNode)
            ++booked[target];
    }
    // No double-booking: bookings never exceed the initial vacancy...
    const std::vector<NodeView> fresh = syntheticFleet(n, 0xfeedULL + n);
    for (std::size_t i = 0; i < n; ++i)
        EXPECT_LE(booked[i], fresh[i].freeSlots) << "node " << i;
    // ...and the committed views match the serial bookkeeping bitwise.
    for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ(round_views[i].freeSlots, serial_views[i].freeSlots);
        EXPECT_EQ(round_views[i].occupiedSlots,
                  serial_views[i].occupiedSlots);
    }
}

TEST(PlacementRoundTest, BackfillMatchesSerialUpTo1024Nodes)
{
    BackfillBinPack backfill;
    for (const std::size_t n : {1u, 3u, 16u, 64u, 257u, 1024u})
        expectRoundMatchesSerial(backfill, n, 4);
}

TEST(PlacementRoundTest, FirstFitMatchesSerialUpTo1024Nodes)
{
    FifoFirstFit fifo;
    for (const std::size_t n : {1u, 3u, 16u, 64u, 257u, 1024u})
        expectRoundMatchesSerial(fifo, n, 4);
}

TEST(PlacementRoundTest, ChoicesIndependentOfPoolWidth)
{
    BackfillBinPack backfill;
    for (const std::size_t threads : {1u, 2u, 8u})
        expectRoundMatchesSerial(backfill, 1024, threads);
}

TEST(PlacementRoundTest, EmptyFleetPlacesNothing)
{
    BackfillBinPack backfill;
    ThreadPool pool(2);
    std::vector<NodeView> views;
    PlacementRound round;
    round.begin(backfill, views, pool);
    EXPECT_EQ(round.vacantNodes(), 0u);
    EXPECT_EQ(round.placeOne(), PlacementPolicy::kNoNode);
}

TEST(PlacementRoundTest, RefreshRemovesNodeBookedToCapacityMidRound)
{
    // Regression: an external actor (the fleet's preemption path, or
    // an operator draining a node) books a node to capacity between
    // placeOne() calls. Before refresh() existed the round would
    // re-push the booked node with its stale score and hand out a
    // slot that wasn't there. After refresh(idx) the node must leave
    // the heap and never be returned until a vacancy reappears.
    BackfillBinPack backfill(0.0, 0.0, 0.0);
    ThreadPool pool(2);
    std::vector<NodeView> views = {
        makeView(0, 2, 50.0), // best score, about to be drained
        makeView(1, 4, 10.0),
        makeView(2, 4, 5.0),
    };
    PlacementRound round;
    round.begin(backfill, views, pool);
    EXPECT_EQ(round.vacantNodes(), 3u);

    // Externally consume node 0's remaining slots, then refresh.
    views[0].freeSlots = 0;
    views[0].occupiedSlots = 16;
    round.refresh(0);
    EXPECT_EQ(round.vacantNodes(), 2u);
    EXPECT_EQ(round.placeOne(), 1u); // next-best, never node 0
    EXPECT_EQ(round.placeOne(), 1u);

    // A vacancy reappears (a departure or preemption eviction):
    // refresh re-enters the node and its fresh score wins again.
    views[0].freeSlots = 1;
    views[0].occupiedSlots = 15;
    round.refresh(0);
    EXPECT_EQ(round.vacantNodes(), 3u);
    EXPECT_EQ(round.placeOne(), 0u);
    // That booking drained it again; the round self-removes it.
    EXPECT_EQ(round.vacantNodes(), 2u);
}

TEST(PlacementRoundTest, RefreshRescoresInPlace)
{
    // A refresh that changes the score without filling the node must
    // reorder the heap, both directions.
    BackfillBinPack backfill(0.0, 0.0, 0.0);
    ThreadPool pool(2);
    std::vector<NodeView> views = {
        makeView(0, 4, 30.0),
        makeView(1, 4, 20.0),
    };
    PlacementRound round;
    round.begin(backfill, views, pool);
    // Demote node 0 below node 1; it must stop winning.
    views[0].measuredPowerW = 75.0;
    views[0].headroomW = 5.0;
    round.refresh(0);
    EXPECT_EQ(round.placeOne(), 1u);
    // Promote it back above; it must win again.
    views[0].measuredPowerW = 20.0;
    views[0].headroomW = 60.0;
    round.refresh(0);
    EXPECT_EQ(round.placeOne(), 0u);
}

/**
 * The preemption-shaped property: placements interleaved with
 * external vacate/refresh events (a victim's slot freed mid-round)
 * must still match the serial per-job rescan over the same mutation
 * schedule, at any pool width, up to 1024 nodes.
 */
void
expectRoundWithEvictionsMatchesSerial(const PlacementPolicy &policy,
                                      std::size_t n,
                                      std::size_t pool_threads)
{
    ThreadPool pool(pool_threads);
    std::vector<NodeView> serial_views = syntheticFleet(n, 0xbeefULL + n);
    std::vector<NodeView> round_views = serial_views;
    std::size_t capacity = 0;
    for (const NodeView &v : round_views)
        capacity += v.freeSlots;
    const std::size_t jobs = capacity + 8;

    // Serial oracle: rescan per job; every 3rd job is preceded by an
    // eviction that vacates one slot of a deterministic node.
    const auto victimFor = [n](std::size_t j) {
        return mixBits(0x7777ULL + j) % n;
    };
    const auto vacate = [](NodeView &v) {
        if (v.occupiedSlots == 0)
            return;
        ++v.freeSlots;
        --v.occupiedSlots;
    };
    std::vector<std::size_t> expect;
    for (std::size_t j = 0; j < jobs; ++j) {
        if (j % 3 == 0)
            vacate(serial_views[victimFor(j)]);
        const std::size_t target = policy.place(someJob(), serial_views);
        expect.push_back(target);
        if (target != PlacementPolicy::kNoNode) {
            --serial_views[target].freeSlots;
            ++serial_views[target].occupiedSlots;
        }
    }

    PlacementRound round;
    round.begin(policy, round_views, pool);
    for (std::size_t j = 0; j < jobs; ++j) {
        if (j % 3 == 0) {
            const std::size_t victim = victimFor(j);
            vacate(round_views[victim]);
            round.refresh(victim);
        }
        ASSERT_EQ(round.placeOne(), expect[j])
            << policy.name() << " diverged at job " << j << " (n=" << n
            << ", threads=" << pool_threads << ")";
    }
    for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ(round_views[i].freeSlots, serial_views[i].freeSlots);
        EXPECT_EQ(round_views[i].occupiedSlots,
                  serial_views[i].occupiedSlots);
    }
}

TEST(PlacementRoundTest, EvictionsMatchSerialUpTo1024Nodes)
{
    BackfillBinPack backfill;
    for (const std::size_t n : {1u, 3u, 16u, 64u, 257u, 1024u})
        expectRoundWithEvictionsMatchesSerial(backfill, n, 4);
}

TEST(PlacementRoundTest, EvictionsIndependentOfPoolWidth)
{
    BackfillBinPack backfill;
    for (const std::size_t threads : {1u, 4u, 8u})
        expectRoundWithEvictionsMatchesSerial(backfill, 1024, threads);
}

TEST(PlacementRoundTest, ReusableAcrossQuanta)
{
    // One round object serves many quanta (persistent buffers); a
    // fresh begin() must fully supersede the previous quantum.
    BackfillBinPack backfill;
    ThreadPool pool(2);
    PlacementRound round;

    std::vector<NodeView> big = syntheticFleet(512, 1);
    round.begin(backfill, big, pool);
    for (int j = 0; j < 100; ++j)
        (void)round.placeOne();

    std::vector<NodeView> small_round = syntheticFleet(8, 2);
    std::vector<NodeView> small_serial;
    const std::vector<std::size_t> expect =
        serialCommit(backfill, small_round, 12, small_serial);
    round.begin(backfill, small_round, pool);
    for (std::size_t j = 0; j < expect.size(); ++j)
        EXPECT_EQ(round.placeOne(), expect[j]);
}

// ---------------------------------------------------------------------
// placeBest: the data-gravity commit. Same contract as placeOne —
// first strict argmax, ties to the lowest index — but over
// score(view) + delta[node], where delta carries the placing job's
// locality terms.
// ---------------------------------------------------------------------

/** Per-(job, node) locality deltas, including ties and zeros. */
std::vector<double>
syntheticDeltas(std::size_t n, std::size_t job, std::uint64_t seed)
{
    std::vector<double> delta(n);
    for (std::size_t i = 0; i < n; ++i) {
        const std::uint64_t h = mixBits(seed ^ (job * 8191 + i));
        // A small signed grid (multiples of 6 in [-48, 24]) so delta
        // frequently creates and breaks score ties.
        delta[i] = static_cast<double>(h % 13) * 6.0 - 48.0;
    }
    return delta;
}

/** Serial oracle for placeBest: fresh scan, manual bookkeeping. */
std::size_t
serialBest(const PlacementPolicy &policy,
           std::vector<NodeView> &views, const std::vector<double> &d)
{
    std::size_t best = PlacementPolicy::kNoNode;
    double bestScore = 0.0;
    for (std::size_t i = 0; i < views.size(); ++i) {
        if (views[i].freeSlots == 0)
            continue;
        const double s = policy.score(views[i]) + d[i];
        if (best == PlacementPolicy::kNoNode || s > bestScore) {
            best = i;
            bestScore = s;
        }
    }
    if (best != PlacementPolicy::kNoNode) {
        --views[best].freeSlots;
        ++views[best].occupiedSlots;
    }
    return best;
}

void
expectPlaceBestMatchesSerial(std::size_t n, std::size_t pool_threads)
{
    BackfillBinPack backfill;
    ThreadPool pool(pool_threads);
    std::vector<NodeView> serial_views = syntheticFleet(n, 0xdadULL + n);
    std::vector<NodeView> round_views = serial_views;
    std::size_t capacity = 0;
    for (const NodeView &v : round_views)
        capacity += v.freeSlots;
    const std::size_t jobs = capacity + 8;

    PlacementRound round;
    round.begin(backfill, round_views, pool);
    for (std::size_t j = 0; j < jobs; ++j) {
        const std::vector<double> delta =
            syntheticDeltas(n, j, 0xabcULL);
        const std::size_t expect =
            serialBest(backfill, serial_views, delta);
        ASSERT_EQ(round.placeBest(delta.data()), expect)
            << "diverged at job " << j << " (n=" << n
            << ", threads=" << pool_threads << ")";
    }
    for (std::size_t i = 0; i < n; ++i)
        EXPECT_EQ(round_views[i].freeSlots, serial_views[i].freeSlots);
}

TEST(PlacementRoundTest, PlaceBestMatchesSerialUpTo1024Nodes)
{
    for (const std::size_t n : {1u, 3u, 16u, 64u, 257u, 1024u})
        expectPlaceBestMatchesSerial(n, 4);
}

TEST(PlacementRoundTest, PlaceBestIndependentOfPoolWidth)
{
    for (const std::size_t threads : {1u, 4u, 8u})
        expectPlaceBestMatchesSerial(1024, threads);
}

TEST(PlacementRoundTest, ZeroDeltaPlaceBestMatchesPlaceOne)
{
    // A job with no inputs (or a locality-blind fleet) hands placeBest
    // an all-zero delta row; the choice sequence must be placeOne's,
    // bit for bit — including its tie-breaking through the heap.
    BackfillBinPack backfill;
    ThreadPool pool(4);
    std::vector<NodeView> heap_views = syntheticFleet(257, 0xbeef);
    std::vector<NodeView> flat_views = heap_views;
    const std::vector<double> zero(257, 0.0);

    PlacementRound heap_round, flat_round;
    heap_round.begin(backfill, heap_views, pool);
    flat_round.begin(backfill, flat_views, pool);
    std::size_t capacity = 0;
    for (const NodeView &v : heap_views)
        capacity += v.freeSlots;
    for (std::size_t j = 0; j < capacity + 8; ++j) {
        ASSERT_EQ(flat_round.placeBest(zero.data()),
                  heap_round.placeOne())
            << "diverged at job " << j;
    }
}

TEST(PlacementRoundTest, PlaceBestInterleavesWithPlaceOne)
{
    // The fleet's commit loop alternates: plain jobs go through the
    // heap (placeOne), dag jobs with inputs through the flat scan
    // (placeBest). Both must keep each other's cached scores fresh.
    BackfillBinPack backfill;
    ThreadPool pool(2);
    std::vector<NodeView> serial_views = syntheticFleet(64, 0x5ca1e);
    std::vector<NodeView> round_views = serial_views;
    const std::vector<double> zero(64, 0.0);

    PlacementRound round;
    round.begin(backfill, round_views, pool);
    for (std::size_t j = 0; j < 96; ++j) {
        if (j % 3 == 1) {
            const std::vector<double> delta =
                syntheticDeltas(64, j, 0x77ULL);
            ASSERT_EQ(round.placeBest(delta.data()),
                      serialBest(backfill, serial_views, delta))
                << "job " << j;
        } else {
            ASSERT_EQ(round.placeOne(),
                      serialBest(backfill, serial_views, zero))
                << "job " << j;
        }
    }
}

} // namespace
} // namespace cluster
} // namespace cuttlesys
