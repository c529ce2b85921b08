/**
 * @file
 * Tests for the DAG-workflow subsystem: spec validation (cycle
 * rejection), content-addressed artifact naming, the frontier-
 * tracking WorkflowEngine, the bounded per-node ArtifactCache, and
 * the composable placement-scoring pipeline.
 *
 * Pure-logic tests — no simulator, no fleet. The fleet-level
 * integration (release -> pending queue -> placement -> completion)
 * is covered in fleet_test.cc.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "cluster/dag/artifact_cache.hh"
#include "cluster/dag/scorer.hh"
#include "cluster/dag/workflow.hh"
#include "cluster/placement.hh"

namespace cuttlesys {
namespace cluster {
namespace dag {
namespace {

constexpr double kMB = 1024.0 * 1024.0;

WorkflowSpec
diamondSpec()
{
    WorkflowSpec spec;
    spec.name = "diamond";
    spec.tasks.push_back({"source", {}, 64.0 * kMB, 3, 0});
    spec.tasks.push_back({"left", {0}, 24.0 * kMB, 4, 0});
    spec.tasks.push_back({"right", {0}, 24.0 * kMB, 4, 0});
    spec.tasks.push_back({"join", {1, 2}, 8.0 * kMB, 2, 0});
    return spec;
}

// ---------------------------------------------------------------------
// Spec validation
// ---------------------------------------------------------------------

TEST(WorkflowSpecTest, StandardTemplatesAreValid)
{
    const std::vector<WorkflowSpec> tpls = standardWorkflowTemplates();
    ASSERT_FALSE(tpls.empty());
    for (const WorkflowSpec &spec : tpls) {
        std::string why;
        EXPECT_TRUE(validateWorkflowSpec(spec, &why))
            << spec.name << ": " << why;
    }
}

TEST(WorkflowSpecTest, RejectsEmptySpec)
{
    WorkflowSpec spec;
    spec.name = "empty";
    EXPECT_FALSE(validateWorkflowSpec(spec));
}

TEST(WorkflowSpecTest, RejectsSelfLoop)
{
    WorkflowSpec spec;
    spec.name = "selfloop";
    spec.tasks.push_back({"a", {0}, kMB, 1, 0});
    std::string why;
    EXPECT_FALSE(validateWorkflowSpec(spec, &why));
    EXPECT_FALSE(why.empty());
}

TEST(WorkflowSpecTest, RejectsOutOfRangeEdge)
{
    WorkflowSpec spec;
    spec.name = "dangling";
    spec.tasks.push_back({"a", {7}, kMB, 1, 0});
    EXPECT_FALSE(validateWorkflowSpec(spec));
}

TEST(WorkflowSpecTest, RejectsCycle)
{
    // a -> b -> c -> a has no topological order; Kahn must reject it.
    WorkflowSpec spec;
    spec.name = "cycle";
    spec.tasks.push_back({"a", {2}, kMB, 1, 0});
    spec.tasks.push_back({"b", {0}, kMB, 1, 0});
    spec.tasks.push_back({"c", {1}, kMB, 1, 0});
    std::string why;
    EXPECT_FALSE(validateWorkflowSpec(spec, &why));
    EXPECT_FALSE(why.empty());
}

TEST(WorkflowSpecTest, AcceptsDagRegardlessOfDeclarationOrder)
{
    // Inputs may name later-declared producers as long as the edge
    // set stays acyclic (the validator sorts topologically; it does
    // not require the declaration order to be one).
    WorkflowSpec spec;
    spec.name = "reversed";
    spec.tasks.push_back({"consumer", {1}, kMB, 1, 0});
    spec.tasks.push_back({"producer", {}, kMB, 1, 0});
    EXPECT_TRUE(validateWorkflowSpec(spec));
}

// ---------------------------------------------------------------------
// Content-addressed artifact identity
// ---------------------------------------------------------------------

TEST(ArtifactIdTest, RootIdsFoldTheInstanceSeed)
{
    const ArtifactId a = artifactIdRoot("wf", "source", 1);
    const ArtifactId b = artifactIdRoot("wf", "source", 2);
    const ArtifactId c = artifactIdRoot("wf", "other", 1);
    const ArtifactId d = artifactIdRoot("wf2", "source", 1);
    EXPECT_NE(a, 0u);
    EXPECT_NE(a, b); // distinct instances, distinct artifacts
    EXPECT_NE(a, c); // distinct tasks, distinct artifacts
    EXPECT_NE(a, d); // distinct templates, distinct artifacts
    EXPECT_EQ(a, artifactIdRoot("wf", "source", 1)); // pure
    // The empty name and a one-character name must not collide.
    EXPECT_NE(artifactIdRoot("", "", 1), artifactIdRoot("a", "", 1));
}

TEST(ArtifactIdTest, DerivedIdsAreContentAddressed)
{
    // The TaskVine rule: the same computation on the same inputs
    // names the same artifact; different inputs (or input order)
    // name different ones.
    const std::vector<ArtifactRef> in1 = {{11, kMB}, {22, kMB}};
    const std::vector<ArtifactRef> in2 = {{22, kMB}, {11, kMB}};
    const std::vector<ArtifactRef> in3 = {{11, kMB}, {33, kMB}};
    const ArtifactId a = artifactIdDerived("join", in1);
    EXPECT_NE(a, 0u);
    EXPECT_EQ(a, artifactIdDerived("join", in1));
    EXPECT_NE(a, artifactIdDerived("join", in2));
    EXPECT_NE(a, artifactIdDerived("join", in3));
    EXPECT_NE(a, artifactIdDerived("other", in1));
}

// The hash helpers under the artifact ids. The suite name dates from
// when the schedule memo cache shared them.
TEST(MemoHashTest, StringHashIsPureAndNameSensitive)
{
    EXPECT_EQ(hashString("masstree"), hashString("masstree"));
    EXPECT_NE(hashString("masstree"), hashString("xapian"));
    EXPECT_NE(hashString(""), hashString("a"));
    // FNV-1a offset basis for the empty string.
    EXPECT_EQ(hashString(""), 14695981039346656037ull);
}

TEST(MemoHashTest, CombineIsPureAndOrderSensitive)
{
    const std::uint64_t a = hashCombine(0, 1);
    EXPECT_EQ(a, hashCombine(0, 1));
    EXPECT_NE(hashCombine(a, 2), hashCombine(a, 3));
    EXPECT_NE(hashCombine(hashCombine(0, 1), 2),
              hashCombine(hashCombine(0, 2), 1));
}

// ---------------------------------------------------------------------
// WorkflowEngine frontier tracking
// ---------------------------------------------------------------------

TEST(WorkflowEngineTest, AdmitReleasesOnlyTheZeroInputFrontier)
{
    WorkflowEngine engine({diamondSpec()}, 4);
    std::vector<WorkflowEngine::ReadyTask> ready;
    const std::size_t wf = engine.admit(0, 99, 0, 5, 1, ready);
    ASSERT_NE(wf, WorkflowEngine::kNoWorkflow);
    ASSERT_EQ(ready.size(), 1u);
    EXPECT_EQ(ready[0].task, 0u); // only "source" has no inputs
    EXPECT_EQ(engine.liveWorkflows(), 1u);
    EXPECT_EQ(engine.taskName(wf, ready[0].task), "source");
}

TEST(WorkflowEngineTest, DiamondReleasesInDependencyOrder)
{
    WorkflowEngine engine({diamondSpec()}, 4);
    std::vector<WorkflowEngine::ReadyTask> ready;
    const std::size_t wf = engine.admit(0, 99, 0, 0, 1, ready);
    ASSERT_NE(wf, WorkflowEngine::kNoWorkflow);
    WorkflowEngine::Completion done;

    // source completes -> left and right release, in task order.
    engine.onTaskPlaced(wf, 0);
    ready.clear();
    EXPECT_FALSE(engine.onTaskCompleted(wf, 0, 3, ready, done));
    ASSERT_EQ(ready.size(), 2u);
    EXPECT_EQ(ready[0].task, 1u);
    EXPECT_EQ(ready[1].task, 2u);

    // left alone is not enough for the join...
    engine.onTaskPlaced(wf, 1);
    engine.onTaskPlaced(wf, 2);
    ready.clear();
    EXPECT_FALSE(engine.onTaskCompleted(wf, 1, 7, ready, done));
    EXPECT_TRUE(ready.empty());

    // ...right completes -> join releases; its completion finishes
    // the workflow and reports the submit -> departure makespan.
    EXPECT_FALSE(engine.onTaskCompleted(wf, 2, 8, ready, done));
    ASSERT_EQ(ready.size(), 1u);
    EXPECT_EQ(ready[0].task, 3u);
    engine.onTaskPlaced(wf, 3);
    ready.clear();
    EXPECT_TRUE(engine.onTaskCompleted(wf, 3, 10, ready, done));
    EXPECT_EQ(done.workflowId, 1u);
    EXPECT_EQ(done.makespanQuanta, 10u);
    EXPECT_EQ(engine.liveWorkflows(), 0u);
    EXPECT_EQ(engine.completed(), 1u);
    EXPECT_EQ(engine.tasksCompleted(), 4u);
}

TEST(WorkflowEngineTest, DerivedInputsMatchProducerOutputs)
{
    WorkflowEngine engine({diamondSpec()}, 4);
    std::vector<WorkflowEngine::ReadyTask> ready;
    const std::size_t wf = engine.admit(0, 99, 0, 0, 1, ready);
    // join's inputs are exactly left's and right's outputs, in input
    // order — the identity chain the per-node caches key on.
    const std::vector<ArtifactRef> &join = engine.taskInputs(wf, 3);
    ASSERT_EQ(join.size(), 2u);
    EXPECT_EQ(join[0].id, engine.taskOutput(wf, 1).id);
    EXPECT_EQ(join[1].id, engine.taskOutput(wf, 2).id);
    EXPECT_DOUBLE_EQ(join[0].bytes, 24.0 * kMB);
    // source has no inputs.
    EXPECT_TRUE(engine.taskInputs(wf, 0).empty());
}

TEST(WorkflowEngineTest, PoolFullDropsTheAdmission)
{
    WorkflowEngine engine({diamondSpec()}, 1);
    std::vector<WorkflowEngine::ReadyTask> ready;
    EXPECT_NE(engine.admit(0, 1, 0, 0, 1, ready),
              WorkflowEngine::kNoWorkflow);
    ready.clear();
    EXPECT_EQ(engine.admit(0, 2, 0, 0, 2, ready),
              WorkflowEngine::kNoWorkflow);
    EXPECT_TRUE(ready.empty()); // nothing released on a drop
    EXPECT_EQ(engine.liveWorkflows(), 1u);
}

TEST(WorkflowEngineTest, PreemptedTaskReleasesAgain)
{
    WorkflowEngine engine({diamondSpec()}, 4);
    std::vector<WorkflowEngine::ReadyTask> ready;
    const std::size_t wf = engine.admit(0, 99, 0, 0, 1, ready);
    engine.onTaskPlaced(wf, 0);
    // Evicted mid-run: the task goes back to Ready and completes on
    // its second placement as if nothing happened.
    engine.onTaskPreempted(wf, 0);
    engine.onTaskPlaced(wf, 0);
    ready.clear();
    WorkflowEngine::Completion done;
    EXPECT_FALSE(engine.onTaskCompleted(wf, 0, 6, ready, done));
    EXPECT_EQ(ready.size(), 2u);
}

TEST(WorkflowEngineTest, DurationDrawsArePureAndBounded)
{
    WorkflowSpec spec;
    spec.name = "jitter";
    spec.tasks.push_back({"work", {}, kMB, 3, 5});
    WorkflowEngine a({spec}, 4), b({spec}, 4);
    std::vector<WorkflowEngine::ReadyTask> ready;
    const std::size_t wa = a.admit(0, 1234, 0, 0, 1, ready);
    ready.clear();
    const std::size_t wb = b.admit(0, 1234, 0, 0, 1, ready);
    // Same instance seed -> same drawn duration, inside [base,
    // base + jitter]; the draw is a counter hash, not an RNG stream.
    EXPECT_EQ(a.durationQuanta(wa, 0), b.durationQuanta(wb, 0));
    EXPECT_GE(a.durationQuanta(wa, 0), 3u);
    EXPECT_LE(a.durationQuanta(wa, 0), 8u);
    EXPECT_EQ(a.taskDrawHash(wa, 0, 0x11),
              b.taskDrawHash(wb, 0, 0x11));
    EXPECT_NE(a.taskDrawHash(wa, 0, 0x11),
              a.taskDrawHash(wa, 0, 0x12));
}

// ---------------------------------------------------------------------
// ArtifactCache: bounded, LRU-by-quantum, deterministic
// ---------------------------------------------------------------------

TEST(ArtifactCacheTest, EvictsLeastRecentlyTouchedFirst)
{
    ArtifactCache cache(3.0 * kMB, 8);
    EXPECT_TRUE(cache.insert(1, kMB, 10));
    EXPECT_TRUE(cache.insert(2, kMB, 11));
    EXPECT_TRUE(cache.insert(3, kMB, 12));
    cache.touch(1, 13); // 2 is now the LRU entry
    EXPECT_TRUE(cache.insert(4, kMB, 14));
    EXPECT_EQ(cache.find(2), nullptr);
    EXPECT_NE(cache.find(1), nullptr);
    EXPECT_NE(cache.find(3), nullptr);
    EXPECT_NE(cache.find(4), nullptr);
    EXPECT_EQ(cache.evictions(), 1u);
}

TEST(ArtifactCacheTest, EvictionTiesBreakOnAscendingId)
{
    // Equal lastTouch quanta: the strict (lastTouch, id) order must
    // pick the lower id, independent of insertion order.
    ArtifactCache cache(2.0 * kMB, 8);
    EXPECT_TRUE(cache.insert(7, kMB, 5));
    EXPECT_TRUE(cache.insert(3, kMB, 5));
    EXPECT_TRUE(cache.insert(9, kMB, 6));
    EXPECT_EQ(cache.find(3), nullptr);
    EXPECT_NE(cache.find(7), nullptr);
}

TEST(ArtifactCacheTest, EntryCapBindsLikeByteCap)
{
    ArtifactCache cache(1024.0 * kMB, 2);
    EXPECT_TRUE(cache.insert(1, kMB, 1));
    EXPECT_TRUE(cache.insert(2, kMB, 2));
    EXPECT_TRUE(cache.insert(3, kMB, 3));
    EXPECT_EQ(cache.size(), 2u);
    EXPECT_EQ(cache.find(1), nullptr);
}

TEST(ArtifactCacheTest, OversizedArtifactIsRefusedWithoutEvicting)
{
    ArtifactCache cache(2.0 * kMB, 8);
    EXPECT_TRUE(cache.insert(1, kMB, 1));
    EXPECT_FALSE(cache.insert(2, 4.0 * kMB, 2));
    EXPECT_NE(cache.find(1), nullptr); // nothing sacrificed
    EXPECT_EQ(cache.evictions(), 0u);
    EXPECT_EQ(cache.find(2), nullptr);
}

TEST(ArtifactCacheTest, ReinsertingResidentIdJustTouches)
{
    ArtifactCache cache(4.0 * kMB, 8);
    EXPECT_TRUE(cache.insert(1, kMB, 1));
    EXPECT_TRUE(cache.insert(1, kMB, 9));
    EXPECT_EQ(cache.size(), 1u);
    EXPECT_EQ(cache.insertions(), 1u);
    EXPECT_EQ(cache.find(1)->lastTouch, 9u);
    EXPECT_DOUBLE_EQ(cache.residentBytes(), kMB);
}

TEST(ArtifactCacheTest, EvictionSequenceReplaysExactly)
{
    // The same insert/touch schedule must produce the same eviction
    // count and resident set every time — the property the fleet's
    // bitwise replay at any pool width rests on (all mutation is
    // serial-merge; this pins the cache's own determinism).
    const auto drive = [](ArtifactCache &c) {
        for (std::uint64_t q = 0; q < 200; ++q) {
            c.insert(1 + (q * 7) % 23, ((q % 5) + 1) * kMB, q);
            if (q % 3 == 0)
                c.touch(1 + (q % 23), q);
        }
    };
    ArtifactCache a(8.0 * kMB, 6), b(8.0 * kMB, 6);
    drive(a);
    drive(b);
    EXPECT_EQ(a.evictions(), b.evictions());
    EXPECT_EQ(a.size(), b.size());
    EXPECT_GT(a.evictions(), 0u);
    for (ArtifactId id = 1; id <= 24; ++id) {
        const ArtifactEntry *ea = a.find(id);
        const ArtifactEntry *eb = b.find(id);
        ASSERT_EQ(ea == nullptr, eb == nullptr) << "id " << id;
        if (ea != nullptr) {
            EXPECT_EQ(ea->lastTouch, eb->lastTouch);
            EXPECT_DOUBLE_EQ(ea->bytes, eb->bytes);
        }
    }
}

// ---------------------------------------------------------------------
// PlacementScorer pipeline
// ---------------------------------------------------------------------

NodeView
someView(double headroom_w, double load, bool qos_violated,
         std::size_t free_slots)
{
    NodeView v;
    v.node = 0;
    v.freeSlots = free_slots;
    v.occupiedSlots = 16 - free_slots;
    v.loadFraction = load;
    v.budgetW = 80.0;
    v.measuredPowerW = 80.0 - headroom_w;
    v.headroomW = headroom_w;
    v.qosViolated = qos_violated;
    v.stepped = true;
    return v;
}

TEST(PlacementScorerTest, BackfillPipelineMatchesLegacyFormulaBitwise)
{
    // The IEEE argument in scorer.hh, checked: the four node terms
    // accumulated left-to-right equal the retired monolithic
    // expression bit for bit on a grid of views.
    const dag::PlacementScorer pipeline =
        dag::PlacementScorer::backfill(15.0, 10.0, 0.5);
    for (int h = -3; h <= 12; ++h) {
        for (int l = 0; l <= 10; ++l) {
            for (int qos = 0; qos <= 1; ++qos) {
                for (std::size_t slots : {0u, 1u, 7u, 16u}) {
                    const NodeView v = someView(
                        static_cast<double>(h) * 7.3,
                        static_cast<double>(l) / 10.0, qos != 0,
                        slots);
                    const double legacy = v.headroomW -
                        (v.qosViolated ? 15.0 : 0.0) -
                        10.0 * v.loadFraction +
                        0.5 * static_cast<double>(v.freeSlots);
                    const double piped = pipeline.score(v);
                    EXPECT_EQ(piped, legacy)
                        << "h=" << h << " l=" << l << " qos=" << qos
                        << " slots=" << slots;
                }
            }
        }
    }
}

TEST(PlacementScorerTest, LocalityDeltaInterpolatesBonusToPenalty)
{
    const dag::PlacementScorer scorer(
        "locality", {{ScoreTermKind::Locality, 24.0},
                     {ScoreTermKind::TransferPenalty, 48.0}});
    EXPECT_TRUE(scorer.hasLocalityTerms());
    EXPECT_DOUBLE_EQ(scorer.localityDelta(1.0), 24.0);
    EXPECT_DOUBLE_EQ(scorer.localityDelta(0.0), -48.0);
    EXPECT_DOUBLE_EQ(scorer.localityDelta(0.5), 0.5 * 24.0 - 24.0);
    // Job terms never leak into the cached node score.
    EXPECT_EQ(scorer.score(someView(10.0, 0.5, false, 4)), 0.0);
}

TEST(PlacementScorerTest, NodeScoreIgnoresJobTerms)
{
    const dag::PlacementScorer plain =
        dag::PlacementScorer::backfill(15.0, 10.0, 0.5);
    const dag::PlacementScorer with_locality =
        dag::PlacementScorer::backfill(15.0, 10.0, 0.5, 24.0, 48.0);
    EXPECT_FALSE(plain.hasLocalityTerms());
    EXPECT_TRUE(with_locality.hasLocalityTerms());
    const NodeView v = someView(33.0, 0.4, true, 3);
    EXPECT_EQ(plain.score(v), with_locality.score(v));
}

} // namespace
} // namespace dag
} // namespace cluster
} // namespace cuttlesys
