/**
 * @file
 * Tests for the fast evaluation paths behind DDS: the per-search
 * precomputed tables (PreparedObjective), the O(#changed-dims)
 * incremental evaluator (DeltaEvaluator), and the boundary behavior
 * of the DDS perturbation kernel.
 *
 * The acceptance bar is bit-identity: the optimized paths must return
 * exactly the objective the reference evaluatePoint returns, under
 * soft and hard constraints alike.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/rng.hh"
#include "search/dds.hh"
#include "search_fixture.hh"

namespace cuttlesys {
namespace {

Point
randomPoint(std::size_t jobs, Rng &rng)
{
    Point x(jobs);
    for (auto &v : x) {
        v = static_cast<std::uint16_t>(
            rng.uniformInt(0, static_cast<std::int64_t>(
                                  kNumJobConfigs) - 1));
    }
    return x;
}

void
expectSameMetrics(const PointMetrics &a, const PointMetrics &b)
{
    EXPECT_EQ(a.objective, b.objective);
    EXPECT_EQ(a.gmeanBips, b.gmeanBips);
    EXPECT_EQ(a.powerW, b.powerW);
    EXPECT_EQ(a.cacheWays, b.cacheWays);
    EXPECT_EQ(a.feasible, b.feasible);
}

/**
 * Candidate *screening* values come from incremental accumulator
 * updates, so they may differ from the full re-sum by rounding in the
 * last ulp; anything beyond that is a logic error. (Adopted
 * incumbents and search results are re-anchored exactly and are
 * bit-identical — asserted separately.)
 */
void
expectScreeningMetrics(const PointMetrics &a, const PointMetrics &b)
{
    const double tol =
        1e-12 * std::max(1.0, std::abs(b.objective));
    EXPECT_NEAR(a.objective, b.objective, tol);
    EXPECT_NEAR(a.gmeanBips, b.gmeanBips,
                1e-12 * std::max(1.0, b.gmeanBips));
    EXPECT_NEAR(a.powerW, b.powerW,
                1e-12 * std::max(1.0, b.powerW));
    EXPECT_NEAR(a.cacheWays, b.cacheWays,
                1e-12 * std::max(1.0, b.cacheWays));
    EXPECT_EQ(a.feasible, b.feasible);
}

TEST(PreparedObjectiveTest, BitIdenticalToReferenceEvaluation)
{
    for (const bool hard : {false, true}) {
        SearchFixture f(12, 25.0);
        f.ctx.hardConstraints = hard;
        const PreparedObjective prep(f.ctx);
        Rng rng(23);
        for (int trial = 0; trial < 200; ++trial) {
            const Point x = randomPoint(12, rng);
            expectSameMetrics(prep.evaluate(x),
                              evaluatePoint(x, f.ctx));
        }
    }
}

TEST(DeltaEvaluatorTest, MatchesReferenceOnRandomPerturbations)
{
    // Walk a long random perturbation sequence, occasionally adopting
    // the candidate; every screened candidate must match the
    // reference exactly (the paths sum identical cached terms in
    // identical order).
    for (const bool hard : {false, true}) {
        SearchFixture f(16, 30.0);
        f.ctx.hardConstraints = hard;
        const PreparedObjective prep(f.ctx);
        DeltaEvaluator delta(prep);

        Rng rng(31);
        Point incumbent = randomPoint(16, rng);
        delta.setIncumbent(incumbent);
        expectSameMetrics(delta.incumbentMetrics(),
                          evaluatePoint(incumbent, f.ctx));

        for (int step = 0; step < 500; ++step) {
            Point x = incumbent;
            const auto nchanged = static_cast<std::size_t>(
                rng.uniformInt(1, 4));
            const std::vector<std::size_t> changed =
                rng.sampleWithoutReplacement(16, nchanged);
            for (std::size_t d : changed) {
                x[d] = static_cast<std::uint16_t>(rng.uniformInt(
                    0, static_cast<std::int64_t>(kNumJobConfigs) - 1));
            }
            expectScreeningMetrics(delta.evaluateCandidate(x, changed),
                                   evaluatePoint(x, f.ctx));
            if (rng.bernoulli(0.3)) {
                incumbent = x;
                delta.setIncumbent(incumbent);
                // Adopted incumbents are re-anchored exactly.
                expectSameMetrics(delta.incumbentMetrics(),
                                  evaluatePoint(incumbent, f.ctx));
            }
        }
    }
}

TEST(DeltaEvaluatorTest, ChangedListMayIncludeUnchangedDims)
{
    // makeCandidate reports every *selected* dimension, including ones
    // the perturbation happened to round back to the incumbent value;
    // the evaluator must handle from == to entries.
    SearchFixture f(8, 25.0);
    const PreparedObjective prep(f.ctx);
    DeltaEvaluator delta(prep);
    Rng rng(37);
    const Point incumbent = randomPoint(8, rng);
    delta.setIncumbent(incumbent);
    const std::vector<std::size_t> changed = {0, 3, 5};
    expectSameMetrics(delta.evaluateCandidate(incumbent, changed),
                      evaluatePoint(incumbent, f.ctx));
}

TEST(DdsDeltaTest, SerialSearchIdenticalWithAndWithoutDelta)
{
    for (const bool hard : {false, true}) {
        SearchFixture f(16, 40.0);
        f.ctx.hardConstraints = hard;
        DdsOptions with, without;
        with.useDeltaEval = true;
        without.useDeltaEval = false;
        const SearchResult a = serialDds(f.ctx, with);
        const SearchResult b = serialDds(f.ctx, without);
        EXPECT_EQ(a.best, b.best) << "hard=" << hard;
        EXPECT_EQ(a.metrics.objective, b.metrics.objective);
        EXPECT_EQ(a.evaluations, b.evaluations);
    }
}

TEST(DdsDeltaTest, ParallelSearchIdenticalWithAndWithoutDelta)
{
    for (const bool hard : {false, true}) {
        SearchFixture f(16, 40.0);
        f.ctx.hardConstraints = hard;
        DdsOptions with, without;
        with.threads = without.threads = 4;
        with.useDeltaEval = true;
        without.useDeltaEval = false;
        const SearchResult a = parallelDds(f.ctx, with);
        const SearchResult b = parallelDds(f.ctx, without);
        EXPECT_EQ(a.best, b.best) << "hard=" << hard;
        EXPECT_EQ(a.metrics.objective, b.metrics.objective);
        EXPECT_EQ(a.evaluations, b.evaluations);
    }
}

TEST(PerturbDimTest, RoundNonNegativeMatchesLround)
{
    // A dense grid over the configuration domain and past it, every
    // exact .5 tie, the neighbours of each tie, and the largest double
    // below 0.5 (which floor(v + 0.5) would round up).
    std::vector<double> values = {0.0, 0.49999999999999994, 0.5,
                                  std::nextafter(0.5, 1.0),
                                  4503599627370495.5};
    for (int i = 0; i <= 400000; ++i)
        values.push_back(static_cast<double>(i) * 1e-3);
    for (int i = 0; i < 2 * static_cast<int>(kNumJobConfigs) + 8; ++i) {
        const double tie = static_cast<double>(i) + 0.5;
        values.push_back(tie);
        values.push_back(std::nextafter(tie, 0.0));
        values.push_back(std::nextafter(tie, 1e9));
    }
    for (double v : values) {
        ASSERT_EQ(detail::roundNonNegative(v), std::lround(v))
            << "v = " << v;
    }
}

TEST(PerturbDimTest, StaysInDomain)
{
    Rng rng(41);
    for (int trial = 0; trial < 20000; ++trial) {
        const auto start = static_cast<std::uint16_t>(
            rng.uniformInt(0, static_cast<std::int64_t>(
                                  kNumJobConfigs) - 1));
        const std::uint16_t v =
            detail::perturbDim(start, 0.4, kNumJobConfigs, rng);
        EXPECT_LT(v, kNumJobConfigs);
    }
}

TEST(PerturbDimTest, NoPileUpAtTheTopConfiguration)
{
    // Reflecting about n instead of n-1 let every draw landing in
    // [n-1, n) clamp onto the top configuration, roughly doubling its
    // mass relative to its neighbor. With the correct reflection
    // about n-1 the two top bins of a symmetric start should draw
    // nearly equal mass (the distribution is symmetric about the
    // midpoint when the start is the midpoint).
    Rng rng(43);
    const std::size_t n = kNumJobConfigs;
    const auto mid = static_cast<std::uint16_t>((n - 1) / 2);
    std::vector<std::size_t> hist(n, 0);
    const int trials = 400000;
    for (int trial = 0; trial < trials; ++trial)
        ++hist[detail::perturbDim(mid, 0.3, n, rng)];

    // Top bin vs the bin next to it: under the buggy reflection the
    // ratio sits near 2; correct reflection keeps them within noise
    // of each other. (The top bin covers half a unit less of the real
    // line than interior bins, so it should if anything be smaller.)
    const double top = static_cast<double>(hist[n - 1]);
    const double next = static_cast<double>(hist[n - 2]);
    ASSERT_GT(next, 0.0);
    EXPECT_LT(top / next, 1.3);

    // Mirror check at the bottom (reflection about 0 was always
    // correct; the bins should behave the same way).
    const double bottom = static_cast<double>(hist[0]);
    const double second = static_cast<double>(hist[1]);
    ASSERT_GT(second, 0.0);
    EXPECT_LT(bottom / second, 1.3);
}

} // namespace
} // namespace cuttlesys
