/**
 * @file
 * Reconstruction determinism across thread counts and scratch modes.
 *
 * The replay contract (DESIGN.md) requires the SGD reconstruction to
 * produce bit-identical predictions for a fixed seed at any thread
 * count, and predict() and the arena-fed predictInto() to differ
 * only in where transients live, not in a single output bit.
 */

#include <bit>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "cf/engine.hh"
#include "common/arena.hh"
#include "common/rng.hh"

namespace cuttlesys {
namespace {

constexpr std::size_t kTrainingRows = 8;
constexpr std::size_t kJobs = 5;
constexpr std::size_t kCols = 24;

Matrix
makeTraining()
{
    Matrix m(kTrainingRows, kCols);
    Rng rng(321);
    for (std::size_t r = 0; r < kTrainingRows; ++r) {
        for (std::size_t c = 0; c < kCols; ++c) {
            const double size = static_cast<double>(c) / kCols;
            m(r, c) = 0.4 + 2.0 * size + rng.uniform(0.0, 0.6);
        }
    }
    return m;
}

/**
 * Run a three-quantum warm-started reconstruction history at the
 * given thread count and return every quantum's prediction matrix.
 */
std::vector<Matrix>
runHistory(std::size_t threads, bool use_arena)
{
    SgdOptions options;
    options.threads = threads;
    options.maxIterations = 40;
    CfEngine engine(makeTraining(), kJobs, kCols, options);

    Rng rng(55);
    for (std::size_t j = 0; j < kJobs; ++j) {
        engine.observe(j, 0, rng.uniform(0.5, 3.0));
        engine.observe(j, kCols - 1, rng.uniform(0.5, 3.0));
    }

    ScratchArena arena;
    std::vector<Matrix> history;
    Matrix pred;
    for (int quantum = 0; quantum < 3; ++quantum) {
        if (use_arena) {
            arena.reset();
            engine.predictInto(pred, arena);
        } else {
            pred = engine.predict();
        }
        history.push_back(pred);
        // Trickle in a fresh measurement so the next quantum warm
        // starts from changed data, like the runtime does.
        engine.observe(static_cast<std::size_t>(quantum) % kJobs,
                       7 + static_cast<std::size_t>(quantum),
                       rng.uniform(0.5, 3.0));
    }
    return history;
}

void
expectBitIdentical(const std::vector<Matrix> &a,
                   const std::vector<Matrix> &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t q = 0; q < a.size(); ++q) {
        ASSERT_EQ(a[q].rows(), b[q].rows());
        ASSERT_EQ(a[q].cols(), b[q].cols());
        for (std::size_t r = 0; r < a[q].rows(); ++r) {
            for (std::size_t c = 0; c < a[q].cols(); ++c) {
                EXPECT_EQ(std::bit_cast<std::uint64_t>(a[q](r, c)),
                          std::bit_cast<std::uint64_t>(b[q](r, c)))
                    << "quantum " << q << " cell (" << r << ", " << c
                    << ")";
            }
        }
    }
}

TEST(Determinism, PredictionsBitIdenticalAcrossThreadCounts)
{
    const auto baseline = runHistory(1, false);
    for (std::size_t threads : {2, 4, 8})
        expectBitIdentical(runHistory(threads, false), baseline);
}

TEST(Determinism, ArenaPathBitIdenticalToHeapPath)
{
    for (std::size_t threads : {1, 4}) {
        expectBitIdentical(runHistory(threads, true),
                           runHistory(threads, false));
    }
}

TEST(Determinism, ArenaHistoriesAgreeAcrossThreadCounts)
{
    const auto baseline = runHistory(1, true);
    for (std::size_t threads : {2, 8})
        expectBitIdentical(runHistory(threads, true), baseline);
}

} // namespace
} // namespace cuttlesys
