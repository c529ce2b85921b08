/**
 * @file
 * Tests for PQ-reconstruction with SGD.
 *
 * The central correctness property: when the rating matrix really is
 * low-rank (generated from known factors), reconstruction recovers
 * held-out entries accurately — the premise CuttleSys's inference
 * rests on (Section V).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#include "cf/sgd.hh"
#include "common/arena.hh"
#include "common/kernels.hh"
#include "common/rng.hh"

namespace cuttlesys {
namespace {

/** Build a random rank-r matrix with positive entries. */
Matrix
lowRankMatrix(std::size_t rows, std::size_t cols, std::size_t rank,
              Rng &rng)
{
    const Matrix a = Matrix::random(rows, rank, rng, 0.2, 1.0);
    const Matrix b = Matrix::random(rank, cols, rng, 0.2, 1.0);
    return a.multiply(b);
}

/**
 * Standard fixture: training rows fully observed, test rows sparsely
 * observed; returns mean relative error on the hidden cells.
 */
double
holdOutError(std::size_t rows, std::size_t cols, std::size_t true_rank,
             std::size_t sparse_rows, std::size_t samples_per_row,
             SgdOptions options, std::uint64_t seed = 7)
{
    Rng rng(seed);
    const Matrix truth = lowRankMatrix(rows, cols, true_rank, rng);

    RatingMatrix ratings(rows, cols);
    for (std::size_t r = 0; r < rows - sparse_rows; ++r)
        for (std::size_t c = 0; c < cols; ++c)
            ratings.set(r, c, truth(r, c));
    for (std::size_t r = rows - sparse_rows; r < rows; ++r) {
        const auto picks =
            rng.sampleWithoutReplacement(cols, samples_per_row);
        for (auto c : picks)
            ratings.set(r, c, truth(r, c));
    }

    const SgdResult result = reconstruct(ratings, options);

    double err_sum = 0.0;
    std::size_t count = 0;
    for (std::size_t r = rows - sparse_rows; r < rows; ++r) {
        for (std::size_t c = 0; c < cols; ++c) {
            if (ratings.observed(r, c))
                continue;
            err_sum += std::abs(result.reconstructed(r, c) -
                                truth(r, c)) / truth(r, c);
            ++count;
        }
    }
    return err_sum / static_cast<double>(count);
}

TEST(SgdTest, RecoversLowRankHoldOut)
{
    SgdOptions options;
    options.rank = 8;
    const double err = holdOutError(20, 40, 4, 4, 8, options);
    EXPECT_LT(err, 0.08) << "mean relative hold-out error";
}

TEST(SgdTest, TwoSamplesPerRowStillInformative)
{
    // The paper's operating point: 2 profiling samples per live job.
    SgdOptions options;
    options.rank = 8;
    const double err = holdOutError(20, 40, 3, 4, 2, options);
    EXPECT_LT(err, 0.25);
}

TEST(SgdTest, MoreSamplesImproveAccuracy)
{
    // Tested on the pure factor path (blending off), since 2- and
    // 12-sample rows would otherwise go through different predictors.
    SgdOptions options;
    options.rank = 8;
    options.rowBlendThreshold = 0;
    const double err2 = holdOutError(20, 40, 4, 4, 2, options);
    const double err12 = holdOutError(20, 40, 4, 4, 12, options);
    EXPECT_LT(err12, err2);
}

TEST(SgdTest, BlendPathBeatsFactorPathOnTinyRows)
{
    // The reason the neighborhood path exists: with 2 observations it
    // should be at least competitive with the factor fold-in.
    SgdOptions factor_only, with_blend;
    factor_only.rank = with_blend.rank = 8;
    factor_only.rowBlendThreshold = 0;
    const double err_factor = holdOutError(20, 40, 4, 4, 2,
                                           factor_only);
    const double err_blend = holdOutError(20, 40, 4, 4, 2,
                                          with_blend);
    EXPECT_LT(err_blend, err_factor + 0.05);
}

TEST(SgdTest, IterationCapTradesAccuracy)
{
    // Section V: fewer iterations, lower overhead, higher inaccuracy.
    SgdOptions few, many;
    few.rank = many.rank = 8;
    few.maxIterations = 2;
    few.convergenceTol = 0.0;
    many.maxIterations = 150;
    const double err_few = holdOutError(20, 40, 4, 4, 8, few);
    const double err_many = holdOutError(20, 40, 4, 4, 8, many);
    EXPECT_LT(err_many, err_few);
}

TEST(SgdTest, ReportsIterationsAndRmse)
{
    Rng rng(3);
    const Matrix truth = lowRankMatrix(10, 12, 3, rng);
    RatingMatrix ratings(10, 12);
    for (std::size_t r = 0; r < 10; ++r)
        for (std::size_t c = 0; c < 12; ++c)
            ratings.set(r, c, truth(r, c));
    SgdOptions options;
    const SgdResult result = reconstruct(ratings, options);
    EXPECT_GE(result.iterations, 1u);
    EXPECT_LE(result.iterations, options.maxIterations);
    EXPECT_LT(result.trainRmse, 0.05);
}

TEST(SgdTest, PredictionsAreNonNegative)
{
    Rng rng(5);
    RatingMatrix ratings(6, 8);
    for (std::size_t c = 0; c < 8; c += 2)
        ratings.set(0, c, rng.uniform(0.1, 1.0));
    ratings.set(1, 0, 0.5);
    const SgdResult result = reconstruct(ratings, {});
    for (std::size_t r = 0; r < 6; ++r)
        for (std::size_t c = 0; c < 8; ++c)
            EXPECT_GE(result.reconstructed(r, c), 0.0);
}

TEST(SgdTest, EmptyMatrixYieldsZeros)
{
    RatingMatrix ratings(4, 5);
    const SgdResult result = reconstruct(ratings, {});
    EXPECT_EQ(result.iterations, 0u);
    for (std::size_t r = 0; r < 4; ++r)
        for (std::size_t c = 0; c < 5; ++c)
            EXPECT_GE(result.reconstructed(r, c), 0.0);
}

TEST(SgdTest, DeterministicForSameSeed)
{
    Rng rng(9);
    const Matrix truth = lowRankMatrix(12, 16, 3, rng);
    RatingMatrix ratings(12, 16);
    for (std::size_t r = 0; r < 11; ++r)
        for (std::size_t c = 0; c < 16; ++c)
            ratings.set(r, c, truth(r, c));
    ratings.set(11, 0, truth(11, 0));
    ratings.set(11, 15, truth(11, 15));

    const SgdResult a = reconstruct(ratings, {});
    const SgdResult b = reconstruct(ratings, {});
    EXPECT_NEAR(a.reconstructed.subtract(b.reconstructed).maxAbs(),
                0.0, 1e-12);
}

TEST(SgdTest, LogTransformHandlesWideDynamicRange)
{
    // Tail-latency-like data: rows spanning 1e-3 .. 1e+1.
    Rng rng(11);
    const std::size_t rows = 12, cols = 24;
    Matrix truth(rows, cols);
    for (std::size_t r = 0; r < rows; ++r) {
        const double base = std::pow(10.0, rng.uniform(-3.0, 0.0));
        for (std::size_t c = 0; c < cols; ++c) {
            truth(r, c) = base * std::exp(
                2.5 * static_cast<double>(c) / cols +
                0.1 * rng.uniform());
        }
    }
    RatingMatrix ratings(rows, cols);
    for (std::size_t r = 0; r + 1 < rows; ++r)
        for (std::size_t c = 0; c < cols; ++c)
            ratings.set(r, c, truth(r, c));
    for (std::size_t c = 0; c < cols; c += 6)
        ratings.set(rows - 1, c, truth(rows - 1, c));

    SgdOptions log_opts;
    log_opts.logTransform = true;
    log_opts.rank = 6;
    const SgdResult result = reconstruct(ratings, log_opts);
    double err = 0.0;
    std::size_t n = 0;
    for (std::size_t c = 0; c < cols; ++c) {
        if (ratings.observed(rows - 1, c))
            continue;
        err += std::abs(result.reconstructed(rows - 1, c) -
                        truth(rows - 1, c)) / truth(rows - 1, c);
        ++n;
    }
    EXPECT_LT(err / n, 0.6);
}

TEST(SgdTest, ParallelMatchesSerialAccuracy)
{
    // The parallel variant may trade a small, bounded inaccuracy for
    // speed (the paper's Hogwild loses ~1%, Section V; our stratified
    // schedule reorders updates but must stay in the same band).
    SgdOptions serial, parallel;
    serial.rank = parallel.rank = 8;
    parallel.threads = 4;
    const double err_serial = holdOutError(24, 48, 4, 4, 10, serial);
    const double err_parallel =
        holdOutError(24, 48, 4, 4, 10, parallel);
    EXPECT_LT(err_parallel, err_serial + 0.05);
}

TEST(SgdTest, ParallelIsBitwiseDeterministic)
{
    // The stratified schedule partitions each epoch into disjoint
    // row/column strata, so two same-seed runs must agree bitwise —
    // this is what keeps the decision loop replayable
    // (examples/replay_check).
    Rng rng(31);
    const Matrix truth = lowRankMatrix(24, 48, 4, rng);
    RatingMatrix ratings(24, 48);
    for (std::size_t r = 0; r < 24; ++r)
        for (std::size_t c = 0; c < 48; ++c)
            if (rng.uniform(0.0, 1.0) < 0.6)
                ratings.set(r, c, truth(r, c));
    SgdOptions options;
    options.rank = 8;
    options.threads = 4;
    const SgdResult a = reconstruct(ratings, options);
    const SgdResult b = reconstruct(ratings, options);
    ASSERT_EQ(a.iterations, b.iterations);
    for (std::size_t r = 0; r < 24; ++r)
        for (std::size_t c = 0; c < 48; ++c)
            ASSERT_EQ(a.reconstructed(r, c), b.reconstructed(r, c))
                << "cell (" << r << ", " << c << ")";
}

TEST(SgdTest, SvdWarmStartConvergesFaster)
{
    SgdOptions cold, warm;
    cold.rank = warm.rank = 8;
    cold.convergenceTol = warm.convergenceTol = 1e-3;
    warm.svdWarmStart = true;

    Rng rng(13);
    const Matrix truth = lowRankMatrix(16, 30, 4, rng);
    RatingMatrix ratings(16, 30);
    for (std::size_t r = 0; r < 14; ++r)
        for (std::size_t c = 0; c < 30; ++c)
            ratings.set(r, c, truth(r, c));
    for (std::size_t c = 0; c < 30; c += 4) {
        ratings.set(14, c, truth(14, c));
        ratings.set(15, c, truth(15, c));
    }

    const SgdResult cold_result = reconstruct(ratings, cold);
    const SgdResult warm_result = reconstruct(ratings, warm);
    EXPECT_LE(warm_result.iterations, cold_result.iterations + 5);
    EXPECT_LT(warm_result.trainRmse, 0.1);
}

/** Learning-space value of a raw rating (mirrors sgd.cc). */
double
toLearning(double v, bool log_transform)
{
    return log_transform ? std::log1p(std::max(v, 0.0) / 1e-4) : v;
}

/** Per-row normalization scale (mirrors sgd.cc's gatherSamples). */
double
rowScale(const RatingMatrix &ratings, std::size_t r, bool log_transform)
{
    double sum = 0.0;
    std::size_t n = 0;
    for (std::size_t c = 0; c < ratings.cols(); ++c) {
        if (ratings.observed(r, c)) {
            sum += std::abs(toLearning(ratings.value(r, c),
                                       log_transform));
            ++n;
        }
    }
    if (n == 0)
        return 1.0;
    const double mean = sum / static_cast<double>(n);
    return mean > 1e-12 ? mean : 1.0;
}

/**
 * The fold-in as a straightforward per-row refit: every observed row
 * builds its own normal matrix and solves it from scratch.
 */
void
referenceFoldIn(const RatingMatrix &ratings, const SgdOptions &options,
                SgdFactors &f)
{
    const std::size_t rank = f.rank;
    std::vector<double> a(rank * rank), b(rank);
    std::vector<std::size_t> pivots(rank);
    for (std::size_t r = 0; r < ratings.rows(); ++r) {
        if (ratings.observedInRow(r) == 0)
            continue;
        const double scale = rowScale(ratings, r, options.logTransform);
        std::fill(a.begin(), a.end(), 0.0);
        std::fill(b.begin(), b.end(), 0.0);
        for (std::size_t c = 0; c < ratings.cols(); ++c) {
            if (!ratings.observed(r, c))
                continue;
            const double target =
                toLearning(ratings.value(r, c), options.logTransform) /
                scale;
            const double *pc = f.pRow(c);
            for (std::size_t i = 0; i < rank; ++i) {
                b[i] += pc[i] * target;
                for (std::size_t j = 0; j < rank; ++j)
                    a[i * rank + j] += pc[i] * pc[j];
            }
        }
        const double ridge = std::max(options.regularization, 1e-6);
        for (std::size_t i = 0; i < rank; ++i)
            a[i * rank + i] += ridge;
        solveLinearSystemInPlace(a.data(), pivots.data(), b.data(),
                                 rank);
        std::copy(b.begin(), b.end(), f.qRow(r));
    }
}

TEST(SgdTest, SharedFoldInFactorizationIsBitwiseThePerRowRefit)
{
    // Dense rows (the training rows plus one fully observed live
    // row), sparse live rows and empty ones. The SGD phase is the
    // same with and without the fold-in, so the fold-in run must
    // equal the fold-in-free run followed by the per-row refit.
    Rng rng(17);
    const std::size_t rows = 20, cols = 30;
    const Matrix truth = lowRankMatrix(rows, cols, 4, rng);
    RatingMatrix ratings(rows, cols);
    for (std::size_t r = 0; r < rows; ++r) {
        std::size_t samples = 0;
        if (r < 9 || r == 14)
            samples = cols;
        else if (r % 4 != 3)
            samples = 2 + r % 7;
        for (auto c : rng.sampleWithoutReplacement(cols, samples))
            ratings.set(r, c, truth(r, c) * (1.0 + 2.0 * (r % 3)));
    }

    for (std::size_t threads : {1u, 4u}) {
        for (bool log_transform : {false, true}) {
            SgdOptions options;
            options.rank = 7;
            options.threads = threads;
            options.svdWarmStart = true;
            options.logTransform = log_transform;
            options.rowBlendThreshold = 0;
            ScratchArena arena;

            SgdOptions sgd_only = options;
            sgd_only.foldInRows = false;
            SgdFactors want;
            Matrix unused;
            reconstructInto(ratings, sgd_only, nullptr, want, unused, 0,
                            arena);
            referenceFoldIn(ratings, options, want);
            arena.reset();

            SgdFactors got;
            Matrix out;
            reconstructInto(ratings, options, nullptr, got, out, 4,
                            arena);

            SCOPED_TRACE(::testing::Message()
                         << "threads " << threads << " log "
                         << log_transform);
            ASSERT_EQ(got.q.size(), want.q.size());
            ASSERT_EQ(got.p.size(), want.p.size());
            EXPECT_EQ(std::memcmp(got.q.data(), want.q.data(),
                                  want.q.size() * sizeof(double)), 0);
            EXPECT_EQ(std::memcmp(got.p.data(), want.p.data(),
                                  want.p.size() * sizeof(double)), 0);

            ASSERT_EQ(out.rows(), rows - 4);
            for (std::size_t r = 4; r < rows; ++r) {
                const double scale =
                    rowScale(ratings, r, log_transform);
                for (std::size_t c = 0; c < cols; ++c) {
                    const double y = kernels::dot(
                        want.qRow(r), want.pRow(c), want.stride) * scale;
                    const double expect = log_transform
                        ? std::expm1(std::max(y, 0.0)) * 1e-4
                        : std::max(y, 0.0);
                    const double actual = out(r - 4, c);
                    ASSERT_EQ(std::memcmp(&actual, &expect,
                                          sizeof(double)), 0)
                        << "cell (" << r << ", " << c << ")";
                }
            }
        }
    }
}

TEST(SgdTest, RankIsClampedToMatrixSize)
{
    RatingMatrix ratings(3, 4);
    ratings.set(0, 0, 1.0);
    SgdOptions options;
    options.rank = 100; // larger than both dimensions
    EXPECT_NO_THROW(reconstruct(ratings, options));
}

} // namespace
} // namespace cuttlesys
