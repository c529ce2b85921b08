/**
 * @file
 * Tests for the cross-quantum warm-start path of the reconstruction:
 * factors returned by one reconstruct() feed the next, the engine
 * caches them, resets only a churned row, starts that row from its
 * fold-in and invalidates them on request, the arena-fed
 * predictInto() matches predict() and reuses buffers, and the
 * subsampled convergence check does not cost accuracy.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "cf/engine.hh"
#include "cf/sgd.hh"
#include "common/arena.hh"
#include "common/rng.hh"

namespace cuttlesys {
namespace {

Matrix
lowRankMatrix(std::size_t rows, std::size_t cols, std::size_t rank,
              Rng &rng)
{
    const Matrix a = Matrix::random(rows, rank, rng, 0.2, 1.0);
    const Matrix b = Matrix::random(rank, cols, rng, 0.2, 1.0);
    return a.multiply(b);
}

RatingMatrix
denseRatings(const Matrix &truth)
{
    RatingMatrix ratings(truth.rows(), truth.cols());
    for (std::size_t r = 0; r < truth.rows(); ++r)
        for (std::size_t c = 0; c < truth.cols(); ++c)
            ratings.set(r, c, truth(r, c));
    return ratings;
}

TEST(WarmStartTest, ReconstructIsDeterministicGivenSameFactors)
{
    Rng rng(51);
    const Matrix truth = lowRankMatrix(14, 20, 4, rng);
    const RatingMatrix ratings = denseRatings(truth);

    SgdOptions options;
    options.rank = 6;
    const SgdResult first = reconstruct(ratings, options);
    ASSERT_FALSE(first.factors.empty());

    const SgdResult a =
        reconstruct(ratings, options, nullptr, &first.factors);
    const SgdResult b =
        reconstruct(ratings, options, nullptr, &first.factors);
    EXPECT_NEAR(a.reconstructed.subtract(b.reconstructed).maxAbs(),
                0.0, 1e-12);
    EXPECT_EQ(a.iterations, b.iterations);
}

TEST(WarmStartTest, WarmStartConvergesInFewerIterations)
{
    // The factors of a converged run are a near-fixed point of SGD on
    // the same data: the warm rerun must stop much earlier.
    Rng rng(53);
    const Matrix truth = lowRankMatrix(16, 24, 4, rng);
    const RatingMatrix ratings = denseRatings(truth);

    SgdOptions options;
    options.rank = 6;
    const SgdResult cold = reconstruct(ratings, options);
    const SgdResult warm =
        reconstruct(ratings, options, nullptr, &cold.factors);
    EXPECT_LT(warm.iterations, cold.iterations);
    EXPECT_LE(warm.trainRmse, cold.trainRmse + 1e-6);
}

TEST(WarmStartTest, MismatchedFactorShapesFallBackToColdStart)
{
    Rng rng(55);
    const Matrix truth = lowRankMatrix(10, 12, 3, rng);
    const RatingMatrix ratings = denseRatings(truth);

    SgdOptions options;
    options.rank = 5;
    SgdFactors wrong;
    wrong.reshape(7, 12, 5);  // wrong row count
    const SgdResult with_wrong =
        reconstruct(ratings, options, nullptr, &wrong);
    const SgdResult cold = reconstruct(ratings, options);
    EXPECT_NEAR(with_wrong.reconstructed
                    .subtract(cold.reconstructed).maxAbs(),
                0.0, 1e-12);
}

TEST(WarmStartTest, EnginePredictUsesCachedFactors)
{
    Rng rng(57);
    const Matrix training = lowRankMatrix(10, 16, 3, rng);
    CfEngine engine(training, 2, 16);
    engine.options().rank = 6;
    engine.observe(0, 2, training(0, 2));
    engine.observe(0, 9, training(0, 9));

    EXPECT_FALSE(engine.hasCachedFactors());
    engine.predict();
    EXPECT_TRUE(engine.hasCachedFactors());
    const std::size_t cold_iters = engine.lastIterations();

    engine.predict();
    EXPECT_LT(engine.lastIterations(), cold_iters);
}

TEST(WarmStartTest, ClearJobResetsOnlyTheChurnedRow)
{
    Rng rng(59);
    const Matrix training = lowRankMatrix(10, 16, 3, rng);
    CfEngine engine(training, 2, 16);
    engine.options().rank = 6; // stride 8: two lanes of padding
    engine.observe(0, 1, training(1, 1));
    engine.observe(1, 4, training(3, 4));
    engine.predict();
    ASSERT_TRUE(engine.lastColdStart());
    const std::size_t cold_iters = engine.lastIterations();
    const SgdFactors before = engine.factors();

    engine.clearJob(0);
    EXPECT_EQ(engine.observationsForJob(0), 0u);
    EXPECT_TRUE(engine.hasCachedFactors());

    // Bitwise: P and every other q row keep their bits; the churned
    // row (the first live row, after the 10 training rows) is zero
    // across the whole stride, padding included.
    const SgdFactors &after = engine.factors();
    ASSERT_EQ(after.rows, before.rows);
    ASSERT_EQ(after.cols, before.cols);
    ASSERT_EQ(after.rank, before.rank);
    ASSERT_EQ(after.stride, before.stride);
    ASSERT_EQ(after.p.size(), before.p.size());
    EXPECT_EQ(std::memcmp(after.p.data(), before.p.data(),
                          before.p.size() * sizeof(double)),
              0);
    const std::vector<double> zeros(after.stride, 0.0);
    const std::size_t churned = 10;
    for (std::size_t r = 0; r < after.rows; ++r) {
        const double *expected =
            r == churned ? zeros.data() : before.qRow(r);
        EXPECT_EQ(std::memcmp(after.qRow(r), expected,
                              after.stride * sizeof(double)),
                  0)
            << "q row " << r;
    }

    // The next reconstruction warm-starts from the kept factors.
    engine.predict();
    EXPECT_FALSE(engine.lastColdStart());
    EXPECT_LT(engine.lastIterations(), cold_iters);
}

/**
 * An engine whose warm factors have settled (the second, warm run
 * re-fits the cold run's stopping point; a third would take one
 * epoch), then one churn: job 0 was cleared and its replacement has
 * three samples, so the next predict() finds job 0's latent row
 * (row 10) all zero.
 */
CfEngine
churnedEngine(const Matrix &training)
{
    CfEngine engine(training, 2, 16);
    engine.options().rank = 6;
    engine.observe(0, 1, training(1, 1));
    engine.observe(1, 4, training(3, 4));
    engine.predict();
    engine.predict();
    engine.clearJob(0);
    engine.observe(0, 2, training(6, 2));
    engine.observe(0, 7, training(6, 7));
    engine.observe(0, 13, training(6, 13));
    return engine;
}

TEST(WarmStartTest, ChurnedRowStartsFromItsFoldIn)
{
    Rng rng(67);
    const Matrix training = lowRankMatrix(10, 16, 3, rng);
    const std::size_t churned = 10;
    const std::size_t cols[] = {2, 7, 13};

    // No epoch runs, so P keeps the warm bits and the churned row's q
    // is exactly what the reconstruction starts SGD from.
    CfEngine engine = churnedEngine(training);
    const std::vector<double> warm_p = engine.factors().p;
    engine.options().maxIterations = 0;
    engine.predict();
    EXPECT_FALSE(engine.lastColdStart());
    EXPECT_EQ(engine.lastIterations(), 0u);
    const SgdFactors &f = engine.factors();
    ASSERT_EQ(f.p, warm_p);

    // The ridge solve (P_o^T P_o + lambda I) q = P_o^T y against the
    // warm P, with y the row's samples over their mean magnitude.
    double scale = 0.0;
    for (const std::size_t c : cols)
        scale += std::abs(training(6, c));
    scale /= 3.0;
    Matrix normal(f.rank, f.rank);
    std::vector<double> rhs(f.rank, 0.0);
    for (const std::size_t c : cols) {
        const double *pc = f.pRow(c);
        for (std::size_t i = 0; i < f.rank; ++i) {
            rhs[i] += pc[i] * training(6, c) / scale;
            for (std::size_t j = 0; j < f.rank; ++j)
                normal(i, j) += pc[i] * pc[j];
        }
    }
    for (std::size_t i = 0; i < f.rank; ++i)
        normal(i, i) += engine.options().regularization;
    const std::vector<double> expected = solveLinearSystem(normal, rhs);
    const double *q = f.qRow(churned);
    for (std::size_t k = 0; k < f.rank; ++k)
        EXPECT_NEAR(q[k], expected[k], 1e-9) << "factor " << k;
    for (std::size_t k = f.rank; k < f.stride; ++k)
        EXPECT_EQ(q[k], 0.0) << "padding lane " << k;
    // One solve before SGD (the churned row) and one after it per
    // sampled row (10 training rows plus both live rows).
    EXPECT_EQ(engine.lastFoldInSolves(), 1u + 12u);

    // With the default epoch cap SGD starts next to its fixed point.
    // Started from the zeroed row instead, this fixture ran 29 epochs.
    CfEngine shipped = churnedEngine(training);
    shipped.predict();
    EXPECT_EQ(shipped.lastIterations(), 1u);
    EXPECT_EQ(shipped.lastFoldInSolves(), 1u + 12u);
}

TEST(WarmStartTest, WarmStartCanBeDisabled)
{
    Rng rng(61);
    const Matrix training = lowRankMatrix(10, 16, 3, rng);
    CfEngine engine(training, 1, 16);
    engine.observe(0, 3, training(2, 3));

    // Invalidating the factors before each predict() makes every run
    // the same cold start, bit for bit.
    engine.invalidateFactors();
    const Matrix a = engine.predict();
    ASSERT_TRUE(engine.hasCachedFactors());
    engine.invalidateFactors();
    const Matrix b = engine.predict();
    EXPECT_EQ(a.subtract(b).maxAbs(), 0.0);
}

TEST(WarmStartTest, PredictIntoMatchesPredict)
{
    Rng rng(63);
    const Matrix training = lowRankMatrix(10, 16, 3, rng);
    CfEngine engine(training, 2, 16);
    engine.observe(1, 5, training(4, 5));

    // Cold-start each run so all three are comparable.
    const Matrix by_value = engine.predict();
    ScratchArena arena;
    Matrix into;
    engine.invalidateFactors();
    engine.predictInto(into, arena);
    ASSERT_EQ(into.rows(), by_value.rows());
    ASSERT_EQ(into.cols(), by_value.cols());
    EXPECT_EQ(into.subtract(by_value).maxAbs(), 0.0);

    // A second call reuses the existing buffer (shape already right).
    const double *buffer = into.data();
    arena.reset();
    engine.invalidateFactors();
    engine.predictInto(into, arena);
    EXPECT_EQ(into.data(), buffer);
    EXPECT_EQ(into.subtract(by_value).maxAbs(), 0.0);
}

TEST(WarmStartTest, SubsampledConvergenceKeepsAccuracy)
{
    Rng rng(65);
    const Matrix truth = lowRankMatrix(30, 108, 5, rng);
    const RatingMatrix ratings = denseRatings(truth);

    SgdOptions full, sub;
    full.rank = sub.rank = 8;
    full.convergenceSamples = 0;    // check on every cell
    sub.convergenceSamples = 512;   // the default operating point
    const SgdResult full_result = reconstruct(ratings, full);
    const SgdResult sub_result = reconstruct(ratings, sub);
    // The stop decision may differ by a few epochs, but the final
    // model quality (full-RMSE) must be equivalent.
    EXPECT_NEAR(sub_result.trainRmse, full_result.trainRmse, 0.02);
}

} // namespace
} // namespace cuttlesys
