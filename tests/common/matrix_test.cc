/**
 * @file
 * Tests for the dense matrix, LU solver and Jacobi SVD.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numeric>
#include <vector>

#include "common/logging.hh"
#include "common/matrix.hh"
#include "common/rng.hh"

namespace cuttlesys {
namespace {

TEST(MatrixTest, ConstructionAndIndexing)
{
    Matrix m(2, 3, 1.5);
    EXPECT_EQ(m.rows(), 2u);
    EXPECT_EQ(m.cols(), 3u);
    EXPECT_DOUBLE_EQ(m(1, 2), 1.5);
    m(0, 1) = -2.0;
    EXPECT_DOUBLE_EQ(m(0, 1), -2.0);
}

TEST(MatrixTest, OutOfRangePanics)
{
    Matrix m(2, 2);
    EXPECT_THROW(m(2, 0), PanicError);
    EXPECT_THROW(m(0, 2), PanicError);
}

TEST(MatrixTest, FromRowsAndTranspose)
{
    const Matrix m = Matrix::fromRows({{1, 2, 3}, {4, 5, 6}});
    const Matrix t = m.transpose();
    EXPECT_EQ(t.rows(), 3u);
    EXPECT_EQ(t.cols(), 2u);
    EXPECT_DOUBLE_EQ(t(2, 1), 6.0);
    EXPECT_DOUBLE_EQ(t(0, 0), 1.0);
}

TEST(MatrixTest, FromRowsRejectsRagged)
{
    EXPECT_THROW(Matrix::fromRows({{1, 2}, {3}}), PanicError);
}

TEST(MatrixTest, MultiplyKnownProduct)
{
    const Matrix a = Matrix::fromRows({{1, 2}, {3, 4}});
    const Matrix b = Matrix::fromRows({{5, 6}, {7, 8}});
    const Matrix c = a.multiply(b);
    EXPECT_DOUBLE_EQ(c(0, 0), 19.0);
    EXPECT_DOUBLE_EQ(c(0, 1), 22.0);
    EXPECT_DOUBLE_EQ(c(1, 0), 43.0);
    EXPECT_DOUBLE_EQ(c(1, 1), 50.0);
}

TEST(MatrixTest, MultiplyShapeMismatchPanics)
{
    Matrix a(2, 3), b(2, 3);
    EXPECT_THROW(a.multiply(b), PanicError);
}

TEST(MatrixTest, IdentityIsMultiplicativeUnit)
{
    Rng rng(1);
    const Matrix a = Matrix::random(4, 4, rng, -1.0, 1.0);
    const Matrix i = Matrix::identity(4);
    EXPECT_NEAR(a.multiply(i).subtract(a).maxAbs(), 0.0, 1e-15);
    EXPECT_NEAR(i.multiply(a).subtract(a).maxAbs(), 0.0, 1e-15);
}

TEST(MatrixTest, AddSubtractScale)
{
    const Matrix a = Matrix::fromRows({{1, 2}, {3, 4}});
    const Matrix b = a.scaled(2.0);
    EXPECT_DOUBLE_EQ(b(1, 1), 8.0);
    const Matrix c = b.subtract(a);
    EXPECT_NEAR(c.subtract(a).maxAbs(), 0.0, 1e-15);
    const Matrix d = a.add(a);
    EXPECT_NEAR(d.subtract(b).maxAbs(), 0.0, 1e-15);
}

TEST(MatrixTest, FrobeniusNorm)
{
    const Matrix a = Matrix::fromRows({{3, 4}});
    EXPECT_DOUBLE_EQ(a.frobeniusNorm(), 5.0);
}

TEST(LinearSolveTest, SolvesKnownSystem)
{
    const Matrix a = Matrix::fromRows({{2, 1}, {1, 3}});
    const auto x = solveLinearSystem(a, {5, 10});
    EXPECT_NEAR(x[0], 1.0, 1e-12);
    EXPECT_NEAR(x[1], 3.0, 1e-12);
}

TEST(LinearSolveTest, RequiresPivoting)
{
    // Zero on the diagonal forces a row swap.
    const Matrix a = Matrix::fromRows({{0, 1}, {1, 0}});
    const auto x = solveLinearSystem(a, {2, 3});
    EXPECT_NEAR(x[0], 3.0, 1e-12);
    EXPECT_NEAR(x[1], 2.0, 1e-12);
}

TEST(LinearSolveTest, RandomSystemsRoundTrip)
{
    Rng rng(2);
    for (int trial = 0; trial < 20; ++trial) {
        const std::size_t n = 1 +
            static_cast<std::size_t>(rng.uniformInt(1, 12));
        const Matrix a = Matrix::random(n, n, rng, -2.0, 2.0);
        std::vector<double> x_true(n);
        for (auto &v : x_true)
            v = rng.uniform(-3.0, 3.0);
        std::vector<double> b(n, 0.0);
        for (std::size_t i = 0; i < n; ++i)
            for (std::size_t j = 0; j < n; ++j)
                b[i] += a(i, j) * x_true[j];
        const auto x = solveLinearSystem(a, b);
        for (std::size_t i = 0; i < n; ++i)
            EXPECT_NEAR(x[i], x_true[i], 1e-8);
    }
}

TEST(LinearSolveTest, SingularMatrixIsFatal)
{
    const Matrix a = Matrix::fromRows({{1, 2}, {2, 4}});
    EXPECT_THROW(solveLinearSystem(a, {1, 2}), FatalError);
}

TEST(SvdTest, ReconstructsDiagonal)
{
    const Matrix a = Matrix::fromRows({{3, 0}, {0, 2}, {0, 0}});
    const SvdResult svd = jacobiSvd(a);
    ASSERT_EQ(svd.singularValues.size(), 2u);
    EXPECT_NEAR(svd.singularValues[0], 3.0, 1e-10);
    EXPECT_NEAR(svd.singularValues[1], 2.0, 1e-10);
}

TEST(SvdTest, SingularValuesSortedDescending)
{
    Rng rng(3);
    const Matrix a = Matrix::random(8, 5, rng, -1.0, 1.0);
    const SvdResult svd = jacobiSvd(a);
    for (std::size_t i = 0; i + 1 < svd.singularValues.size(); ++i)
        EXPECT_GE(svd.singularValues[i], svd.singularValues[i + 1]);
}

TEST(SvdTest, FactorsReconstructMatrix)
{
    Rng rng(4);
    const Matrix a = Matrix::random(7, 4, rng, -2.0, 2.0);
    const SvdResult svd = jacobiSvd(a);

    // Rebuild A = U * diag(s) * V^T.
    Matrix us = svd.u;
    for (std::size_t i = 0; i < us.rows(); ++i)
        for (std::size_t j = 0; j < us.cols(); ++j)
            us(i, j) *= svd.singularValues[j];
    const Matrix rebuilt = us.multiply(svd.v.transpose());
    EXPECT_NEAR(rebuilt.subtract(a).maxAbs(), 0.0, 1e-8);
}

TEST(SvdTest, ColumnsOfVAreOrthonormal)
{
    Rng rng(5);
    const Matrix a = Matrix::random(6, 6, rng, -1.0, 1.0);
    const SvdResult svd = jacobiSvd(a);
    const Matrix vtv = svd.v.transpose().multiply(svd.v);
    EXPECT_NEAR(vtv.subtract(Matrix::identity(6)).maxAbs(), 0.0, 1e-8);
}

TEST(SvdTest, RejectsWideMatrix)
{
    Matrix a(2, 5);
    EXPECT_THROW(jacobiSvd(a), PanicError);
}

// ---------------------------------------------------------------------
// Bitwise equivalence with the straightforward formulations: the
// production solver and SVD reorganize memory and reuse work, but every
// reduction must keep its operands and order, so the results must match
// these textbook versions bit for bit.

/** Per-right-hand-side Gaussian elimination, pivoting interleaved. */
void
referenceSolveInPlace(double *a, double *x, std::size_t n)
{
    for (std::size_t col = 0; col < n; ++col) {
        std::size_t pivot = col;
        double best = std::abs(a[col * n + col]);
        for (std::size_t r = col + 1; r < n; ++r) {
            const double mag = std::abs(a[r * n + col]);
            if (mag > best) {
                best = mag;
                pivot = r;
            }
        }
        if (best < 1e-13)
            fatal("reference solve: singular at column ", col);
        if (pivot != col) {
            for (std::size_t j = 0; j < n; ++j)
                std::swap(a[col * n + j], a[pivot * n + j]);
            std::swap(x[col], x[pivot]);
        }
        const double inv = 1.0 / a[col * n + col];
        for (std::size_t r = col + 1; r < n; ++r) {
            const double factor = a[r * n + col] * inv;
            if (factor == 0.0)
                continue;
            a[r * n + col] = 0.0;
            for (std::size_t j = col + 1; j < n; ++j)
                a[r * n + j] -= factor * a[col * n + j];
            x[r] -= factor * x[col];
        }
    }
    for (std::size_t ri = n; ri-- > 0;) {
        double sum = x[ri];
        for (std::size_t j = ri + 1; j < n; ++j)
            sum -= a[ri * n + j] * x[j];
        x[ri] = sum / a[ri * n + ri];
    }
}

/** Row-major one-sided Jacobi, every reduction recomputed per pair. */
SvdResult
referenceJacobiSvd(const Matrix &a, int maxSweeps = 60,
                   double tol = 1e-12)
{
    const std::size_t m = a.rows();
    const std::size_t n = a.cols();
    Matrix u = a;
    Matrix v = Matrix::identity(n);
    for (int sweep = 0; sweep < maxSweeps; ++sweep) {
        double offDiag = 0.0;
        for (std::size_t p = 0; p + 1 < n; ++p) {
            for (std::size_t q = p + 1; q < n; ++q) {
                double alpha = 0.0, beta = 0.0, gamma = 0.0;
                for (std::size_t i = 0; i < m; ++i) {
                    alpha += u(i, p) * u(i, p);
                    beta += u(i, q) * u(i, q);
                    gamma += u(i, p) * u(i, q);
                }
                offDiag = std::max(offDiag,
                                   std::abs(gamma) /
                                   std::max(std::sqrt(alpha * beta),
                                            1e-300));
                if (std::abs(gamma) <= tol * std::sqrt(alpha * beta))
                    continue;
                const double zeta = (beta - alpha) / (2.0 * gamma);
                const double t = (zeta >= 0.0 ? 1.0 : -1.0) /
                    (std::abs(zeta) + std::sqrt(1.0 + zeta * zeta));
                const double c = 1.0 / std::sqrt(1.0 + t * t);
                const double s = c * t;
                for (std::size_t i = 0; i < m; ++i) {
                    const double up = u(i, p);
                    const double uq = u(i, q);
                    u(i, p) = c * up - s * uq;
                    u(i, q) = s * up + c * uq;
                }
                for (std::size_t i = 0; i < n; ++i) {
                    const double vp = v(i, p);
                    const double vq = v(i, q);
                    v(i, p) = c * vp - s * vq;
                    v(i, q) = s * vp + c * vq;
                }
            }
        }
        if (offDiag < tol)
            break;
    }

    std::vector<double> sv(n);
    for (std::size_t j = 0; j < n; ++j) {
        double norm = 0.0;
        for (std::size_t i = 0; i < m; ++i)
            norm += u(i, j) * u(i, j);
        sv[j] = std::sqrt(norm);
    }
    std::vector<std::size_t> order(n);
    std::iota(order.begin(), order.end(), 0);
    std::sort(order.begin(), order.end(), [&](std::size_t x,
                                              std::size_t y) {
        return sv[x] > sv[y];
    });
    SvdResult result;
    result.u = Matrix(m, n);
    result.v = Matrix(n, n);
    result.singularValues.resize(n);
    for (std::size_t j = 0; j < n; ++j) {
        const std::size_t src = order[j];
        result.singularValues[j] = sv[src];
        const double inv = sv[src] > 1e-300 ? 1.0 / sv[src] : 0.0;
        for (std::size_t i = 0; i < m; ++i)
            result.u(i, j) = u(i, src) * inv;
        for (std::size_t i = 0; i < n; ++i)
            result.v(i, j) = v(i, src);
    }
    return result;
}

bool
bitEqual(const double *x, const double *y, std::size_t n)
{
    return n == 0 || std::memcmp(x, y, n * sizeof(double)) == 0;
}

void
expectSvdBitEqual(const Matrix &a)
{
    const SvdResult got = jacobiSvd(a);
    const SvdResult want = referenceJacobiSvd(a);
    ASSERT_EQ(got.singularValues.size(), want.singularValues.size());
    EXPECT_TRUE(bitEqual(got.singularValues.data(),
                         want.singularValues.data(),
                         want.singularValues.size()))
        << "singular values of a " << a.rows() << "x" << a.cols();
    EXPECT_TRUE(bitEqual(got.u.data(), want.u.data(),
                         a.rows() * a.cols()))
        << "U of a " << a.rows() << "x" << a.cols();
    EXPECT_TRUE(bitEqual(got.v.data(), want.v.data(),
                         a.cols() * a.cols()))
        << "V of a " << a.rows() << "x" << a.cols();
}

TEST(SvdBitwiseTest, RandomTallMatricesMatchReference)
{
    Rng rng(41);
    const std::size_t shapes[][2] = {
        {1, 1}, {2, 2}, {5, 3}, {9, 9}, {17, 6}, {40, 12}, {108, 38}};
    for (const auto &shape : shapes)
        expectSvdBitEqual(Matrix::random(shape[0], shape[1], rng,
                                         -2.0, 3.0));
}

TEST(SvdBitwiseTest, TransposedWideMatricesMatchReference)
{
    // The warm start's case: a few dozen rating rows over 108
    // configurations, factored as the transpose.
    Rng rng(42);
    const std::size_t shapes[][2] = {{3, 10}, {12, 50}, {38, 108}};
    for (const auto &shape : shapes) {
        expectSvdBitEqual(
            Matrix::random(shape[0], shape[1], rng, 0.1, 4.0)
                .transpose());
    }
}

TEST(SvdBitwiseTest, RankDeficientDuplicateColumnsMatchReference)
{
    Rng rng(43);
    Matrix a = Matrix::random(20, 8, rng, -1.0, 1.0);
    for (std::size_t i = 0; i < a.rows(); ++i) {
        a(i, 3) = a(i, 1);
        a(i, 6) = a(i, 1);
        a(i, 7) = a(i, 5);
    }
    expectSvdBitEqual(a);
}

TEST(SvdBitwiseTest, AllZeroColumnMatchesReference)
{
    Rng rng(44);
    Matrix a = Matrix::random(15, 7, rng, -1.0, 1.0);
    for (std::size_t i = 0; i < a.rows(); ++i)
        a(i, 2) = 0.0;
    expectSvdBitEqual(a);
    expectSvdBitEqual(Matrix(6, 4));
}

TEST(SvdBitwiseTest, TinyMagnitudeMatricesMatchReference)
{
    // Squared norms near the bottom of the double range: the 1e-300
    // guards and underflowing products must resolve identically.
    Rng rng(45);
    for (double scale : {1e-150, 1e-155, 1e-160}) {
        expectSvdBitEqual(
            Matrix::random(12, 5, rng, -1.0, 1.0).scaled(scale));
    }
}

TEST(LinearSolveBitwiseTest, FactorAndReplayMatchReference)
{
    Rng rng(46);
    for (int trial = 0; trial < 40; ++trial) {
        const std::size_t n = 1 +
            static_cast<std::size_t>(rng.uniformInt(0, 13));
        Matrix a = Matrix::random(n, n, rng, -2.0, 2.0);
        if (trial % 3 == 0) {
            // Structural zeros below the diagonal: zero multipliers.
            for (std::size_t r = 1; r < n; ++r)
                for (std::size_t c = 0; c < r; c += 2)
                    a(r, c) = 0.0;
        }
        if (trial % 4 == 1 && n > 1) {
            // A tiny leading entry forces a row swap at column 0.
            a(0, 0) = 1e-9;
        }

        Matrix lu = a;
        std::vector<std::size_t> pivots(n);
        luFactorInPlace(lu.data(), pivots.data(), n);
        for (int rhs = 0; rhs < 3; ++rhs) {
            std::vector<double> b(n);
            for (auto &v : b)
                v = rng.uniform(-3.0, 3.0);
            if (rhs == 2 && n > 0)
                b[0] = 0.0;

            Matrix ref_a = a;
            std::vector<double> want = b;
            referenceSolveInPlace(ref_a.data(), want.data(), n);

            std::vector<double> replayed = b;
            luReplayInPlace(lu.data(), pivots.data(), replayed.data(),
                            n);
            EXPECT_TRUE(bitEqual(replayed.data(), want.data(), n))
                << "replay, trial " << trial << " rhs " << rhs;

            Matrix solve_a = a;
            std::vector<double> solved = b;
            std::vector<std::size_t> solve_pivots(n);
            solveLinearSystemInPlace(solve_a.data(),
                                     solve_pivots.data(),
                                     solved.data(), n);
            EXPECT_TRUE(bitEqual(solved.data(), want.data(), n))
                << "solve, trial " << trial << " rhs " << rhs;
            EXPECT_TRUE(bitEqual(solveLinearSystem(a, b).data(),
                                 want.data(), n));
        }
    }
}

TEST(LinearSolveBitwiseTest, PermutationSystemsMatchReference)
{
    // Every column pivots: the identity with rows cyclically shifted,
    // plus a small perturbation, and a ridge-style normal matrix.
    Rng rng(47);
    const std::size_t n = 9;
    Matrix a(n, n);
    for (std::size_t r = 0; r < n; ++r) {
        a(r, (r + 3) % n) = 4.0 + static_cast<double>(r);
        a(r, r) = 1e-3;
    }
    Matrix gram(n, n);
    const Matrix f = Matrix::random(20, n, rng, -1.0, 1.0);
    for (std::size_t i = 0; i < n; ++i)
        for (std::size_t j = 0; j < n; ++j)
            for (std::size_t o = 0; o < f.rows(); ++o)
                gram(i, j) += f(o, i) * f(o, j);
    for (std::size_t i = 0; i < n; ++i)
        gram(i, i) += 0.02;

    for (const Matrix *m : {&a, &gram}) {
        std::vector<double> b(n);
        for (auto &v : b)
            v = rng.uniform(-1.0, 1.0);
        Matrix ref_a = *m;
        std::vector<double> want = b;
        referenceSolveInPlace(ref_a.data(), want.data(), n);
        EXPECT_TRUE(bitEqual(solveLinearSystem(*m, b).data(),
                             want.data(), n));
    }
}

} // namespace
} // namespace cuttlesys
