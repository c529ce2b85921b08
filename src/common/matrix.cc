#include "common/matrix.hh"

#include <algorithm>
#include <cmath>
#include <iomanip>
#include <numeric>
#include <sstream>

#include "common/logging.hh"
#include "common/rng.hh"

namespace cuttlesys {

Matrix::Matrix(std::size_t rows, std::size_t cols, double fill)
    : rows_(rows), cols_(cols), data_(rows * cols, fill)
{
}

Matrix
Matrix::fromRows(const std::vector<std::vector<double>> &rows)
{
    if (rows.empty())
        return Matrix();
    Matrix m(rows.size(), rows.front().size());
    for (std::size_t r = 0; r < rows.size(); ++r) {
        CS_ASSERT(rows[r].size() == m.cols_,
                  "ragged row ", r, " in Matrix::fromRows");
        std::copy(rows[r].begin(), rows[r].end(), m.rowPtr(r));
    }
    return m;
}

Matrix
Matrix::identity(std::size_t n)
{
    Matrix m(n, n);
    for (std::size_t i = 0; i < n; ++i)
        m(i, i) = 1.0;
    return m;
}

Matrix
Matrix::random(std::size_t rows, std::size_t cols, Rng &rng,
               double lo, double hi)
{
    Matrix m(rows, cols);
    for (auto &v : m.data_)
        v = rng.uniform(lo, hi);
    return m;
}

double &
Matrix::operator()(std::size_t r, std::size_t c)
{
    CS_ASSERT(r < rows_ && c < cols_,
              "matrix index (", r, ",", c, ") out of ",
              rows_, "x", cols_);
    return data_[r * cols_ + c];
}

double
Matrix::operator()(std::size_t r, std::size_t c) const
{
    CS_ASSERT(r < rows_ && c < cols_,
              "matrix index (", r, ",", c, ") out of ",
              rows_, "x", cols_);
    return data_[r * cols_ + c];
}

void
Matrix::resize(std::size_t rows, std::size_t cols)
{
    rows_ = rows;
    cols_ = cols;
    data_.resize(rows * cols);
}

double *
Matrix::rowPtr(std::size_t r)
{
    CS_ASSERT(r < rows_, "row ", r, " out of ", rows_);
    return data_.data() + r * cols_;
}

const double *
Matrix::rowPtr(std::size_t r) const
{
    CS_ASSERT(r < rows_, "row ", r, " out of ", rows_);
    return data_.data() + r * cols_;
}

Matrix
Matrix::multiply(const Matrix &other) const
{
    CS_ASSERT(cols_ == other.rows_, "shape mismatch in multiply: ",
              rows_, "x", cols_, " * ", other.rows_, "x", other.cols_);
    Matrix out(rows_, other.cols_);
    for (std::size_t i = 0; i < rows_; ++i) {
        const double *lhs = rowPtr(i);
        double *dst = out.rowPtr(i);
        for (std::size_t k = 0; k < cols_; ++k) {
            const double a = lhs[k];
            if (a == 0.0)
                continue;
            const double *rhs = other.rowPtr(k);
            for (std::size_t j = 0; j < other.cols_; ++j)
                dst[j] += a * rhs[j];
        }
    }
    return out;
}

Matrix
Matrix::transpose() const
{
    Matrix out(cols_, rows_);
    for (std::size_t i = 0; i < rows_; ++i)
        for (std::size_t j = 0; j < cols_; ++j)
            out(j, i) = (*this)(i, j);
    return out;
}

Matrix
Matrix::add(const Matrix &other) const
{
    CS_ASSERT(rows_ == other.rows_ && cols_ == other.cols_,
              "shape mismatch in add");
    Matrix out = *this;
    for (std::size_t i = 0; i < data_.size(); ++i)
        out.data_[i] += other.data_[i];
    return out;
}

Matrix
Matrix::subtract(const Matrix &other) const
{
    CS_ASSERT(rows_ == other.rows_ && cols_ == other.cols_,
              "shape mismatch in subtract");
    Matrix out = *this;
    for (std::size_t i = 0; i < data_.size(); ++i)
        out.data_[i] -= other.data_[i];
    return out;
}

Matrix
Matrix::scaled(double s) const
{
    Matrix out = *this;
    for (auto &v : out.data_)
        v *= s;
    return out;
}

double
Matrix::frobeniusNorm() const
{
    double ss = 0.0;
    for (double v : data_)
        ss += v * v;
    return std::sqrt(ss);
}

double
Matrix::maxAbs() const
{
    double m = 0.0;
    for (double v : data_)
        m = std::max(m, std::abs(v));
    return m;
}

std::string
Matrix::toString(int precision) const
{
    std::ostringstream oss;
    oss << std::setprecision(precision);
    for (std::size_t i = 0; i < rows_; ++i) {
        oss << "[";
        for (std::size_t j = 0; j < cols_; ++j) {
            oss << (*this)(i, j);
            if (j + 1 < cols_)
                oss << ", ";
        }
        oss << "]\n";
    }
    return oss.str();
}

void
luFactorInPlace(double *a, std::size_t *pivots, std::size_t n)
{
    for (std::size_t col = 0; col < n; ++col) {
        // Partial pivoting: find the largest magnitude in this column.
        std::size_t pivot = col;
        double best = std::abs(a[col * n + col]);
        for (std::size_t r = col + 1; r < n; ++r) {
            const double mag = std::abs(a[r * n + col]);
            if (mag > best) {
                best = mag;
                pivot = r;
            }
        }
        if (best < 1e-13) {
            fatal("solveLinearSystem: matrix is singular at column ",
                  col, " (pivot ", best, ")");
        }
        pivots[col] = pivot;
        if (pivot != col) {
            for (std::size_t j = col; j < n; ++j)
                std::swap(a[col * n + j], a[pivot * n + j]);
        }
        // Eliminate below the pivot, recording each multiplier where
        // the eliminated entry was.
        const double inv = 1.0 / a[col * n + col];
        for (std::size_t r = col + 1; r < n; ++r) {
            const double factor = a[r * n + col] * inv;
            a[r * n + col] = factor;
            if (factor == 0.0)
                continue;
            for (std::size_t j = col + 1; j < n; ++j)
                a[r * n + j] -= factor * a[col * n + j];
        }
    }
}

void
luReplayInPlace(const double *lu, const std::size_t *pivots, double *x,
                std::size_t n)
{
    for (std::size_t col = 0; col < n; ++col) {
        if (pivots[col] != col)
            std::swap(x[col], x[pivots[col]]);
        for (std::size_t r = col + 1; r < n; ++r) {
            const double factor = lu[r * n + col];
            if (factor == 0.0)
                continue;
            x[r] -= factor * x[col];
        }
    }

    // Back substitution.
    for (std::size_t ri = n; ri-- > 0;) {
        double sum = x[ri];
        for (std::size_t j = ri + 1; j < n; ++j)
            sum -= lu[ri * n + j] * x[j];
        x[ri] = sum / lu[ri * n + ri];
    }
}

void
solveLinearSystemInPlace(double *a, std::size_t *pivots, double *x,
                         std::size_t n)
{
    luFactorInPlace(a, pivots, n);
    luReplayInPlace(a, pivots, x, n);
}

std::vector<double>
solveLinearSystem(const Matrix &a, const std::vector<double> &b)
{
    CS_ASSERT(a.rows() == a.cols(), "solveLinearSystem needs square A");
    CS_ASSERT(b.size() == a.rows(), "rhs length mismatch");
    const std::size_t n = a.rows();

    // Working copies: the in-place core destroys its inputs.
    Matrix lu = a;
    std::vector<double> x = b;
    std::vector<std::size_t> pivots(n);
    solveLinearSystemInPlace(lu.data(), pivots.data(), x.data(), n);
    return x;
}

namespace {

/** Ascending-index inner product from 0.0: one reduction chain. */
double
columnDot(const double *x, const double *y, std::size_t len)
{
    double sum = 0.0;
    for (std::size_t i = 0; i < len; ++i)
        sum += x[i] * y[i];
    return sum;
}

} // namespace

void
jacobiSvdInPlace(double *u, std::size_t m, std::size_t n, double *vt,
                 double *sigma, std::size_t *order, int maxSweeps,
                 double tol)
{
    CS_ASSERT(m >= n, "jacobiSvd expects m >= n (got ", m, "x", n,
              "); transpose first");

    for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = 0; j < n; ++j)
            vt[i * n + j] = i == j ? 1.0 : 0.0;
    }
    // sigma caches every column's squared norm until the final sqrt.
    for (std::size_t j = 0; j < n; ++j)
        sigma[j] = columnDot(u + j * m, u + j * m, m);

    // One-sided Jacobi: orthogonalize pairs of columns of U. gamma
    // always holds the inner product of the current pair (p, q).
    for (int sweep = 0; sweep < maxSweeps; ++sweep) {
        double offDiag = 0.0;
        for (std::size_t p = 0; p + 1 < n; ++p) {
            double *up = u + p * m;
            double gamma = columnDot(up, up + m, m);
            for (std::size_t q = p + 1; q < n; ++q) {
                double *uq = u + q * m;
                const double *next = q + 1 < n ? uq + m : nullptr;
                const double alpha = sigma[p];
                const double beta = sigma[q];
                offDiag = std::max(offDiag,
                                   std::abs(gamma) /
                                   std::max(std::sqrt(alpha * beta),
                                            1e-300));
                if (std::abs(gamma) <=
                    tol * std::sqrt(alpha * beta)) {
                    if (next)
                        gamma = columnDot(up, next, m);
                    continue;
                }

                // Jacobi rotation that zeroes the (p, q) inner product.
                const double zeta = (beta - alpha) / (2.0 * gamma);
                const double t = (zeta >= 0.0 ? 1.0 : -1.0) /
                    (std::abs(zeta) + std::sqrt(1.0 + zeta * zeta));
                const double c = 1.0 / std::sqrt(1.0 + t * t);
                const double s = c * t;

                // Rotate, and in the same pass accumulate the rotated
                // columns' norms and the next pair's inner product.
                double normP = 0.0, normQ = 0.0, gammaNext = 0.0;
                for (std::size_t i = 0; i < m; ++i) {
                    const double rp = c * up[i] - s * uq[i];
                    const double rq = s * up[i] + c * uq[i];
                    up[i] = rp;
                    uq[i] = rq;
                    normP += rp * rp;
                    normQ += rq * rq;
                    if (next)
                        gammaNext += rp * next[i];
                }
                sigma[p] = normP;
                sigma[q] = normQ;
                gamma = gammaNext;

                double *vp = vt + p * n;
                double *vq = vt + q * n;
                for (std::size_t i = 0; i < n; ++i) {
                    const double rp = c * vp[i] - s * vq[i];
                    const double rq = s * vp[i] + c * vq[i];
                    vp[i] = rp;
                    vq[i] = rq;
                }
            }
        }
        if (offDiag < tol)
            break;
    }

    // Singular values are the column norms of U; order them
    // descending.
    for (std::size_t j = 0; j < n; ++j)
        sigma[j] = std::sqrt(sigma[j]);
    std::iota(order, order + n, std::size_t{0});
    std::sort(order, order + n, [sigma](std::size_t x, std::size_t y) {
        return sigma[x] > sigma[y];
    });
}

SvdResult
jacobiSvd(const Matrix &a, int maxSweeps, double tol)
{
    const std::size_t m = a.rows();
    const std::size_t n = a.cols();

    std::vector<double> u(m * n), vt(n * n), sigma(n);
    std::vector<std::size_t> order(n);
    for (std::size_t i = 0; i < m; ++i) {
        const double *row = a.rowPtr(i);
        for (std::size_t j = 0; j < n; ++j)
            u[j * m + i] = row[j];
    }
    jacobiSvdInPlace(u.data(), m, n, vt.data(), sigma.data(),
                     order.data(), maxSweeps, tol);

    SvdResult result;
    result.u = Matrix(m, n);
    result.v = Matrix(n, n);
    result.singularValues.resize(n);
    for (std::size_t k = 0; k < n; ++k) {
        const std::size_t src = order[k];
        const double s = sigma[src];
        const double inv = s > 1e-300 ? 1.0 / s : 0.0;
        result.singularValues[k] = s;
        for (std::size_t i = 0; i < m; ++i)
            result.u(i, k) = u[src * m + i] * inv;
        for (std::size_t i = 0; i < n; ++i)
            result.v(i, k) = vt[src * n + i];
    }
    return result;
}

} // namespace cuttlesys
