/**
 * @file
 * Dense row-major matrix and small-scale linear algebra.
 *
 * The CuttleSys runtime only needs linear algebra at the scale of its
 * rating matrices (tens of rows by ~108 columns): PQ factors for the
 * SGD reconstruction, an SVD warm start, and the linear solves inside
 * the RBF surrogate used by the Flicker baseline. A small, dependency-
 * free implementation keeps the repository self-contained.
 */

#ifndef CUTTLESYS_COMMON_MATRIX_HH
#define CUTTLESYS_COMMON_MATRIX_HH

#include <cstddef>
#include <string>
#include <vector>

namespace cuttlesys {

class Rng;

/** Dense row-major matrix of doubles. */
class Matrix
{
  public:
    /** Empty 0x0 matrix. */
    Matrix() = default;

    /** rows x cols matrix filled with @p fill. */
    Matrix(std::size_t rows, std::size_t cols, double fill = 0.0);

    /** Build from nested initializer-style data (rows of equal size). */
    static Matrix fromRows(const std::vector<std::vector<double>> &rows);

    /** Identity matrix of size n. */
    static Matrix identity(std::size_t n);

    /** Matrix with entries drawn uniformly from [lo, hi). */
    static Matrix random(std::size_t rows, std::size_t cols, Rng &rng,
                         double lo = 0.0, double hi = 1.0);

    std::size_t rows() const { return rows_; }
    std::size_t cols() const { return cols_; }

    double &operator()(std::size_t r, std::size_t c);
    double operator()(std::size_t r, std::size_t c) const;

    /** Pointer to the start of row r (contiguous cols() doubles). */
    double *rowPtr(std::size_t r);
    const double *rowPtr(std::size_t r) const;

    /** Raw row-major storage (rows() * cols() contiguous doubles). */
    double *data() { return data_.data(); }
    const double *data() const { return data_.data(); }

    /**
     * Reshape to rows x cols, reusing the existing capacity (no heap
     * traffic when the new size fits). Preexisting values survive
     * only as raw row-major prefix; callers overwrite the contents.
     */
    void resize(std::size_t rows, std::size_t cols);

    /** Matrix product this * other. */
    Matrix multiply(const Matrix &other) const;

    /** Transpose. */
    Matrix transpose() const;

    /** Elementwise sum; shapes must match. */
    Matrix add(const Matrix &other) const;

    /** Elementwise difference; shapes must match. */
    Matrix subtract(const Matrix &other) const;

    /** Scale every entry by s. */
    Matrix scaled(double s) const;

    /** Frobenius norm. */
    double frobeniusNorm() const;

    /** Maximum absolute entry (0 for an empty matrix). */
    double maxAbs() const;

    /** Human-readable dump, mainly for test diagnostics. */
    std::string toString(int precision = 4) const;

  private:
    std::size_t rows_ = 0;
    std::size_t cols_ = 0;
    std::vector<double> data_;
};

/**
 * Solve A x = b via LU decomposition with partial pivoting.
 *
 * @param a square coefficient matrix (copied; not modified)
 * @param b right-hand side of length a.rows()
 * @return solution vector x
 * @throws FatalError if the system is singular to working precision.
 */
std::vector<double> solveLinearSystem(const Matrix &a,
                                      const std::vector<double> &b);

/**
 * Factor step of the in-place LU solve: Gaussian elimination with
 * partial pivoting over @p a (n x n, row-major). On exit the upper
 * triangle holds U, pivots[col] is the row swapped into position col
 * at step col, and a[r * n + col] (r > col) holds the multiplier that
 * step col applied to the row then at position r (rows are swapped
 * from the pivot column on, so recorded multipliers never move).
 *
 * @throws FatalError if the system is singular to working precision.
 */
void luFactorInPlace(double *a, std::size_t *pivots, std::size_t n);

/**
 * Replay step: apply luFactorInPlace's recorded swaps and
 * multipliers to the right-hand side @p x in the order the
 * elimination made them (zero multipliers skipped, as there), then
 * back-substitute. One factorization serves any number of right-hand
 * sides, each bit-equal to a full solveLinearSystemInPlace.
 */
void luReplayInPlace(const double *lu, const std::size_t *pivots,
                     double *x, std::size_t n);

/**
 * In-place core of solveLinearSystem for allocation-free callers:
 * luFactorInPlace then luReplayInPlace. @p a is overwritten by the
 * factorization, @p pivots (n entries) is workspace, and @p x holds b
 * on entry and the solution on exit. solveLinearSystem runs this very
 * code, so both produce bit-equal results.
 */
void solveLinearSystemInPlace(double *a, std::size_t *pivots,
                              double *x, std::size_t n);

/** Result of a singular value decomposition A = U * diag(s) * V^T. */
struct SvdResult
{
    Matrix u;                    //!< m x n with orthonormal columns
    std::vector<double> singularValues; //!< length n, descending
    Matrix v;                    //!< n x n orthogonal
};

/**
 * One-sided Jacobi SVD of an m x n matrix with m >= n (thin SVD).
 *
 * Accurate and simple; O(m n^2) per sweep, plenty for the rating-matrix
 * sizes in this system. Used to warm-start the PQ factors as the paper
 * describes (Section V). A copying wrapper over jacobiSvdInPlace.
 */
SvdResult jacobiSvd(const Matrix &a, int maxSweeps = 60,
                    double tol = 1e-12);

/**
 * Allocation-free core of jacobiSvd over column-contiguous spans.
 *
 * @param u in: the n columns of A, column j at u + j * m; out: column
 *        j of U * diag(s), in working (unsorted) order.
 * @param vt out: n x n, row j = column j of V, in working order.
 * @param sigma out: the n singular values, in working order.
 * @param order out: the descending permutation: the k-th largest
 *        singular value is sigma[order[k]], its (unnormalized) U
 *        column starts at u + order[k] * m and its V column at
 *        vt + order[k] * n.
 *
 * Every column's squared norm is cached and refreshed only by a
 * rotation of that column, fused into the rotation loop with the next
 * pair's inner product; each sum is its own ascending-index chain
 * from 0.0, so the result is that of recomputing every reduction.
 */
void jacobiSvdInPlace(double *u, std::size_t m, std::size_t n,
                      double *vt, double *sigma, std::size_t *order,
                      int maxSweeps = 60, double tol = 1e-12);

} // namespace cuttlesys

#endif // CUTTLESYS_COMMON_MATRIX_HH
