/**
 * @file
 * Portable SIMD kernel layer with deterministic lane reduction.
 *
 * The per-quantum hot loops — SGD inner products and factor updates,
 * predictInto's Q x P^T materialization, and the PreparedObjective
 * log/power table builds — are all dense loops over contiguous
 * doubles. This layer expresses them as fixed-width-lane primitives
 * that GCC/Clang auto-vectorize at -O2 without any intrinsics, while
 * keeping results bitwise reproducible:
 *
 *  - Every reduction keeps kLanes independent accumulators; term i
 *    always lands in lane (i mod kLanes), in increasing i order, and
 *    the lanes collapse through the fixed tree
 *    (acc0 + acc1) + (acc2 + acc3). The scalar reference performs
 *    the *same additions in the same order*, so the vectorized and
 *    scalar paths agree bit for bit — determinism comes from the
 *    operation order, not from pinning a code shape. This is what
 *    lets replay_check hold at any thread count without -ffast-math.
 *  - The build compiles with -ffp-contract=off (see the top-level
 *    CMakeLists), so no path can fuse a multiply-add the other path
 *    performed as two roundings.
 *
 * The public entry points call the lane-blocked detail::*Vec
 * variants. The detail::*Scalar twins are the plain-loop reference
 * the equivalence tests compare them against.
 */

#ifndef CUTTLESYS_COMMON_KERNELS_HH
#define CUTTLESYS_COMMON_KERNELS_HH

#include <cstddef>
#include <cstdint>
#include <cstring>

namespace cuttlesys {
namespace kernels {

/**
 * Reduction lane count. Four 64-bit lanes fill one AVX2 register; on
 * narrower hardware the compiler splits the lane array across two
 * SSE2 registers, and the arithmetic order — hence the result — is
 * unchanged.
 */
inline constexpr std::size_t kLanes = 4;

/** Round @p n up to the next multiple of kLanes (factor stride). */
constexpr std::size_t
padded(std::size_t n)
{
    return (n + kLanes - 1) / kLanes * kLanes;
}

namespace detail {

/** Fixed lane-collapse tree shared by every reduction primitive. */
inline double
reduceLanes(const double acc[kLanes])
{
    return (acc[0] + acc[1]) + (acc[2] + acc[3]);
}

/** Blocked (auto-vectorizable) dot product with lane accumulators. */
inline double
dotVec(const double *a, const double *b, std::size_t n)
{
    double acc[kLanes] = {0.0, 0.0, 0.0, 0.0};
    const std::size_t blocked = n - n % kLanes;
    std::size_t i = 0;
    for (; i < blocked; i += kLanes) {
        for (std::size_t l = 0; l < kLanes; ++l)
            acc[l] += a[i + l] * b[i + l];
    }
    for (std::size_t l = 0; i + l < n; ++l)
        acc[l] += a[i + l] * b[i + l];
    return reduceLanes(acc);
}

/** Scalar dot product performing the identical addition order. */
inline double
dotScalar(const double *a, const double *b, std::size_t n)
{
    double acc[kLanes] = {0.0, 0.0, 0.0, 0.0};
    for (std::size_t i = 0; i < n; ++i)
        acc[i % kLanes] += a[i] * b[i];
    return reduceLanes(acc);
}

inline double
sumVec(const double *a, std::size_t n)
{
    double acc[kLanes] = {0.0, 0.0, 0.0, 0.0};
    const std::size_t blocked = n - n % kLanes;
    std::size_t i = 0;
    for (; i < blocked; i += kLanes) {
        for (std::size_t l = 0; l < kLanes; ++l)
            acc[l] += a[i + l];
    }
    for (std::size_t l = 0; i + l < n; ++l)
        acc[l] += a[i + l];
    return reduceLanes(acc);
}

inline double
sumScalar(const double *a, std::size_t n)
{
    double acc[kLanes] = {0.0, 0.0, 0.0, 0.0};
    for (std::size_t i = 0; i < n; ++i)
        acc[i % kLanes] += a[i];
    return reduceLanes(acc);
}

/**
 * Strided-gather sum: sum_j table[j * stride + idx[j]]. With
 * stride = 0 it sums a lookup table over the index vector. This is
 * the objective's accumulator walk: one gather each over the logBips,
 * power and ways tables replaces the per-job scalar loop.
 */
inline double
gatherSumVec(const double *table, std::size_t stride,
             const std::uint16_t *idx, std::size_t n)
{
    double acc[kLanes] = {0.0, 0.0, 0.0, 0.0};
    const std::size_t blocked = n - n % kLanes;
    std::size_t j = 0;
    for (; j < blocked; j += kLanes) {
        for (std::size_t l = 0; l < kLanes; ++l)
            acc[l] += table[(j + l) * stride + idx[j + l]];
    }
    for (std::size_t l = 0; j + l < n; ++l)
        acc[l] += table[(j + l) * stride + idx[j + l]];
    return reduceLanes(acc);
}

inline double
gatherSumScalar(const double *table, std::size_t stride,
                const std::uint16_t *idx, std::size_t n)
{
    double acc[kLanes] = {0.0, 0.0, 0.0, 0.0};
    for (std::size_t j = 0; j < n; ++j)
        acc[j % kLanes] += table[j * stride + idx[j]];
    return reduceLanes(acc);
}

/** y[i] += a * x[i]. Elementwise: both shapes are bit-identical. */
inline void
axpyVec(double *y, double a, const double *x, std::size_t n)
{
    const std::size_t blocked = n - n % kLanes;
    std::size_t i = 0;
    for (; i < blocked; i += kLanes) {
        for (std::size_t l = 0; l < kLanes; ++l)
            y[i + l] += a * x[i + l];
    }
    for (; i < n; ++i)
        y[i] += a * x[i];
}

inline void
axpyScalar(double *y, double a, const double *x, std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i)
        y[i] += a * x[i];
}

/**
 * Fused SGD factor-pair update over one (row, col) sample:
 *   q[k] <- q[k] + eta * (err * p[k] - lambda * q[k])
 *   p[k] <- p[k] + eta * (err * q_old[k] - lambda * p[k])
 * using the pre-update q value on both sides, exactly as the scalar
 * inner loop always did. Elementwise over the lane-padded rank
 * stride; the zero padding stays zero (err * 0 - lambda * 0 == 0).
 */
inline void
sgdRankStepVec(double *q, double *p, std::size_t n, double eta,
               double lambda, double err)
{
    const std::size_t blocked = n - n % kLanes;
    std::size_t i = 0;
    for (; i < blocked; i += kLanes) {
        for (std::size_t l = 0; l < kLanes; ++l) {
            const double qk = q[i + l];
            const double pk = p[i + l];
            q[i + l] = qk + eta * (err * pk - lambda * qk);
            p[i + l] = pk + eta * (err * qk - lambda * pk);
        }
    }
    for (; i < n; ++i) {
        const double qk = q[i];
        const double pk = p[i];
        q[i] = qk + eta * (err * pk - lambda * qk);
        p[i] = pk + eta * (err * qk - lambda * pk);
    }
}

inline void
sgdRankStepScalar(double *q, double *p, std::size_t n, double eta,
                  double lambda, double err)
{
    for (std::size_t i = 0; i < n; ++i) {
        const double qk = q[i];
        const double pk = p[i];
        q[i] = qk + eta * (err * pk - lambda * qk);
        p[i] = pk + eta * (err * qk - lambda * pk);
    }
}

double logFillVec(double *dst, const double *src, std::size_t n,
                  double floor_value);
double logFillScalar(double *dst, const double *src, std::size_t n,
                     double floor_value);

double logGatherSumVec(const double *table, std::size_t stride,
                       const std::uint16_t *idx, std::size_t n,
                       double floor_value);
double logGatherSumScalar(const double *table, std::size_t stride,
                          const std::uint16_t *idx, std::size_t n,
                          double floor_value);

} // namespace detail

/** Name of the dispatch target: always "vector" (cs_bench prints it). */
const char *backendName();

/** Dot product of two length-n arrays, lane-deterministic. */
inline double
dot(const double *a, const double *b, std::size_t n)
{
    return detail::dotVec(a, b, n);
}

/** Sum of a length-n array, lane-deterministic. */
inline double
sum(const double *a, std::size_t n)
{
    return detail::sumVec(a, n);
}

/** sum_j table[j * stride + idx[j]], lane-deterministic. */
inline double
gatherSum(const double *table, std::size_t stride,
          const std::uint16_t *idx, std::size_t n)
{
    return detail::gatherSumVec(table, stride, idx, n);
}

/** y += a * x over length-n arrays. */
inline void
axpy(double *y, double a, const double *x, std::size_t n)
{
    detail::axpyVec(y, a, x, n);
}

/** Fused SGD factor-pair update (see detail::sgdRankStepVec). */
inline void
sgdRankStep(double *q, double *p, std::size_t n, double eta,
            double lambda, double err)
{
    detail::sgdRankStepVec(q, p, n, eta, lambda, err);
}

/**
 * dst[i] = log(max(src[i], floor_value)) over length-n arrays;
 * returns the lane-deterministic sum of the filled values (callers
 * that only need the table ignore it). The log-fill of the objective
 * tables and the log-sum over a candidate's cells share one
 * primitive, so the table path and the reference path see the same
 * per-cell values.
 */
inline double
logFill(double *dst, const double *src, std::size_t n,
        double floor_value)
{
    return detail::logFillVec(dst, src, n, floor_value);
}

/** sum_j log(max(table[j * stride + idx[j]], floor_value)). */
inline double
logGatherSum(const double *table, std::size_t stride,
             const std::uint16_t *idx, std::size_t n,
             double floor_value)
{
    return detail::logGatherSumVec(table, stride, idx, n, floor_value);
}

/** dst = src over length-n arrays (memmove semantics not needed). */
inline void
copy(double *dst, const double *src, std::size_t n)
{
    if (n != 0)
        std::memcpy(dst, src, n * sizeof(double));
}

/** dst[i] = value over a length-n array. */
inline void
fill(double *dst, double value, std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i)
        dst[i] = value;
}

} // namespace kernels
} // namespace cuttlesys

#endif // CUTTLESYS_COMMON_KERNELS_HH
