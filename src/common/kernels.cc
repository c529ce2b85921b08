#include "common/kernels.hh"

#include <algorithm>
#include <cmath>

namespace cuttlesys {
namespace kernels {

namespace detail {

/*
 * The log fills stay out of line: std::log dominates their cost, so
 * inlining buys nothing, and keeping one definition per variant makes
 * the vector/scalar accumulation orders easy to audit side by side.
 */

double
logFillVec(double *dst, const double *src, std::size_t n,
           double floor_value)
{
    double acc[kLanes] = {0.0, 0.0, 0.0, 0.0};
    const std::size_t blocked = n - n % kLanes;
    std::size_t i = 0;
    for (; i < blocked; i += kLanes) {
        for (std::size_t l = 0; l < kLanes; ++l) {
            dst[i + l] = std::log(std::max(src[i + l], floor_value));
            acc[l] += dst[i + l];
        }
    }
    for (std::size_t l = 0; i + l < n; ++l) {
        dst[i + l] = std::log(std::max(src[i + l], floor_value));
        acc[l] += dst[i + l];
    }
    return reduceLanes(acc);
}

double
logFillScalar(double *dst, const double *src, std::size_t n,
              double floor_value)
{
    double acc[kLanes] = {0.0, 0.0, 0.0, 0.0};
    for (std::size_t i = 0; i < n; ++i) {
        dst[i] = std::log(std::max(src[i], floor_value));
        acc[i % kLanes] += dst[i];
    }
    return reduceLanes(acc);
}

double
logGatherSumVec(const double *table, std::size_t stride,
                const std::uint16_t *idx, std::size_t n,
                double floor_value)
{
    double acc[kLanes] = {0.0, 0.0, 0.0, 0.0};
    const std::size_t blocked = n - n % kLanes;
    std::size_t j = 0;
    for (; j < blocked; j += kLanes) {
        for (std::size_t l = 0; l < kLanes; ++l) {
            acc[l] += std::log(std::max(
                table[(j + l) * stride + idx[j + l]], floor_value));
        }
    }
    for (std::size_t l = 0; j + l < n; ++l) {
        acc[l] += std::log(std::max(
            table[(j + l) * stride + idx[j + l]], floor_value));
    }
    return reduceLanes(acc);
}

double
logGatherSumScalar(const double *table, std::size_t stride,
                   const std::uint16_t *idx, std::size_t n,
                   double floor_value)
{
    double acc[kLanes] = {0.0, 0.0, 0.0, 0.0};
    for (std::size_t j = 0; j < n; ++j) {
        acc[j % kLanes] += std::log(
            std::max(table[j * stride + idx[j]], floor_value));
    }
    return reduceLanes(acc);
}

} // namespace detail

const char *
backendName()
{
    return "vector";
}

} // namespace kernels
} // namespace cuttlesys
