/**
 * @file
 * Bitwise equivalence of the vectorized and scalar kernel paths.
 *
 * The determinism contract (kernels.hh) is that detail::*Vec and
 * detail::*Scalar perform the identical additions in the identical
 * order, so their results agree bit for bit — not approximately —
 * for every length, including the awkward remainders around the lane
 * width. These tests compare the two detail paths directly.
 */

#include <bit>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "common/kernels.hh"
#include "common/rng.hh"

namespace cuttlesys {
namespace {

using kernels::kLanes;

std::uint64_t
bits(double v)
{
    return std::bit_cast<std::uint64_t>(v);
}

/** EXPECT bit-identical doubles (== would conflate -0.0 and +0.0). */
#define EXPECT_BITEQ(a, b) EXPECT_EQ(bits(a), bits(b))

std::vector<double>
randomVector(std::size_t n, Rng &rng)
{
    std::vector<double> v(n);
    for (double &x : v)
        x = rng.uniform(-3.0, 3.0);
    return v;
}

/** Sizes straddling every lane-remainder class, plus 0 and 1. */
const std::size_t kSizes[] = {0,  1,  2,  3,  4,  5,  6,  7,  8,
                              9,  15, 16, 17, 31, 33, 63, 64, 65,
                              66, 67};

TEST(Kernels, PaddedRoundsUpToLaneMultiples)
{
    EXPECT_EQ(kernels::padded(0), 0u);
    EXPECT_EQ(kernels::padded(1), kLanes);
    EXPECT_EQ(kernels::padded(kLanes), kLanes);
    EXPECT_EQ(kernels::padded(kLanes + 1), 2 * kLanes);
    EXPECT_EQ(kernels::padded(12), 12u);
    EXPECT_EQ(kernels::padded(13), 16u);
}

TEST(Kernels, DotVecMatchesScalarBitwise)
{
    Rng rng(11);
    for (std::size_t n : kSizes) {
        const auto a = randomVector(n, rng);
        const auto b = randomVector(n, rng);
        EXPECT_BITEQ(kernels::detail::dotVec(a.data(), b.data(), n),
                     kernels::detail::dotScalar(a.data(), b.data(), n))
            << "n=" << n;
    }
}

TEST(Kernels, SumVecMatchesScalarBitwise)
{
    Rng rng(13);
    for (std::size_t n : kSizes) {
        const auto a = randomVector(n, rng);
        EXPECT_BITEQ(kernels::detail::sumVec(a.data(), n),
                     kernels::detail::sumScalar(a.data(), n))
            << "n=" << n;
    }
}

TEST(Kernels, GatherSumVecMatchesScalarBitwise)
{
    Rng rng(17);
    constexpr std::size_t kStride = 9;
    for (std::size_t n : kSizes) {
        const auto table = randomVector(n * kStride + kStride, rng);
        std::vector<std::uint16_t> idx(n);
        for (auto &i : idx) {
            i = static_cast<std::uint16_t>(
                rng.uniformInt(0, kStride - 1));
        }
        EXPECT_BITEQ(kernels::detail::gatherSumVec(
                         table.data(), kStride, idx.data(), n),
                     kernels::detail::gatherSumScalar(
                         table.data(), kStride, idx.data(), n))
            << "n=" << n;
    }
}

TEST(Kernels, GatherSumStrideZeroSumsLookupTable)
{
    // stride = 0 degenerates to summing table[idx[j]] — the per-config
    // ways walk. Check both paths against a directly computed answer.
    Rng rng(19);
    const auto table = randomVector(12, rng);
    std::vector<std::uint16_t> idx = {3, 3, 0, 11, 7, 3, 5};

    double lanes[kLanes] = {0.0, 0.0, 0.0, 0.0};
    for (std::size_t j = 0; j < idx.size(); ++j)
        lanes[j % kLanes] += table[idx[j]];
    const double want = kernels::detail::reduceLanes(lanes);

    EXPECT_BITEQ(kernels::detail::gatherSumVec(table.data(), 0,
                                               idx.data(), idx.size()),
                 want);
    EXPECT_BITEQ(kernels::gatherSum(table.data(), 0, idx.data(),
                                    idx.size()),
                 want);
}

TEST(Kernels, AxpyVecMatchesScalarBitwise)
{
    Rng rng(23);
    for (std::size_t n : kSizes) {
        const auto x = randomVector(n, rng);
        auto y_vec = randomVector(n, rng);
        auto y_scalar = y_vec;
        kernels::detail::axpyVec(y_vec.data(), 1.7, x.data(), n);
        kernels::detail::axpyScalar(y_scalar.data(), 1.7, x.data(), n);
        for (std::size_t i = 0; i < n; ++i)
            EXPECT_BITEQ(y_vec[i], y_scalar[i]) << "n=" << n
                                                << " i=" << i;
    }
}

TEST(Kernels, SgdRankStepVecMatchesScalarBitwise)
{
    Rng rng(29);
    for (std::size_t n : kSizes) {
        auto q_vec = randomVector(n, rng);
        auto p_vec = randomVector(n, rng);
        auto q_scalar = q_vec;
        auto p_scalar = p_vec;
        kernels::detail::sgdRankStepVec(q_vec.data(), p_vec.data(), n,
                                        0.03, 0.02, 0.4);
        kernels::detail::sgdRankStepScalar(q_scalar.data(),
                                           p_scalar.data(), n, 0.03,
                                           0.02, 0.4);
        for (std::size_t i = 0; i < n; ++i) {
            EXPECT_BITEQ(q_vec[i], q_scalar[i]) << "n=" << n;
            EXPECT_BITEQ(p_vec[i], p_scalar[i]) << "n=" << n;
        }
    }
}

TEST(Kernels, SgdRankStepPreservesLanePadding)
{
    // SgdFactors pads each rank-r row to stride = padded(r) with
    // zeros and runs the update over the full stride; the update must
    // map (0, 0) -> (0, 0) so padding never contaminates a dot.
    constexpr std::size_t kRank = 6;
    constexpr std::size_t kStride = kernels::padded(kRank);
    std::vector<double> q(kStride, 0.0), p(kStride, 0.0);
    Rng rng(31);
    for (std::size_t i = 0; i < kRank; ++i) {
        q[i] = rng.uniform(-1.0, 1.0);
        p[i] = rng.uniform(-1.0, 1.0);
    }
    for (int step = 0; step < 50; ++step) {
        kernels::sgdRankStep(q.data(), p.data(), kStride, 0.03, 0.02,
                             rng.uniform(-2.0, 2.0));
    }
    for (std::size_t i = kRank; i < kStride; ++i) {
        EXPECT_BITEQ(q[i], 0.0);
        EXPECT_BITEQ(p[i], 0.0);
    }
}

TEST(Kernels, LogFillVecMatchesScalarBitwise)
{
    Rng rng(37);
    for (std::size_t n : kSizes) {
        auto src = randomVector(n, rng);
        if (n > 2)
            src[n / 2] = -1.0; // exercises the floor
        std::vector<double> dst_vec(n, -99.0), dst_scalar(n, -99.0);
        const double sum_vec = kernels::detail::logFillVec(
            dst_vec.data(), src.data(), n, 1e-6);
        const double sum_scalar = kernels::detail::logFillScalar(
            dst_scalar.data(), src.data(), n, 1e-6);
        EXPECT_BITEQ(sum_vec, sum_scalar) << "n=" << n;
        for (std::size_t i = 0; i < n; ++i)
            EXPECT_BITEQ(dst_vec[i], dst_scalar[i]) << "n=" << n;
    }
}

TEST(Kernels, LogGatherSumVecMatchesScalarBitwise)
{
    Rng rng(41);
    constexpr std::size_t kStride = 7;
    for (std::size_t n : kSizes) {
        auto table = randomVector(n * kStride + kStride, rng);
        for (double &v : table)
            v = std::abs(v) + 0.1;
        std::vector<std::uint16_t> idx(n);
        for (auto &i : idx) {
            i = static_cast<std::uint16_t>(
                rng.uniformInt(0, kStride - 1));
        }
        EXPECT_BITEQ(
            kernels::detail::logGatherSumVec(table.data(), kStride,
                                             idx.data(), n, 1e-6),
            kernels::detail::logGatherSumScalar(table.data(), kStride,
                                                idx.data(), n, 1e-6))
            << "n=" << n;
    }
}

TEST(Kernels, PublicDispatchMatchesDeclaredBackend)
{
    // The public entry points route to the lane-blocked vector path,
    // which must agree bitwise with the scalar reference.
    EXPECT_STREQ(kernels::backendName(), "vector");

    Rng rng(43);
    const auto a = randomVector(33, rng);
    const auto b = randomVector(33, rng);
    EXPECT_BITEQ(kernels::dot(a.data(), b.data(), a.size()),
                 kernels::detail::dotScalar(a.data(), b.data(),
                                            a.size()));
}

TEST(Kernels, CopyAndFill)
{
    Rng rng(47);
    const auto src = randomVector(19, rng);
    std::vector<double> dst(19, 0.0);
    kernels::copy(dst.data(), src.data(), src.size());
    for (std::size_t i = 0; i < src.size(); ++i)
        EXPECT_BITEQ(dst[i], src[i]);
    kernels::copy(dst.data(), nullptr, 0); // n = 0 must be safe

    kernels::fill(dst.data(), 2.5, dst.size());
    for (double v : dst)
        EXPECT_BITEQ(v, 2.5);
}

} // namespace
} // namespace cuttlesys
