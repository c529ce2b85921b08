/**
 * @file
 * Tests for the deterministic RNG and its distributions.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>

#include "common/rng.hh"
#include "common/stats.hh"

namespace cuttlesys {
namespace {

TEST(RngTest, DeterministicForSameSeed)
{
    Rng a(42), b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a(), b());
}

TEST(RngTest, StreamMatchesPinnedValues)
{
    // The first outputs for one seed, recorded from the out-of-line
    // implementation: every seeded experiment, replay reference and
    // bench digest depends on this stream, so moving code between the
    // header and rng.cc must not change a single bit of it.
    const std::uint64_t raw[8] = {
        0x0e48715a13d7772eULL, 0xc837f3ee8a7a1065ULL,
        0x1272314b15ee5001ULL, 0x28e323a6abe2a46bULL,
        0xc60df3b261660aa7ULL, 0x3eaff0863ccf54f5ULL,
        0x64f330b569ae67a8ULL, 0x41cb3a533c517b6cULL,
    };
    const double uniform[8] = {
        0x1.c90e2b427aeep-5,   0x1.906fe7dd14f42p-1,
        0x1.272314b15ee5p-4,   0x1.47191d355f15p-3,
        0x1.8c1be764c2cc1p-1,  0x1.f57f8431e67a8p-3,
        0x1.93ccc2d5a6b98p-2,  0x1.072ce94cf145ep-2,
    };
    const double normal[8] = {
        0x1.ece631e882287p-2,  -0x1.2d4a5a0a83242p+1,
        0x1.3b80c5ab702edp+0,  0x1.ef32693dd10dep+0,
        0x1.7a1ff8003d15fp-6,  0x1.6e9f092142111p-1,
        -0x1.ebe272f0a9473p-5, 0x1.5ce717624f22fp+0,
    };
    const std::int64_t ints[8] = {476, 598, 634, 699, 569, 272, 66, 488};

    Rng a(2024), b(2024), c(2024), d(2024);
    for (int i = 0; i < 8; ++i) {
        EXPECT_EQ(a(), raw[i]) << "draw " << i;
        EXPECT_EQ(b.uniform(), uniform[i]) << "draw " << i;
        EXPECT_EQ(c.normal(), normal[i]) << "draw " << i;
        EXPECT_EQ(d.uniformInt(-50, 1000), ints[i]) << "draw " << i;
    }
}

TEST(RngTest, DifferentSeedsDiverge)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        same += (a() == b()) ? 1 : 0;
    EXPECT_LT(same, 3);
}

TEST(RngTest, UniformInUnitInterval)
{
    Rng rng(7);
    for (int i = 0; i < 10000; ++i) {
        const double u = rng.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
    }
}

TEST(RngTest, UniformMeanIsCentered)
{
    Rng rng(11);
    double sum = 0.0;
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        sum += rng.uniform();
    EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(RngTest, UniformIntCoversRangeInclusive)
{
    Rng rng(3);
    std::set<std::int64_t> seen;
    for (int i = 0; i < 2000; ++i) {
        const auto v = rng.uniformInt(-2, 3);
        EXPECT_GE(v, -2);
        EXPECT_LE(v, 3);
        seen.insert(v);
    }
    EXPECT_EQ(seen.size(), 6u);
}

TEST(RngTest, UniformIntSingleValue)
{
    Rng rng(5);
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(rng.uniformInt(9, 9), 9);
}

TEST(RngTest, NormalMomentsMatch)
{
    Rng rng(13);
    std::vector<double> samples(200000);
    for (auto &s : samples)
        s = rng.normal();
    EXPECT_NEAR(mean(samples), 0.0, 0.02);
    EXPECT_NEAR(stddev(samples), 1.0, 0.02);
}

TEST(RngTest, NormalShiftScale)
{
    Rng rng(17);
    std::vector<double> samples(100000);
    for (auto &s : samples)
        s = rng.normal(5.0, 2.0);
    EXPECT_NEAR(mean(samples), 5.0, 0.05);
    EXPECT_NEAR(stddev(samples), 2.0, 0.05);
}

TEST(RngTest, LognormalMeanAndCv)
{
    Rng rng(19);
    std::vector<double> samples(300000);
    for (auto &s : samples)
        s = rng.lognormalMeanCv(4.0, 0.5);
    EXPECT_NEAR(mean(samples), 4.0, 0.08);
    EXPECT_NEAR(stddev(samples) / mean(samples), 0.5, 0.02);
    EXPECT_GT(minValue(samples), 0.0);
}

TEST(RngTest, LognormalZeroCvIsDeterministic)
{
    Rng rng(23);
    EXPECT_DOUBLE_EQ(rng.lognormalMeanCv(3.0, 0.0), 3.0);
}

TEST(RngTest, ExponentialMeanMatchesRate)
{
    Rng rng(29);
    std::vector<double> samples(200000);
    for (auto &s : samples)
        s = rng.exponential(4.0);
    EXPECT_NEAR(mean(samples), 0.25, 0.005);
    EXPECT_GT(minValue(samples), 0.0);
}

TEST(RngTest, BernoulliFrequency)
{
    Rng rng(31);
    int hits = 0;
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        hits += rng.bernoulli(0.3) ? 1 : 0;
    EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(RngTest, SampleWithoutReplacementIsDistinct)
{
    Rng rng(37);
    const auto picks = rng.sampleWithoutReplacement(28, 16);
    EXPECT_EQ(picks.size(), 16u);
    std::set<std::size_t> unique(picks.begin(), picks.end());
    EXPECT_EQ(unique.size(), 16u);
    for (auto p : picks)
        EXPECT_LT(p, 28u);
}

TEST(RngTest, SampleWholePopulation)
{
    Rng rng(41);
    const auto picks = rng.sampleWithoutReplacement(5, 5);
    std::set<std::size_t> unique(picks.begin(), picks.end());
    EXPECT_EQ(unique.size(), 5u);
}

TEST(RngTest, SplitProducesIndependentStream)
{
    Rng parent(43);
    Rng child = parent.split();
    // The child's stream should differ from the parent's continuation.
    int same = 0;
    for (int i = 0; i < 50; ++i)
        same += (parent() == child()) ? 1 : 0;
    EXPECT_LT(same, 2);
}

TEST(RngTest, SatisfiesUniformRandomBitGenerator)
{
    Rng rng(47);
    std::vector<int> v{1, 2, 3, 4, 5};
    std::shuffle(v.begin(), v.end(), rng); // must compile and run
    std::sort(v.begin(), v.end());
    EXPECT_EQ(v, (std::vector<int>{1, 2, 3, 4, 5}));
}

} // namespace
} // namespace cuttlesys
