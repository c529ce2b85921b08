#include "common/rng.hh"

#include <cmath>

#include "common/logging.hh"

namespace cuttlesys {

namespace {

/** SplitMix64 step, used only for seeding. */
std::uint64_t
splitMix64(std::uint64_t &x)
{
    x += 0x9e3779b97f4a7c15ULL;
    std::uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

} // namespace

Rng::Rng(std::uint64_t seed)
{
    std::uint64_t sm = seed;
    for (auto &word : s_)
        word = splitMix64(sm);
    // xoshiro must not start from the all-zero state.
    if (!(s_[0] | s_[1] | s_[2] | s_[3]))
        s_[0] = 0x1ULL;
}

double
Rng::uniform(double lo, double hi)
{
    CS_ASSERT(lo <= hi, "uniform bounds inverted");
    return lo + (hi - lo) * uniform();
}

std::int64_t
Rng::uniformInt(std::int64_t lo, std::int64_t hi)
{
    CS_ASSERT(lo <= hi, "uniformInt bounds inverted");
    const std::uint64_t range = static_cast<std::uint64_t>(hi - lo) + 1;
    if (range == 0)
        return static_cast<std::int64_t>((*this)());
    // Rejection sampling to avoid modulo bias.
    const std::uint64_t limit = (~0ULL) - (~0ULL) % range;
    std::uint64_t draw;
    do {
        draw = (*this)();
    } while (draw >= limit);
    return lo + static_cast<std::int64_t>(draw % range);
}

double
Rng::normal()
{
    if (hasSpare_) {
        hasSpare_ = false;
        return spareNormal_;
    }
    double u1, u2;
    do {
        u1 = uniform();
    } while (u1 <= 0.0);
    u2 = uniform();
    const double mag = std::sqrt(-2.0 * std::log(u1));
    spareNormal_ = mag * std::sin(2.0 * M_PI * u2);
    hasSpare_ = true;
    return mag * std::cos(2.0 * M_PI * u2);
}

double
Rng::normal(double mean, double stddev)
{
    CS_ASSERT(stddev >= 0.0, "negative stddev");
    return mean + stddev * normal();
}

LognormalParams::LognormalParams(double mean_value, double cv)
    : mean(mean_value), degenerate(cv == 0.0)
{
    CS_ASSERT(mean > 0.0 && cv >= 0.0, "invalid lognormal parameters");
    if (degenerate)
        return;
    const double sigma2 = std::log(1.0 + cv * cv);
    mu = std::log(mean) - 0.5 * sigma2;
    sigma = std::sqrt(sigma2);
}

double
Rng::exponential(double rate)
{
    CS_ASSERT(rate > 0.0, "exponential rate must be positive");
    double u;
    do {
        u = uniform();
    } while (u <= 0.0);
    return -std::log(u) / rate;
}

bool
Rng::bernoulli(double p)
{
    return uniform() < p;
}

std::vector<std::size_t>
Rng::sampleWithoutReplacement(std::size_t n, std::size_t k)
{
    CS_ASSERT(k <= n, "cannot sample ", k, " from ", n);
    std::vector<std::size_t> pool(n);
    for (std::size_t i = 0; i < n; ++i)
        pool[i] = i;
    for (std::size_t i = 0; i < k; ++i) {
        const auto j = static_cast<std::size_t>(
            uniformInt(static_cast<std::int64_t>(i),
                       static_cast<std::int64_t>(n - 1)));
        std::swap(pool[i], pool[j]);
    }
    pool.resize(k);
    return pool;
}

Rng
Rng::split()
{
    return Rng((*this)());
}

} // namespace cuttlesys
