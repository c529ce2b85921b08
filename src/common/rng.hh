/**
 * @file
 * Deterministic random-number generation.
 *
 * All stochastic components of the simulator (workload synthesis,
 * arrival processes, SGD initialization, DDS perturbations, GA
 * operators) draw from an explicitly threaded Rng so that every
 * experiment is reproducible from a single seed. We implement
 * xoshiro256** rather than relying on std::mt19937 so the stream is
 * identical across standard libraries, and we implement the
 * distributions on top of it for the same reason.
 */

#ifndef CUTTLESYS_COMMON_RNG_HH
#define CUTTLESYS_COMMON_RNG_HH

#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

namespace cuttlesys {

/**
 * A lognormal distribution given by the mean and coefficient of
 * variation of its samples, converted once to the underlying normal's
 * mu and sigma so that repeated draws (one per request in the queue
 * simulator) skip the two logs and the square root.
 */
struct LognormalParams
{
    LognormalParams(double mean, double cv);

    double mean;            //!< every sample when degenerate
    double mu = 0.0;        //!< mean of the underlying normal
    double sigma = 0.0;     //!< stddev of the underlying normal
    bool degenerate;        //!< cv == 0: no draw, the mean itself
};

/**
 * xoshiro256** pseudo-random generator with distribution helpers.
 *
 * Satisfies the UniformRandomBitGenerator concept, so it can also be
 * handed to standard algorithms (e.g. std::shuffle).
 */
class Rng
{
  public:
    using result_type = std::uint64_t;

    /** Seed via SplitMix64 expansion of a single 64-bit value. */
    explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

    static constexpr result_type min() { return 0; }
    static constexpr result_type max() { return ~0ULL; }

    /** Next raw 64-bit output. Inline: DDS draws 16 per candidate and
     *  the queue simulator one per arrival. */
    result_type
    operator()()
    {
        const std::uint64_t result = std::rotl(s_[1] * 5, 7) * 9;
        const std::uint64_t t = s_[1] << 17;

        s_[2] ^= s_[0];
        s_[3] ^= s_[1];
        s_[1] ^= s_[2];
        s_[0] ^= s_[3];
        s_[2] ^= t;
        s_[3] = std::rotl(s_[3], 45);

        return result;
    }

    /** Uniform double in [0, 1). */
    double
    uniform()
    {
        // 53 high-quality bits into [0, 1).
        return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
    }

    /** Uniform double in [lo, hi). */
    double uniform(double lo, double hi);

    /** Uniform integer in [lo, hi] inclusive. */
    std::int64_t uniformInt(std::int64_t lo, std::int64_t hi);

    /** Standard normal via Box-Muller (cached spare value). */
    double normal();

    /** Normal with the given mean and standard deviation. */
    double normal(double mean, double stddev);

    /**
     * Lognormal sample parameterized by the mean and coefficient of
     * variation of the *resulting* distribution (more convenient for
     * service-time models than mu/sigma of the underlying normal).
     */
    double lognormalMeanCv(double mean, double cv)
    {
        return lognormal(LognormalParams(mean, cv));
    }

    /** Lognormal sample with precomputed parameters. */
    double
    lognormal(const LognormalParams &params)
    {
        if (params.degenerate)
            return params.mean;
        return std::exp(params.mu + params.sigma * normal());
    }

    /** Exponential sample with the given rate (events per unit time). */
    double exponential(double rate);

    /** Bernoulli trial with probability p of returning true. */
    bool bernoulli(double p);

    /**
     * Sample k distinct indices from [0, n) without replacement
     * (partial Fisher-Yates).
     */
    std::vector<std::size_t> sampleWithoutReplacement(std::size_t n,
                                                      std::size_t k);

    /**
     * Split off an independent child generator. The child is seeded
     * from this generator's stream, so distinct calls give distinct,
     * reproducible streams.
     */
    Rng split();

  private:
    std::uint64_t s_[4];
    double spareNormal_ = 0.0;
    bool hasSpare_ = false;
};

} // namespace cuttlesys

#endif // CUTTLESYS_COMMON_RNG_HH
