/**
 * @file
 * Deterministic random-number generation for the simulator.
 *
 * All stochastic behaviour (probabilistic index update, workload
 * synthesis, random replacement) draws from explicitly seeded Rng
 * instances so that every run is exactly repeatable. The generator is
 * xoshiro256**, seeded through splitmix64 as its author recommends.
 */

#ifndef STMS_COMMON_RNG_HH
#define STMS_COMMON_RNG_HH

#include <array>
#include <cstdint>

#include "common/log.hh"

namespace stms
{

/** splitmix64 step, used for seeding and hashing. */
constexpr std::uint64_t
splitMix64(std::uint64_t &state)
{
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

/** xoshiro256** pseudo-random generator. */
class Rng
{
  public:
    explicit Rng(std::uint64_t seed = 0x5742'4d53ULL) { reseed(seed); }

    /** Reset the generator state from a 64-bit seed. */
    void
    reseed(std::uint64_t seed)
    {
        std::uint64_t sm = seed;
        for (auto &word : state_)
            word = splitMix64(sm);
    }

    /** Next raw 64-bit value. */
    std::uint64_t
    next()
    {
        const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
        const std::uint64_t t = state_[1] << 17;
        state_[2] ^= state_[0];
        state_[3] ^= state_[1];
        state_[1] ^= state_[2];
        state_[0] ^= state_[3];
        state_[2] ^= t;
        state_[3] = rotl(state_[3], 45);
        return result;
    }

    /** Uniform integer in [0, bound). @p bound must be nonzero. */
    std::uint64_t
    below(std::uint64_t bound)
    {
        stms_assert(bound != 0, "Rng::below(0)");
        // Lemire's nearly-divisionless bounded generation.
        __uint128_t product = static_cast<__uint128_t>(next()) * bound;
        auto low = static_cast<std::uint64_t>(product);
        if (low < bound) {
            std::uint64_t threshold = (0 - bound) % bound;
            while (low < threshold) {
                product = static_cast<__uint128_t>(next()) * bound;
                low = static_cast<std::uint64_t>(product);
            }
        }
        return static_cast<std::uint64_t>(product >> 64);
    }

    /** Uniform integer in [lo, hi] inclusive. */
    std::uint64_t
    range(std::uint64_t lo, std::uint64_t hi)
    {
        stms_assert(lo <= hi, "Rng::range with lo > hi");
        return lo + below(hi - lo + 1);
    }

    /** Uniform double in [0, 1). */
    double
    uniform()
    {
        return static_cast<double>(next() >> 11) * 0x1.0p-53;
    }

    /** Bernoulli trial with success probability @p p. */
    bool
    chance(double p)
    {
        if (p <= 0.0)
            return false;
        if (p >= 1.0)
            return true;
        return uniform() < p;
    }

    /** Geometric: number of failures before first success. */
    std::uint64_t
    geometric(double p)
    {
        stms_assert(p > 0.0 && p <= 1.0, "geometric p out of range");
        if (p >= 1.0)
            return 0;
        std::uint64_t count = 0;
        while (!chance(p) && count < (1ULL << 24))
            ++count;
        return count;
    }

  private:
    static constexpr std::uint64_t
    rotl(std::uint64_t x, int k)
    {
        return (x << k) | (x >> (64 - k));
    }

    std::array<std::uint64_t, 4> state_{};
};

} // namespace stms

#endif // STMS_COMMON_RNG_HH
