/// \file rng.hpp
/// \brief Deterministic, named random-number streams.
///
/// Reproducibility is a first-class requirement for MCPS validation
/// campaigns (the same scenario seed must yield the same trajectory on any
/// platform), so the framework does not use std::mt19937 whose seeding and
/// distribution implementations vary across standard libraries. Instead we
/// implement splitmix64 + xoshiro256** from their published reference
/// algorithms and our own inverse-CDF / Box-Muller-free samplers.
///
/// Streams are *named*: RngStream{master_seed, "pulse_ox.noise"} always
/// produces the same sequence, regardless of how many other streams exist
/// or the order in which they are drawn from. This keeps experiments
/// variance-reduced: adding a new noise source does not perturb existing
/// ones.

#pragma once

#include <cstdint>
#include <string_view>

#include "hash.hpp"

namespace mcps::sim {

/// splitmix64 step; used for seed expansion (reference: Steele et al.).
[[nodiscard]] constexpr std::uint64_t splitmix64(std::uint64_t& state) noexcept {
    std::uint64_t z = (state += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
}

/// A deterministic pseudo-random stream (xoshiro256**).
///
/// Satisfies the UniformRandomBitGenerator concept, but prefer the typed
/// samplers below over std:: distributions for cross-platform determinism.
class RngStream {
public:
    using result_type = std::uint64_t;

    /// Stream derived from a master seed and a stable stream name.
    RngStream(std::uint64_t master_seed, std::string_view name) noexcept;

    /// Stream from a raw seed (tests, micro-benchmarks).
    explicit RngStream(std::uint64_t seed) noexcept;

    [[nodiscard]] static constexpr result_type min() noexcept { return 0; }
    [[nodiscard]] static constexpr result_type max() noexcept {
        return ~static_cast<result_type>(0);
    }

    /// Next raw 64 bits.
    result_type operator()() noexcept { return next(); }
    result_type next() noexcept;

    /// Uniform double in [0, 1).
    [[nodiscard]] double uniform() noexcept;
    /// Uniform double in [lo, hi).
    [[nodiscard]] double uniform(double lo, double hi) noexcept;
    /// Uniform integer in [lo, hi] (inclusive); requires lo <= hi.
    [[nodiscard]] std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) noexcept;
    /// Bernoulli trial with success probability p (clamped to [0,1]).
    [[nodiscard]] bool bernoulli(double p) noexcept;
    /// Standard normal via Marsaglia polar method (deterministic given stream).
    [[nodiscard]] double normal() noexcept;
    /// Normal with the given mean and standard deviation.
    [[nodiscard]] double normal(double mean, double sd) noexcept;
    /// Truncated normal: resamples until the value lies in [lo, hi].
    [[nodiscard]] double normal_truncated(double mean, double sd, double lo,
                                          double hi) noexcept;
    /// Exponential with the given mean (= 1/rate); mean must be > 0.
    [[nodiscard]] double exponential(double mean) noexcept;
    /// Log-normal such that the *underlying* normal has (mu, sigma).
    [[nodiscard]] double lognormal(double mu, double sigma) noexcept;
    /// Index in [0, n) — for choosing among n alternatives; requires n > 0.
    [[nodiscard]] std::size_t pick(std::size_t n) noexcept;

private:
    void seed_from(std::uint64_t seed) noexcept;
    std::uint64_t s_[4]{};
    double cached_normal_{0};
    bool has_cached_normal_{false};
};

}  // namespace mcps::sim
