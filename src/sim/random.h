#ifndef LEASEOS_SIM_RANDOM_H
#define LEASEOS_SIM_RANDOM_H

/**
 * @file
 * Deterministic random source for simulations.
 *
 * All stochastic behaviour (user interaction jitter, network latency,
 * environment flaps, the Fig. 12 random misbehaviour slices) draws from a
 * seeded RandomSource so that every experiment is exactly reproducible.
 *
 * Thread-safety: a RandomSource owns its engine outright (no global or
 * thread-local state anywhere in this module), so each Device's stream is
 * fully isolated. Never share one instance across concurrently running
 * Devices — the engine mutates on every draw; give each run its own seed
 * instead (see harness::deriveSeed).
 */

#include <cstdint>
#include <random>

#include "sim/time.h"

namespace leaseos::sim {

/**
 * Seeded pseudo-random generator with simulation-friendly helpers.
 */
class RandomSource
{
  public:
    explicit RandomSource(std::uint64_t seed = 0x1ea5e05) : rng_(seed) {}

    /** Re-seed, restarting the stream. */
    void reseed(std::uint64_t seed) { rng_.seed(seed); }

    /** Uniform double in [0, 1). */
    double
    uniform()
    {
        return std::uniform_real_distribution<double>(0.0, 1.0)(rng_);
    }

    /** Uniform double in [lo, hi). */
    double
    uniform(double lo, double hi)
    {
        return std::uniform_real_distribution<double>(lo, hi)(rng_);
    }

    /** Uniform integer in [lo, hi] inclusive. */
    std::int64_t
    uniformInt(std::int64_t lo, std::int64_t hi)
    {
        return std::uniform_int_distribution<std::int64_t>(lo, hi)(rng_);
    }

    /** Bernoulli trial with probability @p p of true. */
    bool chance(double p) { return uniform() < p; }

    /** Normal variate; @p sd must be >= 0. */
    double
    gaussian(double mean, double sd)
    {
        return std::normal_distribution<double>(mean, sd)(rng_);
    }

    /** Exponential variate with the given mean (for arrival processes). */
    double
    exponential(double mean)
    {
        return std::exponential_distribution<double>(1.0 / mean)(rng_);
    }

    /** Uniform duration in [lo, hi). */
    Time
    uniformTime(Time lo, Time hi)
    {
        return Time::fromNanos(uniformInt(lo.nanos(), hi.nanos() - 1));
    }

    /** Underlying engine, for use with std distributions/algorithms. */
    std::mt19937_64 &engine() { return rng_; }

    /**
     * The "rng" section's field list (DESIGN.md §11): the engine's exact
     * position in its stream, via the standard mt19937_64 stream
     * representation under the classic locale.
     */
    template <class Io> void checkpoint(Io &io);

  private:
    std::mt19937_64 rng_;
};

} // namespace leaseos::sim

#endif // LEASEOS_SIM_RANDOM_H
