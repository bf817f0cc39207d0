#ifndef LEASEOS_SIM_STATS_H
#define LEASEOS_SIM_STATS_H

/**
 * @file
 * Lightweight statistics primitives used across the simulator.
 *
 * Counter accumulates monotonically-increasing totals (CPU time, bytes);
 * Accumulator tracks moments of a sample stream (mean / min / max / stddev);
 * Histogram buckets samples for distribution reporting.
 */

#include <cstdint>
#include <string>
#include <vector>

namespace leaseos::sim {

/**
 * Monotonic counter with checkpoint support.
 *
 * Lease accounting reads per-term deltas of OS counters (e.g. per-uid CPU
 * time); checkpoint()/delta() give that without the caller storing copies.
 */
class Counter
{
  public:
    void add(double v) { total_ += v; }
    void increment() { total_ += 1.0; }

    double total() const { return total_; }

    /** Record the current total as the new reference point. */
    void checkpoint() { mark_ = total_; }

    /** Total accumulated since the last checkpoint(). */
    double delta() const { return total_ - mark_; }

    void reset() { total_ = 0.0; mark_ = 0.0; }

  private:
    double total_ = 0.0;
    double mark_ = 0.0;
};

/**
 * Streaming sample statistics (Welford's algorithm for variance).
 */
class Accumulator
{
  public:
    void record(double v);

    std::uint64_t count() const { return n_; }
    double mean() const { return n_ ? mean_ : 0.0; }
    double min() const { return n_ ? min_ : 0.0; }
    double max() const { return n_ ? max_ : 0.0; }
    double sum() const { return sum_; }
    /** Sample variance; 0 when fewer than two samples. */
    double variance() const;
    double stddev() const;

    void reset();

    /** Field list, embedded in the owner's section (DESIGN.md §11). */
    template <class Io> void checkpoint(Io &io);

  private:
    std::uint64_t n_ = 0;
    double mean_ = 0.0;
    double m2_ = 0.0;
    double sum_ = 0.0;
    double min_ = 0.0;
    double max_ = 0.0;
};

/**
 * Fixed-width histogram over [lo, hi) with overflow/underflow buckets.
 */
class Histogram
{
  public:
    Histogram(double lo, double hi, std::size_t buckets);

    void record(double v);

    std::uint64_t count() const { return count_; }
    std::uint64_t bucketCount(std::size_t i) const { return buckets_.at(i); }
    std::size_t buckets() const { return buckets_.size(); }
    std::uint64_t underflow() const { return underflow_; }
    std::uint64_t overflow() const { return overflow_; }

    /** Approximate quantile (linear within the winning bucket). */
    double quantile(double q) const;

    /** Multi-line ASCII rendering for reports. */
    std::string toString(const std::string &label = "") const;

  private:
    double lo_;
    double hi_;
    double width_;
    std::vector<std::uint64_t> buckets_;
    std::uint64_t underflow_ = 0;
    std::uint64_t overflow_ = 0;
    std::uint64_t count_ = 0;
};

} // namespace leaseos::sim

#endif // LEASEOS_SIM_STATS_H
