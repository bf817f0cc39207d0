#include "sim/stats.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <sstream>

#include "sim/checkpoint.h"

namespace leaseos::sim {

void
Accumulator::record(double v)
{
    if (n_ == 0) {
        min_ = v;
        max_ = v;
    } else {
        min_ = std::min(min_, v);
        max_ = std::max(max_, v);
    }
    ++n_;
    sum_ += v;
    double d = v - mean_;
    mean_ += d / static_cast<double>(n_);
    m2_ += d * (v - mean_);
}

double
Accumulator::variance() const
{
    if (n_ < 2) return 0.0;
    return m2_ / static_cast<double>(n_ - 1);
}

double
Accumulator::stddev() const
{
    return std::sqrt(variance());
}

void
Accumulator::reset()
{
    n_ = 0;
    mean_ = m2_ = sum_ = min_ = max_ = 0.0;
}

template <class Io>
void
Accumulator::checkpoint(Io &io)
{
    io.u64(n_);
    io.f64(mean_);
    io.f64(m2_);
    io.f64(sum_);
    io.f64(min_);
    io.f64(max_);
}

template void Accumulator::checkpoint(CheckpointSaver &);
template void Accumulator::checkpoint(CheckpointLoader &);

Histogram::Histogram(double lo, double hi, std::size_t buckets)
    : lo_(lo), hi_(hi),
      width_((hi - lo) / static_cast<double>(buckets)),
      buckets_(buckets, 0)
{
    assert(hi > lo && buckets > 0);
}

void
Histogram::record(double v)
{
    ++count_;
    if (v < lo_) {
        ++underflow_;
        return;
    }
    if (v >= hi_) {
        ++overflow_;
        return;
    }
    auto idx = static_cast<std::size_t>((v - lo_) / width_);
    if (idx >= buckets_.size()) idx = buckets_.size() - 1;
    ++buckets_[idx];
}

double
Histogram::quantile(double q) const
{
    if (count_ == 0) return lo_;
    q = std::clamp(q, 0.0, 1.0);
    // Rank of the q-th sample. q=1.0 must select the *last* sample (rank
    // count_-1), not the one-past-the-end rank count_ — otherwise the
    // scan always falls through to hi_ even when every sample sits in a
    // low bucket and there is no overflow mass.
    auto target = static_cast<std::uint64_t>(
        q * static_cast<double>(count_));
    if (target >= count_) target = count_ - 1;
    std::uint64_t seen = underflow_;
    if (seen > target) return lo_;
    for (std::size_t i = 0; i < buckets_.size(); ++i) {
        if (seen + buckets_[i] > target) {
            double frac = buckets_[i] == 0
                ? 0.0
                : static_cast<double>(target - seen) /
                      static_cast<double>(buckets_[i]);
            return lo_ + (static_cast<double>(i) + frac) * width_;
        }
        seen += buckets_[i];
    }
    return hi_;
}

std::string
Histogram::toString(const std::string &label) const
{
    std::ostringstream os;
    if (!label.empty()) os << label << "\n";
    std::uint64_t peak = 1;
    for (auto b : buckets_) peak = std::max(peak, b);
    for (std::size_t i = 0; i < buckets_.size(); ++i) {
        double b_lo = lo_ + static_cast<double>(i) * width_;
        os << "[" << b_lo << ", " << b_lo + width_ << ") ";
        auto bars = static_cast<std::size_t>(
            40.0 * static_cast<double>(buckets_[i]) /
            static_cast<double>(peak));
        os << std::string(bars, '#') << " " << buckets_[i] << "\n";
    }
    return os.str();
}

} // namespace leaseos::sim
