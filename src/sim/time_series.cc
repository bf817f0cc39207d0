#include "sim/time_series.h"

#include <algorithm>
#include <cstddef>
#include <iomanip>
#include <map>
#include <sstream>
#include <type_traits>

#include "sim/checkpoint.h"

namespace leaseos::sim {

// The series travels as one block: its points' memory is the wire
// encoding "i64 nanos | f64 bits" per point (host order is wire order,
// see checkpoint.h), so save and restore are single copies.
static_assert(sizeof(Time) == sizeof(std::int64_t) &&
                  std::is_trivially_copyable_v<Time> &&
                  std::is_standard_layout_v<Time>,
              "Time must be a bare int64 nanosecond count");
static_assert(sizeof(TimeSeries::Point) == 16 &&
                  std::is_trivially_copyable_v<TimeSeries::Point> &&
                  std::is_standard_layout_v<TimeSeries::Point>,
              "TimeSeries::Point must be 16 bytes copied as-is");
static_assert(offsetof(TimeSeries::Point, t) == 0 &&
                  offsetof(TimeSeries::Point, value) == 8,
              "TimeSeries::Point must be laid out as (Time, double)");

template <class Io>
void
TimeSeries::checkpoint(Io &io)
{
    io.block(points_);
}

template void TimeSeries::checkpoint(CheckpointSaver &);
template void TimeSeries::checkpoint(CheckpointLoader &);

double
TimeSeries::sum() const
{
    double s = 0.0;
    for (const auto &p : points_) s += p.value;
    return s;
}

double
TimeSeries::mean() const
{
    return points_.empty() ? 0.0
                           : sum() / static_cast<double>(points_.size());
}

double
TimeSeries::max() const
{
    double m = points_.empty() ? 0.0 : points_.front().value;
    for (const auto &p : points_) m = std::max(m, p.value);
    return m;
}

double
TimeSeries::min() const
{
    double m = points_.empty() ? 0.0 : points_.front().value;
    for (const auto &p : points_) m = std::min(m, p.value);
    return m;
}

double
TimeSeries::sumBetween(Time from, Time to) const
{
    double s = 0.0;
    for (const auto &p : points_)
        if (p.t >= from && p.t < to) s += p.value;
    return s;
}

std::string
TimeSeries::toCsv() const
{
    std::ostringstream os;
    os << "time_s," << (name_.empty() ? "value" : name_) << "\n";
    for (const auto &p : points_)
        os << p.t.seconds() << "," << p.value << "\n";
    return os.str();
}

std::string
renderSeriesTable(const std::vector<const TimeSeries *> &series,
                  const std::string &timeUnit)
{
    // Collect the union of timestamps, then fill a row per timestamp.
    // leaselint: allow(flat-map-hotpath) -- report rendering, runs once
    std::map<std::int64_t, std::vector<std::string>> rows;
    for (std::size_t i = 0; i < series.size(); ++i) {
        for (const auto &p : series[i]->points()) {
            auto &row = rows[p.t.nanos()];
            row.resize(series.size());
            std::ostringstream v;
            v << std::fixed << std::setprecision(2) << p.value;
            row[i] = v.str();
        }
    }

    std::ostringstream os;
    os << std::left << std::setw(12) << ("time(" + timeUnit + ")");
    for (const auto *s : series)
        os << std::setw(24) << (s->name().empty() ? "series" : s->name());
    os << "\n";
    for (auto &[ns, row] : rows) {
        double t = static_cast<double>(ns) / 1e9;
        if (timeUnit == "min") t /= 60.0;
        row.resize(series.size());
        std::ostringstream ts;
        ts << std::fixed << std::setprecision(1) << t;
        os << std::setw(12) << ts.str();
        for (const auto &cell : row) os << std::setw(24) << cell;
        os << "\n";
    }
    return os.str();
}

} // namespace leaseos::sim
