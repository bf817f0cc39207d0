#include "power/power_profiler.h"

#include <stdexcept>

#include "sim/checkpoint.h"

namespace leaseos::power {

PowerProfiler::PowerProfiler(sim::Simulator &sim,
                             EnergyAccountant &accountant, sim::Time period)
    : sim_(sim), accountant_(accountant), period_(period),
      total_("total_mw")
{
}

void
PowerProfiler::watchUid(Uid uid)
{
    perUid_.emplace(
        uid, Watched{sim::TimeSeries("uid" + std::to_string(uid) + "_mw")});
}

void
PowerProfiler::start()
{
    if (running_) return;
    running_ = true;
    accountant_.sync();
    lastTotalMj_ = accountant_.totalEnergyMj();
    for (auto &[uid, watched] : perUid_)
        watched.lastMj = accountant_.uidEnergyMj(uid);
    tick_ = sim_.schedulePeriodicScoped(period_, [this] { sample(); });
}

void
PowerProfiler::sample()
{
    double dt = period_.seconds();
    // One sync covers the whole sample: every read below is as-of-now.
    accountant_.sync();
    double total = accountant_.totalEnergyMj();
    total_.record(sim_.now(), (total - lastTotalMj_) / dt);
    lastTotalMj_ = total;
    for (auto &[uid, watched] : perUid_) {
        double mj = accountant_.uidEnergyMj(uid);
        watched.series.record(sim_.now(), (mj - watched.lastMj) / dt);
        watched.lastMj = mj;
    }
}

const sim::TimeSeries &
PowerProfiler::uidSeries(Uid uid) const
{
    auto it = perUid_.find(uid);
    if (it == perUid_.end())
        throw std::out_of_range("uid not watched: " + std::to_string(uid));
    return it->second.series;
}

double
PowerProfiler::averageUidPowerMw(Uid uid) const
{
    return uidSeries(uid).mean();
}

double
PowerProfiler::averageTotalPowerMw() const
{
    return total_.mean();
}

template <class Io>
void
PowerProfiler::checkpoint(Io &io)
{
    io.beginSection("profiler", 1);
    io.u8(running_);
    io.expect("period", period_);
    io.f64(lastTotalMj_);
    total_.checkpoint(io);
    io.expect("uids", static_cast<std::uint64_t>(perUid_.size()));
    for (auto &[uid, watched] : perUid_) {
        io.expect("uid", static_cast<std::uint32_t>(uid));
        io.f64(watched.lastMj);
        watched.series.checkpoint(io);
    }
    io.endSection();
    if constexpr (Io::kLoading) {
        tick_.cancel();
        if (running_)
            tick_ =
                sim_.schedulePeriodicScoped(period_, [this] { sample(); });
    }
}

template void PowerProfiler::checkpoint(sim::CheckpointSaver &);
template void PowerProfiler::checkpoint(sim::CheckpointLoader &);

} // namespace leaseos::power
