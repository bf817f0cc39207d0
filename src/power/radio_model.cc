#include "power/radio_model.h"

#include "sim/checkpoint.h"

#include <algorithm>
#include <utility>

namespace leaseos::power {

RadioModel::RadioModel(sim::Simulator &sim, EnergyAccountant &accountant,
                       const DeviceProfile &profile)
    : PowerComponent(sim, accountant, profile, "radio"),
      wifiChannel_(accountant.makeChannel("wifi")),
      cellChannel_(accountant.makeChannel("cell")),
      lastAdvance_(sim.now())
{
    updateWifiPower();
    accountant_.setPower(cellChannel_, profile_.cellIdleMw, {kSystemUid});
}

void
RadioModel::advance()
{
    sim::Time now = sim_.now();
    if (now <= lastAdvance_) {
        lastAdvance_ = now;
        return;
    }
    double dt = (now - lastAdvance_).seconds();
    if (!wifiLockOwners_.empty()) {
        double each = dt / static_cast<double>(wifiLockOwners_.size());
        for (Uid u : wifiLockOwners_) wifiLockSeconds_[u] += each;
    }
    for (const auto &[uid, count] : wifiActiveCount_)
        if (count > 0) wifiActiveSeconds_[uid] += dt;
    lastAdvance_ = now;
}

void
RadioModel::updateWifiPower()
{
    if (wifiActive_ > 0) {
        accountant_.setPower(wifiChannel_, profile_.wifiActiveMw,
                             wifiActiveUids_);
    } else if (!wifiLockOwners_.empty()) {
        accountant_.setPower(wifiChannel_, profile_.wifiLockMw,
                             wifiLockOwners_);
    } else {
        accountant_.setPower(wifiChannel_, profile_.wifiIdleMw,
                             {kSystemUid});
    }
}

void
RadioModel::setWifiLockOwners(std::vector<Uid> owners)
{
    advance();
    wifiLockOwners_ = std::move(owners);
    updateWifiPower();
}

sim::Time
RadioModel::transferWifi(Uid uid, std::uint64_t bytes)
{
    advance();
    double seconds =
        static_cast<double>(bytes) / profile_.wifiThroughputBps;
    // Clamp tiny transfers to a minimal tail time: radios stay in the
    // high-power state briefly after any packet.
    seconds = std::max(seconds, 0.05);
    ++wifiActive_;
    wifiActiveUids_.push_back(uid);
    ++wifiActiveCount_[uid];
    updateWifiPower();
    sim::Time dur = sim::Time::fromSeconds(seconds);
    sim_.schedule(dur, [this, uid] {
        advance();
        --wifiActive_;
        --wifiActiveCount_[uid];
        auto it = std::find(wifiActiveUids_.begin(), wifiActiveUids_.end(),
                            uid);
        if (it != wifiActiveUids_.end()) wifiActiveUids_.erase(it);
        updateWifiPower();
    });
    return dur;
}

sim::Time
RadioModel::transferCell(Uid uid, std::uint64_t bytes)
{
    advance();
    // Cellular throughput modelled at 1/4 of Wi-Fi.
    double seconds = static_cast<double>(bytes) /
        (profile_.wifiThroughputBps / 4.0);
    seconds = std::max(seconds, 0.1);
    ++cellActive_;
    cellActiveUids_.push_back(uid);
    accountant_.setPower(cellChannel_, profile_.cellActiveMw,
                         cellActiveUids_);
    sim::Time dur = sim::Time::fromSeconds(seconds);
    sim_.schedule(dur, [this, uid] {
        advance();
        --cellActive_;
        auto it = std::find(cellActiveUids_.begin(), cellActiveUids_.end(),
                            uid);
        if (it != cellActiveUids_.end()) cellActiveUids_.erase(it);
        if (cellActive_ > 0) {
            accountant_.setPower(cellChannel_, profile_.cellActiveMw,
                                 cellActiveUids_);
        } else {
            accountant_.setPower(cellChannel_, profile_.cellIdleMw,
                                 {kSystemUid});
        }
    });
    return dur;
}

double
RadioModel::wifiLockSeconds(Uid uid)
{
    advance();
    auto it = wifiLockSeconds_.find(uid);
    return it == wifiLockSeconds_.end() ? 0.0 : it->second;
}

double
RadioModel::wifiActiveSeconds(Uid uid)
{
    advance();
    auto it = wifiActiveSeconds_.find(uid);
    return it == wifiActiveSeconds_.end() ? 0.0 : it->second;
}


template <class Io>
void
RadioModel::checkpoint(Io &io)
{
    auto uid = [&](auto &u) { io.u32(u); };
    auto uidSeconds = [&](auto &u, auto &seconds) {
        io.u32(u);
        io.f64(seconds);
    };
    io.beginSection("radio", 1);
    io.seq(wifiLockOwners_, 4, uid);
    io.i64(wifiActive_);
    io.seq(wifiActiveUids_, 4, uid);
    io.i64(cellActive_);
    io.seq(cellActiveUids_, 4, uid);
    io.time(lastAdvance_);
    io.map(wifiLockSeconds_, 4 + 8, uidSeconds);
    io.map(wifiActiveCount_, 4 + 8, [&](auto &u, auto &n) {
        io.u32(u);
        io.i64(n);
    });
    io.map(wifiActiveSeconds_, 4 + 8, uidSeconds);
    io.endSection();
}

template void RadioModel::checkpoint(sim::CheckpointSaver &);
template void RadioModel::checkpoint(sim::CheckpointLoader &);

} // namespace leaseos::power
