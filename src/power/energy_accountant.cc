#include "power/energy_accountant.h"

#include <algorithm>
#include <cassert>

#include "obs/trace.h"
#include "sim/checkpoint.h"

namespace leaseos::power {

ChannelId
EnergyAccountant::makeChannel(std::string name)
{
    // Creating a channel does not change power, but sync first so channel
    // indices never see time before their creation.
    sync();
    channels_.emplace_back();
    channels_.back().name = std::move(name);
    if (metrics_)
        channels_.back().metric =
            metrics_->gauge("power." + channels_.back().name + ".mj");
    return static_cast<ChannelId>(channels_.size() - 1);
}

std::uint32_t
EnergyAccountant::uidSlot(Uid uid)
{
    // Linear scan: a device hosts a handful of uids, and this only runs
    // when power settings change, never in integrate().
    for (std::uint32_t i = 0; i < uids_.size(); ++i)
        if (uids_[i] == uid) return i;
    uids_.push_back(uid);
    uidMj_.push_back(0.0);
    return static_cast<std::uint32_t>(uids_.size() - 1);
}

void
EnergyAccountant::setPowerShares(ChannelId ch,
                                 std::span<const std::pair<Uid, double>>
                                     sharesMw)
{
    assert(ch < channels_.size());
    sync();
    Channel &c = channels_[ch];
    c.shares.clear();
    for (const auto &[uid, mw] : sharesMw)
        c.shares.push_back(Share{uid, uidSlot(uid), mw});
    if (c.uidMj.size() < uids_.size()) c.uidMj.resize(uids_.size(), 0.0);
}

void
EnergyAccountant::setPower(ChannelId ch, double totalMw,
                           std::span<const Uid> owners)
{
    assert(ch < channels_.size());
    sync();
    Channel &c = channels_[ch];
    c.shares.clear();
    if (totalMw > 0.0) {
        if (owners.empty()) {
            c.shares.push_back(
                Share{kSystemUid, uidSlot(kSystemUid), totalMw});
        } else {
            double each = totalMw / static_cast<double>(owners.size());
            for (Uid u : owners)
                c.shares.push_back(Share{u, uidSlot(u), each});
        }
    }
    if (c.uidMj.size() < uids_.size()) c.uidMj.resize(uids_.size(), 0.0);
}

void
EnergyAccountant::integrate(Channel &ch, double dtSeconds)
{
    // Share order (and therefore floating-point accumulation order) is
    // exactly the order the caller supplied — part of the determinism
    // contract, so results stay byte-identical across refactors.
    for (const Share &s : ch.shares) {
        double mj = s.mw * dtSeconds;
        ch.energyMj += mj;
        ch.uidMj[s.slot] += mj;
        totalMj_ += mj;
        uidMj_[s.slot] += mj;
    }
}

void
EnergyAccountant::sync()
{
    sim::Time now = sim_.now();
    if (now <= lastSync_) {
        lastSync_ = now;
        return;
    }
    double dt = (now - lastSync_).seconds();
    for (auto &ch : channels_) integrate(ch, dt);
    if (metrics_)
        for (const auto &ch : channels_)
            metrics_->set(ch.metric, ch.energyMj);
#if defined(LEASEOS_TRACING)
    // Channel id rides in the lease-id field; energy (mJ) in the payload.
    // Syncs happen per power event, so decimate 1-in-16 per category.
    if (obs::TraceBuffer *trace = obs::TraceBuffer::current())
        for (ChannelId ch = 0; ch < channels_.size(); ++ch)
            trace->emitSampled(15, now, obs::TraceCategory::Power,
                               obs::TraceCode::PowerSync, kSystemUid, ch,
                               obs::payloadFromDouble(
                                   channels_[ch].energyMj));
#endif
    lastSync_ = now;
}

double
EnergyAccountant::uidEnergyMj(Uid uid) const
{
    for (std::size_t i = 0; i < uids_.size(); ++i)
        if (uids_[i] == uid) return uidMj_[i];
    return 0.0;
}

double
EnergyAccountant::channelEnergyMj(ChannelId ch) const
{
    assert(ch < channels_.size());
    return channels_[ch].energyMj;
}

double
EnergyAccountant::uidChannelEnergyMj(Uid uid, ChannelId ch) const
{
    assert(ch < channels_.size());
    const Channel &c = channels_[ch];
    for (std::size_t i = 0; i < uids_.size(); ++i)
        if (uids_[i] == uid)
            // The channel's table may lag the global uid table if this
            // uid never drew power here.
            return i < c.uidMj.size() ? c.uidMj[i] : 0.0;
    return 0.0;
}

double
EnergyAccountant::totalPowerMw() const
{
    double mw = 0.0;
    for (const auto &ch : channels_)
        for (const Share &s : ch.shares) mw += s.mw;
    return mw;
}

double
EnergyAccountant::uidPowerMw(Uid uid) const
{
    double mw = 0.0;
    for (const auto &ch : channels_)
        for (const Share &s : ch.shares)
            if (s.uid == uid) mw += s.mw;
    return mw;
}

const std::string &
EnergyAccountant::channelName(ChannelId ch) const
{
    assert(ch < channels_.size());
    return channels_[ch].name;
}

ChannelId
EnergyAccountant::channelByName(const std::string &name) const
{
    for (ChannelId ch = 0; ch < channels_.size(); ++ch)
        if (channels_[ch].name == name) return ch;
    return static_cast<ChannelId>(channels_.size());
}

std::vector<Uid>
EnergyAccountant::knownUids() const
{
    std::vector<Uid> uids(uids_);
    std::sort(uids.begin(), uids.end());
    return uids;
}

template <class Io>
void
EnergyAccountant::checkpoint(Io &io)
{
    io.beginSection("energy", 1);
    io.time(lastSync_);
    io.f64(totalMj_);
    std::uint64_t slots = uids_.size();
    io.count(slots, 4 + 8);
    uids_.resize(slots);
    uidMj_.resize(slots);
    for (std::size_t i = 0; i < slots; ++i) {
        io.u32(uids_[i]);
        io.f64(uidMj_[i]);
    }
    io.expect("channels", static_cast<std::uint64_t>(channels_.size()));
    for (Channel &c : channels_) {
        io.expect("channel", c.name);
        io.f64(c.energyMj);
        io.block(c.uidMj);
        io.seq(c.shares, 4 + 4 + 8, [&](auto &share) {
            io.u32(share.uid);
            io.u32(share.slot);
            io.f64(share.mw);
        });
    }
    io.endSection();
}

template void EnergyAccountant::checkpoint(sim::CheckpointSaver &);
template void EnergyAccountant::checkpoint(sim::CheckpointLoader &);

} // namespace leaseos::power
