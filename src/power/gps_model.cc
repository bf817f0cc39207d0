#include "power/gps_model.h"

#include "sim/checkpoint.h"

#include <utility>

namespace leaseos::power {

GpsModel::GpsModel(sim::Simulator &sim, EnergyAccountant &accountant,
                   const DeviceProfile &profile)
    : PowerComponent(sim, accountant, profile, "gps"),
      channel_(accountant.makeChannel("gps")),
      lastAdvance_(sim.now())
{
    updatePower();
}

void
GpsModel::advance()
{
    sim::Time now = sim_.now();
    if (now <= lastAdvance_) {
        lastAdvance_ = now;
        return;
    }
    double dt = (now - lastAdvance_).seconds();
    if (!owners_.empty()) {
        double each = dt / static_cast<double>(owners_.size());
        for (Uid u : owners_) {
            if (state_ == State::Searching) searchSeconds_[u] += each;
            else if (state_ == State::Tracking) trackSeconds_[u] += each;
        }
    }
    lastAdvance_ = now;
}

void
GpsModel::setState(State s)
{
    if (s == state_) return;
    advance();
    bool had_fix = hasFix();
    state_ = s;
    updatePower();
    bool has_fix = hasFix();
    if (had_fix != has_fix)
        for (const auto &fn : fixListeners_) fn(has_fix);
}

void
GpsModel::reevaluate()
{
    advance();
    if (owners_.empty()) {
        if (fixEvent_ != sim::kInvalidEventId) {
            sim_.cancel(fixEvent_);
            fixEvent_ = sim::kInvalidEventId;
        }
        setState(State::Off);
        return;
    }
    if (state_ == State::Tracking && signalGood_) {
        updatePower(); // owners may have changed
        return;
    }
    if (!signalGood_) {
        // Lost (or can't get) the sky view: regress to Searching.
        if (fixEvent_ != sim::kInvalidEventId) {
            sim_.cancel(fixEvent_);
            fixEvent_ = sim::kInvalidEventId;
        }
        setState(State::Searching);
        return;
    }
    // Requests outstanding, good signal, not yet tracking: search, then
    // acquire after the TTFF delay.
    setState(State::Searching);
    if (fixEvent_ == sim::kInvalidEventId) {
        fixEvent_ = sim_.schedule(fixAcquireDelay_, [this] {
            fixEvent_ = sim::kInvalidEventId;
            if (!owners_.empty() && signalGood_) setState(State::Tracking);
        });
    }
}

void
GpsModel::updatePower()
{
    double mw = 0.0;
    if (state_ == State::Searching) mw = profile_.gpsSearchMw;
    else if (state_ == State::Tracking) mw = profile_.gpsTrackMw;
    accountant_.setPower(channel_, mw, owners_);
}

void
GpsModel::setRequestOwners(std::vector<Uid> owners)
{
    advance();
    owners_ = std::move(owners);
    reevaluate();
    // The state may be unchanged but the attribution set is new.
    updatePower();
}

void
GpsModel::setSignalGood(bool good)
{
    advance();
    signalGood_ = good;
    reevaluate();
}

void
GpsModel::addFixListener(std::function<void(bool)> fn)
{
    fixListeners_.push_back(std::move(fn));
}

double
GpsModel::searchSeconds(Uid uid)
{
    advance();
    auto it = searchSeconds_.find(uid);
    return it == searchSeconds_.end() ? 0.0 : it->second;
}

double
GpsModel::trackSeconds(Uid uid)
{
    advance();
    auto it = trackSeconds_.find(uid);
    return it == trackSeconds_.end() ? 0.0 : it->second;
}


template <class Io>
void
GpsModel::checkpoint(Io &io)
{
    auto uidSeconds = [&](auto &uid, auto &seconds) {
        io.u32(uid);
        io.f64(seconds);
    };
    io.beginSection("gps", 1);
    io.u8(state_);
    io.u8(signalGood_);
    bool fixPending =
        fixEvent_ != sim::kInvalidEventId && sim_.pending(fixEvent_);
    io.u8(fixPending);
    io.seq(owners_, 4, [&](auto &uid) { io.u32(uid); });
    io.time(fixAcquireDelay_);
    io.time(lastAdvance_);
    io.map(searchSeconds_, 4 + 8, uidSeconds);
    io.map(trackSeconds_, 4 + 8, uidSeconds);
    io.endSection();
    if constexpr (Io::kLoading) {
        if (fixPending)
            throw sim::CheckpointError(
                "gps checkpoint taken mid-fix-acquisition; restore "
                "requires a quiescent boundary");
        fixEvent_ = sim::kInvalidEventId;
    }
}

template void GpsModel::checkpoint(sim::CheckpointSaver &);
template void GpsModel::checkpoint(sim::CheckpointLoader &);

} // namespace leaseos::power
