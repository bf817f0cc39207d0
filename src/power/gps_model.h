#ifndef LEASEOS_POWER_GPS_MODEL_H
#define LEASEOS_POWER_GPS_MODEL_H

/**
 * @file
 * GPS receiver hardware model.
 *
 * The receiver is Off when no request is outstanding. With requests it
 * enters Searching (the expensive state); with a good sky view it acquires
 * a fix after a short delay and drops to Tracking. With poor signal (the
 * BetterWeather case: "inside a building") it stays in Searching forever —
 * the Frequent-Ask misbehaviour of Fig. 1 burns power right here.
 */

#include <functional>
#include <map>
#include <vector>

#include "power/component.h"
#include "sim/time.h"

namespace leaseos::power {

/**
 * GPS receiver state machine with per-uid attribution.
 */
class GpsModel : public PowerComponent
{
  public:
    enum class State { Off, Searching, Tracking };

    GpsModel(sim::Simulator &sim, EnergyAccountant &accountant,
             const DeviceProfile &profile);

    /** Uids with outstanding location requests (from the OS service). */
    void setRequestOwners(std::vector<Uid> owners);

    /** Sky-view quality (from env::GpsEnvironment). */
    void setSignalGood(bool good);

    State state() const { return state_; }
    bool hasFix() const { return state_ == State::Tracking; }

    /** Invoked with true when a fix is acquired, false when lost. */
    void addFixListener(std::function<void(bool)> fn);

    /** Time spent searching (no fix) attributed to @p uid, seconds. */
    double searchSeconds(Uid uid);

    /** Time spent tracking attributed to @p uid, seconds. */
    double trackSeconds(Uid uid);

    /** Time needed from search start to fix under good signal. */
    sim::Time fixAcquireDelay() const { return fixAcquireDelay_; }

    /**
     * The "gps" section's field list (DESIGN.md §11). Loading throws
     * CheckpointError when the blob was taken mid-fix-acquisition (the
     * pending fix event is a closure and cannot be re-armed) — checkpoint
     * at a boundary where the receiver is Off, Tracking, or searching
     * with bad signal.
     */
    template <class Io> void checkpoint(Io &io);

  private:
    void advance();
    void reevaluate();
    void setState(State s);
    void updatePower();

    ChannelId channel_;
    State state_ = State::Off;
    bool signalGood_ = true;
    std::vector<Uid> owners_;
    sim::Time fixAcquireDelay_ = sim::Time::fromSeconds(8.0);
    sim::EventId fixEvent_ = sim::kInvalidEventId;
    std::vector<std::function<void(bool)>> fixListeners_;

    sim::Time lastAdvance_;
    // leaselint: allow(flat-map-hotpath) -- per-run stats, read at teardown
    std::map<Uid, double> searchSeconds_;
    // leaselint: allow(flat-map-hotpath) -- per-run stats, read at teardown
    std::map<Uid, double> trackSeconds_;
};

} // namespace leaseos::power

#endif // LEASEOS_POWER_GPS_MODEL_H
