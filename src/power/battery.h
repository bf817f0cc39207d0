#ifndef LEASEOS_POWER_BATTERY_H
#define LEASEOS_POWER_BATTERY_H

/**
 * @file
 * Battery state-of-charge model.
 *
 * The battery drains by whatever the EnergyAccountant integrates. It exists
 * for the end-to-end battery-life experiment (§7.6: 12 h without leases vs
 * 15 h with LeaseOS) and for reporting state of charge during long runs.
 */

#include "power/device_profile.h"
#include "power/energy_accountant.h"

namespace leaseos::power {

/**
 * Tracks state-of-charge against the accountant's running total.
 */
class Battery
{
  public:
    Battery(EnergyAccountant &accountant, const DeviceProfile &profile)
        : accountant_(accountant),
          capacityMj_(profile.batteryEnergyMj()) {}

    double capacityMj() const { return capacityMj_; }

    /** Energy drained so far (mJ). */
    double
    drainedMj()
    {
        accountant_.sync();
        return accountant_.totalEnergyMj() - baseMj_;
    }

    /** Remaining charge fraction in [0, 1]. */
    double
    remainingFraction()
    {
        double frac = 1.0 - drainedMj() / capacityMj_;
        return frac < 0.0 ? 0.0 : frac;
    }

    bool empty() { return drainedMj() >= capacityMj_; }

    /**
     * Estimated time to empty at the current instantaneous draw;
     * Time::max() when the device draws nothing.
     */
    sim::Time
    projectedLife()
    {
        double mw = accountant_.totalPowerMw();
        if (mw <= 0.0) return sim::Time::max();
        double seconds = (capacityMj_ - drainedMj()) / mw;
        return sim::Time::fromSeconds(seconds < 0.0 ? 0.0 : seconds);
    }

    /** Treat the current accountant total as "fully charged". */
    void
    recharge()
    {
        accountant_.sync();
        baseMj_ = accountant_.totalEnergyMj();
    }

    /** The "battery" section's field list: the recharge baseline. */
    template <class Io> void checkpoint(Io &io);

  private:
    EnergyAccountant &accountant_;
    double capacityMj_;
    double baseMj_ = 0.0;
};

} // namespace leaseos::power

#endif // LEASEOS_POWER_BATTERY_H
