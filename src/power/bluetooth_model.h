#ifndef LEASEOS_POWER_BLUETOOTH_MODEL_H
#define LEASEOS_POWER_BLUETOOTH_MODEL_H

/**
 * @file
 * Bluetooth radio power model.
 *
 * Table 1 lists Bluetooth with the sensors as a leasable subscription
 * resource: apps register scans and the OS delivers discovered devices.
 * Scanning (LE discovery) is the expensive state; a bonded idle link is
 * nearly free.
 */

#include <map>
#include <vector>

#include "power/component.h"

namespace leaseos::power {

/**
 * Scan-registration-based Bluetooth power model.
 */
class BluetoothModel : public PowerComponent
{
  public:
    /** Draw while at least one scan is active. */
    static constexpr double kScanMw = 38.0;
    /** Floor with the adapter on but idle. */
    static constexpr double kIdleMw = 1.5;

    BluetoothModel(sim::Simulator &sim, EnergyAccountant &accountant,
                   const DeviceProfile &profile)
        : PowerComponent(sim, accountant, profile, "bluetooth"),
          channel_(accountant.makeChannel("bluetooth")),
          lastAdvance_(sim.now())
    {
        update();
    }

    /** Uids with enabled scans (from os::BluetoothService). */
    void
    setScanOwners(std::vector<Uid> owners)
    {
        advance();
        owners_ = std::move(owners);
        update();
    }

    bool scanning() const { return !owners_.empty(); }

    /** Seconds @p uid has kept the radio scanning. */
    double
    scanSeconds(Uid uid)
    {
        advance();
        auto it = scanSeconds_.find(uid);
        return it == scanSeconds_.end() ? 0.0 : it->second;
    }

  private:
    void
    advance()
    {
        sim::Time now = sim_.now();
        if (now <= lastAdvance_) {
            lastAdvance_ = now;
            return;
        }
        double dt = (now - lastAdvance_).seconds();
        if (!owners_.empty()) {
            double each = dt / static_cast<double>(owners_.size());
            for (Uid u : owners_) scanSeconds_[u] += each;
        }
        lastAdvance_ = now;
    }

    void
    update()
    {
        if (owners_.empty()) {
            accountant_.setPower(channel_, kIdleMw, {kSystemUid});
        } else {
            accountant_.setPower(channel_, kScanMw, owners_);
        }
    }

    ChannelId channel_;
    std::vector<Uid> owners_;
    sim::Time lastAdvance_;
    // leaselint: allow(flat-map-hotpath) -- per-run stat, read at teardown
    std::map<Uid, double> scanSeconds_;

  public:
    /** The "bt" section's field list (DESIGN.md §11). */
    template <class Io> void checkpoint(Io &io);
};

} // namespace leaseos::power

#endif // LEASEOS_POWER_BLUETOOTH_MODEL_H
