#ifndef LEASEOS_POWER_SENSOR_MODEL_H
#define LEASEOS_POWER_SENSOR_MODEL_H

/**
 * @file
 * Sensor hub power model.
 *
 * Sensors draw power while any listener is registered (the TapAndTurn #28
 * bug: "polls sensors even when screen is off"). Each sensor type's draw is
 * split across its registered uids.
 */

#include <array>
#include <utility>
#include <vector>

#include "common/inline_vec.h"
#include "power/component.h"

namespace leaseos::power {

/** Sensor types the simulator models. */
enum class SensorType { Accelerometer, Orientation, Gyroscope, Light };

const char *sensorTypeName(SensorType t);

/**
 * Registration-count-based sensor power model.
 */
class SensorModel : public PowerComponent
{
  public:
    SensorModel(sim::Simulator &sim, EnergyAccountant &accountant,
                const DeviceProfile &profile);

    /** Register one use of @p type by @p uid (counted; may nest). */
    void registerUse(SensorType type, Uid uid);

    /** Drop one use; no-op if the uid has no outstanding registration. */
    void unregisterUse(SensorType type, Uid uid);

    bool active(SensorType type) const;
    std::vector<Uid> users(SensorType type) const;

    /** Power draw of one sensor type from the device profile. */
    double sensorMw(SensorType type) const;

    /** The "sensors" section's field list (DESIGN.md §11). */
    template <class Io> void checkpoint(Io &io);

  private:
    /** Registered (uid, count) pairs kept sorted by uid. */
    using UserList = common::InlineVec<std::pair<Uid, int>, 4>;

    void updatePower();

    UserList &
    usersFor(SensorType t)
    {
        return uses_[static_cast<std::size_t>(t)];
    }
    const UserList &
    usersFor(SensorType t) const
    {
        return uses_[static_cast<std::size_t>(t)];
    }

    ChannelId channel_;
    /** Indexed by SensorType; uid-sorted lists keep attribution (and its
        floating-point accumulation order) identical to the old nested
        std::map while making re-registration allocation-free. */
    std::array<UserList, 4> uses_;
};

} // namespace leaseos::power

#endif // LEASEOS_POWER_SENSOR_MODEL_H
