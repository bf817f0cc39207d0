#ifndef LEASEOS_POWER_SCREEN_MODEL_H
#define LEASEOS_POWER_SCREEN_MODEL_H

/**
 * @file
 * Display panel power model.
 *
 * The screen is the single biggest consumer when lit. Two of the Table 5
 * bugs (ConnectBot #299, Standup Timer) hold *screen* wakelocks that keep
 * the panel on in the background — the screen draw is then attributed to
 * the holding app, which is why Doze (which never touches the screen)
 * barely helps those cases.
 */

#include <vector>

#include "power/component.h"

namespace leaseos::power {

/**
 * Screen on/off + brightness with owner attribution.
 */
class ScreenModel : public PowerComponent
{
  public:
    ScreenModel(sim::Simulator &sim, EnergyAccountant &accountant,
                const DeviceProfile &profile)
        : PowerComponent(sim, accountant, profile, "screen"),
          channel_(accountant.makeChannel("screen"))
    {
        update();
    }

    /**
     * Set panel state. @p owners carries the uids responsible for the
     * panel being lit: empty means normal user-initiated use (system
     * attribution); a screen-wakelock holder shows up here when it forces
     * the panel on.
     */
    void
    setOn(bool on, std::vector<Uid> owners = {})
    {
        on_ = on;
        owners_ = std::move(owners);
        update();
    }

    void
    setBrightness(double b)
    {
        brightness_ = b < 0.0 ? 0.0 : (b > 1.0 ? 1.0 : b);
        update();
    }

    bool isOn() const { return on_; }
    double brightness() const { return brightness_; }

    /** The "screen" section's field list (DESIGN.md §11). */
    template <class Io> void checkpoint(Io &io);

  private:
    void
    update()
    {
        double mw = on_
            ? profile_.screenBaseMw + brightness_ * profile_.screenFullMw
            : 0.0;
        accountant_.setPower(channel_, mw, owners_);
    }

    ChannelId channel_;
    bool on_ = false;
    double brightness_ = 0.5;
    std::vector<Uid> owners_;
};

} // namespace leaseos::power

#endif // LEASEOS_POWER_SCREEN_MODEL_H
