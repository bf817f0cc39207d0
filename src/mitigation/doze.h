#ifndef LEASEOS_MITIGATION_DOZE_H
#define LEASEOS_MITIGATION_DOZE_H

/**
 * @file
 * Android Doze baseline (§7.3's first comparison point).
 *
 * Doze is a *system-wide* idle mode: when the device has been unused
 * (screen off, stationary) for a long time, background apps' wakelocks,
 * Wi-Fi locks, GPS requests, sensor listeners, and alarms are deferred,
 * with periodic maintenance windows. Any non-trivial activity (motion,
 * screen) exits the mode — which is why it is "too conservative to be
 * triggered for most cases" (Table 5 footnote); the aggressive flag
 * reproduces the paper's adb-forced variant.
 */

#include <array>
#include <cstdint>

#include "env/motion_model.h"
#include "os/system_server.h"
#include "sim/simulator.h"

namespace leaseos::mitigation {

/** Doze timing parameters. */
struct DozeConfig {
    /** Unused time (screen off + no motion) before entering doze. */
    sim::Time idleThreshold = sim::Time::fromMinutes(30.0);

    /** Spacing of maintenance windows while dozing. */
    sim::Time maintenanceInterval = sim::Time::fromMinutes(15.0);

    /** Length of each maintenance window. */
    sim::Time maintenanceWindow = sim::Time::fromSeconds(30.0);

    /**
     * Enter doze immediately at start() and re-enter after a short idle
     * instead of the full threshold (the Table 5 '*' variant forced via
     * adb). Interruptions still exit doze — the reason aggressive Doze
     * trails LeaseOS.
     */
    bool aggressive = false;

    /** Idle needed to re-enter when aggressive. */
    sim::Time aggressiveReentry = sim::Time::fromMinutes(1.0);
};

/**
 * System-wide idle deferral controller.
 */
class DozeController
{
  public:
    DozeController(sim::Simulator &sim, os::SystemServer &server,
                   env::MotionModel &motion, DozeConfig config = {});

    /** Arm idle detection (and force-enter if aggressive). */
    void start();

    bool dozing() const { return dozing_; }
    bool inMaintenanceWindow() const { return maintenance_; }

    /** Force doze on right now (the adb command of §7.3). */
    void forceEnter();

    std::uint64_t enterCount() const { return enters_; }
    std::uint64_t exitCount() const { return exits_; }

  private:
    void enter();
    void exit();
    /** The services Doze gates: power, Wi-Fi, location, sensors. */
    std::array<os::ResourceService *, 4> gatedServices();
    void applyFilters();
    void clearFilters();
    void scheduleIdleCheck();
    void idleCheck();
    void openMaintenanceWindow();
    void closeMaintenanceWindow();

    /** Whether a uid's background activity is currently allowed. */
    bool allowed(Uid uid) const;

    sim::Simulator &sim_;
    os::SystemServer &server_;
    env::MotionModel &motion_;
    DozeConfig config_;

    bool started_ = false;
    bool dozing_ = false;
    bool maintenance_ = false;
    sim::Time screenOffSince_;
    bool screenOn_ = false;
    std::uint64_t enters_ = 0;
    std::uint64_t exits_ = 0;
};

} // namespace leaseos::mitigation

#endif // LEASEOS_MITIGATION_DOZE_H
