#ifndef LEASEOS_LEASE_PROXIES_BLUETOOTH_PROXY_H
#define LEASEOS_LEASE_PROXIES_BLUETOOTH_PROXY_H

/**
 * @file
 * Lease proxy for Bluetooth scans (Table 1 groups Bluetooth with the
 * sensors: a subscription whose utilisation is judged by the bound
 * Activity, with UI evidence as the generic utility).
 */

#include <map>

#include "lease/lease_proxy.h"
#include "os/activity_manager_service.h"
#include "os/bluetooth_service.h"

namespace leaseos::lease {

/**
 * Bluetooth scan lease proxy.
 */
class BluetoothLeaseProxy : public LeaseProxy
{
  public:
    BluetoothLeaseProxy(os::BluetoothService &bt,
                        os::ActivityManagerService &am);

    void onExpire(const Lease &lease) override;
    void onRenew(const Lease &lease) override;
    bool resourceHeld(const Lease &lease) override;
    void beginTerm(const Lease &lease) override;
    LeaseStat collectStat(const Lease &lease) override;

  private:
    void forgetLease(LeaseId id) override { snapshots_.erase(id); }

    struct Snapshot {
        double scanSeconds = 0.0;
        double activitySeconds = 0.0;
        std::uint64_t uiUpdates = 0;
        std::uint64_t interactions = 0;
    };

    Snapshot snapshot(const Lease &lease);

    os::BluetoothService &bt_;
    os::ActivityManagerService &am_;
    std::map<LeaseId, Snapshot> snapshots_;
};

} // namespace leaseos::lease

#endif // LEASEOS_LEASE_PROXIES_BLUETOOTH_PROXY_H
