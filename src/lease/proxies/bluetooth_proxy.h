#ifndef LEASEOS_LEASE_PROXIES_BLUETOOTH_PROXY_H
#define LEASEOS_LEASE_PROXIES_BLUETOOTH_PROXY_H

/**
 * @file
 * Lease proxy for Bluetooth scans (Table 1 groups Bluetooth with the
 * sensors: a subscription whose utilisation is judged by the bound
 * Activity, with UI evidence as the generic utility).
 */

#include "lease/proxies/lease_proxy.h"
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

  protected:
    LeaseStat counters(const Lease &lease) override;

  private:
    os::BluetoothService &bt_;
    os::ActivityManagerService &am_;
};

} // namespace leaseos::lease

#endif // LEASEOS_LEASE_PROXIES_BLUETOOTH_PROXY_H
