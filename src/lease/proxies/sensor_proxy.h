#ifndef LEASEOS_LEASE_PROXIES_SENSOR_PROXY_H
#define LEASEOS_LEASE_PROXIES_SENSOR_PROXY_H

/**
 * @file
 * Lease proxy for sensor listener registrations.
 *
 * Usage follows the §3.3 bound-Activity metric; the generic utility is
 * driven by UI evidence, which is where app-provided custom counters
 * (Fig. 6, TapAndTurn) matter most.
 */

#include "lease/proxies/lease_proxy.h"
#include "os/activity_manager_service.h"
#include "os/sensor_manager_service.h"

namespace leaseos::lease {

/**
 * Sensor registration lease proxy.
 */
class SensorLeaseProxy : public LeaseProxy
{
  public:
    SensorLeaseProxy(os::SensorManagerService &sms,
                     os::ActivityManagerService &am);

  protected:
    LeaseStat counters(const Lease &lease) override;

  private:
    os::SensorManagerService &sms_;
    os::ActivityManagerService &am_;
};

} // namespace leaseos::lease

#endif // LEASEOS_LEASE_PROXIES_SENSOR_PROXY_H
