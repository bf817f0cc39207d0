#ifndef LEASEOS_LEASE_PROXIES_GPS_PROXY_H
#define LEASEOS_LEASE_PROXIES_GPS_PROXY_H

/**
 * @file
 * Lease proxy for GPS location requests.
 *
 * GPS is the one resource where asking can fail for long stretches, so
 * this proxy also records request/failed-request time for the FAB metric
 * (the BetterWeather pattern of Fig. 1). Usage follows §3.3's
 * listener-bound-Activity metric; the distance moved feeds the generic
 * utility.
 */

#include "lease/proxies/lease_proxy.h"
#include "os/activity_manager_service.h"
#include "os/location_manager_service.h"

namespace leaseos::lease {

/**
 * GPS request lease proxy.
 */
class GpsLeaseProxy : public LeaseProxy
{
  public:
    GpsLeaseProxy(os::LocationManagerService &lms,
                  os::ActivityManagerService &am);

    /**
     * Also drops the lease's snapshot: a removed request is never
     * re-acquired under its token, so no later term reads it.
     */
    void onReleased(os::TokenId token, Uid uid) override;

  protected:
    /** For a subscription resource, holding == the outstanding request. */
    LeaseStat counters(const Lease &lease) override;

  private:
    os::LocationManagerService &lms_;
    os::ActivityManagerService &am_;
};

} // namespace leaseos::lease

#endif // LEASEOS_LEASE_PROXIES_GPS_PROXY_H
