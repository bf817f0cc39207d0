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

#include <cstddef>
#include <map>

#include "lease/lease_proxy.h"
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

    void onExpire(const Lease &lease) override;
    void onRenew(const Lease &lease) override;
    bool resourceHeld(const Lease &lease) override;
    void beginTerm(const Lease &lease) override;
    LeaseStat collectStat(const Lease &lease) override;

    /**
     * Also drops the lease's snapshot: a removed request is never
     * re-acquired under its token, so no later term reads it.
     */
    void onReleased(os::TokenId token, Uid uid) override;

    /** Leases whose term-start counters the proxy holds. */
    std::size_t snapshotCount() const { return snapshots_.size(); }

  private:
    void forgetLease(LeaseId id) override { snapshots_.erase(id); }

    struct Snapshot {
        double requestSeconds = 0.0;
        double noFixSeconds = 0.0;
        double activitySeconds = 0.0;
        double distanceMeters = 0.0;
        std::uint64_t uiUpdates = 0;
        std::uint64_t interactions = 0;
        std::uint64_t requests = 0;
    };

    Snapshot snapshot(const Lease &lease);

    os::LocationManagerService &lms_;
    os::ActivityManagerService &am_;
    std::map<LeaseId, Snapshot> snapshots_;
};

} // namespace leaseos::lease

#endif // LEASEOS_LEASE_PROXIES_GPS_PROXY_H
