#ifndef LEASEOS_LEASE_PROXIES_WIFI_PROXY_H
#define LEASEOS_LEASE_PROXIES_WIFI_PROXY_H

/**
 * @file
 * Lease proxy for Wi-Fi high-performance locks.
 *
 * Usage = actual Wi-Fi transfer time: a lock held with an idle radio (the
 * ConnectBot case, "only lock Wi-Fi if our active network is Wi-Fi") is
 * Long-Holding.
 */

#include <map>

#include "lease/lease_proxy.h"
#include "os/activity_manager_service.h"
#include "os/wifi_manager_service.h"
#include "power/radio_model.h"

namespace leaseos::lease {

/**
 * Wi-Fi lock lease proxy.
 */
class WifiLeaseProxy : public LeaseProxy
{
  public:
    WifiLeaseProxy(os::WifiManagerService &wms, power::RadioModel &radio,
                   os::ActivityManagerService &am);

    void onExpire(const Lease &lease) override;
    void onRenew(const Lease &lease) override;
    bool resourceHeld(const Lease &lease) override;
    void beginTerm(const Lease &lease) override;
    LeaseStat collectStat(const Lease &lease) override;

  private:
    void forgetLease(LeaseId id) override { snapshots_.erase(id); }

    struct Snapshot {
        double enabledSeconds = 0.0;
        double activeSeconds = 0.0;
        std::uint64_t uiUpdates = 0;
        std::uint64_t interactions = 0;
        std::uint64_t acquires = 0;
    };

    Snapshot snapshot(const Lease &lease);

    os::WifiManagerService &wms_;
    power::RadioModel &radio_;
    os::ActivityManagerService &am_;
    std::map<LeaseId, Snapshot> snapshots_;
};

} // namespace leaseos::lease

#endif // LEASEOS_LEASE_PROXIES_WIFI_PROXY_H
