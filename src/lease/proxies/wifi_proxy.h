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

#include "lease/proxies/lease_proxy.h"
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

  protected:
    LeaseStat counters(const Lease &lease) override;

  private:
    os::WifiManagerService &wms_;
    power::RadioModel &radio_;
    os::ActivityManagerService &am_;
};

} // namespace leaseos::lease

#endif // LEASEOS_LEASE_PROXIES_WIFI_PROXY_H
