#include "lease/proxies/wifi_proxy.h"

namespace leaseos::lease {

WifiLeaseProxy::WifiLeaseProxy(os::WifiManagerService &wms,
                               power::RadioModel &radio,
                               os::ActivityManagerService &am)
    : LeaseProxy(ResourceType::Wifi, wms), wms_(wms), radio_(radio),
      am_(am)
{
}

LeaseStat
WifiLeaseProxy::counters(const Lease &lease)
{
    LeaseStat s;
    s.holdingSeconds = wms_.enabledSeconds(lease.uid);
    s.usageSeconds = radio_.wifiActiveSeconds(lease.uid);
    s.uiUpdates = am_.uiUpdateCount(lease.uid);
    s.interactions = am_.userInteractionCount(lease.uid);
    s.acquires = wms_.acquireCount(lease.uid);
    return s;
}

} // namespace leaseos::lease
