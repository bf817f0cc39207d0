#include "lease/proxies/gps_proxy.h"

namespace leaseos::lease {

GpsLeaseProxy::GpsLeaseProxy(os::LocationManagerService &lms,
                             os::ActivityManagerService &am)
    : LeaseProxy(ResourceType::Gps, lms), lms_(lms), am_(am)
{
}

void
GpsLeaseProxy::onReleased(os::TokenId token, Uid uid)
{
    LeaseProxy::onReleased(token, uid);
    forgetLease(leaseFor(token));
}

LeaseStat
GpsLeaseProxy::counters(const Lease &lease)
{
    LeaseStat s;
    s.requestSeconds = lms_.enabledSeconds(lease.uid);
    s.holdingSeconds = s.requestSeconds;
    s.failedRequestSeconds = lms_.noFixSeconds(lease.uid);
    s.usageSeconds = am_.activityAliveSeconds(lease.uid);
    s.distanceMeters = lms_.distanceMeters(lease.uid);
    s.uiUpdates = am_.uiUpdateCount(lease.uid);
    s.interactions = am_.userInteractionCount(lease.uid);
    s.acquires = lms_.acquireCount(lease.uid);
    return s;
}

} // namespace leaseos::lease
