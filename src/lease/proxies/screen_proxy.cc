#include "lease/proxies/screen_proxy.h"

namespace leaseos::lease {

ScreenLeaseProxy::ScreenLeaseProxy(os::PowerManagerService &pms,
                                   os::ActivityManagerService &am)
    : LeaseProxy(ResourceType::Screen, pms), pms_(pms), am_(am)
{
}

bool
ScreenLeaseProxy::mine(os::TokenId token) const
{
    return pms_.typeOf(token) == os::WakeLockType::Full;
}

void
ScreenLeaseProxy::onCreated(os::TokenId token, Uid uid)
{
    if (mine(token)) LeaseProxy::onCreated(token, uid);
}

void
ScreenLeaseProxy::onAcquired(os::TokenId token, Uid uid)
{
    if (mine(token)) LeaseProxy::onAcquired(token, uid);
}

void
ScreenLeaseProxy::onReleased(os::TokenId token, Uid uid)
{
    if (mine(token)) LeaseProxy::onReleased(token, uid);
}

LeaseStat
ScreenLeaseProxy::counters(const Lease &lease)
{
    LeaseStat s;
    s.holdingSeconds = pms_.enabledSecondsForToken(lease.token);
    s.usageSeconds = am_.activityAliveSeconds(lease.uid);
    s.uiUpdates = am_.uiUpdateCount(lease.uid);
    s.interactions = am_.userInteractionCount(lease.uid);
    s.acquires = pms_.acquireCount(lease.uid);
    return s;
}

} // namespace leaseos::lease
