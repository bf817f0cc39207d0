#include "lease/proxies/wakelock_proxy.h"

namespace leaseos::lease {

WakelockLeaseProxy::WakelockLeaseProxy(os::PowerManagerService &pms,
                                       power::CpuModel &cpu,
                                       os::ExceptionNoteHandler &exceptions,
                                       os::ActivityManagerService &am)
    : LeaseProxy(ResourceType::Wakelock, pms), pms_(pms), cpu_(cpu),
      exceptions_(exceptions), am_(am)
{
}

bool
WakelockLeaseProxy::mine(os::TokenId token) const
{
    return pms_.typeOf(token) == os::WakeLockType::Partial;
}

void
WakelockLeaseProxy::onCreated(os::TokenId token, Uid uid)
{
    if (mine(token)) LeaseProxy::onCreated(token, uid);
}

void
WakelockLeaseProxy::onAcquired(os::TokenId token, Uid uid)
{
    if (mine(token)) LeaseProxy::onAcquired(token, uid);
}

void
WakelockLeaseProxy::onReleased(os::TokenId token, Uid uid)
{
    if (mine(token)) LeaseProxy::onReleased(token, uid);
}

LeaseStat
WakelockLeaseProxy::counters(const Lease &lease)
{
    LeaseStat s;
    s.holdingSeconds = pms_.enabledSecondsForToken(lease.token);
    // §8: under DVFS the utilisation metric must be adjusted by device
    // state — frequency-normalised busy time measures work done, not
    // occupancy at a crawling clock.
    s.usageSeconds = cpu_.dvfsEnabled()
        ? cpu_.normalizedCpuSeconds(lease.uid)
        : cpu_.cpuSeconds(lease.uid);
    s.exceptions = exceptions_.severeCount(lease.uid);
    s.uiUpdates = am_.uiUpdateCount(lease.uid);
    s.interactions = am_.userInteractionCount(lease.uid);
    s.acquires = pms_.acquireCount(lease.uid);
    return s;
}

} // namespace leaseos::lease
