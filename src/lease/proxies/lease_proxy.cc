#include "lease/proxies/lease_proxy.h"

#include "lease/lease_manager.h"

namespace leaseos::lease {

LeaseProxy::LeaseProxy(ResourceType rtype, os::ResourceService &service)
    : rtype_(rtype), service_(service)
{
    service_.addListener(this);
}

void
LeaseProxy::beginTerm(const Lease &lease)
{
    snapshots_[lease.id] = counters(lease);
}

LeaseStat
LeaseProxy::collectStat(const Lease &lease)
{
    LeaseStat start = snapshots_[lease.id];
    LeaseStat now = counters(lease);

    LeaseStat stat;
    stat.termStart = lease.termStart;
    stat.termEnd = lease.termStart + lease.termLength;
    stat.requestSeconds = now.requestSeconds - start.requestSeconds;
    stat.failedRequestSeconds =
        now.failedRequestSeconds - start.failedRequestSeconds;
    stat.holdingSeconds = now.holdingSeconds - start.holdingSeconds;
    stat.usageSeconds = now.usageSeconds - start.usageSeconds;
    stat.exceptions = now.exceptions - start.exceptions;
    stat.uiUpdates = now.uiUpdates - start.uiUpdates;
    stat.interactions = now.interactions - start.interactions;
    stat.distanceMeters = now.distanceMeters - start.distanceMeters;
    stat.acquires = now.acquires - start.acquires;
    stat.heldAtTermEnd = resourceHeld(lease);

    utility::Signals signals;
    signals.termSeconds = stat.termSeconds();
    signals.usageSeconds = stat.usageSeconds;
    signals.exceptions = stat.exceptions;
    signals.uiUpdates = stat.uiUpdates;
    signals.interactions = stat.interactions;
    signals.distanceMeters = stat.distanceMeters;
    stat.utilityScore = score(stat, signals);
    return stat;
}

double
LeaseProxy::score(const LeaseStat &stat,
                  const utility::Signals &signals) const
{
    (void)stat;
    return utility::genericScore(rtype_, signals);
}

LeaseId
LeaseProxy::leaseFor(os::TokenId token) const
{
    auto it = leaseByToken_.find(token);
    return it == leaseByToken_.end() ? kInvalidLeaseId : it->second;
}

void
LeaseProxy::onCreated(os::TokenId token, Uid uid)
{
    if (!manager_) return;
    leaseByToken_[token] = manager_->create(rtype_, token, uid);
}

void
LeaseProxy::onAcquired(os::TokenId token, Uid uid)
{
    if (!manager_) return;
    LeaseId id = leaseFor(token);
    if (id == kInvalidLeaseId) {
        // Acquire on an object we never saw created (possible if the proxy
        // registered late): adopt it now.
        id = manager_->create(rtype_, token, uid);
        leaseByToken_[token] = id;
    }
    manager_->noteAcquire(id);
}

void
LeaseProxy::onReleased(os::TokenId token, Uid uid)
{
    (void)uid;
    if (!manager_) return;
    LeaseId id = leaseFor(token);
    if (id != kInvalidLeaseId) manager_->noteRelease(id);
}

void
LeaseProxy::onDestroyed(os::TokenId token, Uid uid)
{
    (void)uid;
    if (!manager_) return;
    LeaseId id = leaseFor(token);
    if (id != kInvalidLeaseId) {
        manager_->remove(id);
        leaseByToken_.erase(token);
        forgetLease(id);
    }
}

} // namespace leaseos::lease
