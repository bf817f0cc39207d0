#include "lease/lease_proxy.h"

#include "lease/lease_manager.h"

namespace leaseos::lease {

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
