#ifndef LEASEOS_LEASE_PROXIES_LEASE_PROXY_H
#define LEASEOS_LEASE_PROXIES_LEASE_PROXY_H

/**
 * @file
 * Generic lease proxy (§4.4, §6).
 *
 * A proxy is the lease manager's light-weight delegate living inside one
 * OS subsystem's address space. It watches that subsystem's kernel-object
 * lifecycle, forwards lease operations (create / noteEvent / remove) to
 * the manager over the (modelled) IPC channel, caches the kernel-object →
 * lease-descriptor mapping, and applies the manager's decisions to the
 * kernel objects directly via onExpire/onRenew.
 *
 * §6: "Much of the logic for different lease proxies is the same... This
 * common logic is provided via a generic lease proxy class." This class
 * is all of it, over the service's os::ResourceService interface:
 * revoking and restoring the kernel object, whether the app still holds
 * it, and each term's stat as the difference of cumulative counters
 * between term start and term end. A subclass supplies only counters():
 * which service, CPU and activity counters make up its resource's
 * LeaseStat.
 */

#include <cstddef>
#include <map>

#include "lease/lease.h"
#include "lease/lease_stat.h"
#include "lease/resource_type.h"
#include "lease/utility/generic_utility.h"
#include "os/resource_listener.h"
#include "os/token_service.h"

namespace leaseos::lease {

class LeaseManagerService;

/**
 * Base class providing the common proxy logic.
 */
class LeaseProxy : public os::ResourceListener
{
  public:
    /** Proxy for @p service's kernel objects; listens to it at once. */
    LeaseProxy(ResourceType rtype, os::ResourceService &service);
    ~LeaseProxy() override = default;

    ResourceType rtype() const { return rtype_; }

    /** Wired by LeaseManagerService::registerProxy. */
    void attach(LeaseManagerService *manager) { manager_ = manager; }
    void detach() { manager_ = nullptr; }
    bool attached() const { return manager_ != nullptr; }

    // ---- Manager-facing callbacks (invoked on lease decisions) ---------

    /** Term deferred: temporarily revoke the kernel resource. */
    void onExpire(const Lease &lease) { service_.suspend(lease.token); }

    /** Deferral over / lease renewed: restore the kernel resource. */
    void onRenew(const Lease &lease) { service_.restore(lease.token); }

    /** Does the app still hold the backing resource right now? */
    bool resourceHeld(const Lease &lease)
    {
        return service_.isHeld(lease.token);
    }

    /** A new term begins: snapshot the counters. */
    void beginTerm(const Lease &lease);

    /** Term over: the counters' growth since beginTerm, and its utility. */
    LeaseStat collectStat(const Lease &lease);

    /** Leases whose term-start counters the proxy holds. */
    std::size_t snapshotCount() const { return snapshots_.size(); }

    // ---- ResourceListener: generic forwarding to the manager ------------

    void onCreated(os::TokenId token, Uid uid) override;
    void onAcquired(os::TokenId token, Uid uid) override;
    void onReleased(os::TokenId token, Uid uid) override;
    void onDestroyed(os::TokenId token, Uid uid) override;

  protected:
    /**
     * @p lease's cumulative counters now. collectStat subtracts the
     * term-start value field by field, so a field a resource does not
     * measure stays zero.
     */
    virtual LeaseStat counters(const Lease &lease) = 0;

    /** Utility of a term with deltas @p stat; the generic score. */
    virtual double score(const LeaseStat &stat,
                         const utility::Signals &signals) const;

    /** Proxy-local cache of kernel object → lease descriptor (§4.4). */
    LeaseId leaseFor(os::TokenId token) const;

    /**
     * Lease @p id will never start or end another term: drop its
     * term-start snapshot. onDestroyed calls it after the manager has
     * removed the lease.
     */
    void forgetLease(LeaseId id) { snapshots_.erase(id); }

    LeaseManagerService *manager_ = nullptr;
    std::map<os::TokenId, LeaseId> leaseByToken_;

  private:
    ResourceType rtype_;
    os::ResourceService &service_;
    std::map<LeaseId, LeaseStat> snapshots_;
};

} // namespace leaseos::lease

#endif // LEASEOS_LEASE_PROXIES_LEASE_PROXY_H
