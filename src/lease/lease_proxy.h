#ifndef LEASEOS_LEASE_LEASE_PROXY_H
#define LEASEOS_LEASE_LEASE_PROXY_H

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
 * common logic is provided via a generic lease proxy class." Subclasses
 * implement the resource-specific parts: how to suspend/restore the kernel
 * object, and how to compute a term's LeaseStat from service counters.
 */

#include <map>

#include "lease/lease.h"
#include "lease/lease_stat.h"
#include "lease/resource_type.h"
#include "os/resource_listener.h"

namespace leaseos::lease {

class LeaseManagerService;

/**
 * Base class providing the common proxy logic.
 */
class LeaseProxy : public os::ResourceListener
{
  public:
    explicit LeaseProxy(ResourceType rtype) : rtype_(rtype) {}
    ~LeaseProxy() override = default;

    ResourceType rtype() const { return rtype_; }

    /** Wired by LeaseManagerService::registerProxy. */
    void attach(LeaseManagerService *manager) { manager_ = manager; }
    void detach() { manager_ = nullptr; }
    bool attached() const { return manager_ != nullptr; }

    // ---- Manager-facing callbacks (invoked on lease decisions) ---------

    /** Term deferred: temporarily revoke the kernel resource. */
    virtual void onExpire(const Lease &lease) = 0;

    /** Deferral over / lease renewed: restore the kernel resource. */
    virtual void onRenew(const Lease &lease) = 0;

    /** Does the app still hold the backing resource right now? */
    virtual bool resourceHeld(const Lease &lease) = 0;

    /** A new term begins: snapshot service counters. */
    virtual void beginTerm(const Lease &lease) = 0;

    /** Term over: compute the term's stats from counter deltas. */
    virtual LeaseStat collectStat(const Lease &lease) = 0;

    // ---- ResourceListener: generic forwarding to the manager ------------

    void onCreated(os::TokenId token, Uid uid) override;
    void onAcquired(os::TokenId token, Uid uid) override;
    void onReleased(os::TokenId token, Uid uid) override;
    void onDestroyed(os::TokenId token, Uid uid) override;

  protected:
    /** Proxy-local cache of kernel object → lease descriptor (§4.4). */
    LeaseId leaseFor(os::TokenId token) const;

    /**
     * Lease @p id will never start or end another term: drop whatever
     * per-lease state the proxy keeps. onDestroyed calls it after the
     * manager has removed the lease.
     */
    virtual void forgetLease(LeaseId id) { (void)id; }

    LeaseManagerService *manager_ = nullptr;
    std::map<os::TokenId, LeaseId> leaseByToken_;

  private:
    ResourceType rtype_;
};

} // namespace leaseos::lease

#endif // LEASEOS_LEASE_LEASE_PROXY_H
