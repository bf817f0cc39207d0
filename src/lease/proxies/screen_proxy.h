#ifndef LEASEOS_LEASE_PROXIES_SCREEN_PROXY_H
#define LEASEOS_LEASE_PROXIES_SCREEN_PROXY_H

/**
 * @file
 * Lease proxy for full (screen) wakelocks.
 *
 * Same kernel objects as the wakelock proxy but the Full level: holding a
 * full lock keeps the panel lit. Usage is measured as the holder's live
 * Activity time (someone can only benefit from a lit screen through a
 * visible Activity), which is what flags ConnectBot's and Standup Timer's
 * background screen-holds as Long-Holding.
 */

#include "lease/proxies/lease_proxy.h"
#include "os/activity_manager_service.h"
#include "os/power_manager_service.h"

namespace leaseos::lease {

/**
 * Full-wakelock (screen) lease proxy.
 */
class ScreenLeaseProxy : public LeaseProxy
{
  public:
    ScreenLeaseProxy(os::PowerManagerService &pms,
                     os::ActivityManagerService &am);

    // Filtered forwarding: only full locks belong to this proxy.
    // onDestroyed stays unfiltered: the lock record is gone by then, and
    // the proxy ignores tokens it has no lease for.
    void onCreated(os::TokenId token, Uid uid) override;
    void onAcquired(os::TokenId token, Uid uid) override;
    void onReleased(os::TokenId token, Uid uid) override;

  protected:
    LeaseStat counters(const Lease &lease) override;

  private:
    bool mine(os::TokenId token) const;

    os::PowerManagerService &pms_;
    os::ActivityManagerService &am_;
};

} // namespace leaseos::lease

#endif // LEASEOS_LEASE_PROXIES_SCREEN_PROXY_H
