#ifndef LEASEOS_LEASE_PROXIES_WAKELOCK_PROXY_H
#define LEASEOS_LEASE_PROXIES_WAKELOCK_PROXY_H

/**
 * @file
 * Lease proxy for partial wakelocks (the CPU resource).
 *
 * Lives inside PowerManagerService. onExpire removes the IBinder from the
 * service's enabled array (the phone may then deep-sleep, §4.4's worked
 * example); onRenew puts it back. Term stats: holding = enabled lock time,
 * usage = the holder's CPU seconds, utility from severe exceptions and UI
 * signals.
 */

#include "lease/proxies/lease_proxy.h"
#include "os/activity_manager_service.h"
#include "os/exception_note_handler.h"
#include "os/power_manager_service.h"
#include "power/cpu_model.h"

namespace leaseos::lease {

/**
 * Partial-wakelock lease proxy.
 */
class WakelockLeaseProxy : public LeaseProxy
{
  public:
    WakelockLeaseProxy(os::PowerManagerService &pms, power::CpuModel &cpu,
                       os::ExceptionNoteHandler &exceptions,
                       os::ActivityManagerService &am);

    // Filtered forwarding: only partial locks belong to this proxy.
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
    power::CpuModel &cpu_;
    os::ExceptionNoteHandler &exceptions_;
    os::ActivityManagerService &am_;
};

} // namespace leaseos::lease

#endif // LEASEOS_LEASE_PROXIES_WAKELOCK_PROXY_H
