#ifndef LEASEOS_OS_POWER_MANAGER_SERVICE_H
#define LEASEOS_OS_POWER_MANAGER_SERVICE_H

/**
 * @file
 * Wakelock management (android.os.PowerManagerService analog).
 *
 * Apps create wakelocks (kernel IBinder tokens) and acquire/release them.
 * A held *partial* wakelock keeps the CPU awake; a held *full* wakelock
 * additionally forces the screen on (the ConnectBot / Standup Timer bug
 * pattern). The service maintains the internal token array that decides
 * whether the CPU may deep-sleep — exactly the array the wakelock lease
 * proxy mutates in onExpire (§4.4: "remove the IBinder from the array").
 *
 * Interposition surface used by LeaseOS / DefDroid / Doze:
 *  - suspend(token)/restore(token): temporarily pull one kernel object out
 *    of the array without the app noticing (the descriptor stays valid and
 *    acquire/release IPCs behave as §4.6 describes);
 *  - setGlobalFilter(uid -> allow): Doze-style gating of whole uids.
 */

#include <functional>
#include <string>
#include <tuple>
#include <vector>

#include "os/token_service.h"

namespace leaseos::os {

/** Android wakelock levels we distinguish. */
enum class WakeLockType {
    Partial, ///< CPU stays on; screen may sleep
    Full     ///< CPU and screen stay on
};

/** One wakelock kernel object. */
struct WakeLockRecord : TokenRecord {
    WakeLockType type = WakeLockType::Partial;
    std::string tag;
    double heldSeconds = 0.0;
    double enabledSeconds = 0.0;

    /** Doze's filter sees the level: it lets full locks through. */
    std::tuple<Uid, WakeLockType> filterArgs() const { return {uid, type}; }
};

/**
 * Wakelock service with lease/throttle interposition hooks.
 */
class PowerManagerService final
    : public TokenService<PowerManagerService, WakeLockRecord,
                          std::function<bool(Uid, WakeLockType)>>
{
  public:
    PowerManagerService(sim::Simulator &sim, power::CpuModel &cpu,
                        TokenAllocator &tokens);

    // ---- App-facing API (binder IPCs) --------------------------------

    /** Create a wakelock kernel object; does not acquire it. */
    TokenId newWakeLock(Uid uid, WakeLockType type, std::string tag);

    /** Acquire; nested acquires are idempotent (counted as re-acquire). */
    using TokenService::acquire;

    /**
     * Release; unknown/unheld tokens are ignored (Android semantics),
     * but a live unheld lock's release IPC is still charged.
     */
    void release(TokenId token);

    // ---- Interposition ----------------------------------------------

    /**
     * The typed variant lets a policy exempt lock levels (Doze defers
     * background CPU but never forces the panel off).
     */
    using TokenService::setGlobalFilter;
    void
    setGlobalFilter(std::function<bool(Uid, WakeLockType)> filter)
    {
        installFilter(std::move(filter));
    }

    // ---- Metrics --------------------------------------------------------

    /** Per-token held and enabled time (the wakelock proxies' holding). */
    double heldSecondsForToken(TokenId token);
    double enabledSecondsForToken(TokenId token);

    const std::string &tagOf(TokenId token) const;
    WakeLockType typeOf(TokenId token) const;

    /**
     * Display coupling: invoked with the uids whose *full* locks are
     * enabled whenever that set changes.
     */
    void setFullLockCallback(std::function<void(std::vector<Uid>)> cb);

    const char *tokenKind() const override { return "wakelock"; }

  private:
    friend TokenService;

    void accrue(WakeLockRecord &lock, double dt);

    /** Push wake sources to the CPU and full-lock owners to the display. */
    void publish();

    std::function<void(std::vector<Uid>)> fullLockCb_;
    std::vector<Uid> lastFullOwners_;
};

} // namespace leaseos::os

#endif // LEASEOS_OS_POWER_MANAGER_SERVICE_H
