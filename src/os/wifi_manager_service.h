#ifndef LEASEOS_OS_WIFI_MANAGER_SERVICE_H
#define LEASEOS_OS_WIFI_MANAGER_SERVICE_H

/**
 * @file
 * Wi-Fi lock management (android WifiManager/WifiService analog).
 *
 * A held Wi-Fi high-performance lock keeps the radio out of power-save.
 * The ConnectBot b7cc89c bug in Table 5 held one even when the active
 * network was not Wi-Fi. Structure mirrors PowerManagerService.
 */

#include <string>

#include "os/token_service.h"
#include "power/radio_model.h"

namespace leaseos::os {

/** One Wi-Fi lock kernel object. */
struct WifiLockRecord : TokenRecord {
    std::string tag;
};

/**
 * Wi-Fi lock service with interposition hooks.
 */
class WifiManagerService final
    : public TokenService<WifiManagerService, WifiLockRecord>
{
  public:
    WifiManagerService(sim::Simulator &sim, power::CpuModel &cpu,
                       power::RadioModel &radio, TokenAllocator &tokens);

    // ---- App-facing API ------------------------------------------------

    /** Create a Wi-Fi lock kernel object; does not acquire it. */
    TokenId createWifiLock(Uid uid, std::string tag);
    using TokenService::acquire;
    using TokenService::release;

    const char *tokenKind() const override { return "Wi-Fi lock"; }

  private:
    friend TokenService;

    void publish() { radio_.setWifiLockOwners(enabledOwners()); }

    power::RadioModel &radio_;
};

} // namespace leaseos::os

#endif // LEASEOS_OS_WIFI_MANAGER_SERVICE_H
