#include "os/wifi_manager_service.h"

#include <utility>

namespace leaseos::os {

WifiManagerService::WifiManagerService(sim::Simulator &sim,
                                       power::CpuModel &cpu,
                                       power::RadioModel &radio,
                                       TokenAllocator &tokens)
    : TokenService(sim, cpu, "wifi", tokens), radio_(radio)
{
}

TokenId
WifiManagerService::createWifiLock(Uid uid, std::string tag)
{
    WifiLockRecord lock;
    lock.uid = uid;
    lock.tag = std::move(tag);
    return create(std::move(lock), kBinderIpcLatency, false);
}

} // namespace leaseos::os
