#include "os/bluetooth_service.h"

namespace leaseos::os {

BluetoothService::BluetoothService(sim::Simulator &sim,
                                   power::CpuModel &cpu,
                                   power::BluetoothModel &bluetooth,
                                   TokenAllocator &tokens)
    : TokenService(sim, cpu, "bluetooth", tokens), bluetooth_(bluetooth)
{
}

void
BluetoothService::scheduleTick(TokenId token)
{
    ScanRecord *scan = find(token);
    if (!scan || scan->tickScheduled) return;
    scan->tickScheduled = true;
    sim_.schedule(kDiscoveryInterval,
                  [this, token] { deliverTick(token); });
}

void
BluetoothService::deliverTick(TokenId token)
{
    ScanRecord *scan = find(token);
    if (!scan) return;
    scan->tickScheduled = false;
    if (!scan->enabled) return;
    if (nearbyDevices_ > 0) {
        ++discoveries_[scan->uid];
        if (scan->listener) {
            cpu_.runWorkFor(scan->uid, 0.3, sim::Time::fromMillis(3));
            scan->listener->onDeviceFound(
                nextDeviceId_++ % static_cast<std::uint64_t>(
                                      nearbyDevices_));
        }
    }
    scheduleTick(token);
}

TokenId
BluetoothService::startScan(Uid uid, ScanListener *listener)
{
    ScanRecord scan;
    scan.uid = uid;
    scan.listener = listener;
    return create(scan, kResourceIpcLatency, true);
}

} // namespace leaseos::os
