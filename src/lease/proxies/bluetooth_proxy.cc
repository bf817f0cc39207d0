#include "lease/proxies/bluetooth_proxy.h"

namespace leaseos::lease {

BluetoothLeaseProxy::BluetoothLeaseProxy(os::BluetoothService &bt,
                                         os::ActivityManagerService &am)
    : LeaseProxy(ResourceType::Bluetooth, bt), bt_(bt), am_(am)
{
}

LeaseStat
BluetoothLeaseProxy::counters(const Lease &lease)
{
    LeaseStat s;
    s.holdingSeconds = bt_.scanSeconds(lease.uid);
    s.usageSeconds = am_.activityAliveSeconds(lease.uid);
    s.uiUpdates = am_.uiUpdateCount(lease.uid);
    s.interactions = am_.userInteractionCount(lease.uid);
    return s;
}

} // namespace leaseos::lease
