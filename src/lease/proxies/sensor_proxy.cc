#include "lease/proxies/sensor_proxy.h"

namespace leaseos::lease {

SensorLeaseProxy::SensorLeaseProxy(os::SensorManagerService &sms,
                                   os::ActivityManagerService &am)
    : LeaseProxy(ResourceType::Sensor, sms), sms_(sms), am_(am)
{
}

LeaseStat
SensorLeaseProxy::counters(const Lease &lease)
{
    LeaseStat s;
    s.holdingSeconds = sms_.enabledSeconds(lease.uid);
    s.usageSeconds = am_.activityAliveSeconds(lease.uid);
    s.uiUpdates = am_.uiUpdateCount(lease.uid);
    s.interactions = am_.userInteractionCount(lease.uid);
    return s;
}

} // namespace leaseos::lease
