#include "lease/proxies/audio_proxy.h"

namespace leaseos::lease {

AudioLeaseProxy::AudioLeaseProxy(os::AudioSessionService &audio,
                                 os::ActivityManagerService &am)
    : LeaseProxy(ResourceType::Audio, audio), audio_(audio), am_(am)
{
}

LeaseStat
AudioLeaseProxy::counters(const Lease &lease)
{
    LeaseStat s;
    s.holdingSeconds = audio_.enabledSeconds(lease.uid);
    s.usageSeconds = audio_.playingSeconds(lease.uid);
    s.uiUpdates = am_.uiUpdateCount(lease.uid);
    s.interactions = am_.userInteractionCount(lease.uid);
    return s;
}

double
AudioLeaseProxy::score(const LeaseStat &stat,
                       const utility::Signals &signals) const
{
    if (stat.usageSeconds > 0.0) return LeaseProxy::score(stat, signals);
    utility::Signals silent = signals;
    silent.usageSeconds = 0.0;
    return utility::genericScore(ResourceType::Wakelock, silent);
}

} // namespace leaseos::lease
