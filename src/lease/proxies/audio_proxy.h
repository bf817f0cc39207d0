#ifndef LEASEOS_LEASE_PROXIES_AUDIO_PROXY_H
#define LEASEOS_LEASE_PROXIES_AUDIO_PROXY_H

/**
 * @file
 * Lease proxy for audio sessions.
 *
 * The §1 motivating bug (Facebook iOS leaking audio sessions and "doing
 * nothing but staying awake") is a textbook Long-Holding on the audio
 * resource: session open, nothing audible. Usage = audible playback
 * time; audible output is also strong generic utility (§3.3's Table 1
 * lists audio among the leasable resources).
 */

#include "lease/proxies/lease_proxy.h"
#include "os/activity_manager_service.h"
#include "os/audio_session_service.h"

namespace leaseos::lease {

/**
 * Audio-session lease proxy.
 */
class AudioLeaseProxy : public LeaseProxy
{
  public:
    AudioLeaseProxy(os::AudioSessionService &audio,
                    os::ActivityManagerService &am);

  protected:
    LeaseStat counters(const Lease &lease) override;

    /**
     * Audible output is its own utility evidence; a silent open session
     * only has whatever UI evidence the app produces.
     */
    double score(const LeaseStat &stat,
                 const utility::Signals &signals) const override;

  private:
    os::AudioSessionService &audio_;
    os::ActivityManagerService &am_;
};

} // namespace leaseos::lease

#endif // LEASEOS_LEASE_PROXIES_AUDIO_PROXY_H
