#ifndef LEASEOS_OS_AUDIO_SESSION_SERVICE_H
#define LEASEOS_OS_AUDIO_SESSION_SERVICE_H

/**
 * @file
 * Audio session management.
 *
 * The paper's §1 motivating example is the Facebook iOS release that
 * leaked audio sessions: the app finished playing but a code path skipped
 * the session close, "leaving the app doing nothing but staying awake in
 * the background draining the battery". We model audio the same way iOS
 * (and Android's media focus) does: an *open* session keeps the app
 * process runnable (an implicit wakelock) and the audio pipeline powered,
 * whether or not anything is audibly playing. Audio is one of the
 * resources Table 1 lists as leasable.
 */

#include <map>

#include "os/token_service.h"
#include "power/audio_model.h"

namespace leaseos::os {

/** One audio session. */
struct AudioSessionRecord : TokenRecord {
    bool playing = false;
};

/**
 * Audio session service with lease/throttle interposition hooks. A
 * session is held while open; enabledSeconds is the open time.
 */
class AudioSessionService final
    : public TokenService<AudioSessionService, AudioSessionRecord>
{
  public:
    /** Draw of an open-but-silent session's pipeline (DSP powered). */
    static constexpr double kPipelineMw = 14.0;

    AudioSessionService(sim::Simulator &sim, power::CpuModel &cpu,
                        power::AudioModel &audio,
                        power::EnergyAccountant &accountant,
                        TokenAllocator &tokens);

    // ---- App-facing API -------------------------------------------------

    /** Open (acquire) an audio session. */
    TokenId openSession(Uid uid);

    /**
     * Begin/stop audible playback. Starting needs an open session;
     * stopping is charged on any live one.
     */
    void startPlayback(TokenId token);
    void stopPlayback(TokenId token);

    /** Close (release) the session. */
    void closeSession(TokenId token) { release(token); }

    /** Open and audibly playing. */
    bool isPlaying(TokenId token) const;

    // ---- Metrics --------------------------------------------------------

    /** Time @p uid spent audibly playing through enabled sessions. */
    double playingSeconds(Uid uid);

    const char *tokenKind() const override { return "audio session"; }

  private:
    friend TokenService;

    void
    accrue(AudioSessionRecord &session, double dt)
    {
        if (session.enabled && session.playing)
            playingSeconds_[session.uid] += dt;
    }

    /** Power the pipeline and route audible output per uid. */
    void publish();

    void setPlaying(AudioSessionRecord *session, bool playing);

    power::AudioModel &audio_;
    power::EnergyAccountant &accountant_;
    power::ChannelId pipelineChannel_;

    std::map<Uid, double> playingSeconds_;
    std::map<Uid, bool> lastPlaying_;
};

} // namespace leaseos::os

#endif // LEASEOS_OS_AUDIO_SESSION_SERVICE_H
