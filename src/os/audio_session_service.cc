#include "os/audio_session_service.h"

#include <set>
#include <vector>

namespace leaseos::os {

AudioSessionService::AudioSessionService(
    sim::Simulator &sim, power::CpuModel &cpu, power::AudioModel &audio,
    power::EnergyAccountant &accountant, TokenAllocator &tokens)
    : TokenService(sim, cpu, "audio", tokens), audio_(audio),
      accountant_(accountant),
      pipelineChannel_(accountant.makeChannel("audio_pipeline"))
{
}

void
AudioSessionService::publish()
{
    std::set<Uid> open_owners;
    std::map<Uid, bool> playing;
    for (const auto &[token, session] : held()) {
        if (!session.enabled) continue;
        open_owners.insert(session.uid);
        if (session.playing) playing[session.uid] = true;
    }
    // Open sessions keep the pipeline powered and the app runnable (the
    // iOS background-audio semantics behind the Facebook leak).
    std::vector<Uid> owners(open_owners.begin(), open_owners.end());
    accountant_.setPower(pipelineChannel_,
                         open_owners.empty() ? 0.0 : kPipelineMw, owners);
    cpu_.setAudioSessionOwners(owners);
    // Route audible output per uid.
    for (const auto &[uid, on] : lastPlaying_)
        if (!playing.count(uid)) audio_.setPlaying(uid, false);
    for (const auto &[uid, on] : playing) audio_.setPlaying(uid, true);
    lastPlaying_ = playing;
}

TokenId
AudioSessionService::openSession(Uid uid)
{
    AudioSessionRecord session;
    session.uid = uid;
    return create(session, kResourceIpcLatency, true);
}

void
AudioSessionService::setPlaying(AudioSessionRecord *session, bool playing)
{
    if (!session) return;
    chargeIpc(session->uid, kBinderIpcLatency);
    advance();
    session->playing = playing;
    apply();
}

void
AudioSessionService::startPlayback(TokenId token)
{
    setPlaying(findHeld(token), true);
}

void
AudioSessionService::stopPlayback(TokenId token)
{
    setPlaying(find(token), false);
}

bool
AudioSessionService::isPlaying(TokenId token) const
{
    return isHeld(token) && find(token)->playing;
}

double
AudioSessionService::playingSeconds(Uid uid)
{
    advance();
    return perUid(playingSeconds_, uid);
}

} // namespace leaseos::os
