#ifndef LEASEOS_POWER_AUDIO_MODEL_H
#define LEASEOS_POWER_AUDIO_MODEL_H

/**
 * @file
 * Audio output power model.
 *
 * Included because audio sessions are one of the leased resource types the
 * paper names (the Facebook iOS audio-session leak in §1), and Spotify's
 * background streaming in the §7.4 usability experiment needs it.
 */

#include <set>

#include "power/component.h"

namespace leaseos::power {

/**
 * Tracks which uids are playing audio; draw splits across them.
 */
class AudioModel : public PowerComponent
{
  public:
    AudioModel(sim::Simulator &sim, EnergyAccountant &accountant,
               const DeviceProfile &profile)
        : PowerComponent(sim, accountant, profile, "audio"),
          channel_(accountant.makeChannel("audio"))
    {
        update();
    }

    void
    setPlaying(Uid uid, bool playing)
    {
        if (playing) players_.insert(uid);
        else players_.erase(uid);
        update();
    }

    bool playing() const { return !players_.empty(); }
    bool playing(Uid uid) const { return players_.count(uid) != 0; }

    /** The "audio" section's field list (DESIGN.md §11). */
    template <class Io> void checkpoint(Io &io);

  private:
    void
    update()
    {
        std::vector<Uid> owners(players_.begin(), players_.end());
        accountant_.setPower(channel_,
                             players_.empty() ? 0.0 : profile_.audioMw,
                             owners);
    }

    ChannelId channel_;
    std::set<Uid> players_;
};

} // namespace leaseos::power

#endif // LEASEOS_POWER_AUDIO_MODEL_H
