#include "power/audio_model.h"

#include "sim/checkpoint.h"

namespace leaseos::power {

template <class Io>
void
AudioModel::checkpoint(Io &io)
{
    io.beginSection("audio", 1);
    io.seq(players_, 4, [&](auto &uid) { io.u32(uid); });
    io.endSection();
}

template void AudioModel::checkpoint(sim::CheckpointSaver &);
template void AudioModel::checkpoint(sim::CheckpointLoader &);

} // namespace leaseos::power
