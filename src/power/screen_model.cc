#include "power/screen_model.h"

#include "sim/checkpoint.h"

namespace leaseos::power {

template <class Io>
void
ScreenModel::checkpoint(Io &io)
{
    io.beginSection("screen", 1);
    io.u8(on_);
    io.f64(brightness_);
    io.seq(owners_, 4, [&](auto &uid) { io.u32(uid); });
    io.endSection();
}

template void ScreenModel::checkpoint(sim::CheckpointSaver &);
template void ScreenModel::checkpoint(sim::CheckpointLoader &);

} // namespace leaseos::power
