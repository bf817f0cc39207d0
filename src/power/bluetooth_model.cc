#include "power/bluetooth_model.h"

#include "sim/checkpoint.h"

namespace leaseos::power {

template <class Io>
void
BluetoothModel::checkpoint(Io &io)
{
    io.beginSection("bt", 1);
    io.seq(owners_, 4, [&](auto &uid) { io.u32(uid); });
    io.time(lastAdvance_);
    io.map(scanSeconds_, 4 + 8, [&](auto &uid, auto &seconds) {
        io.u32(uid);
        io.f64(seconds);
    });
    io.endSection();
}

template void BluetoothModel::checkpoint(sim::CheckpointSaver &);
template void BluetoothModel::checkpoint(sim::CheckpointLoader &);

} // namespace leaseos::power
