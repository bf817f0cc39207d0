#include "power/battery.h"

#include "sim/checkpoint.h"

namespace leaseos::power {

template <class Io>
void
Battery::checkpoint(Io &io)
{
    io.beginSection("battery", 1);
    io.f64(baseMj_);
    io.endSection();
}

template void Battery::checkpoint(sim::CheckpointSaver &);
template void Battery::checkpoint(sim::CheckpointLoader &);

} // namespace leaseos::power
