#include "sim/random.h"

#include "sim/checkpoint.h"

namespace leaseos::sim {

template <class Io>
void
RandomSource::checkpoint(Io &io)
{
    io.beginSection("rng", 1);
    io.text(rng_);
    io.endSection();
}

template void RandomSource::checkpoint(CheckpointSaver &);
template void RandomSource::checkpoint(CheckpointLoader &);

} // namespace leaseos::sim
