#include "apps/synthetic/snapshot_probe.h"

#include "sim/checkpoint.h"

namespace leaseos::apps {

SnapshotProbeApp::~SnapshotProbeApp()
{
    ctx_.sim.cancel(pending_);
}

void
SnapshotProbeApp::start()
{
    running_ = true;
    nextDueAt_ = ctx_.sim.now() + period_;
    arm();
}

void
SnapshotProbeApp::arm()
{
    // Directly on the simulator: a process_.post continuation would park
    // as a CPU wake waiter whenever the device is asleep, making every
    // boundary non-quiescent. The raw event fires regardless of CPU state
    // and is fully described by nextDueAt_.
    pending_ = ctx_.sim.scheduleAt(nextDueAt_, [this] { tick(); });
}

void
SnapshotProbeApp::tick()
{
    if (!running_) return;
    ++ticks_;
    nextDueAt_ = ctx_.sim.now() + period_;
    arm();
}

template <class Io>
void
SnapshotProbeApp::fields(Io &io)
{
    io.expect("period", period_);
    io.u64(ticks_);
    io.u8(running_);
    io.time(nextDueAt_);
}

void
SnapshotProbeApp::checkpoint(sim::CheckpointSaver &io)
{
    fields(io);
}

void
SnapshotProbeApp::checkpoint(sim::CheckpointLoader &io)
{
    bool armed = running_;
    fields(io);
    // Restoring onto a not-yet-started device: adopt the serialized
    // deadline instead of starting a fresh cycle.
    if (running_ && !armed) arm();
}

} // namespace leaseos::apps
