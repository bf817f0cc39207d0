#ifndef LEASEOS_APPS_SYNTHETIC_SNAPSHOT_PROBE_H
#define LEASEOS_APPS_SYNTHETIC_SNAPSHOT_PROBE_H

/**
 * @file
 * A checkpointable probe app for snapshot/restore tests (DESIGN.md §11).
 *
 * Most app models drive themselves with scheduled closures, which cannot
 * live in a checkpoint blob. This probe keeps its entire behaviour state
 * as plain data — a tick counter and the absolute deadline of its next
 * tick — so a device carrying only probes can round-trip through
 * Device::saveCheckpoint()/restoreCheckpoint() and then evolve
 * identically to the uninterrupted original. It deliberately touches no
 * OS resources and burns no CPU: restore-from-blob requires a quiescent
 * boundary, and a pure timer can never straddle one. Its ticks schedule
 * directly on the simulator — not through AppProcess::post, whose
 * continuations park as CPU wake waiters while the device sleeps, which
 * is exactly the non-quiescent state restore refuses.
 */

#include <cstdint>

#include "app/app.h"
#include "sim/simulator.h"

namespace leaseos::apps {

/**
 * Pure-timer app whose state round-trips through checkpoints.
 */
class SnapshotProbeApp : public app::App
{
  public:
    SnapshotProbeApp(app::AppContext &ctx, Uid uid,
                     sim::Time period = sim::Time::fromMillis(333))
        : App(ctx, uid, "SnapshotProbe"), period_(period)
    {
    }

    ~SnapshotProbeApp() override;

    void start() override;

    std::uint64_t ticks() const { return ticks_; }
    sim::Time nextDueAt() const { return nextDueAt_; }

    bool checkpointable() const override { return true; }
    void checkpoint(sim::CheckpointSaver &io) override;
    void checkpoint(sim::CheckpointLoader &io) override;

  private:
    void tick();
    void arm();
    template <class Io> void fields(Io &io);

    sim::Time period_;
    std::uint64_t ticks_ = 0;
    bool running_ = false;
    /** Absolute time of the next pending tick (valid while running_). */
    sim::Time nextDueAt_;
    sim::EventId pending_ = sim::kInvalidEventId;
};

} // namespace leaseos::apps

#endif // LEASEOS_APPS_SYNTHETIC_SNAPSHOT_PROBE_H
