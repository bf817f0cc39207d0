#include "app/app.h"

#include "analysis/invariants.h"

namespace leaseos::app {

// Non-checkpointable apps never reach these (Device checks the flag);
// checkpointable subclasses override both.
void
App::checkpoint(sim::CheckpointSaver &)
{
}

void
App::checkpoint(sim::CheckpointLoader &)
{
}

void
App::stop()
{
    // Runs after the subclass released/destroyed its resource handles, so
    // anything still held here is a genuine acquire/release imbalance.
    LEASEOS_ORACLE(checkAppTeardown(ctx_.sim.now(), ctx_.server, uid()));
    process_.kill();
}

} // namespace leaseos::app
