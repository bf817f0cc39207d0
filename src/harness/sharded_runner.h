#ifndef LEASEOS_HARNESS_SHARDED_RUNNER_H
#define LEASEOS_HARNESS_SHARDED_RUNNER_H

/**
 * @file
 * Former name of the execution engine. ParallelRunner schedules time
 * slices itself (RunSpec::shards selects slicing), so this header only
 * keeps the old name alive: perfbench/passes.cc includes it and names
 * ShardedRunner, and perfbench/ changes only together with the
 * benchmark definition. New code uses ParallelRunner from
 * harness/runner.h.
 */

#include "harness/runner.h"

namespace leaseos::harness {

using ShardedRunner = ParallelRunner;

} // namespace leaseos::harness

#endif // LEASEOS_HARNESS_SHARDED_RUNNER_H
