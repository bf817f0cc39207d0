#ifndef LEASEOS_PERFBENCH_WORKLOADS_H
#define LEASEOS_PERFBENCH_WORKLOADS_H

/**
 * @file
 * The benchmark's three workloads as RunSpec lists, and their output
 * checks. README.md says why each workload exists.
 */

#include <cstdint>
#include <string>
#include <vector>

#include "harness/runner.h"

namespace perfbench {

using leaseos::harness::DeviceConfig;
using leaseos::harness::MitigationMode;
using leaseos::harness::RunResult;
using leaseos::harness::RunSpec;

/**
 * The seed whose inputs are the repository's own: Table-5 cells keep
 * their built-in device seed and the fleets use bench_fleet's base seed,
 * so the pinned Table-5 powers apply. Any other seed reseeds every
 * scenario with deriveSeed(seed, index).
 */
constexpr std::uint64_t kDefaultSeed = 0;

/** One named workload: its scenarios and how the runners execute them. */
struct Workload {
    std::string name;
    std::vector<RunSpec> specs;
    leaseos::harness::RunnerOptions options;
    /** Timed passes go through ShardedRunner instead of ParallelRunner. */
    bool sharded = false;
    /**
     * Percentile reported as scenario_ms_tail. Fixed per workload so the
     * rank never changes between commits; chosen to leave at least ten
     * samples beyond it at the pass counts a 25-second run makes.
     */
    double tailPercentile = 95.0;

    /** Simulated device-hours in one pass. */
    double deviceHours() const;
    /** Device config scenario @p i actually runs with (seed applied). */
    DeviceConfig config(std::size_t i) const;
};

/** Build workload @p name for @p seed on @p jobs workers; throws
 *  std::invalid_argument for an unknown name. */
Workload makeWorkload(const std::string &name, std::uint64_t seed,
                      int jobs);

/**
 * Output checks on one pass's results (size must match the spec list):
 * spec order, scenario names, finite powers, and — for table5-cells at
 * kDefaultSeed — every cell's app power against the value pinned at the
 * commit that introduced the benchmark. Sets bad[i] for each failing
 * scenario and appends one line per failure to @p errors.
 */
void checkResults(const Workload &w, std::uint64_t seed,
                  const std::vector<RunResult> &results,
                  std::vector<bool> &bad, std::vector<std::string> &errors);

/** Average LeaseOS / Doze* / DefDroid reductions (%) of a table5-cells
 *  pass. */
std::vector<double> table5Averages(const std::vector<RunResult> &results);

/**
 * Mean absolute gap, in percentage points, between table5Averages() and
 * the paper's 92.62 / 69.64 / 62.04 %.
 */
double paperErrorPp(const std::vector<RunResult> &results);

/** FNV-1a digest over every field of @p results, for run-to-run diffs. */
std::uint64_t outputDigest(const std::vector<RunResult> &results);

} // namespace perfbench

#endif // LEASEOS_PERFBENCH_WORKLOADS_H
