#ifndef LEASEOS_PERFBENCH_PASSES_H
#define LEASEOS_PERFBENCH_PASSES_H

/**
 * @file
 * The three ways the benchmark executes a workload, each timed from
 * outside the library:
 *
 *  - a runner pass: the whole spec list through ParallelRunner or
 *    ShardedRunner, exactly as the benches run it;
 *  - a session pass: every scenario driven through ScenarioSession in
 *    one-virtual-hour advanceTo() steps on a worker pool, timing each
 *    call into the library, and in a traced pass recording spans and
 *    counts sampled at every slice boundary;
 *  - a setup pass: every scenario's ScenarioSession built and dropped
 *    on one thread, which times everything before virtual time first
 *    advances.
 *
 * Host time is read both as wall time and as CPU time. CPU time leaves
 * out the time the hypervisor gives the VM's cores to other guests, which
 * on a shared host moves wall time by tens of percent within minutes.
 *
 * No clock value reaches a RunSpec field, a probe's return value or
 * simulated state.
 */

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "workloads.h"

namespace perfbench {

/** Host wall time, in seconds on the steady clock. */
double hostSeconds();
/** CPU time of the calling thread / of the whole process, in seconds. */
double threadCpuSeconds();
double processCpuSeconds();

/** One timed call into the library. */
struct Span {
    enum Kind : std::uint8_t { Scenario, Build, Slice, Save, Read, Collect };
    Kind kind = Scenario;
    std::uint32_t id = 0;
    std::uint32_t parent = 0;  ///< 0 = root
    std::uint32_t request = 0; ///< scenario (device) index
    std::uint32_t worker = 0;
    std::uint32_t pass = 0;
    double start = 0.0; ///< wall seconds
    double end = 0.0;
    double cpu = 0.0; ///< CPU seconds of the worker thread in the span

    static const char *kindName(Kind k);
};

/** Counts read through the public API at one slice boundary. */
struct SliceSample {
    std::uint32_t request = 0;
    std::int64_t boundaryNanos = 0; ///< virtual time the slice ended at
    double cpuMs = 0.0;             ///< CPU time of the slice
    std::uint64_t events = 0;       ///< Simulator::executedEvents
    std::uint64_t pending = 0;      ///< Simulator::pendingEvents
    std::uint64_t leases = 0;       ///< LeaseTable::size (LeaseOS only)
    std::uint64_t deadLeases = 0;   ///< LeaseTable::countInState(Dead)
};

enum class SessionMode {
    Reference, ///< also snapshot every scenario once at its end
    Timed,     ///< per-scenario CPU time only
    Traced,    ///< also keep spans and slice samples
};

struct SessionPass {
    std::vector<RunResult> results;
    /** CPU ms per scenario: build, slices, saves and collect. */
    std::vector<double> scenarioCpuMs;
    std::vector<Span> spans;          ///< Traced only
    std::vector<SliceSample> samples; ///< Traced only
    double wallSeconds = 0.0;
    double cpuSeconds = 0.0;
    int workers = 0;

    /** Blobs saved at the spec's checkpoint boundaries and re-read. */
    std::uint64_t blobCount = 0;
    std::uint64_t blobBytesMax = 0;
    /** Section body bytes over every blob / over each scenario's last. */
    std::map<std::string, std::uint64_t> sectionBytes;
    std::map<std::string, std::uint64_t> lastBlobSectionBytes;
    /** Reference only: one end-of-run snapshot per scenario of a
     *  workload that emits no checkpoints, taken outside every span. */
    std::uint64_t endStateBytes = 0;

    std::size_t failed = 0;
    std::vector<std::string> errors;
};

/**
 * Drive every scenario of @p w through ScenarioSession in one-hour
 * slices (one slice when the run is shorter). At each multiple of the
 * spec's checkpointEvery, the benchmark saves the blob itself through
 * Device::saveCheckpoint, re-reads it with CheckpointReader, and puts
 * {time, size, digest} into the result's checkpoints, so the results
 * compare equal to a runner pass only if every re-read blob matches what
 * the runner emitted.
 */
SessionPass runSessionPass(const Workload &w, std::uint32_t pass,
                           SessionMode mode);

struct RunnerPass {
    std::vector<RunResult> results;
    double wallSeconds = 0.0;
    double cpuSeconds = 0.0;
    std::uint64_t allocs = 0;
    std::string error; ///< non-empty when the runner threw
};

/** One pass of @p w through its runner. */
RunnerPass runRunnerPass(const Workload &w);

/** Σ over scenarios of CPU seconds to build each ScenarioSession. */
double setupPassSeconds(const Workload &w);

} // namespace perfbench

#endif // LEASEOS_PERFBENCH_PASSES_H
