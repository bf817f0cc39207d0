#ifndef LEASEOS_HARNESS_SCENARIO_SESSION_H
#define LEASEOS_HARNESS_SCENARIO_SESSION_H

/**
 * @file
 * One in-flight scenario run, advanceable in time slices (DESIGN.md §11).
 *
 * ScenarioSession is the unit every scenario run drives:
 *
 *  - runScenario() constructs one and advances it to the full duration in
 *    a single call — the single-shot baseline;
 *  - ParallelRunner, the one execution engine, constructs one per spec
 *    and advances it slice by slice (RunSpec::shards slices; one when
 *    unsliced), handing the *live* session between worker threads
 *    (pending event closures cannot be serialized, so migration — not
 *    restore-from-blob — is how a long scenario crosses workers).
 *
 * Checkpoint blobs are emitted whenever the clock reaches a multiple of
 * RunSpec::checkpointEvery, regardless of how advanceTo() calls slice the
 * timeline; since equal device state serializes to byte-identical blobs,
 * the digests double as a cheap proof that sliced execution matched the
 * single shot.
 */

#include <cstdint>
#include <memory>
#include <vector>

#include "harness/device.h"
#include "harness/runner.h"
#include "harness/telemetry_scope.h"

namespace leaseos::harness {

/**
 * A scenario mid-run: device, telemetry sinks, and checkpoint cursor.
 */
class ScenarioSession
{
  public:
    /**
     * Build the device, run RunSpec::setup, install apps, start the
     * device, and run RunSpec::postStart — everything up to the first
     * advance of virtual time. The calling thread becomes the bound
     * thread (thread-local telemetry is installed on it).
     */
    ScenarioSession(const RunSpec &spec, const DeviceConfig &config);

    ~ScenarioSession();
    ScenarioSession(const ScenarioSession &) = delete;
    ScenarioSession &operator=(const ScenarioSession &) = delete;

    /**
     * Run virtual time forward to @p target (absolute; clamped to the
     * spec duration), emitting a checkpoint at every multiple of
     * checkpointEvery crossed on the way. Caller must be bound.
     */
    void advanceTo(sim::Time target);

    /** Current virtual time. */
    sim::Time now() const { return device_->simulator().now(); }

    /** True once the clock has reached the spec duration. */
    bool done() const { return now() >= spec_->duration; }

    /**
     * Collect the RunResult (identical to what runScenario() returns,
     * RunResult::specIndex aside) and tear the session down — the device
     * is destroyed and the telemetry sinks drained. Call exactly once,
     * after advancing to the full duration, on the bound thread.
     */
    RunResult finish();

    /**
     * Thread-handoff hooks: unbind() on the worker that just finished a
     * slice, bind() on the worker about to run the next one. The
     * telemetry sinks and the device's own thread-local hooks (flight
     * recorder, checked-build oracle) move together.
     */
    void bind();
    void unbind();

    const RunSpec &spec() const { return *spec_; }

  private:
    void emitCheckpoint();

    const RunSpec *spec_;
    DeviceConfig config_;
    std::unique_ptr<TelemetryScope> telemetry_;
    std::unique_ptr<Device> device_;
    std::vector<Uid> uids_;
    sim::PeriodicHandle glanceTick_;
    std::vector<RunResult::CheckpointStat> checkpoints_;
};

} // namespace leaseos::harness

#endif // LEASEOS_HARNESS_SCENARIO_SESSION_H
