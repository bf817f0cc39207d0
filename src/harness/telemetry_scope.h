#ifndef LEASEOS_HARNESS_TELEMETRY_SCOPE_H
#define LEASEOS_HARNESS_TELEMETRY_SCOPE_H

/**
 * @file
 * Per-run telemetry scope: owns the MetricRegistry / TraceBuffer /
 * FlightRecorder a scenario run installs thread-locally (DESIGN.md §9).
 *
 * Historically an RAII block inside runScenario(); now a standalone class
 * with explicit install()/uninstall() because ParallelRunner migrates
 * a live device between worker threads mid-run — the sinks are owned by
 * the session and re-installed on whichever thread executes the next time
 * slice. Components cache MetricRegistry::current() at construction, so
 * the sinks must be installed on the constructing thread before the
 * Device is built; the runtime hooks (oracle macro, flight-recorder dump)
 * consult the *current* thread's installation on every use.
 */

#include <cstdio>
#include <memory>

#include "obs/flight_recorder.h"
#include "obs/metric_registry.h"
#include "obs/trace.h"

namespace leaseos::harness {

struct RunSpec;
struct RunResult;

/**
 * Owns and (un)installs a run's thread-local telemetry sinks.
 */
class TelemetryScope
{
  public:
    /** Create the sinks @p spec asks for and install() them here. */
    explicit TelemetryScope(const RunSpec &spec);

    ~TelemetryScope()
    {
        if (installed_) uninstall();
    }

    TelemetryScope(const TelemetryScope &) = delete;
    TelemetryScope &operator=(const TelemetryScope &) = delete;

    /** Install the sinks on the calling thread (handoff rebind). */
    void install();

    /** Remove the sinks from the calling thread (handoff unbind). */
    void uninstall();

    /** Snapshot metrics / export the trace into @p result. */
    void finish(const RunSpec &spec, RunResult &result) const;

  private:
    std::unique_ptr<obs::MetricRegistry> registry_;
    std::unique_ptr<obs::TraceBuffer> trace_;
    std::unique_ptr<obs::FlightRecorder> recorder_;
    bool installed_ = false;
};

} // namespace leaseos::harness

#endif // LEASEOS_HARNESS_TELEMETRY_SCOPE_H
