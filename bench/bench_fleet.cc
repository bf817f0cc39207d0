/**
 * @file
 * Device-fleet scenario: N independent simulated phones (default 100,
 * `--devices=N` up to 500) each running one of the 20 Table-5 buggy apps
 * round-robin, half vanilla Android and half LeaseOS, under a diurnal
 * glance script whose cadence varies per device (heavy users glance every
 * half minute, light users every few minutes). Every device is an
 * independent RunSpec executed on the ParallelRunner worker pool, so the
 * whole fleet is bit-identical for any `--jobs N` and any slicing.
 *
 * This is the scale workload for the event-queue fast path: a fleet run
 * pushes tens of millions of events through sim::EventQueue, and the
 * bench reports aggregate simulated events, wall time, and events/sec
 * next to the fleet-level power numbers (mean per mode and per behaviour
 * class, with the LeaseOS reduction). Results land on stdout and in
 * BENCH_fleet.json.
 *
 * Flags: --devices=N (1..500, default 100), --minutes=M (virtual minutes
 * per device, up to a week = 10080, default 30), --shard-minutes=S (set
 * RunSpec::shards so each device's timeline runs as ceil(M/S) time
 * slices, with a checkpoint emitted every S virtual minutes; one engine
 * runs sliced and unsliced fleets, and results are bit-identical to the
 * unsharded run), --jobs=N / -j N (worker pool, default automatic),
 * --trace=PATH (export the first LeaseOS device's trace ring; needs a
 * -DLEASEOS_TRACING=ON build). Any other argument, or a bad value, is a
 * usage error (exit 2). CI smoke runs `--devices=50 --minutes=5`; the
 * sharded smoke adds `--shard-minutes=10`.
 *
 * Runs of 12 h or longer coarsen the power-profiler sampling period from
 * 100 ms to 10 s so a week-long fleet's TimeSeries memory stays bounded.
 * They also add an hour-granular diurnal glance cycle (cadence follows
 * the device's phase-shifted local time of day) on top of the cell's
 * fixed 10-minute glance script, which keeps running.
 *
 * Every device runs with a MetricRegistry installed; per-device metric
 * rollups ride in the JSON artifact (stdout keeps the aggregate table);
 * sharded runs add per-mode checkpoint-size rows.
 */

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "apps/registry.h"
#include "harness/experiment.h"
#include "harness/result_sink.h"
#include "harness/runner.h"
#include "support/alloc_counter.h"
#include "support/flags.h"

using namespace leaseos;
using harness::MitigationMode;
using harness::ResultSink;
using sim::operator""_s;

namespace {

std::int64_t
nowNanos()
{
    // leaselint: allow(determinism) -- bench: wall time is the measurand
    auto now = std::chrono::steady_clock::now().time_since_epoch();
    return std::chrono::duration_cast<std::chrono::nanoseconds>(now)
        .count();
}

const benchsupport::Usage kUsage{
    "bench_fleet",
    "[--devices=N (1..500)] [--minutes=M (1..10080)] [--shard-minutes=S] "
    "[--trace=PATH] [--jobs N | --jobs=N | -j N | -jN]"};

struct ModeAgg {
    double powerSum = 0.0;
    double eventsSum = 0.0;
    int n = 0;
};

struct CheckpointAgg {
    std::uint64_t count = 0;
    std::uint64_t bytes = 0;
    std::uint64_t maxBytes = 0;
};

} // namespace

int
main(int argc, char **argv)
{
    long devices = 100;
    long minutes = 30;
    long shardMinutes = 0; // 0 = one slice per device
    std::string tracePath;
    for (int i = 1; i < argc; ++i) {
        if (int width = harness::ParallelRunner::jobsFlagArgs(argv[i]))
            i += width - 1; // parseArgs() below reads the value
        else if (std::strncmp(argv[i], "--devices=", 10) == 0)
            devices = kUsage.value(argv[i] + 10, "--devices", 1, 500);
        else if (std::strncmp(argv[i], "--minutes=", 10) == 0)
            minutes = kUsage.value(argv[i] + 10, "--minutes", 1, 7 * 24 * 60);
        else if (std::strncmp(argv[i], "--shard-minutes=", 16) == 0)
            shardMinutes = kUsage.value(argv[i] + 16, "--shard-minutes", 1,
                                        7 * 24 * 60);
        else if (std::strncmp(argv[i], "--trace=", 8) == 0)
            tracePath = argv[i] + 8;
        else
            kUsage.error("unknown flag", argv[i]);
    }
    // Long runs: coarsen profiler sampling (bounded TimeSeries memory
    // over a week) and add the hour-granular diurnal glance cycle.
    const bool longRun = minutes >= 12 * 60;

    const auto &corpus = apps::table5Specs();
    const MitigationMode modes[] = {MitigationMode::None,
                                    MitigationMode::LeaseOS};

    // Device i: buggy app i mod 20, vanilla/LeaseOS alternating, diurnal
    // glance cadence pinned to i. Seeds come from the runner's baseSeed so
    // every device is an independent deterministic stream.
    std::vector<harness::RunSpec> specs;
    specs.reserve(static_cast<std::size_t>(devices));
    for (long i = 0; i < devices; ++i) {
        const auto &app = corpus[static_cast<std::size_t>(i) %
                                 corpus.size()];
        MitigationMode mode = modes[i % 2];
        harness::MitigationRunOptions opt;
        opt.duration = sim::Time::fromMinutes(static_cast<double>(minutes));
        harness::RunSpec spec = mitigationCellSpec(app, mode, opt);
        spec.name = "dev" + std::to_string(i) + " " + spec.name;
        if (longRun) {
            spec.config.profilerPeriod = sim::Time::fromSeconds(10.0);
            int phase = static_cast<int>(i) % 24;
            spec.postStart.push_back([phase](harness::Device &d) {
                harness::installDiurnalGlanceCycle(d, phase);
            });
        } else {
            spec.userGlances = true;
            harness::diurnalGlanceCadence(static_cast<int>(i) % 24,
                                          spec.glanceInterval,
                                          spec.glanceLength);
        }
        if (shardMinutes > 0) {
            spec.shards = static_cast<int>((minutes + shardMinutes - 1) /
                                           shardMinutes);
            spec.checkpointEvery =
                sim::Time::fromMinutes(static_cast<double>(shardMinutes));
        }
        spec.probes.emplace_back("events", [](harness::Device &d) {
            return static_cast<double>(d.simulator().executedEvents());
        });
        spec.collectMetrics = true;
        // Device 1 is the first LeaseOS device — the interesting trace.
        if (!tracePath.empty() && i == 1) spec.tracePath = tracePath;
        specs.push_back(std::move(spec));
    }

    harness::RunnerOptions options =
        harness::ParallelRunner::parseArgs(argc, argv);
    options.baseSeed = 0xf1ee7ULL;
    harness::ParallelRunner runner(options);
    const int jobs = runner.jobs();
    std::fprintf(stderr, "[fleet] %ld devices x %ld min on %d worker(s)",
                 devices, minutes, jobs);
    if (shardMinutes > 0)
        std::fprintf(stderr, ", %ld-min time slices", shardMinutes);
    std::fprintf(stderr, "\n");
    const std::int64_t t0 = nowNanos();
    const std::uint64_t allocs0 = benchsupport::allocCount();
    std::vector<harness::RunResult> results = runner.run(specs);
    std::uint64_t allocs = benchsupport::allocCount() - allocs0;
    double wallSec = static_cast<double>(nowNanos() - t0) / 1e9;

    // Aggregate per mode and per (behaviour class, mode). The per-mode
    // split relies on result i being device i (vanilla on even indices,
    // LeaseOS on odd): the runner guarantees spec-order collection for
    // any --jobs, and the name/specIndex check pins that contract — a
    // reordering would silently swap the modes in every fleet number.
    std::map<std::string, ModeAgg> perMode;
    std::map<std::string, ModeAgg> perBehavior; // key "LHB/None" etc.
    std::map<std::string, CheckpointAgg> perModeCkpt;
    double totalEvents = 0.0;
    for (std::size_t i = 0; i < results.size(); ++i) {
        const auto &r = results[i];
        const std::string prefix = "dev" + std::to_string(i) + " ";
        if (r.specIndex != i ||
            r.name.compare(0, prefix.size(), prefix) != 0) {
            std::fprintf(stderr,
                         "bench_fleet: result %zu is '%s' (specIndex "
                         "%zu) — runner broke spec-order collection\n",
                         i, r.name.c_str(), r.specIndex);
            return 1;
        }
        const auto &app = corpus[i % corpus.size()];
        const char *mode = (i % 2 == 0) ? "None" : "LeaseOS";
        double events = r.probe("events");
        totalEvents += events;
        auto &m = perMode[mode];
        m.powerSum += r.appPowerMw;
        m.eventsSum += events;
        ++m.n;
        auto &b = perBehavior[app.behavior + std::string("/") + mode];
        b.powerSum += r.appPowerMw;
        ++b.n;
        auto &c = perModeCkpt[mode];
        for (const auto &ckpt : r.checkpoints) {
            ++c.count;
            c.bytes += ckpt.sizeBytes;
            c.maxBytes = std::max(c.maxBytes, ckpt.sizeBytes);
        }
    }

    harness::TextTableSink table;
    harness::JsonSink json(harness::benchArtifactPath("fleet"));
    harness::TeeSink sink({&table, &json});
    sink.begin("Device fleet",
               std::to_string(devices) + " devices x " +
                   std::to_string(minutes) +
                   " virtual minutes; Table-5 buggy apps round-robin, "
                   "alternating vanilla/LeaseOS, diurnal glance script. "
                   "Mean app power (mW) per behaviour class and mode, "
                   "plus simulator throughput.");

    for (const char *behavior : {"LHB", "LUB", "FAB"}) {
        const auto none = perBehavior.find(behavior + std::string("/None"));
        const auto leased =
            perBehavior.find(behavior + std::string("/LeaseOS"));
        if (none == perBehavior.end() || leased == perBehavior.end())
            continue;
        double vanillaMw = none->second.powerSum / none->second.n;
        double leasedMw = leased->second.powerSum / leased->second.n;
        sink.addRow(
            {{"group", ResultSink::Value::str(behavior)},
             {"devices", ResultSink::Value::count(none->second.n +
                                                  leased->second.n)},
             {"vanilla_mw", ResultSink::Value::num(vanillaMw)},
             {"leaseos_mw", ResultSink::Value::num(leasedMw)},
             {"reduction_pct", ResultSink::Value::num(
                                   harness::reductionPercent(vanillaMw,
                                                             leasedMw))}});
    }

    sink.addSeparator();
    double vanillaMw = perMode["None"].powerSum / perMode["None"].n;
    double leasedMw = perMode["LeaseOS"].powerSum / perMode["LeaseOS"].n;
    sink.addRow(
        {{"group", ResultSink::Value::str("fleet")},
         {"devices", ResultSink::Value::count(
                         static_cast<std::int64_t>(results.size()))},
         {"vanilla_mw", ResultSink::Value::num(vanillaMw)},
         {"leaseos_mw", ResultSink::Value::num(leasedMw)},
         {"reduction_pct", ResultSink::Value::num(
                               harness::reductionPercent(vanillaMw,
                                                         leasedMw))}});
    // Throughput goes to the JSON artifact only: its columns differ from
    // the power table's, and TextTableSink headers come from row 1.
    json.addRow(
        {{"group", ResultSink::Value::str("throughput")},
         {"devices", ResultSink::Value::count(
                         static_cast<std::int64_t>(results.size()))},
         {"events", ResultSink::Value::count(
                        static_cast<std::int64_t>(totalEvents))},
         {"wall_s", ResultSink::Value::num(wallSec, 3)},
         {"events_per_s", ResultSink::Value::num(totalEvents / wallSec,
                                                 0)},
         {"allocs", ResultSink::Value::count(
                        static_cast<std::int64_t>(allocs))},
         {"allocs_per_event",
          ResultSink::Value::num(
              static_cast<double>(allocs) / totalEvents, 4)}});
    // Checkpoint-size stats (sharded runs only) — JSON artifact, one row
    // per mode; the perf-bench CI job uploads these.
    for (const auto &[mode, c] : perModeCkpt) {
        if (c.count == 0) continue;
        json.addRow(
            {{"group", ResultSink::Value::str("checkpoints")},
             {"mode", ResultSink::Value::str(mode)},
             {"count", ResultSink::Value::count(
                           static_cast<std::int64_t>(c.count))},
             {"mean_bytes",
              ResultSink::Value::num(static_cast<double>(c.bytes) /
                                         static_cast<double>(c.count),
                                     1)},
             {"max_bytes", ResultSink::Value::count(
                               static_cast<std::int64_t>(c.maxBytes))}});
    }
    // Per-device MetricRegistry rollups — JSON artifact only, one row per
    // device, every registered metric flattened to a key. The stdout
    // table stays the aggregate view.
    for (const auto &r : results) {
        ResultSink::Row row;
        row.emplace_back("group", ResultSink::Value::str("device"));
        row.emplace_back("name", ResultSink::Value::str(r.name));
        row.emplace_back("app_mw", ResultSink::Value::num(r.appPowerMw, 3));
        for (const auto &[metricName, value] : r.metrics)
            row.emplace_back(metricName, ResultSink::Value::num(value, 3));
        json.addRow(row);
    }
    sink.finish();
    std::printf("\nSimulated %.0f events in %.2f s wall — %.0f events/s "
                "across %d worker(s); %.4f heap allocs/event.\n",
                totalEvents, wallSec, totalEvents / wallSec, jobs,
                static_cast<double>(allocs) / totalEvents);
    return 0;
}
