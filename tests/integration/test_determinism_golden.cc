/**
 * @file
 * Golden-output determinism tests for the simulator core.
 *
 * The JSON documents under tests/golden/ were captured with the original
 * std::priority_queue + std::unordered_set EventQueue. The slot-based
 * intrusive-heap queue (and any future core change) must reproduce them
 * byte for byte: one full Table-5 mitigation cell, one multi-spec
 * ParallelRunner sweep, a 96-hour sweep of the GPS retry apps (whose
 * removed-but-not-destroyed location requests pile up over long
 * horizons), one app per token service under every mitigation mode,
 * the last two serialised at full precision, and the size and digest of
 * every hourly checkpoint blob of a 6-hour sharded sweep.
 *
 * Regenerating (only when an *intended* behaviour change lands):
 *
 *     LEASEOS_REGEN_GOLDEN=1 ./build/tests/test_determinism_golden
 *
 * rewrites the files in the source tree; the diff then documents the
 * behaviour change for review.
 */

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "apps/buggy/beacon_scanner.h"
#include "apps/buggy/facebook_audio.h"
#include "apps/registry.h"
#include "harness/experiment.h"
#include "harness/result_sink.h"
#include "harness/runner.h"
#include "lease/behavior.h"

#ifndef LEASEOS_TEST_GOLDEN_DIR
#error "LEASEOS_TEST_GOLDEN_DIR must point at tests/golden"
#endif

namespace leaseos::harness {
namespace {

using ResultValue = ResultSink::Value;

/**
 * Serialise every RunResult field, stable key order; doubles get
 * @p decimals fractional digits.
 */
ResultSink::Row
resultRow(const RunResult &r, int decimals = 9)
{
    ResultSink::Row row;
    row.emplace_back("name", ResultValue::str(r.name));
    row.emplace_back("specIndex",
                     ResultValue::count(
                         static_cast<std::int64_t>(r.specIndex)));
    row.emplace_back("seed", ResultValue::count(
                                 static_cast<std::int64_t>(r.seed)));
    row.emplace_back("appPowerMw", ResultValue::num(r.appPowerMw, decimals));
    row.emplace_back("systemPowerMw",
                     ResultValue::num(r.systemPowerMw, decimals));
    for (std::size_t i = 0; i < r.perAppPowerMw.size(); ++i)
        row.emplace_back("app" + std::to_string(i) + "PowerMw",
                         ResultValue::num(r.perAppPowerMw[i], decimals));
    row.emplace_back("deferrals",
                     ResultValue::count(
                         static_cast<std::int64_t>(r.deferrals)));
    row.emplace_back("termChecks",
                     ResultValue::count(
                         static_cast<std::int64_t>(r.termChecks)));
    row.emplace_back("leasesCreated",
                     ResultValue::count(
                         static_cast<std::int64_t>(r.leasesCreated)));
    for (const auto &[behavior, count] : r.behaviorCounts)
        row.emplace_back(std::string("behavior") +
                             lease::behaviorName(behavior),
                         ResultValue::count(
                             static_cast<std::int64_t>(count)));
    for (const auto &[name, value] : r.probes)
        row.emplace_back("probe:" + name, ResultValue::num(value, decimals));
    return row;
}

std::string
goldenPath(const std::string &file)
{
    return std::string(LEASEOS_TEST_GOLDEN_DIR) + "/" + file;
}

/** Compare @p document against the golden file (or regenerate it). */
void
checkAgainstGolden(const std::string &file, const std::string &document)
{
    const std::string path = goldenPath(file);
    if (std::getenv("LEASEOS_REGEN_GOLDEN") != nullptr) {
        std::ofstream out(path, std::ios::binary);
        ASSERT_TRUE(out.good()) << "cannot write " << path;
        out << document;
        GTEST_SKIP() << "regenerated " << path;
    }
    std::ifstream in(path, std::ios::binary);
    ASSERT_TRUE(in.good())
        << "missing golden file " << path
        << " (run with LEASEOS_REGEN_GOLDEN=1 to create it)";
    std::ostringstream expected;
    expected << in.rdbuf();
    EXPECT_EQ(document, expected.str())
        << "simulation output diverged from the golden capture; if the "
           "change is intentional, regenerate with LEASEOS_REGEN_GOLDEN=1 "
           "and review the diff";
}

TEST(DeterminismGoldenTest, Table5CellByteIdentical)
{
    // One full Table-5 cell: the torch app (screen wakelock, LHB) under
    // LeaseOS — 30 minutes, Pixel XL, 100 ms sampling, user glances.
    MitigationRunOptions opt;
    RunSpec spec = mitigationCellSpec(apps::buggySpec("torch"),
                                      MitigationMode::LeaseOS, opt);
    RunResult result = runScenario(spec);

    JsonSink json;
    json.begin("golden_table5_cell",
               "torch x LeaseOS, 30 min Pixel XL, seed 0x1ea5e05");
    json.addRow(resultRow(result));
    json.finish();
    checkAgainstGolden("table5_cell_torch_leaseos.json", json.document());
}

TEST(DeterminismGoldenTest, RunnerSweepByteIdentical)
{
    // A small ParallelRunner sweep: three apps x two modes with derived
    // seeds, run on several workers. Exercises the queue across Devices.
    const MitigationMode modes[] = {MitigationMode::None,
                                    MitigationMode::LeaseOS};
    MitigationRunOptions opt;
    opt.duration = sim::Time::fromMinutes(10.0);

    std::vector<RunSpec> specs;
    for (const char *key : {"k9", "gpslogger", "kontalk"})
        for (MitigationMode mode : modes)
            specs.push_back(
                mitigationCellSpec(apps::buggySpec(key), mode, opt));

    RunnerOptions options;
    options.jobs = 4;
    options.baseSeed = 0x601dca5cULL;
    ParallelRunner runner(options);
    auto results = runner.run(specs);

    JsonSink json;
    json.begin("golden_runner_sweep",
               "k9/gpslogger/kontalk x none/leaseos, 10 min, jobs=4");
    for (const auto &r : results) json.addRow(resultRow(r));
    json.finish();
    checkAgainstGolden("runner_sweep.json", json.document());
}

TEST(DeterminismGoldenTest, GpsRetryAppsLongHorizonByteIdentical)
{
    // The GPS retry apps request again on every cycle without destroying
    // the old request, so by 96 h each device has thousands of removed
    // requests (and, under LeaseOS, their leases). Long-run fleet device
    // construction: 10 s profiler, fixed glances plus the diurnal cycle.
    const MitigationMode modes[] = {MitigationMode::None,
                                    MitigationMode::LeaseOS};
    MitigationRunOptions opt;
    opt.duration = sim::Time::fromHours(96.0);

    std::vector<RunSpec> specs;
    for (const char *key : {"betterweather", "where", "mozstumbler"})
        for (MitigationMode mode : modes) {
            RunSpec spec =
                mitigationCellSpec(apps::buggySpec(key), mode, opt);
            spec.config.profilerPeriod = sim::Time::fromSeconds(10.0);
            int phase = static_cast<int>(specs.size());
            spec.postStart.push_back([phase](Device &d) {
                installDiurnalGlanceCycle(d, phase);
            });
            specs.push_back(std::move(spec));
        }

    RunnerOptions options;
    options.jobs = 4;
    options.baseSeed = 0x96b0ULL;
    ParallelRunner runner(options);
    auto results = runner.run(specs);

    JsonSink json;
    json.begin("golden_gps_retry_96h",
               "betterweather/where/mozstumbler x none/leaseos, 96 h, "
               "10 s profiler, diurnal glances, jobs=4");
    // 17 decimals: every double is printed to its last bit, because a
    // misplaced split of the GPS energy integration moves only the
    // low-order digits of the power figures.
    for (const auto &r : results) json.addRow(resultRow(r, 17));
    json.finish();
    checkAgainstGolden("gps_retry_96h.json", json.document());
}

TEST(DeterminismGoldenTest, TokenServicesUnderEveryModeByteIdentical)
{
    // One app per token service (screen and partial wakelocks, Wi-Fi
    // lock, GPS request, sensor listener, audio session, Bluetooth scan)
    // under all six mitigation modes: the only golden that runs Doze,
    // DefDroid and the one-shot throttler, or touches audio and
    // Bluetooth at all.
    const MitigationMode modes[] = {
        MitigationMode::None,           MitigationMode::LeaseOS,
        MitigationMode::Doze,           MitigationMode::DozeAggressive,
        MitigationMode::DefDroid,       MitigationMode::OneShotThrottle};
    std::vector<apps::BuggyAppSpec> subjects;
    for (const char *key :
         {"torch", "k9", "connectbot-wifi", "gpslogger", "tapandturn"})
        subjects.push_back(apps::buggySpec(key));
    auto noTrigger = [](Device &) {};
    subjects.push_back({"facebook-audio", "Facebook(audio)", "social",
                        "audio", "LHB",
                        [](Device &d) -> app::App & {
                            return d.install<apps::FacebookAudio>();
                        },
                        noTrigger});
    subjects.push_back({"beacon-scanner", "BeaconScanner", "tool",
                        "Bluetooth", "LHB",
                        [](Device &d) -> app::App & {
                            return d.install<apps::BeaconScanner>();
                        },
                        noTrigger});

    MitigationRunOptions opt;
    std::vector<RunSpec> specs;
    for (const auto &subject : subjects)
        for (MitigationMode mode : modes)
            specs.push_back(mitigationCellSpec(subject, mode, opt));

    RunnerOptions options;
    options.jobs = 4;
    options.baseSeed = 0x70ce5ULL;
    ParallelRunner runner(options);
    auto results = runner.run(specs);

    JsonSink json;
    json.begin("golden_token_services_modes",
               "torch/k9/connectbot-wifi/gpslogger/tapandturn/"
               "facebook-audio/beacon-scanner x all six modes, 30 min, "
               "jobs=4");
    for (const auto &r : results) json.addRow(resultRow(r, 17));
    json.finish();
    checkAgainstGolden("token_services_modes.json", json.document());
}

TEST(DeterminismGoldenTest, CheckpointBlobsByteIdentical)
{
    // Pins the encoding of real device blobs, not just a toy frame: four
    // apps spanning the profiler-heavy GPS retry shape, a partial
    // wakelock, a sensor listener and a Wi-Fi lock, each with and
    // without the lease runtime, checkpointed every virtual hour and run
    // in three time slices. A blob's size and FNV-1a payload digest change with
    // any byte of any section, so this golden catches an encoder that
    // reorders, pads or re-encodes a field even when simulation output
    // stays the same.
    const MitigationMode modes[] = {MitigationMode::None,
                                    MitigationMode::LeaseOS};
    MitigationRunOptions opt;
    opt.duration = sim::Time::fromHours(6.0);

    std::vector<RunSpec> specs;
    for (const char *key :
         {"betterweather", "k9", "tapandturn", "connectbot-wifi"})
        for (MitigationMode mode : modes) {
            RunSpec spec =
                mitigationCellSpec(apps::buggySpec(key), mode, opt);
            spec.config.profilerPeriod = sim::Time::fromSeconds(10.0);
            // The checked build's audit timer adds events, and the sim
            // section counts executed events: without this, blobs would
            // differ between checked and normal builds.
            spec.config.checkedOracle = false;
            int phase = static_cast<int>(specs.size());
            spec.postStart.push_back([phase](Device &d) {
                installDiurnalGlanceCycle(d, phase);
            });
            spec.withCheckpoints(sim::Time::fromHours(1.0)).withShards(3);
            specs.push_back(std::move(spec));
        }

    RunnerOptions options;
    options.jobs = 4;
    options.baseSeed = 0xc4b10bULL;
    auto results = ParallelRunner(options).run(specs);

    JsonSink json;
    json.begin("golden_checkpoint_blobs",
               "betterweather/k9/tapandturn/connectbot-wifi x "
               "none/leaseos, 6 h, 10 s profiler, diurnal glances, "
               "hourly checkpoints, 3 shards, jobs=4");
    for (const auto &r : results) {
        json.addRow(resultRow(r, 17));
        for (const auto &c : r.checkpoints) {
            char digest[17];
            std::snprintf(digest, sizeof digest, "%016" PRIx64, c.digest);
            json.addRow(
                {{"name", ResultValue::str(r.name)},
                 {"timeNanos", ResultValue::count(c.timeNanos)},
                 {"sizeBytes",
                  ResultValue::count(
                      static_cast<std::int64_t>(c.sizeBytes))},
                 {"digest", ResultValue::str(digest)}});
        }
    }
    json.finish();
    checkAgainstGolden("checkpoint_blobs.json", json.document());
}

} // namespace
} // namespace leaseos::harness
