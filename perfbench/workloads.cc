#include "workloads.h"

#include <cmath>
#include <cstdio>
#include <memory>
#include <stdexcept>
#include <utility>

#include "apps/registry.h"
#include "harness/experiment.h"

namespace perfbench {

using namespace leaseos;

namespace {

const MitigationMode kTable5Modes[] = {
    MitigationMode::None, MitigationMode::LeaseOS,
    MitigationMode::DozeAggressive, MitigationMode::DefDroid};

/**
 * App power (mW) of every Table-5 cell at kDefaultSeed, row = app in
 * table5Specs() order, column = kTable5Modes order. Captured from this
 * benchmark's own first run; equal to bench_table5_mitigation's table.
 */
constexpr double kPinnedTable5Mw[20][4] = {
    // Facebook
    {31.829332777777779, 0.98044388888888878,
     4.7368888888888909, 8.3935549999999992},
    // Torch
    {31.289332777777776, 0.80044388888888884,
     4.6222222222222218, 8.1782216666666656},
    // Kontalk
    {31.36683277777777, 0.83072166666666669,
     4.6430555555555557, 8.2061383333333335},
    // K-9
    {507.28933277795761, 23.274443888888772,
     83.955555555563109, 140.39666611114862},
    // ServalMesh
    {99.289332777796332, 4.2457772222222188,
     15.955555555555678, 27.08222166666507},
    // TextSecure
    {73.789332777780174, 2.823443888888884,
     11.711222222222222, 20.078221666666526},
    // ConnectBot (screen)
    {479.21355500000072, 17.713588333333341,
     479.21355500000072, 87.131954999999991},
    // Standup Timer
    {479.14782166666674, 59.925599444444501,
     479.14782166666674, 87.129990555555565},
    // ConnectBot (Wi-Fi)
    {16.018666666666668, 0.41955555555555557,
     2.6857777777777776, 3.2186666666666666},
    // BetterWeather
    {69.704576111111123, 26.149020555555506,
     6.3493641829422218, 40.883187022933313},
    // WHERE
    {80.671795555555533, 27.160684444444456,
     7.1222616666666658, 49.809573333333397},
    // MozStumbler
    {50.379399444444466, 15.034288333333336,
     4.5599927777777776, 26.211288333333368},
    // OSMTracker
    {101.17771055555698, 4.0518931111111112,
     16.994666666666738, 51.601043888888199},
    // GPSLogger
    {101.68544388887931, 4.0518931111111103,
     17.066822222222136, 51.678866111108633},
    // BostonBusMap
    {100.49959944444397, 4.0518931111111112,
     16.8851111111112, 51.483932777777419},
    // AIMSICD
    {102.47358277777792, 4.0518931111111112,
     17.178266666666683, 51.800793888888613},
    // OpenScienceMap
    {104.98571055555423, 4.0518931111111112,
     17.560388888888959, 52.209266111109969},
    // OpenGPSTracker
    {384.66215500000106, 4.0518931111111112,
     59.386999999999716, 97.157266111111085},
    // TapAndTurn
    {11.001511111111112, 1.375,
     1.8347688888888891, 3.6666666666666665},
    // Riot
    {18.009066666666573, 0.49999999999999961,
     3.0088400000000175, 6},
};

/** Paper averages (Table 5): LeaseOS, Doze*, DefDroid reduction %. */
constexpr double kPaperReductionPct[3] = {92.62, 69.64, 62.04};

// ---- bench_fleet's long-run device construction ----------------------
//
// Copied from bench/bench_fleet.cc (glanceCadence, installWeekScript and
// the per-device spec loop) so the fleets here are the devices that
// bench_fleet --minutes >= 720 simulates, byte for byte.

void
glanceCadence(int local, long &intervalSec, long &lengthSec)
{
    bool day = local >= 7 && local < 23;
    intervalSec = day ? 30 + 10 * (local % 5)   // 30..70 s
                      : 180 + 60 * (local % 4); // 3..6 min
    lengthSec = day ? 8 + local % 7 : 3;        // 8..14 s vs 3 s
}

void
installWeekScript(harness::Device &d, int phase)
{
    struct Cycle {
        sim::PeriodicHandle glances;
        sim::PeriodicHandle retune;
    };
    auto cycle = std::make_shared<Cycle>();
    auto tune = [&d, cycle, phase] {
        int hour =
            static_cast<int>(d.simulator().now().seconds() / 3600.0);
        long interval = 0;
        long length = 0;
        glanceCadence((phase + hour) % 24, interval, length);
        cycle->glances = harness::installGlanceScript(
            d, sim::Time::fromSeconds(static_cast<double>(interval)),
            sim::Time::fromSeconds(static_cast<double>(length)));
    };
    tune();
    cycle->retune = d.simulator().schedulePeriodicScoped(
        sim::Time::fromMinutes(60.0), tune);
}

/** bench_fleet --devices=@p devices --minutes=@p minutes
 *  [--shard-minutes=@p shardMinutes] for minutes >= 720. */
void
addLongFleet(Workload &w, long devices, long minutes, long shardMinutes)
{
    const auto &corpus = apps::table5Specs();
    const MitigationMode modes[] = {MitigationMode::None,
                                    MitigationMode::LeaseOS};
    for (long i = 0; i < devices; ++i) {
        const auto &app = corpus[static_cast<std::size_t>(i) %
                                 corpus.size()];
        harness::MitigationRunOptions opt;
        opt.duration = sim::Time::fromMinutes(static_cast<double>(minutes));
        RunSpec spec = mitigationCellSpec(app, modes[i % 2], opt);
        spec.name = "dev" + std::to_string(i) + " " + spec.name;
        spec.config.profilerPeriod = sim::Time::fromSeconds(10.0);
        int phase = static_cast<int>(i) % 24;
        spec.postStart.push_back(
            [phase](harness::Device &d) { installWeekScript(d, phase); });
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
        w.specs.push_back(std::move(spec));
    }
}

void
fnv(std::uint64_t &h, const void *data, std::size_t size)
{
    const auto *p = static_cast<const unsigned char *>(data);
    for (std::size_t i = 0; i < size; ++i) {
        h ^= p[i];
        h *= 0x100000001b3ULL;
    }
}

template <typename T>
void
fnvValue(std::uint64_t &h, T v)
{
    fnv(h, &v, sizeof v);
}

void
fnvString(std::uint64_t &h, const std::string &s)
{
    fnvValue(h, s.size());
    fnv(h, s.data(), s.size());
}

} // namespace

double
Workload::deviceHours() const
{
    double hours = 0.0;
    for (const auto &spec : specs) hours += spec.duration.seconds() / 3600.0;
    return hours;
}

DeviceConfig
Workload::config(std::size_t i) const
{
    DeviceConfig c = specs[i].config;
    if (options.baseSeed)
        c.seed = harness::deriveSeed(*options.baseSeed, i);
    return c;
}

Workload
makeWorkload(const std::string &name, std::uint64_t seed, int jobs)
{
    Workload w;
    w.name = name;
    w.options.jobs = jobs;
    if (name == "table5-cells") {
        // Paper's Table 5: 20 apps x 4 modes, 30 virtual minutes, Pixel
        // XL, 100 ms profiler — bench_table5_mitigation's cell list.
        if (seed != kDefaultSeed) w.options.baseSeed = seed;
        for (const auto &app : apps::table5Specs())
            for (MitigationMode mode : kTable5Modes)
                w.specs.push_back(harness::mitigationCellSpec(app, mode));
    } else if (name == "day-sharded") {
        w.options.baseSeed = seed == kDefaultSeed ? 0xf1ee7ULL : seed;
        addLongFleet(w, 100, 24 * 60, 60);
        w.sharded = true;
    } else if (name == "week-fleet") {
        w.options.baseSeed = seed == kDefaultSeed ? 0xf1ee7ULL : seed;
        addLongFleet(w, 20, 7 * 24 * 60, 0);
        w.tailPercentile = 75.0;
    } else {
        throw std::invalid_argument("unknown workload '" + name + "'");
    }
    return w;
}

void
checkResults(const Workload &w, std::uint64_t seed,
             const std::vector<RunResult> &results, std::vector<bool> &bad,
             std::vector<std::string> &errors)
{
    const bool pinned = w.name == "table5-cells" && seed == kDefaultSeed;
    for (std::size_t i = 0; i < results.size(); ++i) {
        const RunResult &r = results[i];
        bool ok = r.specIndex == i && r.name == w.specs[i].name &&
                  std::isfinite(r.appPowerMw) &&
                  std::isfinite(r.systemPowerMw) && r.appPowerMw >= 0.0 &&
                  r.perAppPowerMw.size() == w.specs[i].apps.size();
        for (double mw : r.perAppPowerMw) ok = ok && std::isfinite(mw);
        if (!ok) {
            bad[i] = true;
            errors.push_back("scenario " + std::to_string(i) + " ('" +
                             w.specs[i].name +
                             "'): out of order, renamed or non-finite "
                             "power");
        }
        if (pinned && r.appPowerMw != kPinnedTable5Mw[i / 4][i % 4]) {
            bad[i] = true;
            char line[200];
            std::snprintf(line, sizeof line,
                          "cell %zu ('%s'): app power %.17g mW, pinned "
                          "%.17g mW",
                          i, w.specs[i].name.c_str(), r.appPowerMw,
                          kPinnedTable5Mw[i / 4][i % 4]);
            errors.push_back(line);
        }
    }
}

std::vector<double>
table5Averages(const std::vector<RunResult> &results)
{
    std::vector<double> averages;
    const std::size_t apps = results.size() / 4;
    for (std::size_t m = 1; m < 4; ++m) {
        double sum = 0.0;
        for (std::size_t a = 0; a < apps; ++a)
            sum += harness::reductionPercent(results[a * 4].appPowerMw,
                                             results[a * 4 + m].appPowerMw);
        averages.push_back(sum / static_cast<double>(apps));
    }
    return averages;
}

double
paperErrorPp(const std::vector<RunResult> &results)
{
    std::vector<double> averages = table5Averages(results);
    double gap = 0.0;
    for (std::size_t m = 0; m < 3; ++m)
        gap += std::fabs(averages[m] - kPaperReductionPct[m]);
    return gap / 3.0;
}

std::uint64_t
outputDigest(const std::vector<RunResult> &results)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const RunResult &r : results) {
        fnvString(h, r.name);
        fnvValue(h, r.specIndex);
        fnvValue(h, r.seed);
        fnvValue(h, r.appPowerMw);
        fnvValue(h, r.systemPowerMw);
        for (double mw : r.perAppPowerMw) fnvValue(h, mw);
        for (const auto &[behavior, n] : r.behaviorCounts) {
            fnvValue(h, behavior);
            fnvValue(h, n);
        }
        fnvValue(h, r.deferrals);
        fnvValue(h, r.termChecks);
        fnvValue(h, r.leasesCreated);
        for (const auto &[name, v] : r.probes) {
            fnvString(h, name);
            fnvValue(h, v);
        }
        for (const auto &[name, v] : r.metrics) {
            fnvString(h, name);
            fnvValue(h, v);
        }
        for (const auto &c : r.checkpoints) {
            fnvValue(h, c.timeNanos);
            fnvValue(h, c.sizeBytes);
            fnvValue(h, c.digest);
        }
    }
    return h;
}

} // namespace perfbench
