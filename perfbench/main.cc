/**
 * @file
 * perfbench: the repository benchmark (see README.md).
 *
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *             [--spans PATH]
 *
 * --trace 0 prints the end-to-end metrics: setup passes for one second,
 * one session pass that checks every output and serves as the reference,
 * then runner passes for S seconds, each checked against the reference.
 * --trace 1
 * prints the per-layer metrics: runner passes for S/2 seconds, then
 * traced session passes for S/2 seconds (spans go to PATH). The last
 * stdout line is one JSON object {correct, attempted, failed, metrics}.
 */

#include <sys/resource.h>

#include <algorithm>
#include <cerrno>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "passes.h"
#include "workloads.h"

using namespace perfbench;

namespace {

struct Options {
    std::string workload;
    std::uint64_t seed = kDefaultSeed;
    double seconds = 0.0;
    int trace = -1;
    std::string spansPath;
};

[[noreturn]] void
usage(const std::string &why)
{
    std::fprintf(stderr,
                 "perfbench: %s\n"
                 "usage: perfbench --workload {table5-cells|day-sharded|"
                 "week-fleet} --seed N --seconds S --trace 0|1 "
                 "[--spans PATH]\n",
                 why.c_str());
    std::exit(2);
}

std::uint64_t
parseUnsigned(const char *text, const char *flag)
{
    char *end = nullptr;
    errno = 0;
    unsigned long long v = std::strtoull(text, &end, 10);
    if (*text == '\0' || *text == '-' || *end != '\0' || errno != 0)
        usage(std::string("bad value for ") + flag);
    return v;
}

Options
parseArgs(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        std::string flag = argv[i];
        if (i + 1 >= argc) usage("missing value for " + flag);
        const char *value = argv[++i];
        if (flag == "--workload") {
            o.workload = value;
        } else if (flag == "--seed") {
            o.seed = parseUnsigned(value, "--seed");
        } else if (flag == "--seconds") {
            std::uint64_t s = parseUnsigned(value, "--seconds");
            if (s < 1 || s > 600) usage("--seconds must be 1..600");
            o.seconds = static_cast<double>(s);
        } else if (flag == "--trace") {
            if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0)
                usage("--trace must be 0 or 1");
            o.trace = value[0] - '0';
        } else if (flag == "--spans") {
            o.spansPath = value;
        } else {
            usage("unknown flag " + flag);
        }
    }
    if (o.seconds <= 0.0 || o.trace < 0)
        usage("--seconds and --trace are required");
    return o;
}

/**
 * Nearest-rank quantile, @p q in [0, 1]: the smallest sample with at
 * least q·n samples at or below it; 0 for no samples. Per-scenario costs
 * on the fleets are far apart (tens of ms to seconds), and interpolating
 * across such a gap would make a percentile swing with noise on either
 * side of it.
 */
double
quantile(std::vector<double> v, double q)
{
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    auto rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(v.size())));
    return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

double
median(const std::vector<double> &v)
{
    return quantile(v, 0.5);
}

/**
 * Every pass's results are checked: the first pass against the output
 * checks (and the pinned Table-5 powers), every later pass for equality
 * with the first, field by field — which is also how slicing and the
 * re-read checkpoint digests are proven.
 */
class Verdict
{
  public:
    Verdict(const Workload &w, std::uint64_t seed) : w_(w), seed_(seed) {}

    void
    admit(const std::vector<RunResult> &results, std::size_t thrown,
          const std::vector<std::string> &errors)
    {
        const std::size_t n = w_.specs.size();
        attempted_ += n;
        for (const auto &e : errors) note(e);
        if (results.size() != n) {
            failed_ += n;
            note("pass returned " + std::to_string(results.size()) +
                 " results for " + std::to_string(n) + " scenarios");
            return;
        }
        std::vector<bool> bad(n, false);
        if (reference_.empty()) {
            checkResults(w_, seed_, results, bad, errors_);
            reference_ = results;
        } else {
            for (std::size_t i = 0; i < n; ++i)
                if (!(results[i] == reference_[i])) {
                    bad[i] = true;
                    note("scenario " + std::to_string(i) + " ('" +
                         w_.specs[i].name +
                         "') differs from the reference pass");
                }
        }
        std::size_t failed =
            static_cast<std::size_t>(std::count(bad.begin(), bad.end(), true));
        failed_ += std::min(n, std::max(failed, thrown));
    }

    void
    admitThrown(const std::string &error)
    {
        attempted_ += w_.specs.size();
        failed_ += w_.specs.size();
        note("runner threw: " + error);
    }

    const std::vector<RunResult> &reference() const { return reference_; }
    std::uint64_t attempted() const { return attempted_; }
    std::uint64_t failed() const { return failed_; }
    bool correct() const { return failed_ == 0 && errors_.empty(); }
    const std::vector<std::string> &errors() const { return errors_; }

  private:
    void
    note(const std::string &e)
    {
        if (errors_.size() < 50) errors_.push_back(e);
    }

    const Workload &w_;
    std::uint64_t seed_;
    std::vector<RunResult> reference_;
    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
    std::vector<std::string> errors_;
};

struct Metric {
    std::string name;
    double value;
    std::string unit;
};

void
printResult(const Verdict &verdict, const std::vector<Metric> &metrics)
{
    for (const auto &e : verdict.errors())
        std::printf("check failed: %s\n", e.c_str());
    for (const auto &m : metrics)
        std::printf("%-34s %14.6g %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
    std::string json = "{\"correct\": ";
    json += verdict.correct() ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(verdict.attempted());
    json += ", \"failed\": " + std::to_string(verdict.failed());
    json += ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        char value[64];
        double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
        std::snprintf(value, sizeof value, "%.17g", v);
        json += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " +
                value + ", \"unit\": \"" + metrics[i].unit + "\"}";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    std::fflush(stdout);
}

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB on Linux
}

void
printDigest(const Verdict &verdict)
{
    std::printf("output_digest %016" PRIx64 "\n",
                outputDigest(verdict.reference()));
}

// ---- --trace 0: end-to-end metrics ----------------------------------------

/** Host time spent on setup passes per run; setup_s is their median. */
constexpr double kSetupBudgetSeconds = 1.0;

std::vector<Metric>
endToEnd(const Workload &w, const Options &o, Verdict &verdict)
{
    std::vector<double> setup;
    double setupStart = hostSeconds();
    do {
        setup.push_back(setupPassSeconds(w));
    } while (hostSeconds() - setupStart < kSetupBudgetSeconds);

    // Reference pass: checks every output and re-reads every blob. The
    // setup passes have warmed the caches, so its scenarios count too.
    SessionPass ref = runSessionPass(w, 0, SessionMode::Reference);
    verdict.admit(ref.results, ref.failed, ref.errors);

    // Runner passes give throughput, session passes per-scenario CPU
    // time. They alternate, so drift in the host's speed hits both alike.
    std::vector<double> rate;
    std::vector<double> scenarioMs = ref.scenarioCpuMs;
    std::uint64_t emittedBytes = 0;
    double t0 = hostSeconds();
    for (std::uint32_t k = 1; k <= 2 || hostSeconds() - t0 < o.seconds;
         ++k) {
        if (k % 2 == 0) {
            SessionPass p = runSessionPass(w, k, SessionMode::Timed);
            verdict.admit(p.results, p.failed, p.errors);
            scenarioMs.insert(scenarioMs.end(), p.scenarioCpuMs.begin(),
                              p.scenarioCpuMs.end());
            continue;
        }
        RunnerPass p = runRunnerPass(w);
        if (!p.error.empty()) {
            verdict.admitThrown(p.error);
            continue;
        }
        verdict.admit(p.results, 0, {});
        rate.push_back(w.deviceHours() / p.cpuSeconds);
        emittedBytes = 0;
        for (const auto &r : p.results)
            for (const auto &c : r.checkpoints) emittedBytes += c.sizeBytes;
    }

    // Workloads that emit no checkpoints count one end-of-run snapshot
    // per scenario instead, so the metric is their state footprint.
    double ckptMb = static_cast<double>(
                        emittedBytes > 0 ? emittedBytes : ref.endStateBytes) /
                    1e6;
    std::printf("workload %s seed %" PRIu64 ": %zu setup passes, %zu runner "
                "and %zu session passes of %zu scenarios, %d workers\n",
                w.name.c_str(), o.seed, setup.size(), rate.size(),
                scenarioMs.size() / w.specs.size(), w.specs.size(),
                w.options.jobs);
    std::printf("scenario_ms_tail is p%g of %zu samples (%.0f beyond it)\n",
                w.tailPercentile, scenarioMs.size(),
                std::floor(static_cast<double>(scenarioMs.size()) *
                           (1.0 - w.tailPercentile / 100.0)));
    std::printf("ckpt_mb_total counts %s\n",
                emittedBytes > 0 ? "every blob the runner emitted"
                                 : "one end-of-run snapshot per scenario "
                                   "(the workload emits none)");
    std::printf("error_rate %.6g (%" PRIu64 " failed of %" PRIu64
                " scenarios attempted)\n",
                verdict.attempted()
                    ? static_cast<double>(verdict.failed()) /
                          static_cast<double>(verdict.attempted())
                    : 0.0,
                verdict.failed(), verdict.attempted());
    if (w.name == "table5-cells" && !verdict.reference().empty()) {
        std::vector<double> avg = table5Averages(verdict.reference());
        std::printf("table5 averages LeaseOS %.2f / Doze* %.2f / DefDroid "
                    "%.2f %% (paper 92.62 / 69.64 / 62.04)\n",
                    avg[0], avg[1], avg[2]);
        std::printf("paper_err_pp %.4f pp\n",
                    paperErrorPp(verdict.reference()));
    } else {
        std::printf("paper_err_pp n/a: no reference at this horizon; the "
                    "model is unvalidated here\n");
    }
    printDigest(verdict);

    return {
        {"device_hours_per_s", median(rate), "h/cpu-s"},
        {"scenario_ms_p50", median(scenarioMs), "cpu-ms"},
        {"scenario_ms_tail", quantile(scenarioMs, w.tailPercentile / 100.0),
         "cpu-ms"},
        {"setup_s", median(setup), "s"},
        {"peak_rss_mb", peakRssMb(), "MB"},
        {"ckpt_mb_total", ckptMb, "MB"},
    };
}

// ---- --trace 1: per-layer metrics -----------------------------------------

/** Section names a device checkpoint carries (DESIGN.md §11). */
const char *const kSections[] = {
    "meta",  "sim",    "rng",    "energy", "battery",
    "cpu",   "screen", "gps",    "radio",  "sensors",
    "audio", "bt",     "profiler", "leases", "apps"};

/** Per-layer values of one traced session pass; times are CPU time. */
std::map<std::string, double>
layerValues(const Workload &w, const SessionPass &p, std::string &longpole)
{
    std::map<std::string, double> v;
    std::vector<double> build, collect, save, read;
    double busyWall = 0.0;
    double sliceCpu = 0.0;
    for (const Span &s : p.spans) {
        switch (s.kind) {
          case Span::Scenario: busyWall += s.end - s.start; break;
          case Span::Build: build.push_back(s.cpu * 1e6); break;
          case Span::Slice: sliceCpu += s.cpu; break;
          case Span::Save: save.push_back(s.cpu * 1e3); break;
          case Span::Read: read.push_back(s.cpu * 1e3); break;
          case Span::Collect: collect.push_back(s.cpu * 1e3); break;
        }
    }
    const std::vector<double> &cellMs = p.scenarioCpuMs;
    auto pole = std::max_element(cellMs.begin(), cellMs.end());
    longpole = w.specs[static_cast<std::size_t>(pole - cellMs.begin())].name;

    v["harness.build_us_p50"] = median(build);
    v["harness.collect_ms_p50"] = median(collect);
    v["harness.worker_busy_frac"] = busyWall / (p.workers * p.wallSeconds);
    v["harness.longpole_s"] = *pole / 1e3;

    // The last sample of each scenario holds its end-of-run counts.
    const std::int64_t hourNs = 3600LL * 1000000000LL;
    std::vector<const SliceSample *> last(w.specs.size(), nullptr);
    double pendingMax = 0.0;
    for (const SliceSample &s : p.samples) {
        if (!last[s.request] ||
            last[s.request]->boundaryNanos < s.boundaryNanos)
            last[s.request] = &s;
        pendingMax = std::max(pendingMax, static_cast<double>(s.pending));
        MitigationMode mode = w.specs[s.request].config.mode;
        long hour = static_cast<long>(s.boundaryNanos / hourNs);
        bool scaled = s.boundaryNanos % hourNs == 0 &&
                      (hour == 6 || hour == 24 || hour == 96 || hour == 168);
        if (scaled && mode == MitigationMode::None)
            v["os.slice_ms.h" + std::to_string(hour)] += s.cpuMs;
        if (scaled && mode == MitigationMode::LeaseOS)
            v["lease.slice_ms.h" + std::to_string(hour)] += s.cpuMs;
    }
    double events = 0.0;
    double leases = 0.0;
    double dead = 0.0;
    for (const SliceSample *s : last) {
        if (!s) continue;
        events += static_cast<double>(s->events);
        leases += static_cast<double>(s->leases);
        dead += static_cast<double>(s->deadLeases);
    }
    v["sim.events"] = events;
    v["sim.ns_per_event"] = events > 0 ? sliceCpu * 1e9 / events : 0.0;
    v["sim.pending_max"] = pendingMax;
    v["lease.table_size_end"] = leases;
    v["lease.dead_frac"] = leases > 0 ? dead / leases : 0.0;
    for (const auto &r : p.results) {
        v["lease.created"] += static_cast<double>(r.leasesCreated);
        v["lease.term_checks"] += static_cast<double>(r.termChecks);
    }

    if (w.name == "table5-cells") {
        // Cells are grouped per app: None, LeaseOS, Doze*, DefDroid.
        double lease = 0.0, doze = 0.0, defdroid = 0.0;
        const std::size_t apps = cellMs.size() / 4;
        for (std::size_t a = 0; a < apps; ++a) {
            lease += cellMs[a * 4 + 1] - cellMs[a * 4];
            doze += cellMs[a * 4 + 2];
            defdroid += cellMs[a * 4 + 3];
        }
        v["lease.overhead_ms_per_cell"] = lease / apps;
        v["mitigation.doze_ms_per_cell"] = doze / apps;
        v["mitigation.defdroid_ms_per_cell"] = defdroid / apps;
    }

    auto profiler = p.lastBlobSectionBytes.find("profiler");
    v["power.ckpt_kb.profiler"] =
        profiler == p.lastBlobSectionBytes.end()
            ? 0.0
            : static_cast<double>(profiler->second) / 1024.0;
    v["ckpt.count"] = static_cast<double>(p.blobCount);
    v["ckpt.save_ms_p50"] = median(save);
    v["ckpt.save_ms_tail"] = quantile(save, 0.99);
    v["ckpt.bytes_max"] = static_cast<double>(p.blobBytesMax);
    v["ckpt.read_ms_p50"] = median(read);
    for (const auto &[name, bytes] : p.sectionBytes)
        v["ckpt.section_kb." + name] = static_cast<double>(bytes) / 1024.0;
    v["trace.device_hours_per_s"] = w.deviceHours() / p.cpuSeconds;
    return v;
}

void
writeSpans(const std::string &path, const std::vector<SessionPass> &passes)
{
    std::ofstream out(path);
    if (!out) {
        std::fprintf(stderr, "perfbench: cannot write spans to %s\n",
                     path.c_str());
        return;
    }
    double origin = passes.front().spans.empty()
                        ? 0.0
                        : passes.front().spans.front().start;
    for (const auto &p : passes)
        for (const Span &s : p.spans) origin = std::min(origin, s.start);
    out << "{\"traceEvents\": [";
    bool first = true;
    char line[320];
    for (const auto &p : passes)
        for (const Span &s : p.spans) {
            std::snprintf(line, sizeof line,
                          "%s\n{\"name\": \"%s\", \"ph\": \"X\", \"ts\": "
                          "%.3f, \"dur\": %.3f, \"pid\": %u, \"tid\": %u, "
                          "\"args\": {\"id\": %u, \"parent\": %u, "
                          "\"request\": %u, \"cpu_us\": %.3f}}",
                          first ? "" : ",", Span::kindName(s.kind),
                          (s.start - origin) * 1e6, (s.end - s.start) * 1e6,
                          s.pass, s.worker, s.id, s.parent, s.request,
                          s.cpu * 1e6);
            out << line;
            first = false;
        }
    out << "\n]}\n";
}

std::vector<Metric>
perLayer(const Workload &w, const Options &o, Verdict &verdict)
{
    std::vector<double> wallRate;
    std::vector<double> cpuRate;
    std::vector<double> allocs;
    double t0 = hostSeconds();
    do {
        RunnerPass p = runRunnerPass(w);
        if (!p.error.empty()) {
            verdict.admitThrown(p.error);
            continue;
        }
        verdict.admit(p.results, 0, {});
        wallRate.push_back(w.deviceHours() / p.wallSeconds);
        cpuRate.push_back(w.deviceHours() / p.cpuSeconds);
        allocs.push_back(static_cast<double>(p.allocs));
    } while (hostSeconds() - t0 < o.seconds / 2);

    std::vector<SessionPass> traced;
    t0 = hostSeconds();
    do {
        traced.push_back(runSessionPass(
            w, static_cast<std::uint32_t>(traced.size()),
            SessionMode::Traced));
        verdict.admit(traced.back().results, traced.back().failed,
                      traced.back().errors);
    } while (hostSeconds() - t0 < o.seconds / 2);
    if (!o.spansPath.empty()) writeSpans(o.spansPath, traced);

    // Timings: median over traced passes; counts repeat in every pass.
    std::map<std::string, std::vector<double>> values;
    std::string longpole;
    for (const auto &p : traced)
        for (const auto &[name, value] : layerValues(w, p, longpole))
            values[name].push_back(value);
    auto layer = [&values](const std::string &name) {
        auto it = values.find(name);
        return it == values.end() ? 0.0 : median(it->second);
    };
    const double events = layer("sim.events");
    const double tracedRate = layer("trace.device_hours_per_s");

    std::vector<Metric> m = {
        {"harness.build_us_p50", layer("harness.build_us_p50"), "cpu-us"},
        {"harness.collect_ms_p50", layer("harness.collect_ms_p50"),
         "cpu-ms"},
        {"harness.worker_busy_frac", layer("harness.worker_busy_frac"),
         "fraction"},
        {"harness.longpole_s", layer("harness.longpole_s"), "cpu-s"},
        {"harness.wall_device_hours_per_s", median(wallRate), "h/s"},
        {"sim.events", events, "count"},
        {"sim.ns_per_event", layer("sim.ns_per_event"), "cpu-ns"},
        {"sim.pending_max", layer("sim.pending_max"), "count"},
        {"sim.allocs_per_event", events > 0 ? median(allocs) / events : 0.0,
         "allocs/event"},
    };
    for (const char *l : {"os", "lease"})
        for (const char *h : {"h6", "h24", "h96", "h168"}) {
            std::string name = std::string(l) + ".slice_ms." + h;
            m.push_back({name, layer(name), "cpu-ms"});
        }
    for (const char *name :
         {"lease.table_size_end", "lease.created", "lease.term_checks"})
        m.push_back({name, layer(name), "count"});
    m.push_back({"lease.dead_frac", layer("lease.dead_frac"), "fraction"});
    for (const char *name :
         {"lease.overhead_ms_per_cell", "mitigation.doze_ms_per_cell",
          "mitigation.defdroid_ms_per_cell"})
        m.push_back({name, layer(name), "cpu-ms"});
    m.push_back({"power.ckpt_kb.profiler", layer("power.ckpt_kb.profiler"),
                 "KB"});
    m.push_back({"ckpt.count", layer("ckpt.count"), "count"});
    m.push_back({"ckpt.save_ms_p50", layer("ckpt.save_ms_p50"), "cpu-ms"});
    m.push_back({"ckpt.save_ms_tail", layer("ckpt.save_ms_tail"), "cpu-ms"});
    m.push_back({"ckpt.bytes_max", layer("ckpt.bytes_max"), "B"});
    m.push_back({"ckpt.read_ms_p50", layer("ckpt.read_ms_p50"), "cpu-ms"});
    for (const char *s : kSections) {
        std::string name = std::string("ckpt.section_kb.") + s;
        m.push_back({name, layer(name), "KB"});
    }
    m.push_back({"trace.device_hours_per_s", tracedRate, "h/cpu-s"});
    m.push_back({"trace.overhead_frac",
                 tracedRate > 0 ? 1.0 - tracedRate / median(cpuRate) : 0.0,
                 "fraction"});

    std::printf("workload %s seed %" PRIu64 ": %zu untraced runner passes, "
                "%zu traced session passes, %d workers\n",
                w.name.c_str(), o.seed, cpuRate.size(), traced.size(),
                w.options.jobs);
    std::printf("harness.longpole_s is set by %s\n", longpole.c_str());
    std::printf("untraced device_hours_per_s %.6g h/cpu-s (tracing "
                "overhead is trace.overhead_frac)\n",
                median(cpuRate));
    for (const auto &[name, bytes] : traced.back().sectionBytes)
        if (std::find_if(std::begin(kSections), std::end(kSections),
                         [&name](const char *s) { return name == s; }) ==
            std::end(kSections))
            std::printf("unlisted checkpoint section %s: %.1f KB\n",
                        name.c_str(), static_cast<double>(bytes) / 1024.0);
    printDigest(verdict);
    return m;
}

} // namespace

int
main(int argc, char **argv)
{
    Options o = parseArgs(argc, argv);
    // One process, at most four workers (and never more than the host
    // has), so figures compare across hosts of four or more cores.
    int jobs = static_cast<int>(
        std::clamp(std::thread::hardware_concurrency(), 1u, 4u));
    Workload w;
    try {
        w = makeWorkload(o.workload, o.seed, jobs);
    } catch (const std::invalid_argument &e) {
        usage(e.what());
    }
    Verdict verdict(w, o.seed);
    std::vector<Metric> metrics =
        o.trace ? perLayer(w, o, verdict) : endToEnd(w, o, verdict);
    printResult(verdict, metrics);
    return 0;
}
