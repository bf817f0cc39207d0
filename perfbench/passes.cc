#include "passes.h"

#include <time.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>

#include "harness/runner.h"
#include "harness/scenario_session.h"
#include "harness/sharded_runner.h"
#include "sim/checkpoint.h"
#include "support/alloc_counter.h"

namespace perfbench {

using namespace leaseos;

double
hostSeconds()
{
    // leaselint: allow(determinism) -- benchmark: host time is the measurand
    auto now = std::chrono::steady_clock::now().time_since_epoch();
    return std::chrono::duration<double>(now).count();
}

namespace {

double
cpuClockSeconds(clockid_t clock)
{
    timespec ts{};
    // leaselint: allow(determinism) -- benchmark: host time is the measurand
    clock_gettime(clock, &ts);
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
}

} // namespace

double
threadCpuSeconds()
{
    return cpuClockSeconds(CLOCK_THREAD_CPUTIME_ID);
}

double
processCpuSeconds()
{
    return cpuClockSeconds(CLOCK_PROCESS_CPUTIME_ID);
}

const char *
Span::kindName(Kind k)
{
    switch (k) {
      case Scenario: return "scenario";
      case Build: return "build";
      case Slice: return "slice";
      case Save: return "save";
      case Read: return "read";
      case Collect: return "collect";
    }
    return "?";
}

namespace {

/** The frame's stored payload digest (header offset 24, LE), as
 *  ScenarioSession reports it in RunResult::checkpoints. */
std::uint64_t
frameDigest(const std::vector<std::uint8_t> &blob)
{
    std::uint64_t d = 0;
    for (std::size_t i = 0; i < 8; ++i)
        d |= static_cast<std::uint64_t>(blob[24 + i]) << (8 * i);
    return d;
}

/** Session-pass state one worker fills; merged when the pass ends. */
struct WorkerLog {
    std::vector<Span> spans;
    std::vector<SliceSample> samples;
    std::map<std::string, std::uint64_t> sectionBytes;
    std::map<std::string, std::uint64_t> lastBlobSectionBytes;
    std::uint64_t blobCount = 0;
    std::uint64_t blobBytesMax = 0;
    std::uint64_t endStateBytes = 0;
};

/** What the spans of one scenario share. */
struct ScenarioTrace {
    WorkerLog &log;
    std::atomic<std::uint32_t> &ids;
    std::uint32_t request;
    std::uint32_t worker;
    std::uint32_t pass;
    bool keepSpans;
    /** CPU of the scenario's own work: build, slices, saves, collect. */
    double workCpu = 0.0;
};

/** Times one call into the library; stop() (or the destructor) ends it. */
class SpanScope
{
  public:
    SpanScope(ScenarioTrace &trace, Span::Kind kind, std::uint32_t parent)
        : trace_(trace)
    {
        span_.kind = kind;
        span_.id = trace.ids.fetch_add(1, std::memory_order_relaxed);
        span_.parent = parent;
        span_.request = trace.request;
        span_.worker = trace.worker;
        span_.pass = trace.pass;
        span_.start = hostSeconds();
        cpu0_ = threadCpuSeconds();
    }
    ~SpanScope() { stop(); }
    SpanScope(const SpanScope &) = delete;
    SpanScope &operator=(const SpanScope &) = delete;

    std::uint32_t id() const { return span_.id; }

    /** End the span; returns its CPU seconds. */
    double
    stop()
    {
        if (stopped_) return span_.cpu;
        stopped_ = true;
        span_.cpu = threadCpuSeconds() - cpu0_;
        span_.end = hostSeconds();
        // Read-back is the benchmark's own check, not scenario work.
        if (span_.kind != Span::Scenario && span_.kind != Span::Read)
            trace_.workCpu += span_.cpu;
        if (trace_.keepSpans) trace_.log.spans.push_back(span_);
        return span_.cpu;
    }

  private:
    ScenarioTrace &trace_;
    Span span_;
    double cpu0_ = 0.0;
    bool stopped_ = false;
};

/** Hour-aligned slice ends up to @p duration (which is always last). */
std::vector<sim::Time>
hourBounds(sim::Time duration)
{
    const sim::Time hour = sim::Time::fromMinutes(60.0);
    std::vector<sim::Time> bounds;
    for (sim::Time t = hour; t < duration; t = t + hour) bounds.push_back(t);
    bounds.push_back(duration);
    return bounds;
}

RunResult
driveScenario(const Workload &w, std::size_t i, ScenarioTrace &trace,
              SessionMode mode)
{
    WorkerLog &log = trace.log;
    SpanScope root(trace, Span::Scenario, 0);

    // The benchmark takes the checkpoints itself, so save and read-back
    // are timed apart from the slices; the Device is reached through a
    // postStart hook that runs inside the session's constructor.
    RunSpec spec = w.specs[i];
    const sim::Time every = spec.checkpointEvery;
    spec.checkpointEvery = sim::Time{};
    harness::Device *device = nullptr;
    spec.postStart.push_back([&device](harness::Device &d) { device = &d; });

    std::unique_ptr<harness::ScenarioSession> session;
    {
        SpanScope build(trace, Span::Build, root.id());
        session = std::make_unique<harness::ScenarioSession>(spec,
                                                             w.config(i));
    }

    std::vector<RunResult::CheckpointStat> blobs;
    std::map<std::string, std::uint64_t> lastSections;
    for (sim::Time bound : hourBounds(spec.duration)) {
        SpanScope slice(trace, Span::Slice, root.id());
        session->advanceTo(bound);
        double sliceCpu = slice.stop();
        if (mode == SessionMode::Traced) {
            SliceSample sample;
            sample.request = trace.request;
            sample.boundaryNanos = bound.nanos();
            sample.cpuMs = sliceCpu * 1e3;
            sample.events = device->simulator().executedEvents();
            sample.pending = device->simulator().pendingEvents();
            if (auto *runtime = device->leaseos()) {
                const auto &table = runtime->manager().table();
                sample.leases = table.size();
                sample.deadLeases =
                    table.countInState(lease::LeaseState::Dead);
            }
            log.samples.push_back(sample);
        }

        if (every.nanos() <= 0 || bound.nanos() % every.nanos() != 0)
            continue;
        std::vector<std::uint8_t> blob;
        {
            SpanScope save(trace, Span::Save, root.id());
            blob = device->saveCheckpoint();
        }
        {
            // Throws CheckpointError on a bad frame or digest.
            SpanScope read(trace, Span::Read, root.id());
            sim::CheckpointReader reader(blob);
            lastSections.clear();
            while (!reader.atEnd()) {
                std::uint32_t version = 0;
                std::string name = reader.nextSection(version);
                lastSections[name] += reader.sectionRemaining();
                reader.skipSection();
            }
        }
        for (const auto &[name, bytes] : lastSections)
            log.sectionBytes[name] += bytes;
        blobs.push_back({bound.nanos(), blob.size(), frameDigest(blob)});
        ++log.blobCount;
        log.blobBytesMax = std::max<std::uint64_t>(log.blobBytesMax,
                                                   blob.size());
    }
    for (const auto &[name, bytes] : lastSections)
        log.lastBlobSectionBytes[name] += bytes;
    if (mode == SessionMode::Reference && every.nanos() <= 0)
        log.endStateBytes += device->saveCheckpoint().size();

    RunResult result;
    {
        SpanScope collect(trace, Span::Collect, root.id());
        result = session->finish();
    }
    result.specIndex = i;
    result.checkpoints = std::move(blobs);
    return result;
}

} // namespace

SessionPass
runSessionPass(const Workload &w, std::uint32_t pass, SessionMode mode)
{
    SessionPass out;
    out.results.resize(w.specs.size());
    out.scenarioCpuMs.resize(w.specs.size());
    out.workers = static_cast<int>(std::min<std::size_t>(
        static_cast<std::size_t>(std::max(1, w.options.jobs)),
        w.specs.size()));
    std::vector<WorkerLog> logs(static_cast<std::size_t>(out.workers));
    std::atomic<std::size_t> next{0};
    std::atomic<std::uint32_t> ids{1};
    std::mutex errorMutex;

    auto worker = [&](std::uint32_t k) {
        for (;;) {
            std::size_t i = next.fetch_add(1);
            if (i >= w.specs.size()) return;
            ScenarioTrace trace{logs[k],
                                ids,
                                static_cast<std::uint32_t>(i),
                                k,
                                pass,
                                mode == SessionMode::Traced};
            try {
                out.results[i] = driveScenario(w, i, trace, mode);
                out.scenarioCpuMs[i] = trace.workCpu * 1e3;
            } catch (const std::exception &e) {
                std::lock_guard<std::mutex> lock(errorMutex);
                ++out.failed;
                out.errors.push_back("scenario " + std::to_string(i) +
                                     " threw: " + e.what());
            }
        }
    };

    double t0 = hostSeconds();
    double cpu0 = processCpuSeconds();
    {
        std::vector<std::thread> threads;
        for (int k = 0; k < out.workers; ++k)
            threads.emplace_back(worker, static_cast<std::uint32_t>(k));
        for (auto &t : threads) t.join();
    }
    out.cpuSeconds = processCpuSeconds() - cpu0;
    out.wallSeconds = hostSeconds() - t0;

    for (WorkerLog &log : logs) {
        out.spans.insert(out.spans.end(), log.spans.begin(), log.spans.end());
        out.samples.insert(out.samples.end(), log.samples.begin(),
                           log.samples.end());
        for (const auto &[name, bytes] : log.sectionBytes)
            out.sectionBytes[name] += bytes;
        for (const auto &[name, bytes] : log.lastBlobSectionBytes)
            out.lastBlobSectionBytes[name] += bytes;
        out.blobCount += log.blobCount;
        out.blobBytesMax = std::max(out.blobBytesMax, log.blobBytesMax);
        out.endStateBytes += log.endStateBytes;
    }
    return out;
}

RunnerPass
runRunnerPass(const Workload &w)
{
    RunnerPass out;
    std::uint64_t allocs0 = benchsupport::allocCount();
    double t0 = hostSeconds();
    double cpu0 = processCpuSeconds();
    try {
        if (w.sharded)
            out.results = harness::ShardedRunner(w.options).run(w.specs);
        else
            out.results = harness::ParallelRunner(w.options).run(w.specs);
    } catch (const std::exception &e) {
        out.error = e.what();
    }
    out.cpuSeconds = processCpuSeconds() - cpu0;
    out.wallSeconds = hostSeconds() - t0;
    out.allocs = benchsupport::allocCount() - allocs0;
    return out;
}

double
setupPassSeconds(const Workload &w)
{
    double total = 0.0;
    for (std::size_t i = 0; i < w.specs.size(); ++i) {
        double t0 = threadCpuSeconds();
        harness::ScenarioSession session(w.specs[i], w.config(i));
        total += threadCpuSeconds() - t0;
    }
    return total;
}

} // namespace perfbench
