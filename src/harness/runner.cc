#include "harness/runner.h"

#include <algorithm>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <exception>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "harness/scenario_session.h"

namespace leaseos::harness {

double
RunResult::probe(const std::string &probeName) const
{
    for (const auto &[name_, value] : probes)
        if (name_ == probeName) return value;
    throw std::out_of_range("no probe named '" + probeName + "'");
}

double
RunResult::metric(const std::string &metricName) const
{
    for (const auto &[name_, value] : metrics)
        if (name_ == metricName) return value;
    throw std::out_of_range("no metric named '" + metricName + "'");
}

sim::PeriodicHandle
installGlanceScript(Device &device, sim::Time interval, sim::Time length)
{
    auto &sim = device.simulator();
    auto &dms = device.server().displayManager();
    auto &motion = device.motion();
    // Generation guard: with length >= interval, glance N's screen-off
    // event fires after glance N+1 has begun and would blank the screen
    // (and park the user) mid-glance. Only the latest glance's off-event
    // may take effect.
    auto generation = std::make_shared<std::uint64_t>(0);
    return sim.schedulePeriodicScoped(
        interval, [&sim, &dms, &motion, length, generation] {
            // Pick up the phone: motion, then screen for a moment.
            std::uint64_t glance = ++*generation;
            motion.setStationary(false);
            dms.userSetScreen(true);
            sim.schedule(length, [&dms, &motion, generation, glance] {
                if (*generation != glance) return; // superseded
                dms.userSetScreen(false);
                motion.setStationary(true);
            });
        });
}

RunResult
runScenario(const RunSpec &spec)
{
    // Single-shot execution is just a one-slice session. ParallelRunner
    // drives the same class slice by slice, which is why the two agree
    // bit-for-bit (see tests/harness/test_sharded_runner.cc).
    ScenarioSession session(spec, spec.config);
    session.advanceTo(spec.duration);
    return session.finish();
}

std::vector<sim::Time>
shardBounds(sim::Time duration, int shards)
{
    if (shards < 1) shards = 1;
    std::vector<sim::Time> bounds;
    bounds.reserve(static_cast<std::size_t>(shards));
    for (int i = 1; i <= shards; ++i) {
        // i·d/n in integer nanos: monotone, exact endpoint, and safe
        // from overflow for any plausible duration · shard product.
        std::int64_t at = duration.nanos() / shards * i +
                          duration.nanos() % shards * i / shards;
        bounds.push_back(sim::Time::fromNanos(at));
    }
    bounds.back() = duration;
    return bounds;
}

std::uint64_t
deriveSeed(std::uint64_t baseSeed, std::uint64_t specIndex)
{
    // splitmix64: the recommended seeding mixer for mt19937-family
    // engines; consecutive indices land in statistically independent
    // streams.
    std::uint64_t z = baseSeed + 0x9e3779b97f4a7c15ULL * (specIndex + 1);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

int
ParallelRunner::defaultJobs()
{
    if (std::optional<int> n = parseJobs(std::getenv("LEASEOS_JOBS"));
        n && *n > 0)
        return *n;
    unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? static_cast<int>(hw) : 1;
}

std::optional<int>
ParallelRunner::parseJobs(const char *text)
{
    if (text == nullptr || *text == '\0') return std::nullopt;
    long value = 0;
    for (const char *p = text; *p != '\0'; ++p) {
        if (*p < '0' || *p > '9') return std::nullopt;
        value = value * 10 + (*p - '0');
        if (value > 100000) return std::nullopt; // obviously bogus
    }
    return static_cast<int>(value);
}

namespace {

[[noreturn]] void
jobsUsageError(const char *prog, const std::string &offender)
{
    std::fprintf(stderr,
                 "%s: invalid jobs flag '%s'\n"
                 "usage: %s [--jobs N | --jobs=N | -j N | -jN]\n"
                 "  N is a non-negative integer; 0 (or $LEASEOS_JOBS "
                 "unset) means automatic\n",
                 prog, offender.c_str(), prog);
    std::exit(2);
}

} // namespace

RunnerOptions
ParallelRunner::parseArgs(int argc, char **argv)
{
    RunnerOptions options;
    const char *prog = argc > 0 ? argv[0] : "bench";
    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        const char *value = nullptr;
        std::string offender = arg;
        if (std::strcmp(arg, "--jobs") == 0 || std::strcmp(arg, "-j") == 0) {
            // Separated form: the value is the next argv entry.
            if (i + 1 >= argc) jobsUsageError(prog, offender);
            value = argv[++i];
            offender += std::string(" ") + value;
        } else if (std::strncmp(arg, "--jobs=", 7) == 0) {
            value = arg + 7;
        } else if (std::strncmp(arg, "-j", 2) == 0 && arg[2] != '\0') {
            value = arg + 2;
        } else {
            continue; // not a jobs flag; other flags belong to the bench
        }
        std::optional<int> jobs = parseJobs(value);
        if (!jobs) jobsUsageError(prog, offender);
        options.jobs = *jobs;
        break;
    }
    return options;
}

ParallelRunner::ParallelRunner(RunnerOptions options)
    : options_(options)
{
    jobs_ = options.jobs > 0 ? options.jobs : defaultJobs();
}

namespace {

/** One spec's execution state, migrating between workers. */
struct Session {
    std::size_t specIndex = 0;
    std::vector<sim::Time> bounds;
    std::size_t nextSlice = 0;
    /** Live between first claim and last slice; bound to no thread
     *  while the session sits in the ready queue. */
    std::unique_ptr<ScenarioSession> scenario;
};

} // namespace

std::vector<RunResult>
ParallelRunner::run(const std::vector<RunSpec> &specs,
                    const std::function<void(const RunResult &)> &onResult)
    const
{
    std::vector<RunResult> results(specs.size());
    if (specs.empty()) return results;

    std::vector<Session> sessions(specs.size());
    for (std::size_t i = 0; i < specs.size(); ++i)
        sessions[i].specIndex = i;

    // Slice scheduler: sessions whose next slice may run sit in `ready`;
    // workers prefer those and open a fresh session only when none is
    // ready, bounding live devices near the pool size. A session is
    // owned by exactly one worker at a time (it is either in `ready`,
    // in flight, or done), so only the queue itself needs the lock, and
    // each result lands in its own slot: collection is ordered by
    // construction, not by completion.
    std::mutex m;
    std::condition_variable cv;
    std::deque<Session *> ready;
    std::size_t nextUnstarted = 0;
    std::size_t doneCount = 0;
    std::exception_ptr firstError;
    std::mutex reportMutex; // serialises onResult

    auto complete = [&](Session &s, RunResult r, bool report) {
        r.specIndex = s.specIndex;
        if (report && onResult) {
            std::lock_guard<std::mutex> lock(reportMutex);
            onResult(r);
        }
        results[s.specIndex] = std::move(r);
        std::lock_guard<std::mutex> lock(m);
        // Idle workers wait for a ready slice or for the end; a finished
        // session never makes a slice ready.
        if (++doneCount == sessions.size()) cv.notify_all();
    };

    auto worker = [&] {
        for (;;) {
            Session *s = nullptr;
            {
                std::unique_lock<std::mutex> lock(m);
                cv.wait(lock, [&] {
                    return doneCount == sessions.size() || !ready.empty() ||
                           nextUnstarted < sessions.size();
                });
                if (doneCount == sessions.size()) return;
                if (!ready.empty()) {
                    s = ready.front();
                    ready.pop_front();
                } else {
                    s = &sessions[nextUnstarted++];
                }
            }
            try {
                if (!s->scenario) {
                    // Specs are shared read-only across workers:
                    // reseeding clones only the DeviceConfig, never the
                    // spec's app/setup/probe closures.
                    const RunSpec &spec = specs[s->specIndex];
                    DeviceConfig config = spec.config;
                    if (options_.baseSeed)
                        config.seed =
                            deriveSeed(*options_.baseSeed, s->specIndex);
                    s->bounds = shardBounds(spec.duration, spec.shards);
                    s->scenario =
                        std::make_unique<ScenarioSession>(spec, config);
                } else {
                    s->scenario->bind();
                }
                s->scenario->advanceTo(s->bounds[s->nextSlice]);
                ++s->nextSlice;
                if (s->nextSlice == s->bounds.size()) {
                    RunResult r = s->scenario->finish();
                    s->scenario.reset();
                    complete(*s, std::move(r), true);
                } else {
                    s->scenario->unbind();
                    std::lock_guard<std::mutex> lock(m);
                    ready.push_back(s);
                    cv.notify_one();
                }
            } catch (...) {
                // Record the first error, leave this spec's result
                // default, keep draining the rest.
                s->scenario.reset();
                {
                    std::lock_guard<std::mutex> lock(m);
                    if (!firstError) firstError = std::current_exception();
                }
                complete(*s, RunResult{}, false);
            }
        }
    };

    int pool = static_cast<int>(std::min<std::size_t>(
        static_cast<std::size_t>(jobs_), specs.size()));
    if (pool <= 1) {
        worker();
    } else {
        std::vector<std::thread> threads;
        threads.reserve(static_cast<std::size_t>(pool));
        for (int t = 0; t < pool; ++t) threads.emplace_back(worker);
        for (auto &th : threads) th.join();
    }
    if (firstError) std::rethrow_exception(firstError);
    return results;
}

} // namespace leaseos::harness
