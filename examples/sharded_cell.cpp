/**
 * @file
 * One Table-5 cell executed in K time slices — the sharded-determinism
 * CI target (DESIGN.md §11).
 *
 * Runs the Torch cell (vanilla and LeaseOS) with a checkpoint emitted
 * every 1/8 of the duration, sliced into --shards time slices on the
 * ParallelRunner (--shards=1 runs the single-shot runScenario() baseline
 * instead — same spec, no slicing machinery at all). The full result —
 * power in exact IEEE-754 bits, lease counters, and every checkpoint's
 * {time, size, payload digest} — is written as canonical JSON to --out.
 *
 * Flags: --shards=N (1..64), --out=PATH, --ckpt-dir=DIR and the
 * runner's jobs forms; anything else, or a malformed value, is a usage
 * error (exit 2), so a typo cannot quietly run the single-shot path.
 *
 * CI runs this three times (--shards=1/4/8) and diffs the three files
 * byte-for-byte: any divergence between single-shot and sliced execution
 * of the same virtual timeline fails the gate. Built with
 * -DLEASEOS_CHECKED=ON the same run also certifies the slicing is
 * invariant-clean.
 */

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "apps/registry.h"
#include "harness/experiment.h"
#include "harness/runner.h"

using namespace leaseos;

namespace {

/** Exact, locale-free double rendering: IEEE-754 bits as hex. */
void
writeBits(std::FILE *f, const char *key, double v)
{
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof bits);
    std::fprintf(f, "\"%s\": \"%016" PRIx64 "\"", key, bits);
}

void
writeResult(std::FILE *f, const harness::RunResult &r)
{
    std::fprintf(f, "  {\n    \"name\": \"%s\",\n    ", r.name.c_str());
    writeBits(f, "app_mw", r.appPowerMw);
    std::fprintf(f, ",\n    ");
    writeBits(f, "system_mw", r.systemPowerMw);
    std::fprintf(f,
                 ",\n    \"deferrals\": %" PRIu64
                 ",\n    \"term_checks\": %" PRIu64
                 ",\n    \"leases_created\": %" PRIu64
                 ",\n    \"checkpoints\": [\n",
                 r.deferrals, r.termChecks, r.leasesCreated);
    for (std::size_t i = 0; i < r.checkpoints.size(); ++i) {
        const auto &c = r.checkpoints[i];
        std::fprintf(f,
                     "      {\"t_ns\": %" PRId64 ", \"bytes\": %" PRIu64
                     ", \"digest\": \"%016" PRIx64 "\"}%s\n",
                     c.timeNanos, c.sizeBytes, c.digest,
                     i + 1 < r.checkpoints.size() ? "," : "");
    }
    std::fprintf(f, "    ]\n  }");
}

[[noreturn]] void
usage(const char *offender)
{
    std::fprintf(stderr,
                 "sharded_cell: bad argument '%s'\n"
                 "usage: sharded_cell [--shards=N (1..64)] "
                 "[--out=PATH] [--ckpt-dir=DIR] "
                 "[--jobs N | --jobs=N | -j N | -jN]\n",
                 offender);
    std::exit(2);
}

} // namespace

int
main(int argc, char **argv)
{
    long shards = 1;
    std::string outPath;
    std::string ckptDir;
    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        if (int width = harness::ParallelRunner::jobsFlagArgs(arg)) {
            i += width - 1; // parseArgs() below reads the value
        } else if (std::strncmp(arg, "--shards=", 9) == 0) {
            char *end = nullptr;
            shards = std::strtol(arg + 9, &end, 10);
            if (end == arg + 9 || *end != '\0' || shards < 1 || shards > 64)
                usage(arg);
        } else if (std::strncmp(arg, "--out=", 6) == 0) {
            outPath = arg + 6;
        } else if (std::strncmp(arg, "--ckpt-dir=", 11) == 0) {
            ckptDir = arg + 11;
        } else {
            usage(arg);
        }
    }
    // Validates a jobs value even on the single-shot path, which runs
    // no pool.
    harness::RunnerOptions runnerOptions =
        harness::ParallelRunner::parseArgs(argc, argv);

    const apps::BuggyAppSpec &app = apps::buggySpec("torch");
    harness::MitigationRunOptions opt; // 30 min, Pixel XL, user glances

    std::vector<harness::RunSpec> specs;
    for (harness::MitigationMode mode :
         {harness::MitigationMode::None, harness::MitigationMode::LeaseOS}) {
        harness::RunSpec spec = mitigationCellSpec(app, mode, opt);
        // 8 checkpoints regardless of shard count: emission instants
        // depend on the spec only, so the digests must match across
        // every slicing of the same timeline.
        spec.checkpointEvery =
            sim::Time::fromNanos(spec.duration.nanos() / 8);
        spec.shards = static_cast<int>(shards);
        spec.checkpointDir = ckptDir; // empty: stats only, no files
        specs.push_back(std::move(spec));
    }

    std::vector<harness::RunResult> results;
    if (shards == 1) {
        // Single-shot baseline: no slicing machinery in the loop at all.
        for (const auto &spec : specs)
            results.push_back(harness::runScenario(spec));
        for (std::size_t i = 0; i < results.size(); ++i)
            results[i].specIndex = i;
    } else {
        results = harness::ParallelRunner(runnerOptions).run(specs);
    }

    std::FILE *f =
        outPath.empty() ? stdout : std::fopen(outPath.c_str(), "wb");
    if (f == nullptr) {
        std::fprintf(stderr, "sharded_cell: cannot open %s\n",
                     outPath.c_str());
        return 1;
    }
    // Deliberately omits shard/job counts: files from different
    // slicings of the same cell must be byte-identical.
    std::fprintf(f, "[\n");
    for (std::size_t i = 0; i < results.size(); ++i) {
        writeResult(f, results[i]);
        std::fprintf(f, "%s\n", i + 1 < results.size() ? "," : "");
    }
    std::fprintf(f, "]\n");
    if (f != stdout) std::fclose(f);

    std::fprintf(stderr,
                 "sharded_cell: %zu cells, %ld shard(s), %zu checkpoints "
                 "each\n",
                 results.size(), shards, results[0].checkpoints.size());
    return 0;
}
