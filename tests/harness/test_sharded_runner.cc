/**
 * @file
 * Sliced-execution tests for ParallelRunner (DESIGN.md §11).
 *
 * Slicing's whole contract is "same answer, different wall-clock
 * shape": cutting a scenario into K time slices (RunSpec::shards),
 * migrating the live device between workers at each boundary, must be
 * *bit-identical* to the single-shot runScenario() run — including the
 * checkpoint digests emitted along the way. These tests pin that
 * equivalence for real Table-5 cells, across shard counts and job
 * counts, plus the shardBounds partition arithmetic and the error path
 * (first error rethrown, every other spec still run and reported).
 */

#include <gtest/gtest.h>

#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "apps/registry.h"
#include "harness/experiment.h"
#include "harness/runner.h"

namespace leaseos::harness {
namespace {

/** Two Table-5 cells (vanilla + LeaseOS torch), 10 min, 4 checkpoints. */
std::vector<RunSpec>
cellSpecs(int shards)
{
    MitigationRunOptions opt;
    opt.duration = sim::Time::fromMinutes(10.0);
    std::vector<RunSpec> specs;
    for (MitigationMode mode :
         {MitigationMode::None, MitigationMode::LeaseOS}) {
        RunSpec spec = mitigationCellSpec(apps::buggySpec("torch"), mode, opt);
        spec.withCheckpoints(sim::Time::fromNanos(spec.duration.nanos() / 4))
            .withShards(shards);
        specs.push_back(std::move(spec));
    }
    return specs;
}

TEST(ShardBoundsTest, PartitionsExactly)
{
    // Non-divisible duration: bounds are strictly increasing and land
    // exactly on the duration with no rounding residue.
    sim::Time d = sim::Time::fromNanos(1000000007);
    auto bounds = shardBounds(d, 7);
    ASSERT_EQ(bounds.size(), 7u);
    sim::Time prev = sim::Time::fromNanos(0);
    for (sim::Time b : bounds) {
        EXPECT_GT(b, prev);
        prev = b;
    }
    EXPECT_EQ(bounds.back(), d);

    auto one = shardBounds(d, 1);
    ASSERT_EQ(one.size(), 1u);
    EXPECT_EQ(one[0], d);

    // More shards than nanoseconds would produce empty slices but must
    // still end exactly at the duration.
    auto tiny = shardBounds(sim::Time::fromNanos(3), 8);
    EXPECT_EQ(tiny.back(), sim::Time::fromNanos(3));
}

TEST(ShardedRunnerTest, BitIdenticalToSingleShot)
{
    // Baseline: single-shot runScenario, no slicing machinery.
    std::vector<RunSpec> specs = cellSpecs(/*shards=*/4);
    std::vector<RunResult> expected;
    for (std::size_t i = 0; i < specs.size(); ++i) {
        expected.push_back(runScenario(specs[i]));
        expected.back().specIndex = i;
    }
    ASSERT_EQ(expected[0].checkpoints.size(), 4u);

    RunnerOptions options;
    options.jobs = 2;
    ParallelRunner runner(options);
    std::vector<RunResult> sharded = runner.run(specs);

    ASSERT_EQ(sharded.size(), expected.size());
    for (std::size_t i = 0; i < expected.size(); ++i)
        EXPECT_EQ(sharded[i], expected[i]) << specs[i].name;
}

TEST(ShardedRunnerTest, JobCountDoesNotChangeResults)
{
    // The device-migration schedule differs wildly between jobs=1 and
    // jobs=8; the results (and checkpoint digests) must not.
    std::vector<RunSpec> specs = cellSpecs(/*shards=*/5);

    RunnerOptions serial;
    serial.jobs = 1;
    std::vector<RunResult> a = ParallelRunner(serial).run(specs);

    RunnerOptions wide;
    wide.jobs = 8;
    std::vector<RunResult> b = ParallelRunner(wide).run(specs);

    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].specIndex, i);
        EXPECT_EQ(a[i], b[i]) << specs[i].name;
    }
}

TEST(ShardedRunnerTest, ResultsStayInSpecOrderWithDerivedSeeds)
{
    // Per-spec derived seeds and spec-order collection are
    // scheduling-independent, so the half-vanilla/half-LeaseOS
    // device-index pinning in bench_fleet cannot be reordered by --jobs.
    // The reference is the single-shot run of each spec with its derived
    // seed filled in by hand — no runner involved.
    std::vector<RunSpec> specs;
    for (int i = 0; i < 6; ++i) {
        MitigationRunOptions opt;
        opt.duration = sim::Time::fromMinutes(2.0);
        specs.push_back(mitigationCellSpec(
            apps::buggySpec("torch"),
            i % 2 == 0 ? MitigationMode::None : MitigationMode::LeaseOS,
            opt));
        specs.back().withName("dev" + std::to_string(i)).withShards(3);
    }

    RunnerOptions options;
    options.jobs = 4;
    options.baseSeed = 0x5eedULL;
    ParallelRunner runner(options);

    std::size_t reported = 0;
    std::vector<RunResult> a =
        runner.run(specs, [&reported](const RunResult &) { ++reported; });
    EXPECT_EQ(reported, specs.size());

    ASSERT_EQ(a.size(), specs.size());
    for (std::size_t i = 0; i < specs.size(); ++i) {
        EXPECT_EQ(a[i].name, "dev" + std::to_string(i));
        EXPECT_EQ(a[i].specIndex, i);
        EXPECT_EQ(a[i].seed, deriveSeed(0x5eedULL, i));

        RunSpec reseeded = specs[i];
        reseeded.config.seed = deriveSeed(0x5eedULL, i);
        RunResult expected = runScenario(reseeded);
        expected.specIndex = i;
        EXPECT_EQ(a[i], expected) << "sliced vs single shot, spec " << i;
    }
}

TEST(ShardedRunnerTest, CheckpointInstantsIndependentOfSlicing)
{
    // 3 shards with 4 checkpoints: boundaries and emission instants
    // interleave without double-emitting or skipping.
    std::vector<RunSpec> s3 = cellSpecs(/*shards=*/3);
    std::vector<RunSpec> s8 = cellSpecs(/*shards=*/8);

    RunnerOptions options;
    options.jobs = 2;
    std::vector<RunResult> a = ParallelRunner(options).run(s3);
    std::vector<RunResult> b = ParallelRunner(options).run(s8);

    for (std::size_t i = 0; i < a.size(); ++i) {
        ASSERT_EQ(a[i].checkpoints.size(), 4u);
        EXPECT_EQ(a[i].checkpoints, b[i].checkpoints)
            << "checkpoint stream depends on slicing for " << s3[i].name;
    }
}

/**
 * Five one-minute specs; spec 2 throws from @p where ("setup", or
 * "slice" for an event 40 s in, inside the second of three slices).
 */
std::vector<RunSpec>
specsWithFailure(int shards, const std::string &where)
{
    std::vector<RunSpec> specs;
    for (int i = 0; i < 5; ++i) {
        specs.push_back(RunSpec{}
                            .withName("spec" + std::to_string(i))
                            .withDuration(sim::Time::fromMinutes(1.0))
                            .withShards(shards));
    }
    if (where == "setup") {
        specs[2].withSetup([](Device &) {
            throw std::runtime_error("spec 2 failed");
        });
    } else {
        specs[2].withPostStart([](Device &d) {
            d.simulator().schedule(sim::Time::fromSeconds(40.0), [] {
                throw std::runtime_error("spec 2 failed");
            });
        });
    }
    return specs;
}

TEST(ShardedRunnerTest, FirstErrorRethrownAfterOtherSpecsFinish)
{
    // A hang here (a worker waiting for a session that will never be
    // ready) trips the test's ctest timeout.
    for (const std::string where : {"setup", "slice"}) {
        for (int shards : {1, 3}) {
            for (int jobs : {1, 4}) {
                SCOPED_TRACE(where + ", shards=" + std::to_string(shards) +
                             ", jobs=" + std::to_string(jobs));
                RunnerOptions options;
                options.jobs = jobs;
                ParallelRunner runner(options);
                std::map<std::size_t, int> reported;
                try {
                    runner.run(specsWithFailure(shards, where),
                               [&reported](const RunResult &r) {
                                   ++reported[r.specIndex];
                               });
                    ADD_FAILURE() << "run() returned normally";
                } catch (const std::runtime_error &e) {
                    EXPECT_STREQ(e.what(), "spec 2 failed");
                }
                std::map<std::size_t, int> expected = {
                    {0, 1}, {1, 1}, {3, 1}, {4, 1}};
                EXPECT_EQ(reported, expected);
            }
        }
    }
}

} // namespace
} // namespace leaseos::harness
