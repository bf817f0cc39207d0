/**
 * @file
 * Unit tests for the EnergyAccountant's integration and attribution.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/ids.h"
#include "power/cpu_model.h"
#include "power/device_profile.h"
#include "power/energy_accountant.h"
#include "sim/checkpoint.h"
#include "sim/simulator.h"

namespace leaseos::power {
namespace {

using sim::operator""_s;

constexpr Uid kAppA = kFirstAppUid;
constexpr Uid kAppB = kFirstAppUid + 1;

TEST(EnergyAccountantTest, IntegratesConstantPower)
{
    sim::Simulator sim;
    EnergyAccountant acc(sim);
    ChannelId ch = acc.makeChannel("cpu");
    acc.setPower(ch, 100.0, {kAppA});
    sim.runFor(10_s);
    acc.sync();
    EXPECT_DOUBLE_EQ(acc.totalEnergyMj(), 1000.0); // 100 mW * 10 s
    EXPECT_DOUBLE_EQ(acc.uidEnergyMj(kAppA), 1000.0);
}

TEST(EnergyAccountantTest, SplitsAcrossOwners)
{
    sim::Simulator sim;
    EnergyAccountant acc(sim);
    ChannelId ch = acc.makeChannel("gps");
    acc.setPower(ch, 100.0, {kAppA, kAppB});
    sim.runFor(10_s);
    acc.sync();
    EXPECT_DOUBLE_EQ(acc.uidEnergyMj(kAppA), 500.0);
    EXPECT_DOUBLE_EQ(acc.uidEnergyMj(kAppB), 500.0);
}

TEST(EnergyAccountantTest, EmptyOwnersGoesToSystem)
{
    sim::Simulator sim;
    EnergyAccountant acc(sim);
    ChannelId ch = acc.makeChannel("misc");
    acc.setPower(ch, 50.0, {});
    sim.runFor(2_s);
    acc.sync();
    EXPECT_DOUBLE_EQ(acc.uidEnergyMj(kSystemUid), 100.0);
}

TEST(EnergyAccountantTest, PowerChangeSplitsInterval)
{
    sim::Simulator sim;
    EnergyAccountant acc(sim);
    ChannelId ch = acc.makeChannel("cpu");
    acc.setPower(ch, 100.0, {kAppA});
    sim.runFor(5_s);
    acc.setPower(ch, 10.0, {kAppA});
    sim.runFor(5_s);
    acc.sync();
    EXPECT_DOUBLE_EQ(acc.totalEnergyMj(), 550.0);
}

TEST(EnergyAccountantTest, AttributionChangeSplitsInterval)
{
    sim::Simulator sim;
    EnergyAccountant acc(sim);
    ChannelId ch = acc.makeChannel("cpu");
    acc.setPower(ch, 100.0, {kAppA});
    sim.runFor(4_s);
    acc.setPower(ch, 100.0, {kAppB});
    sim.runFor(6_s);
    acc.sync();
    EXPECT_DOUBLE_EQ(acc.uidEnergyMj(kAppA), 400.0);
    EXPECT_DOUBLE_EQ(acc.uidEnergyMj(kAppB), 600.0);
}

TEST(EnergyAccountantTest, MultipleChannelsSum)
{
    sim::Simulator sim;
    EnergyAccountant acc(sim);
    ChannelId cpu = acc.makeChannel("cpu");
    ChannelId gps = acc.makeChannel("gps");
    acc.setPower(cpu, 30.0, {kAppA});
    acc.setPower(gps, 70.0, {kAppA});
    sim.runFor(1_s);
    acc.sync();
    EXPECT_DOUBLE_EQ(acc.totalEnergyMj(), 100.0);
    EXPECT_DOUBLE_EQ(acc.channelEnergyMj(cpu), 30.0);
    EXPECT_DOUBLE_EQ(acc.channelEnergyMj(gps), 70.0);
    EXPECT_DOUBLE_EQ(acc.uidChannelEnergyMj(kAppA, gps), 70.0);
}

TEST(EnergyAccountantTest, InstantaneousPower)
{
    sim::Simulator sim;
    EnergyAccountant acc(sim);
    ChannelId ch = acc.makeChannel("cpu");
    acc.setPowerShares(ch, {{kAppA, 20.0}, {kAppB, 5.0}});
    EXPECT_DOUBLE_EQ(acc.totalPowerMw(), 25.0);
    EXPECT_DOUBLE_EQ(acc.uidPowerMw(kAppA), 20.0);
    EXPECT_DOUBLE_EQ(acc.uidPowerMw(kAppB), 5.0);
    EXPECT_DOUBLE_EQ(acc.uidPowerMw(kSystemUid), 0.0);
}

TEST(EnergyAccountantTest, KnownUidsListsContributors)
{
    sim::Simulator sim;
    EnergyAccountant acc(sim);
    ChannelId ch = acc.makeChannel("cpu");
    acc.setPower(ch, 10.0, {kAppA});
    sim.runFor(1_s);
    acc.sync();
    auto uids = acc.knownUids();
    EXPECT_EQ(uids.size(), 1u);
    EXPECT_EQ(uids[0], kAppA);
}

TEST(EnergyAccountantTest, ExplicitSyncMatchesMidIntervalRead)
{
    sim::Simulator sim;
    EnergyAccountant acc(sim);
    ChannelId ch = acc.makeChannel("cpu");
    acc.setPower(ch, 100.0, {kAppA});
    // Advance mid-interval with no power-change boundary: readers lag at
    // the last sync point until an explicit sync() brings them to now.
    sim.runFor(3_s);
    EXPECT_DOUBLE_EQ(acc.totalEnergyMj(), 0.0);
    acc.sync();
    // Post-sync the values match what the old implicit-sync readers gave.
    EXPECT_DOUBLE_EQ(acc.totalEnergyMj(), 300.0);
    EXPECT_DOUBLE_EQ(acc.uidEnergyMj(kAppA), 300.0);
    EXPECT_DOUBLE_EQ(acc.channelEnergyMj(ch), 300.0);
    EXPECT_DOUBLE_EQ(acc.uidChannelEnergyMj(kAppA, ch), 300.0);
    // sync() is idempotent while time stands still.
    acc.sync();
    EXPECT_DOUBLE_EQ(acc.totalEnergyMj(), 300.0);
}

TEST(EnergyAccountantTest, ChannelNamesStored)
{
    sim::Simulator sim;
    EnergyAccountant acc(sim);
    ChannelId ch = acc.makeChannel("screen");
    EXPECT_EQ(acc.channelName(ch), "screen");
    EXPECT_EQ(acc.channelCount(), 1u);
}

/** Overwrite the little-endian u64 at @p offset and re-seal the blob. */
void
patchCount(std::vector<std::uint8_t> &blob, std::size_t offset,
           std::uint64_t v)
{
    for (std::size_t i = 0; i < 8; ++i)
        blob[offset + i] = static_cast<std::uint8_t>(v >> (8 * i));
    std::uint64_t digest =
        sim::checkpointDigest(blob.data() + 32, blob.size() - 32);
    for (std::size_t i = 0; i < 8; ++i)
        blob[24 + i] = static_cast<std::uint8_t>(digest >> (8 * i));
}

TEST(EnergyAccountantTest, AbsurdCountsInBlobThrowCheckpointError)
{
    sim::Simulator sim;
    EnergyAccountant acc(sim);
    ChannelId ch = acc.makeChannel("cpu");
    acc.setPower(ch, 100.0, {kAppA});
    sim.runFor(10_s);
    acc.sync();
    sim::CheckpointWriter w;
    sim::saveState(w, acc);
    const std::vector<std::uint8_t> blob = w.finish();

    // Header (32) | u32 nameLen | "energy" | u32 version | u64 bodyLen
    // | time lastSync | f64 total | u64 uidCount | uidCount x (u32, f64)
    // | u64 channels | str "cpu" | f64 energy | u64 slots ...
    const std::size_t uidCountAt = 32 + 4 + 6 + 4 + 8 + 8 + 8;
    const std::size_t slotsAt = uidCountAt + 8 + 12 + 8 + 4 + 3 + 8;
    for (std::size_t at : {uidCountAt, slotsAt})
        for (std::uint64_t n : {std::uint64_t{1} << 40, ~std::uint64_t{0}}) {
            SCOPED_TRACE(at);
            std::vector<std::uint8_t> bad = blob;
            patchCount(bad, at, n);
            sim::Simulator sim2;
            EnergyAccountant fresh(sim2);
            fresh.makeChannel("cpu");
            sim::CheckpointReader r(bad);
            EXPECT_THROW(sim::restoreState(r, fresh), sim::CheckpointError);
        }

    // The untouched blob still restores (the offsets above are right).
    sim::Simulator sim3;
    EnergyAccountant fresh(sim3);
    fresh.makeChannel("cpu");
    sim::CheckpointReader r(blob);
    sim::restoreState(r, fresh);
    EXPECT_DOUBLE_EQ(fresh.uidEnergyMj(kAppA), 1000.0);
}

/** Reads or writes a uid list the way the power models do. */
template <class Io>
void
uidList(Io &io, std::vector<Uid> &uids)
{
    io.seq(uids, 4, [&](auto &uid) { io.u32(uid); });
}

/** Loads a uid list from @p r. */
std::vector<Uid>
readUids(sim::CheckpointReader &r)
{
    std::vector<Uid> uids;
    sim::CheckpointLoader io(r);
    uidList(io, uids);
    return uids;
}

TEST(CheckpointIoTest, AbsurdUidCountThrowsCheckpointError)
{
    sim::CheckpointWriter w;
    w.beginSection("owners", 1);
    std::vector<Uid> uids = {kAppA, kAppB};
    sim::CheckpointSaver saver(w);
    uidList(saver, uids);
    w.endSection();
    const std::vector<std::uint8_t> blob = w.finish();

    const std::size_t countAt = 32 + 4 + 6 + 4 + 8;
    {
        sim::CheckpointReader r(blob);
        r.beginSection("owners");
        EXPECT_EQ(readUids(r), (std::vector<Uid>{kAppA, kAppB}));
        r.endSection();
    }
    for (std::uint64_t n : {std::uint64_t{3}, std::uint64_t{1} << 61,
                            ~std::uint64_t{0}}) {
        SCOPED_TRACE(n);
        std::vector<std::uint8_t> bad = blob;
        patchCount(bad, countAt, n);
        sim::CheckpointReader r(bad);
        r.beginSection("owners");
        EXPECT_THROW(readUids(r), sim::CheckpointError);
    }
}

TEST(CheckpointIoTest, AbsurdCpuLevelCountThrowsCheckpointError)
{
    sim::Simulator sim;
    EnergyAccountant acc(sim);
    DeviceProfile profile = profiles::pixelXl();
    CpuModel cpu(sim, acc, profile);
    cpu.setScreenOn(true);
    cpu.setDvfsEnabled(true);
    sim.runFor(10_s);
    sim::CheckpointWriter w;
    sim::saveState(w, cpu);
    const std::vector<std::uint8_t> blob = w.finish();

    // Header (32) | u32 nameLen | "cpu" | u32 version | u64 bodyLen
    // | u64 0 wakelock owners | u64 0 audio owners | u8 screenOn
    // | i64 wakeWindows | u8 awake | u64 0 tasks | u64 nextToken
    // | u64 wakeWaiters | u8 dvfsEnabled | u64 dvfsLevel | u64 levels ...
    const std::size_t levelsAt =
        32 + 4 + 3 + 4 + 8 + 8 + 8 + 1 + 8 + 1 + 8 + 8 + 8 + 1 + 8;
    for (std::uint64_t n : {std::uint64_t{1} << 61, ~std::uint64_t{0}}) {
        SCOPED_TRACE(n);
        std::vector<std::uint8_t> bad = blob;
        patchCount(bad, levelsAt, n);
        sim::Simulator sim2;
        EnergyAccountant acc2(sim2);
        CpuModel fresh(sim2, acc2, profile);
        sim::CheckpointReader r(bad);
        EXPECT_THROW(sim::restoreState(r, fresh), sim::CheckpointError);
    }

    // The untouched blob still restores (the offset above is right).
    sim::Simulator sim3;
    EnergyAccountant acc3(sim3);
    CpuModel fresh(sim3, acc3, profile);
    sim::CheckpointReader r(blob);
    sim::restoreState(r, fresh);
    EXPECT_EQ(fresh.dvfsLevel(), cpu.dvfsLevel());
    EXPECT_TRUE(fresh.dvfsEnabled());
}

} // namespace
} // namespace leaseos::power
