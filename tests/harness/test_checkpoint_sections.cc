/**
 * @file
 * Section-by-section restore coverage (DESIGN.md §11).
 *
 * Real device blobs — the checkpoint_blobs golden's apps (BetterWeather,
 * K-9, TapAndTurn, ConnectBot Wi-Fi) plus one audio and one Bluetooth
 * app, each with and without the lease runtime, 6 h, diurnal glances,
 * hourly checkpoints — are split into their sections. Each section is
 * restored into the matching component of a freshly built peer device
 * (same config, same apps installed), saved again, and must come back
 * byte for byte. This is the load direction's coverage: a field read
 * into the wrong member, or skipped, changes the re-saved bytes.
 *
 * The "meta" and "apps" sections belong to Device itself. These app
 * models are closure-driven (not checkpointable), so their whole-device
 * restore refuses by design; the two sections round-trip instead on a
 * probe device whose apps section carries behaviour state.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "apps/buggy/beacon_scanner.h"
#include "apps/buggy/facebook_audio.h"
#include "apps/registry.h"
#include "apps/synthetic/snapshot_probe.h"
#include "harness/device.h"
#include "harness/experiment.h"
#include "harness/runner.h"
#include "lease/leaseos_runtime.h"
#include "sim/checkpoint.h"

namespace leaseos::harness {
namespace {

struct ScratchDir {
    std::filesystem::path path;
    explicit ScratchDir(const char *name)
        : path(std::filesystem::temp_directory_path() / name)
    {
        std::filesystem::remove_all(path);
        std::filesystem::create_directories(path);
    }
    ~ScratchDir() { std::filesystem::remove_all(path); }
};

/** Version and body bytes of one section. */
struct SectionBytes {
    std::uint32_t version = 0;
    std::vector<std::uint8_t> body;
    bool operator==(const SectionBytes &) const = default;
};

/** Open the next section of @p r and take its whole body. */
SectionBytes
takeSection(sim::CheckpointReader &r, std::string &name)
{
    SectionBytes s;
    name = r.nextSection(s.version);
    s.body.resize(r.sectionRemaining());
    r.bytes(s.body.data(), s.body.size());
    r.endSection();
    return s;
}

/** Empty when @p a equals @p b, else where they first differ. */
std::string
mismatch(const SectionBytes &a, const SectionBytes &b)
{
    if (a.version != b.version)
        return "version " + std::to_string(a.version) + " vs " +
               std::to_string(b.version);
    std::size_t n = std::min(a.body.size(), b.body.size());
    std::size_t i = 0;
    while (i < n && a.body[i] == b.body[i]) ++i;
    if (i == n && a.body.size() == b.body.size()) return "";
    return "bodies of " + std::to_string(a.body.size()) + " and " +
           std::to_string(b.body.size()) + " bytes differ from byte " +
           std::to_string(i);
}

/** Every section of @p blob, by name. */
std::map<std::string, SectionBytes>
splitSections(const std::vector<std::uint8_t> &blob)
{
    std::map<std::string, SectionBytes> out;
    sim::CheckpointReader r(blob);
    while (!r.atEnd()) {
        std::string name;
        SectionBytes s = takeSection(r, name);
        out.emplace(name, std::move(s));
    }
    return out;
}

/** Save and restore one component of a device. */
struct Codec {
    std::function<void(Device &, sim::CheckpointWriter &)> save;
    std::function<void(Device &, sim::CheckpointReader &)> restore;
};

template <class Get>
Codec
codecFor(Get get)
{
    return {[get](Device &d, sim::CheckpointWriter &w) {
                sim::saveState(w, get(d));
            },
            [get](Device &d, sim::CheckpointReader &r) {
                sim::restoreState(r, get(d));
            }};
}

/** Every component-level section, keyed by its name on the wire. */
const std::map<std::string, Codec> &
componentCodecs()
{
    static const std::map<std::string, Codec> codecs = {
        {"sim", codecFor([](Device &d) -> auto & { return d.simulator(); })},
        {"rng", codecFor([](Device &d) -> auto & { return d.rng(); })},
        {"energy",
         codecFor([](Device &d) -> auto & { return d.accountant(); })},
        {"battery", codecFor([](Device &d) -> auto & { return d.battery(); })},
        {"cpu", codecFor([](Device &d) -> auto & { return d.cpu(); })},
        {"screen",
         codecFor([](Device &d) -> auto & { return d.screenHardware(); })},
        {"gps",
         codecFor([](Device &d) -> auto & { return d.gpsHardware(); })},
        {"radio", codecFor([](Device &d) -> auto & { return d.radio(); })},
        {"sensors",
         codecFor([](Device &d) -> auto & { return d.sensorHardware(); })},
        {"audio",
         codecFor([](Device &d) -> auto & { return d.audioHardware(); })},
        {"bt",
         codecFor([](Device &d) -> auto & { return d.bluetoothHardware(); })},
        {"profiler",
         codecFor([](Device &d) -> auto & { return d.profiler(); })},
        {"leases", codecFor([](Device &d) -> auto & {
             return d.leaseos()->manager();
         })},
    };
    return codecs;
}

/** Save one component on its own and return its section. */
SectionBytes
saveComponent(const Codec &codec, Device &device)
{
    sim::CheckpointWriter w;
    codec.save(device, w);
    std::vector<std::uint8_t> blob = w.finish();
    sim::CheckpointReader r(blob);
    std::string name;
    return takeSection(r, name);
}

/** The blobs a run wrote into @p dir, in emission order. */
std::vector<std::vector<std::uint8_t>>
blobsIn(const std::filesystem::path &dir)
{
    // Files are "<run>-ckpt-<index>.ckpt".
    std::map<int, std::string> byIndex;
    for (const auto &entry : std::filesystem::directory_iterator(dir)) {
        std::string stem = entry.path().stem().string();
        byIndex[std::stoi(stem.substr(stem.rfind('-') + 1))] =
            entry.path().string();
    }
    std::vector<std::vector<std::uint8_t>> blobs;
    for (const auto &[index, path] : byIndex)
        blobs.push_back(sim::readCheckpointFile(path));
    return blobs;
}

/** The golden's cells plus one audio and one Bluetooth app. */
std::vector<RunSpec>
cellSpecs()
{
    std::vector<apps::BuggyAppSpec> subjects;
    for (const char *key :
         {"betterweather", "k9", "tapandturn", "connectbot-wifi"})
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
    opt.duration = sim::Time::fromHours(6.0);
    std::vector<RunSpec> specs;
    for (const auto &subject : subjects)
        for (MitigationMode mode :
             {MitigationMode::None, MitigationMode::LeaseOS}) {
            RunSpec spec = mitigationCellSpec(subject, mode, opt);
            spec.config.profilerPeriod = sim::Time::fromSeconds(10.0);
            spec.config.checkedOracle = false;
            int phase = static_cast<int>(specs.size());
            spec.postStart.push_back([phase](Device &d) {
                installDiurnalGlanceCycle(d, phase);
                // Move the battery's baseline off zero so its section
                // carries state.
                d.simulator().scheduleAt(sim::Time::fromMinutes(30.0),
                                         [&d] { d.battery().recharge(); });
            });
            if (subject.key == "facebook-audio")
                spec.postStart.push_back([](Device &d) {
                    // The app's own playback ends after 30 s; one more
                    // stream that never stops keeps a player in the
                    // audio section at every boundary.
                    auto &sessions = d.server().audioSessions();
                    sessions.startPlayback(
                        sessions.openSession(d.apps().front()->uid()));
                });
            specs.push_back(std::move(spec));
        }
    return specs;
}

TEST(CheckpointSectionTest, EverySectionRoundTripsThroughAFreshPeer)
{
    ScratchDir dir("leaseos_ckpt_sections");
    std::vector<RunSpec> specs = cellSpecs();

    // Boundaries where the CPU has in-flight work or parked wake
    // waiters: only live handoff can carry those, so the cpu section
    // refuses by contract and is skipped there. Named so a new refusal
    // (or a vanished one) fails the test.
    const std::map<std::string, std::vector<int>> cpuRefusalHours = {
        {"BeaconScanner / w/o lease", {1, 2, 3, 4, 5, 6}},
        {"Facebook(audio) / LeaseOS", {1}},
        {"K-9 / LeaseOS", {2, 3, 4, 6}},
        {"K-9 / w/o lease", {1, 2, 3, 4, 5, 6}},
        {"TapAndTurn / w/o lease", {1, 2, 3, 4, 5, 6}},
    };
    std::set<std::string> expectedRefusals;
    for (const auto &[cell, hours] : cpuRefusalHours)
        for (int hour : hours)
            expectedRefusals.insert(cell + " @" + std::to_string(hour) +
                                    "h cpu");

    std::set<std::string> refusals;
    std::map<std::string, int> roundTrips;
    std::set<std::string> carriedState;
    std::size_t blobCount = 0;
    for (std::size_t i = 0; i < specs.size(); ++i) {
        const RunSpec &spec = specs[i];
        std::filesystem::path runDir = dir.path / std::to_string(i);
        runScenario(RunSpec(spec).withCheckpoints(sim::Time::fromHours(1.0),
                                                  runDir.string()));
        std::vector<std::vector<std::uint8_t>> blobs = blobsIn(runDir);
        blobCount += blobs.size();
        for (std::size_t hour = 0; hour < blobs.size(); ++hour) {
            const std::vector<std::uint8_t> &blob = blobs[hour];
            // The peer: built like the run's device, never started.
            Device peer(spec.config);
            for (const auto &fn : spec.setup) fn(peer);
            for (const auto &installFn : spec.apps) installFn(peer);
            std::map<std::string, SectionBytes> fresh;
            for (const auto &[name, codec] : componentCodecs())
                if (name != "leases" || peer.leaseos())
                    fresh[name] = saveComponent(codec, peer);

            sim::CheckpointReader walk(blob);
            while (!walk.atEnd()) {
                sim::CheckpointReader at = walk; // before the section
                std::string name;
                SectionBytes saved = takeSection(walk, name);
                auto codec = componentCodecs().find(name);
                if (codec == componentCodecs().end()) continue;
                std::string where = spec.name + " @" +
                                    std::to_string(hour + 1) + "h " + name;
                SCOPED_TRACE(where);
                try {
                    codec->second.restore(peer, at);
                } catch (const sim::CheckpointError &e) {
                    EXPECT_NE(std::string(e.what()).find("quiescent"),
                              std::string::npos)
                        << e.what();
                    refusals.insert(where);
                    continue;
                }
                EXPECT_EQ(mismatch(saveComponent(codec->second, peer), saved),
                          "");
                ++roundTrips[name];
                if (!(saved == fresh[name])) carriedState.insert(name);
            }
        }
    }

    EXPECT_EQ(blobCount, specs.size() * 6);
    EXPECT_EQ(refusals, expectedRefusals);
    for (const auto &[name, codec] : componentCodecs()) {
        EXPECT_GT(roundTrips[name], 0) << name;
        EXPECT_TRUE(carriedState.count(name))
            << "no blob's '" << name
            << "' section differs from a fresh device's";
    }
}

TEST(CheckpointSectionTest, DeviceSectionsRoundTripOnAProbeDevice)
{
    DeviceConfig config =
        DeviceConfig{}.withMode(MitigationMode::LeaseOS).withSeed(0x5ec7);
    Device original(config);
    original.install<apps::SnapshotProbeApp>();
    original.install<apps::SnapshotProbeApp>(sim::Time::fromMillis(701));
    original.start();
    original.runFor(sim::Time::fromSeconds(30.0));
    std::vector<std::uint8_t> blob = original.saveCheckpoint();

    Device peer(config);
    peer.install<apps::SnapshotProbeApp>();
    peer.install<apps::SnapshotProbeApp>(sim::Time::fromMillis(701));
    std::map<std::string, SectionBytes> fresh =
        splitSections(peer.saveCheckpoint());
    peer.restoreCheckpoint(blob);

    std::map<std::string, SectionBytes> before = splitSections(blob);
    std::map<std::string, SectionBytes> after =
        splitSections(peer.saveCheckpoint());
    for (const char *name : {"meta", "apps"}) {
        SCOPED_TRACE(name);
        EXPECT_EQ(mismatch(after.at(name), before.at(name)), "");
    }
    // The probes' ticks and deadlines moved: the apps section carries
    // state, not just the install list.
    EXPECT_FALSE(fresh.at("apps") == before.at("apps"));
}

} // namespace
} // namespace leaseos::harness
