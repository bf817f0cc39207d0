/**
 * @file
 * Conformance tests for the token lifecycle the six resource services
 * share (os::TokenService): listener sequence, unknown tokens, suspension
 * across release, filtering, destroy, and the held/released split that
 * keeps advance()/apply() scanning only held records.
 */

#include <string>
#include <tuple>
#include <vector>

#include "os_fixture.h"

namespace leaseos::os {
namespace {

using sim::operator""_s;
using testing::OsFixture;

/**
 * How an app opens and closes one token of each service: create and
 * acquire (lock objects are created unheld), then the app-facing release.
 */
template <typename Service>
struct Lifecycle;

template <>
struct Lifecycle<PowerManagerService> {
    static constexpr const char *kName = "power";
    static PowerManagerService &of(SystemServer &s)
    {
        return s.powerManager();
    }
    static TokenId
    open(PowerManagerService &svc, Uid uid)
    {
        TokenId t = svc.newWakeLock(uid, WakeLockType::Partial, "test");
        svc.acquire(t);
        return t;
    }
    static void close(PowerManagerService &svc, TokenId t)
    {
        svc.release(t);
    }
};

template <>
struct Lifecycle<WifiManagerService> {
    static constexpr const char *kName = "wifi";
    static WifiManagerService &of(SystemServer &s) { return s.wifiManager(); }
    static TokenId
    open(WifiManagerService &svc, Uid uid)
    {
        TokenId t = svc.createWifiLock(uid, "test");
        svc.acquire(t);
        return t;
    }
    static void close(WifiManagerService &svc, TokenId t)
    {
        svc.release(t);
    }
};

template <>
struct Lifecycle<LocationManagerService> {
    static constexpr const char *kName = "location";
    static LocationManagerService &of(SystemServer &s)
    {
        return s.locationManager();
    }
    static TokenId open(LocationManagerService &svc, Uid uid)
    {
        return svc.requestLocationUpdates(uid, 10_s, nullptr);
    }
    static void close(LocationManagerService &svc, TokenId t)
    {
        svc.removeUpdates(t);
    }
};

template <>
struct Lifecycle<SensorManagerService> {
    static constexpr const char *kName = "sensor";
    static SensorManagerService &of(SystemServer &s)
    {
        return s.sensorManager();
    }
    static TokenId open(SensorManagerService &svc, Uid uid)
    {
        return svc.registerListener(uid, power::SensorType::Orientation,
                                    1_s, nullptr);
    }
    static void close(SensorManagerService &svc, TokenId t)
    {
        svc.unregisterListener(t);
    }
};

template <>
struct Lifecycle<AudioSessionService> {
    static constexpr const char *kName = "audio";
    static AudioSessionService &of(SystemServer &s)
    {
        return s.audioSessions();
    }
    static TokenId open(AudioSessionService &svc, Uid uid)
    {
        return svc.openSession(uid);
    }
    static void close(AudioSessionService &svc, TokenId t)
    {
        svc.closeSession(t);
    }
};

template <>
struct Lifecycle<BluetoothService> {
    static constexpr const char *kName = "bluetooth";
    static BluetoothService &of(SystemServer &s)
    {
        return s.bluetoothService();
    }
    static TokenId open(BluetoothService &svc, Uid uid)
    {
        return svc.startScan(uid, nullptr);
    }
    static void close(BluetoothService &svc, TokenId t) { svc.stopScan(t); }
};

enum class Event { Created, Acquired, Released, Destroyed };

/** Records every lifecycle callback in order. */
struct Recorder : ResourceListener {
    std::vector<std::tuple<Event, TokenId, Uid>> events;

    void onCreated(TokenId t, Uid u) override { add(Event::Created, t, u); }
    void onAcquired(TokenId t, Uid u) override
    {
        add(Event::Acquired, t, u);
    }
    void onReleased(TokenId t, Uid u) override
    {
        add(Event::Released, t, u);
    }
    void onDestroyed(TokenId t, Uid u) override
    {
        add(Event::Destroyed, t, u);
    }
    void add(Event e, TokenId t, Uid u) { events.emplace_back(e, t, u); }
};

template <typename Service>
struct TokenLifecycleTest : OsFixture {
    Service &svc = Lifecycle<Service>::of(server);
    Recorder recorder;

    TokenLifecycleTest() { svc.addListener(&recorder); }

    TokenId open(Uid uid) { return Lifecycle<Service>::open(svc, uid); }
    void close(TokenId t) { Lifecycle<Service>::close(svc, t); }

    /** Whether @p uid is drawing power through any hardware model. */
    bool drawing(Uid uid) const { return acc.uidPowerMw(uid) > 0.0; }
};

struct ServiceNames {
    template <typename Service>
    static std::string
    GetName(int)
    {
        return Lifecycle<Service>::kName;
    }
};

using Services =
    ::testing::Types<PowerManagerService, WifiManagerService,
                     LocationManagerService, SensorManagerService,
                     AudioSessionService, BluetoothService>;
TYPED_TEST_SUITE(TokenLifecycleTest, Services, ServiceNames);

TYPED_TEST(TokenLifecycleTest, ListenersSeeTheLifecycleInOrder)
{
    const Uid app = OsFixture::kApp;
    TokenId t = this->open(app);
    EXPECT_TRUE(this->svc.isHeld(t));
    EXPECT_TRUE(this->svc.isEnabled(t));
    EXPECT_TRUE(this->drawing(app));
    this->close(t);
    EXPECT_FALSE(this->svc.isHeld(t));
    EXPECT_FALSE(this->svc.isEnabled(t));
    this->sim.runFor(1_s); // let the release IPC's CPU burst finish
    EXPECT_FALSE(this->drawing(app)); // the release itself unpublished it
    this->close(t); // already released: no second notification
    this->svc.destroy(t);
    using E = std::tuple<Event, TokenId, Uid>;
    EXPECT_EQ(this->recorder.events,
              (std::vector<E>{{Event::Created, t, app},
                              {Event::Acquired, t, app},
                              {Event::Released, t, app},
                              {Event::Destroyed, t, app}}));
}

TYPED_TEST(TokenLifecycleTest, UnknownTokensAreNoOps)
{
    const TokenId ghost = 9999;
    std::uint64_t ipcs = this->svc.ipcCount();
    this->close(ghost);
    this->svc.suspend(ghost);
    this->svc.restore(ghost);
    this->svc.destroy(ghost);
    EXPECT_TRUE(this->recorder.events.empty());
    EXPECT_EQ(this->svc.ipcCount(), ipcs);
    EXPECT_FALSE(this->svc.isHeld(ghost));
    EXPECT_FALSE(this->svc.isSuspended(ghost));
    EXPECT_FALSE(this->svc.isEnabled(ghost));
    EXPECT_EQ(this->svc.ownerOf(ghost), kInvalidUid);
}

TYPED_TEST(TokenLifecycleTest, RestoreAfterReleaseClearsSuspensionOnly)
{
    int scans = 0;
    this->svc.setGlobalFilter([&scans](Uid) {
        ++scans;
        return true;
    });
    this->open(OsFixture::kApp2);
    TokenId t = this->open(OsFixture::kApp);
    this->svc.suspend(t);
    EXPECT_FALSE(this->svc.isEnabled(t));
    this->close(t);
    EXPECT_TRUE(this->svc.isSuspended(t));

    // A lease proxy restores the token when the deferral ends although
    // the app released it meanwhile: the owner set is re-published (one
    // filter call per held record) without re-enabling the token.
    scans = 0;
    this->svc.restore(t);
    EXPECT_FALSE(this->svc.isSuspended(t));
    EXPECT_EQ(scans, 1);
    EXPECT_FALSE(this->svc.isEnabled(t));
    EXPECT_FALSE(this->svc.isHeld(t));
    this->svc.restore(t); // already restored: no-op
    EXPECT_EQ(scans, 1);
    this->svc.suspend(t); // suspending a released token re-publishes too
    EXPECT_TRUE(this->svc.isSuspended(t));
    EXPECT_EQ(scans, 2);
    this->sim.runFor(1_s); // let the IPCs' CPU bursts finish
    EXPECT_TRUE(this->drawing(OsFixture::kApp2));
    EXPECT_FALSE(this->drawing(OsFixture::kApp));
}

TYPED_TEST(TokenLifecycleTest, RefilterNeverReenablesReleasedRecord)
{
    const Uid app = OsFixture::kApp;
    TokenId t = this->open(app);
    this->sim.runFor(30_s);
    this->close(t);
    this->sim.runFor(1_s); // let the release IPC's CPU burst finish
    double enabled = this->svc.enabledSeconds(app);
    EXPECT_NEAR(enabled, 30.0, 0.1);
    this->acc.sync();
    double energy = this->acc.uidEnergyMj(app);
    this->svc.setGlobalFilter([](Uid) { return true; });
    this->svc.refilter();
    EXPECT_FALSE(this->svc.isEnabled(t));
    EXPECT_FALSE(this->drawing(app));
    this->sim.runFor(60_s);
    EXPECT_DOUBLE_EQ(this->svc.enabledSeconds(app), enabled);
    this->acc.sync();
    EXPECT_DOUBLE_EQ(this->acc.uidEnergyMj(app), energy);
}

TYPED_TEST(TokenLifecycleTest, GlobalFilterGatesAndRefilterReadmits)
{
    const Uid app = OsFixture::kApp;
    bool allow = false;
    this->svc.setGlobalFilter([&allow](Uid) { return allow; });
    TokenId t = this->open(app);
    EXPECT_TRUE(this->svc.isHeld(t));
    EXPECT_FALSE(this->svc.isEnabled(t));
    EXPECT_FALSE(this->drawing(app));
    allow = true;
    EXPECT_FALSE(this->svc.isEnabled(t)); // not until refilter()
    this->svc.refilter();
    EXPECT_TRUE(this->svc.isEnabled(t));
    EXPECT_TRUE(this->drawing(app));
    // What Doze calls on exit, through the interposition interface.
    static_cast<ResourceService &>(this->svc).setGlobalFilter(nullptr);
    EXPECT_TRUE(this->svc.isEnabled(t));
}

TYPED_TEST(TokenLifecycleTest, DestroyRetiresHeldAndReleasedTokens)
{
    const Uid app = OsFixture::kApp2;
    TokenId released = this->open(app);
    this->close(released);
    TokenId held = this->open(app);
    EXPECT_TRUE(this->server.tokens().live(released));
    EXPECT_EQ(this->svc.ownerOf(released), app); // released, not dead
    this->recorder.events.clear();

    this->svc.destroy(released);
    this->svc.destroy(held);
    using E = std::tuple<Event, TokenId, Uid>;
    EXPECT_EQ(this->recorder.events,
              (std::vector<E>{{Event::Destroyed, released, app},
                              {Event::Destroyed, held, app}}));
    for (TokenId t : {released, held}) {
        EXPECT_FALSE(this->server.tokens().live(t));
        EXPECT_EQ(this->svc.ownerOf(t), kInvalidUid);
        EXPECT_FALSE(this->svc.isHeld(t));
    }
    EXPECT_FALSE(this->drawing(app));
    this->svc.destroy(held); // already gone: no second notification
    EXPECT_EQ(this->recorder.events.size(), 2u);
}

TYPED_TEST(TokenLifecycleTest, HeldCountStaysAtOutstandingUnderChurn)
{
    // The retry-app shape: open, give up, open again, never destroy.
    TokenId keeper = this->open(OsFixture::kApp2);
    TokenId last = kInvalidToken;
    for (int i = 0; i < 1000; ++i) {
        last = this->open(OsFixture::kApp);
        this->sim.runFor(1_s);
        this->close(last);
    }
    EXPECT_EQ(this->svc.heldCount(), 1u);
    TokenId fresh = this->open(OsFixture::kApp);
    EXPECT_EQ(this->svc.heldCount(), 2u);
    EXPECT_EQ(this->svc.heldTokens(OsFixture::kApp),
              std::vector<TokenId>{fresh});
    EXPECT_EQ(this->svc.heldTokens(OsFixture::kApp2),
              std::vector<TokenId>{keeper});
    EXPECT_FALSE(this->svc.isHeld(last));
    EXPECT_EQ(this->svc.ownerOf(last), OsFixture::kApp);
    EXPECT_EQ(this->svc.acquireCount(OsFixture::kApp), 1001u);
    EXPECT_EQ(this->svc.releaseCount(OsFixture::kApp), 1000u);
}

} // namespace
} // namespace leaseos::os
