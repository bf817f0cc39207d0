#include "harness/device.h"

namespace leaseos::harness {

const char *
mitigationModeName(MitigationMode m)
{
    switch (m) {
      case MitigationMode::None: return "w/o lease";
      case MitigationMode::LeaseOS: return "LeaseOS";
      case MitigationMode::Doze: return "Doze";
      case MitigationMode::DozeAggressive: return "Doze*";
      case MitigationMode::DefDroid: return "DefDroid";
      case MitigationMode::OneShotThrottle: return "Throttle";
    }
    return "?";
}

Device::Device(DeviceConfig config)
    : config_(std::move(config)), rng_(config_.seed)
{
    accountant_ = std::make_unique<power::EnergyAccountant>(sim_);
    cpu_ = std::make_unique<power::CpuModel>(sim_, *accountant_,
                                             config_.profile);
    if (config_.dvfsEnabled) cpu_->setDvfsEnabled(true);
    screen_ = std::make_unique<power::ScreenModel>(sim_, *accountant_,
                                                   config_.profile);
    gps_ = std::make_unique<power::GpsModel>(sim_, *accountant_,
                                             config_.profile);
    radio_ = std::make_unique<power::RadioModel>(sim_, *accountant_,
                                                 config_.profile);
    sensors_ = std::make_unique<power::SensorModel>(sim_, *accountant_,
                                                    config_.profile);
    audio_ = std::make_unique<power::AudioModel>(sim_, *accountant_,
                                                 config_.profile);
    bluetooth_ = std::make_unique<power::BluetoothModel>(
        sim_, *accountant_, config_.profile);
    battery_ = std::make_unique<power::Battery>(*accountant_,
                                                config_.profile);
    profiler_ = std::make_unique<power::PowerProfiler>(
        sim_, *accountant_, config_.profilerPeriod);

    server_ = std::make_unique<os::SystemServer>(
        sim_, *cpu_, *screen_, *gps_, *radio_, *sensors_, *audio_,
        *bluetooth_, *accountant_);

    network_ =
        std::make_unique<env::NetworkEnvironment>(sim_, *radio_, rng_);
    gpsEnv_ = std::make_unique<env::GpsEnvironment>(sim_, *gps_);
    motion_ = std::make_unique<env::MotionModel>(sim_);
    user_ = std::make_unique<env::UserModel>(
        sim_, server_->activityManager(), server_->displayManager(),
        *motion_, rng_);

    // Wire environment providers into services.
    server_->locationManager().setPositionFn(
        [this](sim::Time t) { return gpsEnv_->positionAt(t); });
    server_->sensorManager().setReadingFn(
        [this](power::SensorType type, sim::Time t) {
            return motion_->reading(type, t);
        });

    switch (config_.mode) {
      case MitigationMode::None:
        break;
      case MitigationMode::LeaseOS:
        leaseos_ = std::make_unique<lease::LeaseOsRuntime>(
            sim_, *cpu_, *radio_, *server_, config_.leasePolicy);
        break;
      case MitigationMode::Doze:
        doze_ = std::make_unique<mitigation::DozeController>(
            sim_, *server_, *motion_, config_.dozeConfig);
        break;
      case MitigationMode::DozeAggressive: {
        mitigation::DozeConfig aggressive = config_.dozeConfig;
        aggressive.aggressive = true;
        doze_ = std::make_unique<mitigation::DozeController>(
            sim_, *server_, *motion_, aggressive);
        break;
      }
      case MitigationMode::DefDroid:
        defdroid_ = std::make_unique<mitigation::DefDroidController>(
            sim_, *server_, config_.defdroidConfig);
        break;
      case MitigationMode::OneShotThrottle:
        throttler_ = std::make_unique<mitigation::OneShotThrottler>(
            sim_, *server_, config_.throttleHoldLimit);
        break;
    }

    context_ = std::make_unique<app::AppContext>(app::AppContext{
        sim_, *cpu_, *server_, *network_, *gpsEnv_, *motion_, *user_,
        rng_, config_.profile,
        leaseos_ ? &leaseos_->manager() : nullptr});

    if (!config_.flightRecordDir.empty()) {
        // Installed before the oracle: its abort path dumps through
        // FlightRecorder::current(). Costs nothing until a dump.
        recorder_ = std::make_unique<obs::FlightRecorder>(
            config_.flightRecordDir, "device");
        recorder_->install();
    }

#if defined(LEASEOS_CHECKED)
    if (config_.checkedOracle) {
        oracle_ = std::make_unique<analysis::InvariantOracle>(
            analysis::InvariantOracle::FailMode::Abort);
        oracle_->install();
    }
#endif
}

Device::~Device()
{
    if (oracle_) {
        // Last chance to catch drift the periodic audit missed.
        auditInvariants(*oracle_);
        oracle_->uninstall();
    }
}

void
Device::start()
{
    if (started_) return;
    started_ = true;
    profiler_->start();
    if (doze_) doze_->start();
    if (defdroid_) defdroid_->start();
    if (throttler_) throttler_->start();
    for (auto &app : apps_) app->start();
    if (oracle_) {
        auditTick_ = sim_.schedulePeriodicScoped(
            config_.checkedAuditPeriod,
            [this] { auditInvariants(*oracle_); });
    }
}

namespace {

/** Refuse to restore an app whose pending timers the blob lacks. */
void
requireRestorable(const app::App &app, bool alive, bool checkpointable)
{
    if (!alive)
        throw sim::CheckpointError(
            "blob app '" + app.name() +
            "' was dead at checkpoint; restore requires live apps");
    if (!checkpointable)
        throw sim::CheckpointError(
            "blob app '" + app.name() +
            "' is not checkpointable: its pending timers cannot be "
            "re-armed from a blob (use live handoff instead)");
    if (!app.checkpointable())
        throw sim::CheckpointError(
            "blob app '" + app.name() +
            "' carries behaviour state this app cannot restore");
}

} // namespace

template <class Io>
void
Device::checkpoint(Io &io)
{
    io.beginSection("meta", 1);
    io.expect("mode", static_cast<std::uint8_t>(config_.mode));
    std::uint64_t seed = config_.seed; // the rng section overrides it
    io.u64(seed);
    io.expect("profile", config_.profile.name);
    io.expect("dvfs", static_cast<std::uint8_t>(config_.dvfsEnabled));
    io.expect("profiler period", config_.profilerPeriod);
    io.expect("apps", static_cast<std::uint64_t>(apps_.size()));
    io.endSection();

    // "sim" first: restore needs the clock before any component re-arms
    // a deadline against it.
    sim_.checkpoint(io);
    rng_.checkpoint(io);
    accountant_->checkpoint(io);
    battery_->checkpoint(io);
    cpu_->checkpoint(io);
    screen_->checkpoint(io);
    gps_->checkpoint(io);
    radio_->checkpoint(io);
    sensors_->checkpoint(io);
    audio_->checkpoint(io);
    bluetooth_->checkpoint(io);
    profiler_->checkpoint(io);
    if (leaseos_) leaseos_->manager().checkpoint(io);

    io.beginSection("apps", 1);
    for (auto &app : apps_) {
        io.expect("uid", static_cast<std::uint32_t>(app->uid()));
        io.expect("name", app->name());
        bool alive = app->processAlive();
        bool checkpointable = app->checkpointable();
        io.u8(alive);
        io.u8(checkpointable);
        if constexpr (Io::kLoading)
            requireRestorable(*app, alive, checkpointable);
        if (checkpointable) app->checkpoint(io);
    }
    io.endSection();
}

std::vector<std::uint8_t>
Device::saveCheckpoint() const
{
    sim::CheckpointWriter w;
    sim::CheckpointSaver io(w);
    // The field list serves both directions, so it takes the device by
    // non-const reference; the saver only reads through it.
    const_cast<Device &>(*this).checkpoint(io);
    return w.finish();
}

void
Device::restoreCheckpoint(const std::vector<std::uint8_t> &blob)
{
    sim::CheckpointReader r(blob);
    sim::CheckpointLoader io(r);
    checkpoint(io);

    // The restored device is running: make a later start() a no-op and
    // arm the checked-build audit the original armed in start().
    started_ = true;
    if (oracle_ && !auditTick_.active()) {
        auditTick_ = sim_.schedulePeriodicScoped(
            config_.checkedAuditPeriod,
            [this] { auditInvariants(*oracle_); });
    }
}

void
Device::bindToThread()
{
    if (recorder_) recorder_->install();
    if (oracle_) oracle_->install();
}

void
Device::unbindFromThread()
{
    if (oracle_) oracle_->uninstall();
    if (recorder_) recorder_->uninstall();
}

void
Device::auditInvariants(analysis::InvariantOracle &oracle)
{
    oracle.auditEnergy(sim_.now(), *accountant_, *battery_);
    if (leaseos_) {
        oracle.auditLeaseTable(sim_, leaseos_->manager().table(),
                               server_->tokens());
    }
}

} // namespace leaseos::harness
