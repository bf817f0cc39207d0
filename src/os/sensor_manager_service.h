#ifndef LEASEOS_OS_SENSOR_MANAGER_SERVICE_H
#define LEASEOS_OS_SENSOR_MANAGER_SERVICE_H

/**
 * @file
 * Sensor listener management (android SensorService analog).
 *
 * Like GPS, sensors are subscription-style: apps register listeners at a
 * sampling rate and the OS invokes them. The TapAndTurn and Riot bugs in
 * Table 5 keep sensor listeners registered while producing no user-visible
 * value — the Low-Utility pattern the custom utility counter of Fig. 6
 * exists for.
 */

#include <cstdint>
#include <functional>
#include <map>

#include "os/token_service.h"
#include "power/sensor_model.h"

namespace leaseos::os {

/** App callback receiving sensor samples. */
class SensorEventListener
{
  public:
    virtual ~SensorEventListener() = default;
    virtual void onSensorEvent(power::SensorType type, double value) = 0;
};

/** One sensor listener registration. */
struct SensorRegistration : TokenRecord {
    power::SensorType type = power::SensorType::Accelerometer;
    sim::Time rate;
    SensorEventListener *listener = nullptr;
    bool tickScheduled = false;
};

/**
 * Sensor registration service with interposition hooks. An enabled
 * registration is registered with the sensor hardware; enabledSeconds is
 * the registered time.
 */
class SensorManagerService final
    : public TokenService<SensorManagerService, SensorRegistration>
{
  public:
    /** Ground-truth reading source (from env::MotionModel). */
    using ReadingFn = std::function<double(power::SensorType, sim::Time)>;

    SensorManagerService(sim::Simulator &sim, power::CpuModel &cpu,
                         power::SensorModel &sensors,
                         TokenAllocator &tokens);

    void setReadingFn(ReadingFn fn) { readingFn_ = std::move(fn); }

    // ---- App-facing API ------------------------------------------------

    TokenId registerListener(Uid uid, power::SensorType type,
                             sim::Time rate, SensorEventListener *listener);
    void unregisterListener(TokenId token) { release(token); }

    // ---- Metrics --------------------------------------------------------

    std::uint64_t eventCount(Uid uid) const
    {
        return perUid(eventCount_, uid);
    }

    const char *tokenKind() const override { return "sensor listener"; }

  private:
    friend TokenService;

    void enable(TokenId token, SensorRegistration &reg);
    void disable(TokenId token, SensorRegistration &reg);

    void scheduleTick(TokenId token);
    void deliverTick(TokenId token);

    power::SensorModel &sensors_;
    ReadingFn readingFn_;
    std::map<Uid, std::uint64_t> eventCount_;
};

} // namespace leaseos::os

#endif // LEASEOS_OS_SENSOR_MANAGER_SERVICE_H
