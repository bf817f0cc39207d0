#include "os/sensor_manager_service.h"

#include <utility>

namespace leaseos::os {

SensorManagerService::SensorManagerService(sim::Simulator &sim,
                                           power::CpuModel &cpu,
                                           power::SensorModel &sensors,
                                           TokenAllocator &tokens)
    : TokenService(sim, cpu, "sensor", tokens), sensors_(sensors)
{
    readingFn_ = [](power::SensorType, sim::Time) { return 0.0; };
}

void
SensorManagerService::enable(TokenId token, SensorRegistration &reg)
{
    sensors_.registerUse(reg.type, reg.uid);
    scheduleTick(token);
}

void
SensorManagerService::disable(TokenId, SensorRegistration &reg)
{
    sensors_.unregisterUse(reg.type, reg.uid);
}

void
SensorManagerService::scheduleTick(TokenId token)
{
    SensorRegistration *reg = find(token);
    if (!reg || reg->tickScheduled) return;
    reg->tickScheduled = true;
    sim_.schedule(reg->rate, [this, token] { deliverTick(token); });
}

void
SensorManagerService::deliverTick(TokenId token)
{
    SensorRegistration *reg = find(token);
    if (!reg) return;
    reg->tickScheduled = false;
    if (!reg->enabled) return; // suspended: callbacks withheld
    ++eventCount_[reg->uid];
    if (reg->listener) {
        cpu_.runWorkFor(reg->uid, 0.2, sim::Time::fromMillis(1));
        reg->listener->onSensorEvent(reg->type,
                                     readingFn_(reg->type, sim_.now()));
    }
    scheduleTick(token);
}

TokenId
SensorManagerService::registerListener(Uid uid, power::SensorType type,
                                       sim::Time rate,
                                       SensorEventListener *listener)
{
    SensorRegistration reg;
    reg.uid = uid;
    reg.type = type;
    reg.rate = rate;
    reg.listener = listener;
    return create(std::move(reg), kResourceIpcLatency, true);
}

} // namespace leaseos::os
