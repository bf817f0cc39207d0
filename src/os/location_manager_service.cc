#include "os/location_manager_service.h"

#include <utility>

namespace leaseos::os {

LocationManagerService::LocationManagerService(sim::Simulator &sim,
                                               power::CpuModel &cpu,
                                               power::GpsModel &gps,
                                               TokenAllocator &tokens)
    : TokenService(sim, cpu, "location", tokens), gps_(gps)
{
    positionFn_ = [](sim::Time) { return GeoPoint{}; };
}

void
LocationManagerService::scheduleTick(TokenId token)
{
    LocationRequest *req = findHeld(token);
    if (!req || req->tickScheduled) return;
    req->tickScheduled = true;
    sim_.schedule(req->interval, [this, token] { deliverTick(token); });
}

void
LocationManagerService::deliverTick(TokenId token)
{
    LocationRequest *req = findHeld(token);
    if (!req) return;
    req->tickScheduled = false;
    if (!req->enabled) return; // suspended/filtered: callbacks withheld
    if (gps_.hasFix()) {
        GeoPoint here = positionFn_(sim_.now());
        ++fixCount_[req->uid];
        if (req->hasLastPoint)
            distanceMeters_[req->uid] +=
                leaseos::distanceMeters(req->lastPoint, here);
        req->lastPoint = here;
        req->hasLastPoint = true;
        if (req->listener) {
            // Deliveries run a sliver of app CPU (listener invocation).
            cpu_.runWorkFor(req->uid, 0.5, sim::Time::fromMillis(5));
            req->listener->onLocation(here);
        }
    }
    scheduleTick(token);
}

TokenId
LocationManagerService::requestLocationUpdates(Uid uid, sim::Time interval,
                                               LocationListener *listener)
{
    LocationRequest req;
    req.uid = uid;
    req.interval = interval;
    req.listener = listener;
    return create(std::move(req), kResourceIpcLatency, true);
}

double
LocationManagerService::noFixSeconds(Uid uid)
{
    advance();
    return perUid(noFixSeconds_, uid);
}

} // namespace leaseos::os
