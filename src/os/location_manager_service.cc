#include "os/location_manager_service.h"

#include <set>
#include <utility>

namespace leaseos::os {

LocationManagerService::LocationManagerService(sim::Simulator &sim,
                                               power::CpuModel &cpu,
                                               power::GpsModel &gps,
                                               TokenAllocator &tokens)
    : Service(sim, cpu, "location"), gps_(gps), tokens_(tokens),
      lastAdvance_(sim.now())
{
    positionFn_ = [](sim::Time) { return GeoPoint{}; };
}

void
LocationManagerService::advance()
{
    sim::Time now = sim_.now();
    if (now <= lastAdvance_) {
        lastAdvance_ = now;
        return;
    }
    double dt = (now - lastAdvance_).seconds();
    bool fix = gps_.hasFix();
    for (auto &[token, req] : requests_) {
        if (!req.enabled) continue;
        requestSeconds_[req.uid] += dt;
        if (!fix) noFixSeconds_[req.uid] += dt;
    }
    lastAdvance_ = now;
}

bool
LocationManagerService::allowedByFilter(Uid uid) const
{
    return !filter_ || filter_(uid);
}

void
LocationManagerService::apply()
{
    std::set<Uid> owners;
    for (auto &[token, req] : requests_) {
        bool enabled = !req.suspended && allowedByFilter(req.uid);
        if (enabled && !req.enabled) {
            req.enabled = true;
            scheduleTick(token);
        } else {
            req.enabled = enabled;
        }
        if (req.enabled) owners.insert(req.uid);
    }
    gps_.setRequestOwners({owners.begin(), owners.end()});
}

void
LocationManagerService::scheduleTick(TokenId token)
{
    auto it = requests_.find(token);
    if (it == requests_.end() || it->second.tickScheduled) return;
    it->second.tickScheduled = true;
    sim_.schedule(it->second.interval,
                  [this, token] { deliverTick(token); });
}

void
LocationManagerService::deliverTick(TokenId token)
{
    auto it = requests_.find(token);
    if (it == requests_.end()) return;
    Request &req = it->second;
    req.tickScheduled = false;
    if (!req.enabled) return; // suspended/filtered: callbacks withheld
    if (gps_.hasFix()) {
        GeoPoint here = positionFn_(sim_.now());
        ++fixCount_[req.uid];
        if (req.hasLastPoint)
            distanceMeters_[req.uid] +=
                leaseos::distanceMeters(req.lastPoint, here);
        req.lastPoint = here;
        req.hasLastPoint = true;
        if (req.listener) {
            // Deliveries run a sliver of app CPU (listener invocation).
            cpu_.runWorkFor(req.uid, 0.5, sim::Time::fromMillis(5));
            req.listener->onLocation(here);
        }
    }
    scheduleTick(token);
}

TokenId
LocationManagerService::requestLocationUpdates(Uid uid, sim::Time interval,
                                               LocationListener *listener)
{
    chargeIpc(uid, kResourceIpcLatency);
    advance();
    TokenId token = tokens_.next();
    Request req;
    req.uid = uid;
    req.interval = interval;
    req.listener = listener;
    requests_.emplace(token, req);
    ++requestCount_[uid];
    apply();
    for (auto *l : listeners_) l->onCreated(token, uid);
    for (auto *l : listeners_) l->onAcquired(token, uid);
    return token;
}

void
LocationManagerService::removeUpdates(TokenId token)
{
    auto it = requests_.find(token);
    if (it == requests_.end()) return;
    Uid uid = it->second.uid;
    chargeIpc(uid, kBinderIpcLatency);
    advance();
    removed_.emplace(token, Removed{uid, it->second.suspended});
    requests_.erase(it);
    apply();
    for (auto *l : listeners_) l->onReleased(token, uid);
}

void
LocationManagerService::destroy(TokenId token)
{
    auto it = requests_.find(token);
    auto gone = removed_.find(token);
    if (it == requests_.end() && gone == removed_.end()) return;
    advance();
    Uid uid = ownerOf(token);
    if (it != requests_.end())
        requests_.erase(it);
    else
        removed_.erase(gone);
    tokens_.retire(token);
    apply();
    for (auto *l : listeners_) l->onDestroyed(token, uid);
}

bool
LocationManagerService::isActive(TokenId token) const
{
    return requests_.count(token) != 0;
}

bool *
LocationManagerService::suspendedFlag(TokenId token)
{
    if (auto it = requests_.find(token); it != requests_.end())
        return &it->second.suspended;
    if (auto it = removed_.find(token); it != removed_.end())
        return &it->second.suspended;
    return nullptr;
}

void
LocationManagerService::suspend(TokenId token)
{
    bool *suspended = suspendedFlag(token);
    if (!suspended || *suspended) return;
    advance();
    *suspended = true;
    apply();
}

void
LocationManagerService::restore(TokenId token)
{
    bool *suspended = suspendedFlag(token);
    if (!suspended || !*suspended) return;
    advance();
    *suspended = false;
    apply();
}

bool
LocationManagerService::isSuspended(TokenId token) const
{
    if (auto it = requests_.find(token); it != requests_.end())
        return it->second.suspended;
    auto it = removed_.find(token);
    return it != removed_.end() && it->second.suspended;
}

bool
LocationManagerService::isEnabled(TokenId token) const
{
    auto it = requests_.find(token);
    return it != requests_.end() && it->second.enabled;
}

void
LocationManagerService::setGlobalFilter(std::function<bool(Uid)> filter)
{
    advance();
    filter_ = std::move(filter);
    apply();
}

void
LocationManagerService::refilter()
{
    advance();
    apply();
}

void
LocationManagerService::addListener(ResourceListener *listener)
{
    listeners_.push_back(listener);
}

double
LocationManagerService::requestSeconds(Uid uid)
{
    advance();
    auto it = requestSeconds_.find(uid);
    return it == requestSeconds_.end() ? 0.0 : it->second;
}

double
LocationManagerService::noFixSeconds(Uid uid)
{
    advance();
    auto it = noFixSeconds_.find(uid);
    return it == noFixSeconds_.end() ? 0.0 : it->second;
}

std::uint64_t
LocationManagerService::fixCount(Uid uid) const
{
    auto it = fixCount_.find(uid);
    return it == fixCount_.end() ? 0 : it->second;
}

std::uint64_t
LocationManagerService::requestCount(Uid uid) const
{
    auto it = requestCount_.find(uid);
    return it == requestCount_.end() ? 0 : it->second;
}

double
LocationManagerService::distanceMeters(Uid uid) const
{
    auto it = distanceMeters_.find(uid);
    return it == distanceMeters_.end() ? 0.0 : it->second;
}

Uid
LocationManagerService::ownerOf(TokenId token) const
{
    if (auto it = requests_.find(token); it != requests_.end())
        return it->second.uid;
    auto it = removed_.find(token);
    return it == removed_.end() ? kInvalidUid : it->second.uid;
}

std::vector<TokenId>
LocationManagerService::activeRequests(Uid uid) const
{
    std::vector<TokenId> active;
    for (const auto &[token, request] : requests_)
        if (request.uid == uid) active.push_back(token);
    return active;
}

} // namespace leaseos::os
