#ifndef LEASEOS_OS_LOCATION_MANAGER_SERVICE_H
#define LEASEOS_OS_LOCATION_MANAGER_SERVICE_H

/**
 * @file
 * Location updates (android LocationManagerService analog).
 *
 * Apps register listeners with a requested update interval; the service
 * drives the GPS hardware model and delivers fixes while a lock is held.
 * GPS is a subscription-style resource: the kernel object is the update
 * request, and "holding" it means the receiver keeps running. The metrics
 * exposed here feed the lease utility calculation: total request time,
 * no-fix (failed) request time for FAB, delivered-fix count, and distance
 * moved for the generic GPS utility (§3.3).
 */

#include <cstdint>
#include <functional>
#include <map>

#include "common/geo.h"
#include "os/token_service.h"
#include "power/gps_model.h"

namespace leaseos::os {

/** App callback receiving location fixes. */
class LocationListener
{
  public:
    virtual ~LocationListener() = default;
    virtual void onLocation(const GeoPoint &point) = 0;
};

/** One location update request. */
struct LocationRequest : TokenRecord {
    sim::Time interval;
    LocationListener *listener = nullptr;
    bool tickScheduled = false;
    bool hasLastPoint = false;
    GeoPoint lastPoint;
};

/**
 * GPS request management with lease/throttle interposition hooks.
 *
 * A request is created held by requestLocationUpdates() and released by
 * removeUpdates(); only held requests drive the GPS, accrue request time
 * and receive fixes. A removed request keeps its record among the
 * released ones until destroy(): it still answers isSuspended and ownerOf
 * and takes suspend, restore and destroy, which re-publish the GPS
 * owners exactly as for a held request. Retry apps request again on
 * every cycle and never destroy the old request, so the released records
 * grow with virtual time while the scanned set stays at the held count.
 *
 * Only destroy() retires a token. A removed request's lease therefore
 * goes Inactive at its next term end rather than Dead, unlike Android,
 * where removing the listener is the kernel object's death.
 */
class LocationManagerService final
    : public TokenService<LocationManagerService, LocationRequest>
{
  public:
    /** Provides the device's true position (from env::GpsEnvironment). */
    using PositionFn = std::function<GeoPoint(sim::Time)>;

    LocationManagerService(sim::Simulator &sim, power::CpuModel &cpu,
                           power::GpsModel &gps, TokenAllocator &tokens);

    /** Install the ground-truth position source. */
    void setPositionFn(PositionFn fn) { positionFn_ = std::move(fn); }

    // ---- App-facing API -------------------------------------------------

    /**
     * Register for location updates every @p interval.
     * @return the kernel object id for this request.
     */
    TokenId requestLocationUpdates(Uid uid, sim::Time interval,
                                   LocationListener *listener);

    /** App-initiated removal (the "release"). */
    void removeUpdates(TokenId token) { release(token); }

    // ---- Metrics (enabledSeconds is the request time) -------------------

    /** Enabled request time during which there was no fix. */
    double noFixSeconds(Uid uid);

    std::uint64_t fixCount(Uid uid) const { return perUid(fixCount_, uid); }

    /** Metres moved between consecutive delivered fixes. */
    double distanceMeters(Uid uid) const
    {
        return perUid(distanceMeters_, uid);
    }

    bool hasFix() const { return gps_.hasFix(); }

    const char *tokenKind() const override { return "GPS update request"; }

  private:
    friend TokenService;

    void
    accrue(LocationRequest &req, double dt)
    {
        if (req.enabled && !gps_.hasFix()) noFixSeconds_[req.uid] += dt;
    }

    void enable(TokenId token, LocationRequest &) { scheduleTick(token); }
    void publish() { gps_.setRequestOwners(enabledOwners()); }

    void scheduleTick(TokenId token);
    void deliverTick(TokenId token);

    power::GpsModel &gps_;
    PositionFn positionFn_;

    std::map<Uid, double> noFixSeconds_;
    std::map<Uid, std::uint64_t> fixCount_;
    std::map<Uid, double> distanceMeters_;
};

} // namespace leaseos::os

#endif // LEASEOS_OS_LOCATION_MANAGER_SERVICE_H
