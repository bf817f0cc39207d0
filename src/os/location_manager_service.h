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

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <vector>

#include "common/geo.h"
#include "os/binder.h"
#include "os/resource_listener.h"
#include "os/service.h"
#include "power/gps_model.h"

namespace leaseos::os {

/** App callback receiving location fixes. */
class LocationListener
{
  public:
    virtual ~LocationListener() = default;
    virtual void onLocation(const GeoPoint &point) = 0;
};

/**
 * GPS request management with lease/throttle interposition hooks.
 *
 * A request is *outstanding* from requestLocationUpdates() until
 * removeUpdates(); only outstanding requests drive the GPS, accrue
 * request time and receive fixes, and advance()/apply() scan only them.
 * removeUpdates() moves the request into a slim table of *removed*
 * tokens ({uid, suspended}) that exists only to answer isSuspended and
 * ownerOf and to take suspend, restore and destroy, which still
 * re-publish the GPS owners exactly as for an outstanding request. Retry apps request again on every cycle
 * and never destroy the old request, so the removed table grows with
 * virtual time while the scanned set stays at the outstanding count.
 *
 * Only destroy() retires a token. A removed request's lease therefore
 * goes Inactive at its next term end rather than Dead, unlike Android,
 * where removing the listener is the kernel object's death.
 */
class LocationManagerService : public Service
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
    void removeUpdates(TokenId token);

    /** Kernel object death (app exit). */
    void destroy(TokenId token);

    bool isActive(TokenId token) const;

    // ---- Interposition ---------------------------------------------------

    void suspend(TokenId token);
    void restore(TokenId token);
    bool isSuspended(TokenId token) const;
    bool isEnabled(TokenId token) const;
    void setGlobalFilter(std::function<bool(Uid)> filter);
    void refilter();
    void addListener(ResourceListener *listener);

    // ---- Metrics --------------------------------------------------------

    /** Time an enabled request has been outstanding. */
    double requestSeconds(Uid uid);

    /** Outstanding-and-enabled time during which there was no fix. */
    double noFixSeconds(Uid uid);

    std::uint64_t fixCount(Uid uid) const;
    std::uint64_t requestCount(Uid uid) const;

    /** Metres moved between consecutive delivered fixes. */
    double distanceMeters(Uid uid) const;

    Uid ownerOf(TokenId token) const;
    bool hasFix() const { return gps_.hasFix(); }

    /** Update requests @p uid still has outstanding (not removed). */
    std::vector<TokenId> activeRequests(Uid uid) const;

    /** Requests advance()/apply() scan: outstanding ones, all apps. */
    std::size_t outstandingCount() const { return requests_.size(); }

  private:
    /** An outstanding request. */
    struct Request {
        Uid uid = kInvalidUid;
        sim::Time interval;
        LocationListener *listener = nullptr;
        bool suspended = false;
        bool enabled = false;
        bool tickScheduled = false;
        bool hasLastPoint = false;
        GeoPoint lastPoint;
    };

    /** A removed, not yet destroyed request: never enabled again. */
    struct Removed {
        Uid uid = kInvalidUid;
        bool suspended = false;
    };

    /** The suspended flag of @p token in either table, or nullptr. */
    bool *suspendedFlag(TokenId token);

    void advance();
    void apply();
    bool allowedByFilter(Uid uid) const;
    void scheduleTick(TokenId token);
    void deliverTick(TokenId token);

    power::GpsModel &gps_;
    TokenAllocator &tokens_;
    PositionFn positionFn_;
    std::map<TokenId, Request> requests_; // outstanding
    std::map<TokenId, Removed> removed_;
    std::function<bool(Uid)> filter_;
    std::vector<ResourceListener *> listeners_;

    sim::Time lastAdvance_;
    std::map<Uid, double> requestSeconds_;
    std::map<Uid, double> noFixSeconds_;
    std::map<Uid, std::uint64_t> fixCount_;
    std::map<Uid, std::uint64_t> requestCount_;
    std::map<Uid, double> distanceMeters_;
};

} // namespace leaseos::os

#endif // LEASEOS_OS_LOCATION_MANAGER_SERVICE_H
