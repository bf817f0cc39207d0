#ifndef LEASEOS_LEASE_LEASE_MANAGER_H
#define LEASEOS_LEASE_LEASE_MANAGER_H

/**
 * @file
 * The lease manager (§4.3): creates, checks, renews, defers, and removes
 * leases for all resources granted to all apps, and makes the utilitarian
 * lease decisions at each term boundary.
 *
 * Decision loop per lease term (Fig. 5):
 *   term ends, resource not held        → INACTIVE
 *   term ends, held, Normal/EUB stats   → renew immediately (adaptive term)
 *   term ends, held, FAB/LHB/LUB stats  → DEFERRED for τ (resource
 *                                          temporarily revoked), then renew
 *   kernel object freed                 → DEAD (reaped)
 */

#include <cstdint>
#include <functional>
#include <map>
#include <utility>

#include "common/ids.h"
#include "common/utility_counter.h"
#include "lease/behavior_classifier.h"
#include "obs/metric_registry.h"
#include "lease/lease.h"
#include "lease/lease_policy.h"
#include "lease/proxies/lease_proxy.h"
#include "lease/lease_table.h"
#include "os/binder.h"
#include "power/cpu_model.h"
#include "sim/simulator.h"
#include "sim/stats.h"

namespace leaseos::lease {

/**
 * System-wide lease management service (Table 3 API).
 */
class LeaseManagerService
{
  public:
    // Lease operation costs; the micro-benchmark of Table 4 measures
    // these. Creation/check are about one binder hop; the per-term update
    // includes utility-metric calculation and is costlier, but runs on the
    // system side without pausing app execution.
    static constexpr sim::Time kCreateLatency = sim::Time::fromMicros(357);
    static constexpr sim::Time kCheckAcceptLatency =
        sim::Time::fromMicros(498);
    static constexpr sim::Time kCheckRejectLatency =
        sim::Time::fromMicros(388);
    static constexpr sim::Time kUpdateLatency = sim::Time::fromMicros(4790);

    LeaseManagerService(sim::Simulator &sim, power::CpuModel &cpu,
                        LeasePolicy policy = {});
    LeaseManagerService(const LeaseManagerService &) = delete;
    LeaseManagerService &operator=(const LeaseManagerService &) = delete;

    // ---- Table 3 interface ------------------------------------------------

    /** Register @p proxy for its resource type. */
    bool registerProxy(LeaseProxy *proxy);
    bool unregisterProxy(LeaseProxy *proxy);

    /** Create a lease for a kernel object; returns its descriptor. */
    LeaseId create(ResourceType rtype, os::TokenId token, Uid uid);

    /** Whether the lease is currently active. */
    bool check(LeaseId id);

    /** Renew an inactive/expired lease (approval path, §3.2). */
    bool renew(LeaseId id);

    /** Remove a lease whose kernel object died. */
    bool remove(LeaseId id);

    /** Proxy event notes (resource acquired / released). */
    void noteAcquire(LeaseId id);
    void noteRelease(LeaseId id);

    /** App-facing: register a custom utility counter (Fig. 6). */
    void setUtility(Uid uid, ResourceType rtype, IUtilityCounter *counter);

    // ---- Queries ---------------------------------------------------------

    const Lease *lease(LeaseId id) const { return table_.find(id); }
    LeaseId leaseIdForToken(os::TokenId token);
    const LeaseTable &table() const { return table_; }
    LeaseTable &table() { return table_; }
    const LeasePolicy &policy() const { return policy_; }

    std::size_t activeLeases() const
    {
        return table_.countInState(LeaseState::Active);
    }
    std::size_t deferredLeases() const
    {
        return table_.countInState(LeaseState::Deferred);
    }
    std::uint64_t totalCreated() const { return table_.totalCreated(); }
    std::uint64_t totalDeferrals() const { return totalDeferrals_; }
    std::uint64_t totalRenewals() const { return totalRenewals_; }
    std::uint64_t termChecks() const { return termChecks_; }
    /**
     * Wall seconds of deferral realized across all leases (settled when
     * each lease leaves DEFERRED; per-lease figures die with the reap).
     */
    double totalDeferralSeconds() const { return totalDeferralSeconds_; }

    /** Lifespans (seconds) of leases that have died, for Fig. 11 stats. */
    const sim::Accumulator &lifespanStats() const { return lifespans_; }
    /** Term counts of leases that have died. */
    const sim::Accumulator &termCountStats() const { return termCounts_; }

    /** Behaviour classifications observed, by type (diagnostics). */
    std::uint64_t behaviorCount(BehaviorType b) const;

    /** Most recent classification for a lease (Normal if no history). */
    BehaviorType lastBehavior(LeaseId id) const;

    /** Invoked after every term classification (benches subscribe). */
    void
    setTermObserver(
        std::function<void(const Lease &, const TermRecord &)> fn)
    {
        termObserver_ = std::move(fn);
    }

    /**
     * The "leases" section's field list (DESIGN.md §11): the lease
     * table, reputations, and counters. Loading requires a freshly built
     * service (same policy, same proxies registered); afterwards every
     * ACTIVE lease's term-expiry and every DEFERRED lease's deferral-end
     * event is re-armed from its recomputable deadline: termStart +
     * termLength, and deferredAt +
     * policy().deferralFor(consecutiveMisbehaved) respectively — exactly
     * the instants the original events sat at.
     */
    template <class Io> void checkpoint(Io &io);

  private:
    LeaseProxy *proxyFor(ResourceType rtype) const;
    IUtilityCounter *utilityFor(Uid uid, ResourceType rtype) const;

    /** Start a fresh term on an active lease and arm its expiry check. */
    void startTerm(Lease &lease, sim::Time length);
    void onTermEnd(LeaseId id);
    void onDeferralEnd(LeaseId id);

    /** Lease accounting costs system CPU (Fig. 13's overhead). */
    void chargeAccounting(sim::Time latency);

    void recordDeath(Lease &lease);

    /** Credit realized deferral wall time as a lease leaves DEFERRED. */
    void settleDeferral(Lease &lease);

    /** Intern this service's metrics in the run's registry (DESIGN §9). */
    void initMetrics();
    /** Count + trace one state transition (the six Fig. 5 sites). */
    void noteTransition(const Lease &lease, LeaseState to);

    /** §8 extension: misbehaviour reputation outliving the lease. */
    struct Reputation {
        int consecutiveMisbehaved = 0;
        sim::Time diedAt;
    };

    sim::Simulator &sim_;
    power::CpuModel &cpu_;
    LeasePolicy policy_;
    BehaviorClassifier classifier_;
    LeaseTable table_;
    std::map<std::pair<Uid, ResourceType>, Reputation> reputations_;
    std::map<ResourceType, LeaseProxy *> proxies_;
    std::map<std::pair<Uid, ResourceType>, IUtilityCounter *> utilities_;
    std::function<void(const Lease &, const TermRecord &)> termObserver_;

    std::uint64_t totalDeferrals_ = 0;
    std::uint64_t totalRenewals_ = 0;
    std::uint64_t termChecks_ = 0;
    double totalDeferralSeconds_ = 0.0;

    /** Telemetry (nullptr unless a registry was installed for the run). */
    obs::MetricRegistry *metrics_ = nullptr;
    struct Metrics {
        obs::MetricId created = obs::kInvalidMetricId;
        obs::MetricId renewals = obs::kInvalidMetricId;
        obs::MetricId deferrals = obs::kInvalidMetricId;
        obs::MetricId termChecks = obs::kInvalidMetricId;
        obs::MetricId toActive = obs::kInvalidMetricId;
        obs::MetricId toInactive = obs::kInvalidMetricId;
        obs::MetricId toDeferred = obs::kInvalidMetricId;
        obs::MetricId toDead = obs::kInvalidMetricId;
        obs::MetricId grant = obs::kInvalidMetricId;
        obs::MetricId deny = obs::kInvalidMetricId;
        obs::MetricId defer = obs::kInvalidMetricId;
        obs::MetricId utilityCharges = obs::kInvalidMetricId;
        obs::MetricId utilityScore = obs::kInvalidMetricId; // histogram
        obs::MetricId termSeconds = obs::kInvalidMetricId;  // histogram
        obs::MetricId deferralSeconds = obs::kInvalidMetricId; // histogram
        obs::MetricId behavior[5] = {
            obs::kInvalidMetricId, obs::kInvalidMetricId,
            obs::kInvalidMetricId, obs::kInvalidMetricId,
            obs::kInvalidMetricId};
    } m_;
    std::map<BehaviorType, std::uint64_t> behaviorCounts_;
    sim::Accumulator lifespans_;
    sim::Accumulator termCounts_;
};

} // namespace leaseos::lease

#endif // LEASEOS_LEASE_LEASE_MANAGER_H
