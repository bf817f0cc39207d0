#include "lease/lease_manager.h"

#include "sim/checkpoint.h"

#include "analysis/invariants.h"
#include "lease/utility/generic_utility.h"
#include "obs/trace.h"
#include "sim/logging.h"

namespace {

/** Decision-trace line (enable via Logger::setLevel(LogLevel::Info)). */
#define LEASE_LOG(sim_ref)                                               \
    sim::LogLine(sim::LogLevel::Info, (sim_ref).now(), "lease")

} // namespace

namespace leaseos::lease {

namespace {

[[maybe_unused]] obs::TraceCode
transitionCode(LeaseState to)
{
    switch (to) {
      case LeaseState::Active: return obs::TraceCode::LeaseToActive;
      case LeaseState::Inactive: return obs::TraceCode::LeaseToInactive;
      case LeaseState::Deferred: return obs::TraceCode::LeaseToDeferred;
      case LeaseState::Dead: return obs::TraceCode::LeaseToDead;
    }
    return obs::TraceCode::LeaseToDead;
}

[[maybe_unused]] obs::TraceCode
classifyCode(BehaviorType b)
{
    switch (b) {
      case BehaviorType::Normal: return obs::TraceCode::ClassifyNormal;
      case BehaviorType::FrequentAsk:
        return obs::TraceCode::ClassifyFrequentAsk;
      case BehaviorType::LongHolding:
        return obs::TraceCode::ClassifyLongHolding;
      case BehaviorType::LowUtility:
        return obs::TraceCode::ClassifyLowUtility;
      case BehaviorType::ExcessiveUse:
        return obs::TraceCode::ClassifyExcessiveUse;
    }
    return obs::TraceCode::ClassifyNormal;
}

} // namespace

LeaseManagerService::LeaseManagerService(sim::Simulator &sim,
                                         power::CpuModel &cpu,
                                         LeasePolicy policy)
    : sim_(sim), cpu_(cpu), policy_(policy), classifier_(policy.thresholds),
      metrics_(obs::MetricRegistry::current())
{
    if (metrics_) initMetrics();
}

void
LeaseManagerService::initMetrics()
{
    obs::MetricRegistry &r = *metrics_;
    m_.created = r.counter("lease.created");
    m_.renewals = r.counter("lease.renewals");
    m_.deferrals = r.counter("lease.deferrals");
    m_.termChecks = r.counter("lease.term_checks");
    m_.toActive = r.counter("lease.transitions.to_active");
    m_.toInactive = r.counter("lease.transitions.to_inactive");
    m_.toDeferred = r.counter("lease.transitions.to_deferred");
    m_.toDead = r.counter("lease.transitions.to_dead");
    m_.grant = r.counter("proxy.grant");
    m_.deny = r.counter("proxy.deny");
    m_.defer = r.counter("proxy.defer");
    m_.utilityCharges = r.counter("utility.charges");
    m_.utilityScore = r.histogram("utility.score");
    m_.termSeconds = r.histogram("lease.term_seconds");
    m_.deferralSeconds = r.histogram("lease.deferral_seconds");
    const BehaviorType kinds[] = {
        BehaviorType::Normal, BehaviorType::FrequentAsk,
        BehaviorType::LongHolding, BehaviorType::LowUtility,
        BehaviorType::ExcessiveUse};
    for (BehaviorType b : kinds)
        m_.behavior[static_cast<std::size_t>(b)] =
            r.counter(std::string("behavior.") + behaviorName(b));
}

void
LeaseManagerService::noteTransition([[maybe_unused]] const Lease &lease,
                                    LeaseState to)
{
    if (metrics_) {
        switch (to) {
          case LeaseState::Active: metrics_->add(m_.toActive); break;
          case LeaseState::Inactive: metrics_->add(m_.toInactive); break;
          case LeaseState::Deferred: metrics_->add(m_.toDeferred); break;
          case LeaseState::Dead: metrics_->add(m_.toDead); break;
        }
    }
    // Payload carries the from-state so the timeline shows the full edge.
    LEASEOS_TRACE(emit(sim_.now(), obs::TraceCategory::Lease,
                       transitionCode(to), lease.uid, lease.id,
                       static_cast<std::uint64_t>(lease.state)));
}

bool
LeaseManagerService::registerProxy(LeaseProxy *proxy)
{
    if (!proxy || proxies_.count(proxy->rtype())) return false;
    proxies_[proxy->rtype()] = proxy;
    proxy->attach(this);
    return true;
}

bool
LeaseManagerService::unregisterProxy(LeaseProxy *proxy)
{
    if (!proxy) return false;
    auto it = proxies_.find(proxy->rtype());
    if (it == proxies_.end() || it->second != proxy) return false;
    proxy->detach();
    proxies_.erase(it);
    return true;
}

LeaseProxy *
LeaseManagerService::proxyFor(ResourceType rtype) const
{
    auto it = proxies_.find(rtype);
    return it == proxies_.end() ? nullptr : it->second;
}

IUtilityCounter *
LeaseManagerService::utilityFor(Uid uid, ResourceType rtype) const
{
    auto it = utilities_.find({uid, rtype});
    return it == utilities_.end() ? nullptr : it->second;
}

void
LeaseManagerService::chargeAccounting(sim::Time latency)
{
    // Lease bookkeeping runs on the system server; it costs a short burst
    // of one-core CPU attributed to the system uid. This is the entirety
    // of LeaseOS's power overhead (Fig. 13).
    cpu_.runWorkFor(kSystemUid, 1.0, latency);
}

LeaseId
LeaseManagerService::create(ResourceType rtype, os::TokenId token, Uid uid)
{
    chargeAccounting(kCreateLatency);
    Lease &lease = table_.create(rtype, token, uid);
    lease.createdAt = sim_.now();
    lease.state = LeaseState::Active;
    if (policy_.rememberMisbehavior) {
        auto it = reputations_.find({uid, rtype});
        if (it != reputations_.end()) {
            if (sim_.now() - it->second.diedAt <=
                policy_.reputationWindow) {
                // The app just churned the kernel object while in the
                // dog house: inherit the escalation counter (§8).
                lease.consecutiveMisbehaved =
                    it->second.consecutiveMisbehaved;
            } else {
                reputations_.erase(it);
            }
        }
    }
    if (metrics_) metrics_->add(m_.created);
    LEASEOS_TRACE(emit(sim_.now(), obs::TraceCategory::Lease,
                       obs::TraceCode::LeaseCreated, lease.uid, lease.id,
                       static_cast<std::uint64_t>(lease.rtype)));
    startTerm(lease, policy_.termFor(0));
    return lease.id;
}

bool
LeaseManagerService::check(LeaseId id)
{
    Lease *lease = table_.find(id);
    bool ok = lease && lease->state == LeaseState::Active;
    chargeAccounting(ok ? kCheckAcceptLatency : kCheckRejectLatency);
    if (metrics_) metrics_->add(ok ? m_.grant : m_.deny);
    LEASEOS_TRACE(emit(sim_.now(), obs::TraceCategory::Proxy,
                       ok ? obs::TraceCode::ProxyGrant
                          : obs::TraceCode::ProxyDeny,
                       lease ? lease->uid : kInvalidUid, id));
    return ok;
}

bool
LeaseManagerService::renew(LeaseId id)
{
    Lease *lease = table_.find(id);
    if (!lease || lease->isDead()) return false;
    if (lease->state == LeaseState::Deferred) {
        // Renewal during deferral must wait out τ (that is the penalty).
        return false;
    }
    if (lease->state == LeaseState::Inactive) {
        LEASEOS_ORACLE(noteLeaseTransition(sim_.now(), lease->id,
                                           lease->state,
                                           LeaseState::Active));
        noteTransition(*lease, LeaseState::Active);
        lease->state = LeaseState::Active;
        ++lease->termIndex;
        ++totalRenewals_;
        if (metrics_) metrics_->add(m_.renewals);
        startTerm(*lease, policy_.termFor(lease->consecutiveNormal));
    }
    return true;
}

bool
LeaseManagerService::remove(LeaseId id)
{
    Lease *lease = table_.find(id);
    if (!lease) return false;
    if (lease->pendingEvent != sim::kInvalidEventId) {
        sim_.cancel(lease->pendingEvent);
        lease->pendingEvent = sim::kInvalidEventId;
    }
    // A lease killed mid-τ gets credit for the deferral time it actually
    // served — not the full scheduled τ (the historic over-count).
    if (lease->state == LeaseState::Deferred) settleDeferral(*lease);
    LEASEOS_ORACLE(noteLeaseTransition(sim_.now(), lease->id, lease->state,
                                       LeaseState::Dead));
    noteTransition(*lease, LeaseState::Dead);
    lease->state = LeaseState::Dead;
    recordDeath(*lease);
    table_.reap(id);
    return true;
}

void
LeaseManagerService::noteAcquire(LeaseId id)
{
    Lease *lease = table_.find(id);
    if (!lease || lease->isDead()) return;
    switch (lease->state) {
      case LeaseState::Inactive:
        // Use of a resource whose lease expired requires a manager
        // decision (§3.2).
        chargeAccounting(kCheckAcceptLatency);
        renew(id);
        break;
      case LeaseState::Deferred:
        // §4.6: the subsystem pretends the acquire succeeded; nothing to
        // do until the deferral ends.
        if (metrics_) metrics_->add(m_.defer);
        LEASEOS_TRACE(emit(sim_.now(), obs::TraceCategory::Proxy,
                           obs::TraceCode::ProxyDefer, lease->uid,
                           lease->id));
        break;
      case LeaseState::Active:
      case LeaseState::Dead:
        break;
    }
}

void
LeaseManagerService::noteRelease(LeaseId id)
{
    // Releases are observed through service state at term end; the note
    // itself needs no immediate action (events feed term stats, §4.3).
    (void)id;
}

void
LeaseManagerService::setUtility(Uid uid, ResourceType rtype,
                                IUtilityCounter *counter)
{
    if (counter) {
        utilities_[{uid, rtype}] = counter;
    } else {
        utilities_.erase({uid, rtype});
    }
}

LeaseId
LeaseManagerService::leaseIdForToken(os::TokenId token)
{
    Lease *lease = table_.findByToken(token);
    return lease ? lease->id : kInvalidLeaseId;
}

void
LeaseManagerService::startTerm(Lease &lease, sim::Time length)
{
    lease.termStart = sim_.now();
    lease.termLength = length;
    LeaseProxy *proxy = proxyFor(lease.rtype);
    if (proxy) proxy->beginTerm(lease);
    LeaseId id = lease.id;
    lease.pendingEvent =
        sim_.schedule(length, [this, id] { onTermEnd(id); });
}

void
LeaseManagerService::onTermEnd(LeaseId id)
{
    Lease *lease = table_.find(id);
    if (!lease || lease->state != LeaseState::Active) return;
    lease->pendingEvent = sim::kInvalidEventId;
    ++termChecks_;
    chargeAccounting(kUpdateLatency);
    if (metrics_) {
        metrics_->add(m_.termChecks);
        metrics_->observe(m_.termSeconds,
                          (sim_.now() - lease->termStart).seconds());
    }

    LeaseProxy *proxy = proxyFor(lease->rtype);
    if (!proxy) {
        // No proxy (unregistered mid-flight): degrade to plain renewal.
        startTerm(*lease, lease->termLength);
        return;
    }

    if (!proxy->resourceHeld(*lease)) {
        LEASEOS_ORACLE(noteLeaseTransition(sim_.now(), lease->id,
                                           lease->state,
                                           LeaseState::Inactive));
        noteTransition(*lease, LeaseState::Inactive);
        lease->state = LeaseState::Inactive;
        return;
    }

    // Collect the term's stats and apply the custom utility hint.
    LeaseStat stat = proxy->collectStat(*lease);
    stat.utilityScore = utility::combine(
        stat.utilityScore, utilityFor(lease->uid, lease->rtype));
    if (metrics_) {
        metrics_->add(m_.utilityCharges);
        metrics_->observe(m_.utilityScore, stat.utilityScore);
    }
    LEASEOS_TRACE(emit(sim_.now(), obs::TraceCategory::Utility,
                       obs::TraceCode::UtilityCharge, lease->uid, lease->id,
                       obs::payloadFromDouble(stat.utilityScore)));

    TermRecord record;
    record.stat = stat;
    record.behavior = classifier_.classify(lease->rtype, stat);
    LEASE_LOG(sim_) << "lease " << lease->id << " ("
                    << resourceTypeName(lease->rtype) << ", uid "
                    << lease->uid << ") term " << lease->termIndex
                    << ": " << behaviorName(record.behavior)
                    << " hold=" << record.stat.holdingSeconds
                    << "s use=" << record.stat.usageSeconds
                    << "s utility=" << record.stat.utilityScore;
    ++behaviorCounts_[record.behavior];
    if (metrics_)
        metrics_->add(
            m_.behavior[static_cast<std::size_t>(record.behavior)]);
    LEASEOS_TRACE(emit(sim_.now(), obs::TraceCategory::Classifier,
                       classifyCode(record.behavior), lease->uid, lease->id,
                       static_cast<std::uint64_t>(lease->termIndex)));
    lease->recordTerm(record, policy_.historyDepth);
    if (termObserver_) termObserver_(*lease, record);

    // Misbehaviour on GPS needs confirmation across consecutive terms of
    // the same class: cold-start fix acquisition mimics FAB and the first
    // fix has no distance yet, mimicking LUB (§4.3: decide on "the current
    // term and last few terms").
    bool punish = isMisbehavior(record.behavior);
    if (punish) {
        int required = policy_.confirmTermsFor(lease->rtype);
        // A lease already carrying misbehaviour (ongoing, or inherited
        // via the §8 reputation extension) needs no re-confirmation.
        if (lease->consecutiveMisbehaved > 0) required = 1;
        if (required > 1) {
            int trailing = 0;
            for (auto it = lease->history.rbegin();
                 it != lease->history.rend(); ++it) {
                if (it->behavior != record.behavior) break;
                ++trailing;
            }
            if (trailing < required) {
                // Suspected but unconfirmed: renew on a short term,
                // without normal-streak credit.
                lease->consecutiveNormal = 0;
                ++lease->termIndex;
                ++totalRenewals_;
                if (metrics_) metrics_->add(m_.renewals);
                startTerm(*lease, policy_.initialTerm);
                return;
            }
        }
    }

    if (punish) {
        ++lease->consecutiveMisbehaved;
        lease->consecutiveNormal = 0;
        if (policy_.rememberMisbehavior) {
            // §8 extension: record the offence at deferral time so churned
            // replacements inherit it even if this object is merely
            // abandoned (never destroyed).
            reputations_[{lease->uid, lease->rtype}] =
                Reputation{lease->consecutiveMisbehaved, sim_.now()};
        }
        sim::Time tau = policy_.deferralFor(lease->consecutiveMisbehaved);
        LEASE_LOG(sim_) << "lease " << lease->id << " DEFERRED for "
                        << tau.toString() << " (offence #"
                        << lease->consecutiveMisbehaved << ")";
        LEASEOS_ORACLE(noteLeaseTransition(sim_.now(), lease->id,
                                           lease->state,
                                           LeaseState::Deferred));
        noteTransition(*lease, LeaseState::Deferred);
        lease->state = LeaseState::Deferred;
        lease->deferredAt = sim_.now();
        ++lease->deferrals;
        ++totalDeferrals_;
        if (metrics_) metrics_->add(m_.deferrals);
        proxy->onExpire(*lease);
        lease->pendingEvent =
            sim_.schedule(tau, [this, id] { onDeferralEnd(id); });
        return;
    }

    // Normal (or Excessive-Use, which LeaseOS does not penalise): renew
    // immediately; well-behaved leases earn longer terms (§5.2).
    ++lease->consecutiveNormal;
    lease->consecutiveMisbehaved = 0;
    ++lease->termIndex;
    ++totalRenewals_;
    if (metrics_) metrics_->add(m_.renewals);
    startTerm(*lease, policy_.termFor(lease->consecutiveNormal));
}

void
LeaseManagerService::onDeferralEnd(LeaseId id)
{
    Lease *lease = table_.find(id);
    if (!lease || lease->state != LeaseState::Deferred) return;
    lease->pendingEvent = sim::kInvalidEventId;
    settleDeferral(*lease);

    LeaseProxy *proxy = proxyFor(lease->rtype);
    if (proxy) proxy->onRenew(*lease); // restore the kernel object

    if (proxy && proxy->resourceHeld(*lease)) {
        LEASE_LOG(sim_) << "lease " << lease->id
                        << " restored to ACTIVE after deferral";
        LEASEOS_ORACLE(noteLeaseTransition(sim_.now(), lease->id,
                                           lease->state,
                                           LeaseState::Active));
        noteTransition(*lease, LeaseState::Active);
        lease->state = LeaseState::Active;
        ++lease->termIndex;
        ++totalRenewals_;
        if (metrics_) metrics_->add(m_.renewals);
        // Back to the short initial term: the lease just misbehaved.
        startTerm(*lease, policy_.initialTerm);
    } else {
        // The app released the resource during τ.
        LEASEOS_ORACLE(noteLeaseTransition(sim_.now(), lease->id,
                                           lease->state,
                                           LeaseState::Inactive));
        noteTransition(*lease, LeaseState::Inactive);
        lease->state = LeaseState::Inactive;
    }
}

void
LeaseManagerService::settleDeferral(Lease &lease)
{
    const double realized = (sim_.now() - lease.deferredAt).seconds();
    lease.totalDeferralSeconds += realized;
    totalDeferralSeconds_ += realized;
    if (metrics_) metrics_->observe(m_.deferralSeconds, realized);
    LEASEOS_ORACLE(noteDeferralSettled(sim_.now(), lease.id,
                                       lease.deferredAt, realized));
}

void
LeaseManagerService::recordDeath(Lease &lease)
{
    lifespans_.record((sim_.now() - lease.createdAt).seconds());
    termCounts_.record(static_cast<double>(lease.termIndex + 1));
    if (policy_.rememberMisbehavior && lease.consecutiveMisbehaved > 0) {
        reputations_[{lease.uid, lease.rtype}] =
            Reputation{lease.consecutiveMisbehaved, sim_.now()};
    }
}

std::uint64_t
LeaseManagerService::behaviorCount(BehaviorType b) const
{
    auto it = behaviorCounts_.find(b);
    return it == behaviorCounts_.end() ? 0 : it->second;
}

BehaviorType
LeaseManagerService::lastBehavior(LeaseId id) const
{
    const Lease *lease = table_.find(id);
    return lease ? lease->lastBehavior() : BehaviorType::Normal;
}


template <class Io>
void
LeaseManagerService::checkpoint(Io &io)
{
    io.beginSection("leases", 1);
    table_.checkpoint(io);
    io.map(reputations_, 4 + 1 + 8 + 8, [&](auto &key, auto &rep) {
        io.u32(key.first);
        io.u8(key.second);
        io.i64(rep.consecutiveMisbehaved);
        io.time(rep.diedAt);
    });
    io.u64(totalDeferrals_);
    io.u64(totalRenewals_);
    io.u64(termChecks_);
    io.f64(totalDeferralSeconds_);
    io.map(behaviorCounts_, 1 + 8, [&](auto &behavior, auto &count) {
        io.u8(behavior);
        io.u64(count);
    });
    lifespans_.checkpoint(io);
    termCounts_.checkpoint(io);
    io.endSection();
    if constexpr (Io::kLoading) {
        // Re-arm expiries at the instants the original events sat at.
        // The deferral deadline recomputes exactly: consecutiveMisbehaved
        // was already incremented when tau was chosen and cannot change
        // while the lease sits in DEFERRED.
        for (Lease *lease : table_.all()) {
            LeaseId id = lease->id;
            if (lease->state == LeaseState::Active) {
                lease->pendingEvent =
                    sim_.scheduleAt(lease->termStart + lease->termLength,
                                    [this, id] { onTermEnd(id); });
            } else if (lease->state == LeaseState::Deferred) {
                sim::Time tau =
                    policy_.deferralFor(lease->consecutiveMisbehaved);
                lease->pendingEvent =
                    sim_.scheduleAt(lease->deferredAt + tau,
                                    [this, id] { onDeferralEnd(id); });
            }
        }
    }
}

template void LeaseManagerService::checkpoint(sim::CheckpointSaver &);
template void LeaseManagerService::checkpoint(sim::CheckpointLoader &);

} // namespace leaseos::lease
