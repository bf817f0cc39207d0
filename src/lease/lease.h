#ifndef LEASEOS_LEASE_LEASE_H
#define LEASEOS_LEASE_LEASE_H

/**
 * @file
 * The lease object: a timed capability over one kernel resource (§3).
 *
 * A lease is created when an app first touches a kernel object, lives for
 * a sequence of terms t1..tn, and dies with the object. State transitions
 * (Fig. 5): ACTIVE --(term end, held, misbehaving)--> DEFERRED --(τ)-->
 * ACTIVE; ACTIVE --(term end, not held)--> INACTIVE --(re-acquire)-->
 * ACTIVE; any --(object freed)--> DEAD.
 */

#include <cstdint>
#include <deque>

#include "common/ids.h"
#include "lease/behavior.h"
#include "lease/lease_stat.h"
#include "lease/resource_type.h"
#include "os/binder.h"
#include "sim/event_queue.h"
#include "sim/time.h"

namespace leaseos::lease {

/** Lease descriptor handed to proxies (Table 3's long lease ids). */
using LeaseId = std::uint64_t;

constexpr LeaseId kInvalidLeaseId = 0;

/** Lease lifecycle states (Fig. 5). */
enum class LeaseState { Active, Inactive, Deferred, Dead };

inline const char *
leaseStateName(LeaseState s)
{
    switch (s) {
      case LeaseState::Active: return "ACTIVE";
      case LeaseState::Inactive: return "INACTIVE";
      case LeaseState::Deferred: return "DEFERRED";
      case LeaseState::Dead: return "DEAD";
    }
    return "?";
}

/** One completed term's record kept in the bounded history (§4.3). */
struct TermRecord {
    LeaseStat stat;
    BehaviorType behavior = BehaviorType::Normal;
};

/**
 * Lease bookkeeping; owned by the LeaseTable, mutated by the manager.
 */
struct Lease {
    LeaseId id = kInvalidLeaseId;
    Uid uid = kInvalidUid;
    ResourceType rtype = ResourceType::Wakelock;
    os::TokenId token = os::kInvalidToken;

    LeaseState state = LeaseState::Active;
    sim::Time createdAt;
    sim::Time termStart;
    sim::Time termLength;
    int termIndex = 0;

    int consecutiveNormal = 0;
    int consecutiveMisbehaved = 0;

    std::uint64_t renewals = 0;
    std::uint64_t deferrals = 0;
    /** When the current deferral began (valid while state == Deferred). */
    sim::Time deferredAt;
    /**
     * Wall seconds actually spent deferred, credited when the lease
     * *leaves* DEFERRED (resume or death) — never pre-credited with the
     * scheduled τ, which over-counts leases killed mid-deferral.
     */
    double totalDeferralSeconds = 0.0;

    /** Bounded per-term history, newest at the back. */
    std::deque<TermRecord> history;

    /** Pending term-expiry / deferral-end event. */
    sim::EventId pendingEvent = sim::kInvalidEventId;

    bool isActive() const { return state == LeaseState::Active; }
    bool isDead() const { return state == LeaseState::Dead; }

    BehaviorType
    lastBehavior() const
    {
        return history.empty() ? BehaviorType::Normal
                               : history.back().behavior;
    }

    void
    recordTerm(TermRecord record, std::size_t depth)
    {
        history.push_back(std::move(record));
        while (history.size() > depth) history.pop_front();
    }

    /**
     * Field list of a lease record in the "leases" section (DESIGN.md
     * §11), after its id (the table's key, which leads the record).
     * pendingEvent is not captured: the manager re-arms it on restore.
     */
    template <class Io>
    void
    checkpoint(Io &io)
    {
        io.u32(uid);
        io.u8(rtype);
        io.u64(token);
        io.u8(state);
        io.time(createdAt);
        io.time(termStart);
        io.time(termLength);
        io.i64(termIndex);
        io.i64(consecutiveNormal);
        io.i64(consecutiveMisbehaved);
        io.u64(renewals);
        io.u64(deferrals);
        io.time(deferredAt);
        io.f64(totalDeferralSeconds);
        // A record is a 97-byte stat plus its behaviour byte.
        io.seq(history, 97 + 1, [&](auto &record) {
            record.stat.checkpoint(io);
            io.u8(record.behavior);
        });
    }
};

} // namespace leaseos::lease

#endif // LEASEOS_LEASE_LEASE_H
