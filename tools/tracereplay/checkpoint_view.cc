#include "tracereplay/checkpoint_view.h"

#include <map>
#include <sstream>

#include "lease/lease_table.h"
#include "sim/checkpoint.h"

namespace leaseos::tracereplay {

namespace {

void
decodeMeta(sim::CheckpointReader &r, CheckpointView &view)
{
    view.mode = r.u8();
    view.seed = r.u64();
    view.profile = r.str();
    r.u8();   // dvfs
    r.time(); // profiler period
    view.appCount = r.u64();
}

void
decodeSim(sim::CheckpointReader &r, CheckpointView &view)
{
    view.simTimeNs = r.time().nanos();
    view.executedEvents = r.u64();
}

void
decodeEnergy(sim::CheckpointReader &r, CheckpointView &view)
{
    r.time(); // lastSync
    view.totalMj = r.f64();
    // remainder (per-uid + per-channel breakdown) skipped by caller
}

void
decodeLeases(sim::CheckpointReader &r, CheckpointView &view)
{
    // The table's own field list decodes it, so the viewer cannot drift
    // from the writer. Enum fields keep their raw values (a corrupt
    // state byte stays out of range for checkCheckpoint to flag).
    lease::LeaseTable table;
    sim::restoreState(r, table);
    view.hasLeases = true;
    view.nextLeaseId = table.totalCreated() + 1;
    for (const lease::Lease *lease : table.all()) {
        CkptLease row;
        row.id = lease->id;
        row.uid = lease->uid;
        row.rtype = static_cast<std::uint8_t>(lease->rtype);
        row.token = lease->token;
        row.state = static_cast<std::uint8_t>(lease->state);
        row.termIndex = lease->termIndex;
        row.renewals = lease->renewals;
        row.deferrals = lease->deferrals;
        row.termStartNs = lease->termStart.nanos();
        row.termLengthNs = lease->termLength.nanos();
        row.deferredAtNs = lease->deferredAt.nanos();
        row.historyLen = lease->history.size();
        view.leases.push_back(row);
    }
    for (const auto &[token, id] : table.tokenIndex())
        view.byToken.emplace_back(token, id);
    // remainder (reputations + service counters) skipped by caller
}

} // namespace

std::string
CheckpointIssue::toString() const
{
    return "[" + check + "] " + detail;
}

CheckpointView
loadCheckpointView(const std::string &path)
{
    CheckpointView view;
    try {
        std::vector<std::uint8_t> blob = sim::readCheckpointFile(path);
        sim::CheckpointReader r(blob);
        view.payloadBytes = blob.size();
        while (!r.atEnd()) {
            std::string name = r.peekSection();
            std::uint32_t version = 0;
            r.nextSection(version);
            CheckpointView::Section section;
            section.name = name;
            section.version = version;
            section.bodyBytes = r.sectionRemaining();
            // Known sections decode their prefix; skipSection() then
            // swallows whatever each decoder (or an unknown section —
            // a newer writer must not break an older viewer) left.
            if (name == "meta" && version == 1) decodeMeta(r, view);
            else if (name == "sim" && version == 1) decodeSim(r, view);
            else if (name == "energy" && version == 1)
                decodeEnergy(r, view);
            else if (name == "leases" && version == 1)
                decodeLeases(r, view);
            r.skipSection();
            view.sections.push_back(std::move(section));
        }
    } catch (const sim::CheckpointError &e) {
        view.error = e.what();
    }
    return view;
}

std::vector<CheckpointIssue>
checkCheckpoint(const CheckpointView &view)
{
    std::vector<CheckpointIssue> issues;
    if (!view.hasLeases) return issues;

    std::map<std::uint64_t, const CkptLease *> byId;
    for (const CkptLease &lease : view.leases) {
        byId[lease.id] = &lease;
        if (lease.state > 3) {
            std::ostringstream detail;
            detail << "lease " << lease.id << " has state value "
                   << static_cast<int>(lease.state)
                   << " (not a LeaseState)";
            issues.push_back({"lease-state", detail.str()});
            continue;
        }
        if (lease.id >= view.nextLeaseId) {
            std::ostringstream detail;
            detail << "lease " << lease.id
                   << " >= next lease id " << view.nextLeaseId;
            issues.push_back({"lease-id", detail.str()});
        }
        // A checkpoint is only emitted after the simulator drained every
        // event at the boundary instant, so an ACTIVE lease's term-end
        // event (armed at termStart + termLength) must still be in the
        // future, and a DEFERRED lease's deferral must have begun.
        if (lease.state == 0 /* Active */ &&
            lease.termStartNs + lease.termLengthNs <= view.simTimeNs) {
            std::ostringstream detail;
            detail << "ACTIVE lease " << lease.id << " term ended at "
                   << lease.termStartNs + lease.termLengthNs
                   << "ns but the blob was taken at " << view.simTimeNs
                   << "ns (missed term-end event)";
            issues.push_back({"term-deadline", detail.str()});
        }
        if (lease.state == 2 /* Deferred */ &&
            lease.deferredAtNs > view.simTimeNs) {
            std::ostringstream detail;
            detail << "DEFERRED lease " << lease.id
                   << " was deferred in the future (" << lease.deferredAtNs
                   << "ns > " << view.simTimeNs << "ns)";
            issues.push_back({"deferral-deadline", detail.str()});
        }
    }
    for (const auto &[token, id] : view.byToken) {
        auto it = byId.find(id);
        if (it == byId.end()) {
            std::ostringstream detail;
            detail << "token index maps token " << token
                   << " to unknown lease " << id;
            issues.push_back({"token-index", detail.str()});
        } else if (it->second->token != token) {
            std::ostringstream detail;
            detail << "token index maps token " << token << " to lease "
                   << id << " whose token is " << it->second->token;
            issues.push_back({"token-index", detail.str()});
        }
    }
    return issues;
}

} // namespace leaseos::tracereplay
