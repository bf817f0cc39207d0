#include "lease/lease_table.h"

#include "sim/checkpoint.h"

namespace leaseos::lease {

Lease &
LeaseTable::create(ResourceType rtype, os::TokenId token, Uid uid)
{
    auto lease = std::make_unique<Lease>();
    lease->id = nextId_++;
    lease->uid = uid;
    lease->rtype = rtype;
    lease->token = token;
    Lease &ref = *lease;
    leases_.emplace(ref.id, std::move(lease));
    byToken_[token] = ref.id;
    return ref;
}

Lease *
LeaseTable::find(LeaseId id)
{
    auto it = leases_.find(id);
    return it == leases_.end() ? nullptr : it->second.get();
}

const Lease *
LeaseTable::find(LeaseId id) const
{
    auto it = leases_.find(id);
    return it == leases_.end() ? nullptr : it->second.get();
}

Lease *
LeaseTable::findByToken(os::TokenId token)
{
    auto it = byToken_.find(token);
    return it == byToken_.end() ? nullptr : find(it->second);
}

void
LeaseTable::reap(LeaseId id)
{
    auto it = leases_.find(id);
    if (it == leases_.end()) return;
    byToken_.erase(it->second->token);
    leases_.erase(it);
}

std::vector<Lease *>
LeaseTable::all()
{
    std::vector<Lease *> out;
    out.reserve(leases_.size());
    for (auto &[id, lease] : leases_) out.push_back(lease.get());
    return out;
}

std::vector<const Lease *>
LeaseTable::all() const
{
    std::vector<const Lease *> out;
    out.reserve(leases_.size());
    for (const auto &[id, lease] : leases_) out.push_back(lease.get());
    return out;
}

std::size_t
LeaseTable::countInState(LeaseState state) const
{
    std::size_t n = 0;
    for (const auto &[id, lease] : leases_)
        if (lease->state == state) ++n;
    return n;
}


template <class Io>
void
LeaseTable::checkpoint(Io &io)
{
    io.u64(nextId_);
    // Smallest record: its 8-byte id, then 102 bytes of fields ending
    // in an empty history's count.
    io.map(leases_, 8 + 102, [&](auto &id, auto &lease) {
        io.u64(id);
        lease->checkpoint(io);
    });
    io.map(byToken_, 8 + 8, [&](auto &token, auto &id) {
        io.u64(token);
        io.u64(id);
    });
    if constexpr (Io::kLoading) {
        for (auto &[id, lease] : leases_) {
            lease->id = id;
            lease->pendingEvent = sim::kInvalidEventId;
        }
    }
}

template void LeaseTable::checkpoint(sim::CheckpointSaver &);
template void LeaseTable::checkpoint(sim::CheckpointLoader &);

} // namespace leaseos::lease
