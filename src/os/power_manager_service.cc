#include "os/power_manager_service.h"

#include <set>
#include <utility>

namespace leaseos::os {

PowerManagerService::PowerManagerService(sim::Simulator &sim,
                                         power::CpuModel &cpu,
                                         TokenAllocator &tokens)
    : TokenService(sim, cpu, "power", tokens)
{
}

void
PowerManagerService::accrue(WakeLockRecord &lock, double dt)
{
    lock.heldSeconds += dt;
    if (lock.enabled) lock.enabledSeconds += dt;
}

void
PowerManagerService::publish()
{
    std::set<Uid> partial;
    std::set<Uid> full;
    for (const auto &[token, lock] : held()) {
        if (!lock.enabled) continue;
        if (lock.type == WakeLockType::Partial) partial.insert(lock.uid);
        else full.insert(lock.uid);
    }
    // Full locks also keep the CPU awake.
    std::set<Uid> cpu_owners = partial;
    cpu_owners.insert(full.begin(), full.end());
    cpu_.setWakelockOwners({cpu_owners.begin(), cpu_owners.end()});

    std::vector<Uid> full_owners(full.begin(), full.end());
    if (full_owners != lastFullOwners_) {
        lastFullOwners_ = full_owners;
        if (fullLockCb_) fullLockCb_(lastFullOwners_);
    }
}

TokenId
PowerManagerService::newWakeLock(Uid uid, WakeLockType type,
                                 std::string tag)
{
    WakeLockRecord lock;
    lock.uid = uid;
    lock.type = type;
    lock.tag = std::move(tag);
    return create(std::move(lock), kBinderIpcLatency, false);
}

void
PowerManagerService::release(TokenId token)
{
    if (!isHeld(token)) {
        if (const WakeLockRecord *lock = find(token)) {
            chargeIpc(lock->uid, kBinderIpcLatency);
            advance();
        }
        return;
    }
    TokenService::release(token);
}

double
PowerManagerService::heldSecondsForToken(TokenId token)
{
    advance();
    const WakeLockRecord *lock = find(token);
    return lock ? lock->heldSeconds : 0.0;
}

double
PowerManagerService::enabledSecondsForToken(TokenId token)
{
    advance();
    const WakeLockRecord *lock = find(token);
    return lock ? lock->enabledSeconds : 0.0;
}

WakeLockType
PowerManagerService::typeOf(TokenId token) const
{
    const WakeLockRecord *lock = find(token);
    return lock ? lock->type : WakeLockType::Partial;
}

const std::string &
PowerManagerService::tagOf(TokenId token) const
{
    static const std::string empty;
    const WakeLockRecord *lock = find(token);
    return lock ? lock->tag : empty;
}

void
PowerManagerService::setFullLockCallback(
    std::function<void(std::vector<Uid>)> cb)
{
    fullLockCb_ = std::move(cb);
    if (fullLockCb_) fullLockCb_(lastFullOwners_);
}

} // namespace leaseos::os
