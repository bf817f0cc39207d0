#ifndef LEASEOS_OS_TOKEN_SERVICE_H
#define LEASEOS_OS_TOKEN_SERVICE_H

/**
 * @file
 * The kernel-object lifecycle every resource service shares.
 *
 * Wakelocks, Wi-Fi locks, GPS requests, sensor listeners, audio sessions
 * and Bluetooth scans are one kind of kernel object (the acquire/release
 * lifecycle DroidLeaks catalogues leaks against): an app creates a token,
 * acquires and releases it, and it dies on destroy. A held record is
 * *enabled*, i.e. actually drives hardware, unless an interposer
 * suspended it or the global filter gates its uid.
 *
 * ResourceService is that lifecycle's interposition surface, the one
 * interface lease proxies, mitigation controllers and the invariant
 * oracle program against. TokenService<Derived, Record> implements it
 * once; a service adds its record fields, its app-facing API, and static
 * hooks resolved at compile time (no virtual call per record):
 *
 *  - accrue(rec, dt): per-record integration beyond the per-uid held and
 *    enabled seconds every service keeps;
 *  - enable(token, rec) / disable(token, rec): what an enable edge does
 *    (start delivery ticks, register hardware use); disable also runs
 *    for an enabled record that is destroyed, after apply();
 *  - publish(): push the enabled owner set to the hardware model at the
 *    end of every apply().
 *
 * Records live in two maps: *held* (acquired) and *released* (created but
 * not acquired yet, or released and awaiting destroy). Acquire and
 * release move the node between them with std::map::extract, so advance()
 * and apply() scan only held records however many released tokens apps
 * leave behind.
 */

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

#include "os/binder.h"
#include "os/resource_listener.h"
#include "os/service.h"

namespace leaseos::os {

/** @p uid's entry of a per-uid counter map, or zero. */
template <typename Value>
Value
perUid(const std::map<Uid, Value> &counters, Uid uid)
{
    auto it = counters.find(uid);
    return it == counters.end() ? Value{} : it->second;
}

/**
 * Interposition surface of a resource service (§4.4): lease proxies and
 * the mitigation controllers revoke and restore kernel objects through
 * it without the app noticing, one virtual call per operation.
 */
class ResourceService : public Service
{
  public:
    using Service::Service;

    /** Kernel object death (app exit / explicit destroy). */
    virtual void destroy(TokenId token) = 0;

    /** The app holds @p token: acquired, not released or destroyed. */
    virtual bool isHeld(TokenId token) const = 0;

    /** Pull @p token out of the enabled set; the app keeps "holding" it. */
    virtual void suspend(TokenId token) = 0;

    /** Undo suspend(); re-enables the record if the app still holds it. */
    virtual void restore(TokenId token) = 0;

    virtual bool isSuspended(TokenId token) const = 0;

    /** held && !suspended && filter(uid): the record drives hardware. */
    virtual bool isEnabled(TokenId token) const = 0;

    /** Owner of a live token, kInvalidUid otherwise. */
    virtual Uid ownerOf(TokenId token) const = 0;

    /** Tokens @p uid currently holds, in token order. */
    virtual std::vector<TokenId> heldTokens(Uid uid) const = 0;

    /**
     * Doze-style gate over whole uids; nullptr clears it. The filter is
     * evaluated immediately and on every later state change.
     */
    virtual void setGlobalFilter(std::function<bool(Uid)> filter) = 0;

    /** Re-apply the global filter after the state it reads changed. */
    virtual void refilter() = 0;

    virtual void addListener(ResourceListener *listener) = 0;

    /** What one token is, for diagnostics ("wakelock", ...). */
    virtual const char *tokenKind() const = 0;
};

/** Fields every kernel-object record carries. */
struct TokenRecord {
    Uid uid = kInvalidUid;
    bool suspended = false;
    /** held && !suspended && admitted by the filter, as of apply(). */
    bool enabled = false;

    /** What the global filter is called with. */
    std::tuple<Uid> filterArgs() const { return {uid}; }
};

/**
 * The shared lifecycle over a service's @p Record type. @p Filter is the
 * global filter's type; its arguments are Record::filterArgs().
 */
template <typename Derived, typename Record,
          typename Filter = std::function<bool(Uid)>>
class TokenService : public ResourceService
{
  public:
    TokenService(sim::Simulator &sim, power::CpuModel &cpu,
                 std::string name, TokenAllocator &tokens)
        : ResourceService(sim, cpu, std::move(name)), tokens_(tokens),
          lastAdvance_(sim.now())
    {
    }

    void
    destroy(TokenId token) override
    {
        if (!find(token)) return;
        advance();
        auto node = held_.extract(token);
        if (node.empty()) node = released_.extract(token);
        Record &rec = node.mapped();
        tokens_.retire(token);
        apply();
        if (rec.enabled) self().disable(token, rec);
        notify(&ResourceListener::onDestroyed, token, rec.uid);
    }

    bool isHeld(TokenId token) const override
    {
        return held_.count(token) != 0;
    }

    void suspend(TokenId token) override { setSuspended(token, true); }
    void restore(TokenId token) override { setSuspended(token, false); }

    bool
    isSuspended(TokenId token) const override
    {
        const Record *rec = find(token);
        return rec && rec->suspended;
    }

    bool
    isEnabled(TokenId token) const override
    {
        auto it = held_.find(token);
        return it != held_.end() && it->second.enabled;
    }

    Uid
    ownerOf(TokenId token) const override
    {
        const Record *rec = find(token);
        return rec ? rec->uid : kInvalidUid;
    }

    std::vector<TokenId>
    heldTokens(Uid uid) const override
    {
        std::vector<TokenId> tokens;
        for (const auto &[token, rec] : held_)
            if (rec.uid == uid) tokens.push_back(token);
        return tokens;
    }

    void
    setGlobalFilter(std::function<bool(Uid)> filter) override
    {
        if constexpr (std::is_same_v<Filter, std::function<bool(Uid)>>) {
            installFilter(std::move(filter));
        } else if (!filter) {
            installFilter(nullptr);
        } else {
            installFilter([filter = std::move(filter)](Uid uid, auto &&...) {
                return filter(uid);
            });
        }
    }

    /** Remove any global gate. */
    void clearGlobalFilter() { installFilter(nullptr); }

    void
    refilter() override
    {
        advance();
        apply();
    }

    void
    addListener(ResourceListener *listener) override
    {
        listeners_.push_back(listener);
    }

    // ---- Metrics ------------------------------------------------------

    /** App-perspective holding time (held, regardless of suspension). */
    double
    heldSeconds(Uid uid)
    {
        advance();
        return perUid(heldSeconds_, uid);
    }

    /** Time @p uid's records were enabled (drove hardware). */
    double
    enabledSeconds(Uid uid)
    {
        advance();
        return perUid(enabledSeconds_, uid);
    }

    /** Acquires by @p uid, creations of held records included. */
    std::uint64_t acquireCount(Uid uid) const
    {
        return perUid(acquires_, uid);
    }

    std::uint64_t releaseCount(Uid uid) const
    {
        return perUid(releases_, uid);
    }

    /** Records advance()/apply() scan: the held ones, all apps. */
    std::size_t heldCount() const { return held_.size(); }

    /** Uids with at least one enabled record. */
    std::vector<Uid>
    enabledOwners() const
    {
        std::set<Uid> owners;
        for (const auto &[token, rec] : held_)
            if (rec.enabled) owners.insert(rec.uid);
        return {owners.begin(), owners.end()};
    }

  protected:
    /**
     * Register @p rec under a new token after charging its creation IPC.
     * A held record is applied, then announced as created and acquired;
     * an unheld one (a lock object before its first acquire) is only
     * announced as created.
     */
    TokenId
    create(Record rec, sim::Time latency, bool held)
    {
        Uid uid = rec.uid;
        chargeIpc(uid, latency);
        advance();
        TokenId token = tokens_.next();
        if (!held) {
            released_.emplace(token, std::move(rec));
            notify(&ResourceListener::onCreated, token, uid);
            return token;
        }
        held_.emplace(token, std::move(rec));
        ++acquires_[uid];
        apply();
        notify(&ResourceListener::onCreated, token, uid);
        notify(&ResourceListener::onAcquired, token, uid);
        return token;
    }

    /** Acquire; acquiring a held record again counts as a re-acquire. */
    void
    acquire(TokenId token)
    {
        const Record *rec = find(token);
        if (!rec) return;
        Uid uid = rec->uid;
        chargeIpc(uid, kResourceIpcLatency);
        advance();
        if (!held_.count(token)) held_.insert(released_.extract(token));
        ++acquires_[uid];
        apply();
        notify(&ResourceListener::onAcquired, token, uid);
    }

    /** Release; unknown and unheld tokens are ignored, uncharged. */
    void
    release(TokenId token)
    {
        auto it = held_.find(token);
        if (it == held_.end()) return;
        Uid uid = it->second.uid;
        chargeIpc(uid, kBinderIpcLatency);
        advance();
        ++releases_[uid];
        // The record is disabled at its own place in apply()'s scan, so
        // its hardware edge keeps its order among the other records'.
        const Record *outer = std::exchange(leaving_, &it->second);
        apply();
        leaving_ = outer;
        released_.insert(held_.extract(token));
        notify(&ResourceListener::onReleased, token, uid);
    }

    void
    installFilter(Filter filter)
    {
        advance();
        filter_ = std::move(filter);
        apply();
    }

    /** Integrate the per-uid and per-record times up to now. */
    void
    advance()
    {
        sim::Time now = sim_.now();
        if (now <= lastAdvance_) {
            lastAdvance_ = now;
            return;
        }
        double dt = (now - lastAdvance_).seconds();
        for (auto &[token, rec] : held_) {
            heldSeconds_[rec.uid] += dt;
            if (rec.enabled) enabledSeconds_[rec.uid] += dt;
            self().accrue(rec, dt);
        }
        lastAdvance_ = now;
    }

    /** Recompute enabled flags, run the edges, publish to hardware. */
    void
    apply()
    {
        for (auto &[token, rec] : held_) {
            bool enabled = &rec != leaving_ && !rec.suspended &&
                (!filter_ || std::apply(filter_, rec.filterArgs()));
            if (enabled == rec.enabled) continue;
            rec.enabled = enabled;
            if (enabled) self().enable(token, rec);
            else self().disable(token, rec);
        }
        self().publish();
    }

    /** The record of a live token, held or released; nullptr if dead. */
    const Record *
    find(TokenId token) const
    {
        if (auto it = held_.find(token); it != held_.end())
            return &it->second;
        auto it = released_.find(token);
        return it == released_.end() ? nullptr : &it->second;
    }

    Record *
    find(TokenId token)
    {
        return const_cast<Record *>(std::as_const(*this).find(token));
    }

    Record *
    findHeld(TokenId token)
    {
        auto it = held_.find(token);
        return it == held_.end() ? nullptr : &it->second;
    }

    const std::map<TokenId, Record> &held() const { return held_; }

    // Default hooks; services shadow the ones they need.
    void accrue(Record &, double) {}
    void enable(TokenId, Record &) {}
    void disable(TokenId, Record &) {}
    void publish() {}

  private:
    Derived &self() { return static_cast<Derived &>(*this); }

    void
    setSuspended(TokenId token, bool suspended)
    {
        Record *rec = find(token);
        if (!rec || rec->suspended == suspended) return;
        advance();
        rec->suspended = suspended;
        apply();
    }

    void
    notify(void (ResourceListener::*event)(TokenId, Uid), TokenId token,
           Uid uid)
    {
        for (auto *listener : listeners_) (listener->*event)(token, uid);
    }

    TokenAllocator &tokens_;
    std::map<TokenId, Record> held_;
    std::map<TokenId, Record> released_;
    /** The record release() is disabling during its apply(). */
    const Record *leaving_ = nullptr;
    Filter filter_;
    std::vector<ResourceListener *> listeners_;

    sim::Time lastAdvance_;
    std::map<Uid, double> heldSeconds_;
    std::map<Uid, double> enabledSeconds_;
    std::map<Uid, std::uint64_t> acquires_;
    std::map<Uid, std::uint64_t> releases_;
};

} // namespace leaseos::os

#endif // LEASEOS_OS_TOKEN_SERVICE_H
