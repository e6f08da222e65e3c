#include "sim/engine.h"

#include <algorithm>
#include <cstdlib>
#include <string>
#include <utility>

#include "common/logging.h"
#include "fault/fault_plan.h"  // harmonia-lint: allow(LAYER-002) fast-forward eligibility under an armed plan

namespace harmonia {

namespace {

/** HARMONIA_SIM_THREADS is a number equal to 0: the tick-by-tick
 *  reference schedule. Unset, malformed and any other number keep the
 *  default. */
bool
referenceFromEnv()
{
    const char *env = std::getenv("HARMONIA_SIM_THREADS");
    if (env == nullptr || *env == '\0')
        return false;
    char *end = nullptr;
    const unsigned long n = std::strtoul(env, &end, 10);
    return end != env && *end == '\0' && n == 0;
}

/** HARMONIA_SIM_AUDIT is set and not "0". */
bool
auditFromEnv()
{
    const char *env = std::getenv("HARMONIA_SIM_AUDIT");
    return env != nullptr && *env != '\0' && std::string(env) != "0";
}

/** The first edge of @p clk at or after @p w, a component's
 *  wakeTime(), judged at @p now; kTickMax for kTickMax. */
Tick
wakeEdge(const Clock &clk, Tick now, Tick w)
{
    return w == kTickMax ? kTickMax
                         : clk.nextEdge(std::max(now, w == 0 ? 0 : w - 1));
}

} // namespace

Engine::Engine()
    : fastForward_(!referenceFromEnv()), audit_(auditFromEnv())
{
}

Clock *
Engine::addClock(const std::string &name, double mhz)
{
    Domain d;
    d.clock = std::make_unique<Clock>(name, mhz);
    d.clock->engineNow_ = &now_;
    d.clock->domain_ = domains_.size();
    d.edge = d.clock->nextEdge(now_);
    d.synced = now_ == 0;
    d.group = domains_.size();
    if (std::none_of(periodClocks_.begin(), periodClocks_.end(),
                     [&d](const Clock *c) {
                         return c->period() == d.clock->period();
                     }))
        periodClocks_.push_back(d.clock.get());
    domains_.push_back(std::move(d));
    fired_.reserve(domains_.size());
    layoutDirty_ = true;
    hintTick_ = 0;
    return domains_.back().clock.get();
}

Engine::Domain *
Engine::findDomain(const Clock *clk)
{
    // A clock knows its index; another engine's may hold the same one.
    const std::size_t i = clk->domain_;
    return i < domains_.size() && domains_[i].clock.get() == clk
               ? &domains_[i]
               : nullptr;
}

std::size_t
Engine::domainIndex(const Clock *clk)
{
    const Domain *d = findDomain(clk);
    if (d == nullptr)
        fatal("clock '%s' does not belong to this engine",
              clk->name().c_str());
    return static_cast<std::size_t>(d - domains_.data());
}

std::size_t
Engine::groupOf(std::size_t domain_index)
{
    std::size_t root = domain_index;
    while (domains_[root].group != root)
        root = domains_[root].group;
    while (domains_[domain_index].group != root) {
        const std::size_t next = domains_[domain_index].group;
        domains_[domain_index].group = root;
        domain_index = next;
    }
    return root;
}

void
Engine::fuseClocks(Clock *a, Clock *b)
{
    if (a == nullptr || b == nullptr)
        fatal("Engine::fuseClocks: null clock");
    const std::size_t ra = groupOf(domainIndex(a));
    const std::size_t rb = groupOf(domainIndex(b));
    if (ra != rb) {
        domains_[std::max(ra, rb)].group = std::min(ra, rb);
        layoutDirty_ = true;
    }
}

void
Engine::add(Component *c, Clock *clk)
{
    if (c == nullptr || clk == nullptr)
        fatal("Engine::add: null component or clock");
    Domain *d = findDomain(clk);
    if (d == nullptr)
        fatal("clock '%s' does not belong to this engine",
              clk->name().c_str());
    if (c->engine_ != nullptr)
        fatal("component '%s' is already registered", c->name().c_str());
    c->engine_ = this;
    c->engineNow_ = &now_;
    c->clock_ = clk;
    c->domain_ = static_cast<std::size_t>(d - domains_.data());
    c->registeredAt_ = now_;
    d->components.push_back(c);
    layoutDirty_ = true;
}

void
Engine::remove(Component *c)
{
    if (c == nullptr)
        fatal("Engine::remove: null component");
    if (c->engine_ != this)
        fatal("component '%s' is not registered on this engine",
              c->name().c_str());
    Domain *d = findDomain(c->clock_);
    if (d == nullptr)
        fatal("component '%s' has no domain here", c->name().c_str());
    auto &comps = d->components;
    comps.erase(std::remove(comps.begin(), comps.end(), c),
                comps.end());
    c->engine_ = nullptr;
    c->engineNow_ = &Component::kUnregisteredNow;
    c->clock_ = nullptr;
    layoutDirty_ = true;
}

void
Engine::scheduleEvent(Tick t)
{
    events_.push(t);
}

void
Engine::step()
{
    if (domains_.empty())
        fatal("Engine::step with no clock domains");
    beginCall();
    if (dormantCount_ != 0)
        wakeAll();  // dormant domains' edges count too
    commitEdge(nextEdge(), fastForwardNow());
}

Tick
Engine::nextEdge() const
{
    Tick next = kTickMax;
    for (const auto &d : domains_)
        next = std::min(next, d.edge);
    return next;
}

bool
Engine::fastForwardNow() const
{
    if (!fastForward_)
        return false;
    const FaultPlan *plan = FaultPlan::active();
    return plan == nullptr || !plan->tickRuleLive(now_);
}

void
Engine::syncDomain(Domain &d)
{
    d.clock->syncTo(now_);
    d.edge = d.clock->cyclesToTicks(d.clock->cycle() + 1);
    d.synced = true;
}

void
Engine::syncClocks()
{
    const auto land = [this](Domain &d) {
        if (!d.synced || d.edge <= now_)
            syncDomain(d);
    };
    if (dormantCount_ == 0 || layoutDirty_) {
        for (auto &d : domains_)
            if (!d.dormant)
                land(d);
        return;
    }
    // walk_ lists every domain that is not dormant once rebuilt.
    if (walkDirty_)
        rebuildWalk();
    for (std::size_t di : walk_)
        land(domains_[di]);
}

namespace {

template <typename T>
T &
domainAt(std::vector<T> &domains, std::size_t i)
{
    return domains[i];
}

template <typename T>
T &
domainAt(std::vector<T> &, T &d)
{
    return d;
}

} // namespace

void
Engine::commitEdge(Tick next, bool skip_idle)
{
    if (skip_idle)
        commitDomains<true>(domains_, next);
    else
        commitDomains<false>(domains_, next);
}

void
Engine::commitFastForward(Tick next)
{
    // Wake every dormant group whose wake edge has come: its domains
    // rejoin the walk and land their lagging clocks below.
    if (!dormantHeap_.empty() && dormantHeap_.top().first <= next)
        wakeDue(next);
    if (walkDirty_)
        rebuildWalk();
    commitDomains<true>(walk_, next);
    if (audit_ && dormantCount_ != 0)
        verifyDormant();
}

template <bool SkipIdle, typename Walk>
void
Engine::commitDomains(Walk &walk, Tick next)
{
    if (domains_.empty())
        fatal("Engine::commitEdge with no clock domains");
    // fired_ is a member: a tick that ran the engine would clobber the
    // list its caller is walking.
    if (committing_)
        fatal("Engine::commitEdge re-entered from a tick");
    committing_ = true;

    now_ = next;

    // Land every clock whose edge has come before any component runs:
    // a cycle count always equals the number of edges at or before
    // now, so batch-syncing is identical to the reference schedule's
    // advance-as-you-go. A domain whose cached edge is still ahead has
    // no edge in between, so its count already holds.
    fired_.clear();
    Tick walk_next = kTickMax;
    for (auto &entry : walk) {
        Domain &d = domainAt(domains_, entry);
        bool fires = true;
        if (d.synced && d.edge > now_) {
            fires = false;
        } else if (d.synced && d.edge == now_) {
            d.clock->advance();
            d.edge += d.clock->period();
        } else {
            // Fast-forward jumped some of its edges, or it was added
            // mid-run and lands for the first time.
            syncDomain(d);
            fires = d.clock->cyclesToTicks(d.clock->cycle()) == now_;
        }
        if constexpr (SkipIdle)
            walk_next = std::min(walk_next, d.edge);
        if (fires)
            fired_.push_back(&d);
    }

    // The fired domains tick in creation order: the reference schedule.
    if constexpr (SkipIdle) {
        // Each fired group records whether this edge ticked one of its
        // components (nextEventEdge); groups_ is stale while the layout
        // is dirty.
        const bool track = !layoutDirty_;
        if (track)
            for (Domain *d : fired_)
                groups_[d->slot].ticked = false;
        for (Domain *d : fired_) {
            // Re-evaluate at tick time, not scan time: a producer that
            // ticked earlier this edge may have just woken this
            // component. Only this path moves the tick cursor: tick by
            // tick, every component ticks, which
            // Component::edgePending() relies on.
            Component::tickingDomain_ =
                static_cast<std::size_t>(d - domains_.data());
            bool ticked = false;
            for (Component *c : d->components)
                if (!c->idle()) {
                    c->tick();
                    ticked = true;
                }
            if (ticked && track)
                groups_[d->slot].ticked = true;
        }
        Component::tickingDomain_ = Component::kNoDomain;
        walkNext_ = walk_next;
    } else {
        for (Domain *d : fired_)
            for (Component *c : d->components)
                c->tick();
    }
    committing_ = false;
}

Tick
Engine::firstEdgeFrom(Tick t) const
{
    // Edges sit at multiples of a period: one clock per period decides.
    Tick edge = kTickMax;
    for (const Clock *c : periodClocks_)
        edge = std::min(edge, c->nextEdge(t - 1));
    return edge;
}

Tick
Engine::hintEdge()
{
    while (!events_.empty() && events_.top() <= now_)
        events_.pop();
    if (events_.empty())
        return kTickMax;
    // A pending hint lies past now_, so its landing edge depends only
    // on the hint and the clocks: compute it once per hint.
    const Tick hint = events_.top();
    if (hint != hintTick_) {
        hintTick_ = hint;
        hintEdge_ = firstEdgeFrom(hint);
    }
    return hintEdge_;
}

inline Tick
Engine::scanGroup(Group &g, Tick best, bool &active)
{
    Tick cand = kTickMax;
    Tick first = kTickMax;
    for (std::size_t di : g.domains) {
        const Domain &d = domains_[di];
        first = std::min(first, d.edge);
        // No domain needs an edge before its next one. Once the group
        // is known busy (so stays awake), a domain whose next edge
        // cannot beat the best so far is not asked.
        if (active && d.edge >= std::min(cand, best))
            continue;
        bool busy = false;
        Tick wake = kTickMax;
        for (const Component *c : d.components) {
            if (!c->idle()) {
                busy = true;
                break;
            }
            wake = std::min(wake, c->wakeTime());
        }
        if (busy) {
            active = true;
            cand = std::min(cand, d.edge);
        } else {
            cand = std::min(cand, wakeEdge(*d.clock, now_, wake));
        }
    }
    g.jumped = cand != first;
    return cand;
}

Tick
Engine::nextEventEdge()
{
    if (layoutDirty_)
        rebuildGroups();
    else if (!touched_.empty())
        rescanTouched();  // a runUntilDone predicate's input
    Tick next = events_.empty() ? kTickMax : hintEdge();
    // After an edge on which a group ticked, its next edge is taken
    // unasked, until one taken that way ticks nothing; then it is
    // scanned, until a scan cannot jump.
    bool unasked = false;
    for (std::size_t i = 0; i < awake_.size();) {
        Group &g = groups_[awake_[i]];
        if (g.ticked && !g.jumped) {
            unasked = true;
            ++i;
            continue;
        }
        bool active = false;
        const Tick cand = scanGroup(g, next, active);
        next = std::min(next, cand);
        if (active)
            ++i;
        else
            sleepGroup(i, cand);  // every component idle
    }
    if (unasked) {
        // An unasked group has been walked since it last woke, so its
        // domains' next edges are all at or after walkNext_.
        if (walkNext_ <= now_) {
            walkNext_ = kTickMax;
            for (std::size_t di : walk_)
                walkNext_ = std::min(walkNext_, domains_[di].edge);
        }
        next = std::min(next, walkNext_);
    }
    while (!dormantHeap_.empty()) {
        const auto [wake, gi] = dormantHeap_.top();
        if (groups_[gi].dormant && groups_[gi].wake == wake) {
            next = std::min(next, wake);
            break;
        }
        dormantHeap_.pop();  // stale
    }
    return next;
}

void
Engine::sleepGroup(std::size_t slot, Tick wake)
{
    const std::size_t gi = awake_[slot];
    Group &g = groups_[gi];
    g.dormant = true;
    g.wake = wake;
    ++dormantCount_;
    for (std::size_t di : g.domains) {
        Domain &d = domains_[di];
        // A clock added mid-run lands now: from here on its count is
        // derived from engine time.
        if (!d.synced)
            syncDomain(d);
        d.dormant = true;
        d.clock->dormant_ = true;
    }
    if (wake != kTickMax)
        dormantHeap_.push({wake, gi});
    awake_[slot] = awake_.back();
    awake_.pop_back();
    walkDirty_ = true;
}

void
Engine::wakeDue(Tick next)
{
    while (!dormantHeap_.empty() && dormantHeap_.top().first <= next) {
        const auto [wake, gi] = dormantHeap_.top();
        dormantHeap_.pop();
        if (groups_[gi].dormant && groups_[gi].wake == wake)
            wakeGroup(gi);
    }
}

void
Engine::wakeGroup(std::size_t gi)
{
    Group &g = groups_[gi];
    g.dormant = false;
    g.ticked = false;  // not walked since: scanned first
    --dormantCount_;
    awake_.push_back(gi);
    for (std::size_t di : g.domains) {
        Domain &d = domains_[di];
        // A derived clock stays so until the next walk or the end of
        // the call lands it: one divide, as any landing.
        d.dormant = false;
        if (d.clock->dormant_)
            d.synced = false;
        if (!d.walked)
            woken_.push_back(di);
    }
    walkDirty_ = true;
}

void
Engine::touch(std::size_t di)
{
    Group &g = groups_[domains_[di].slot];
    if (!g.touched) {
        g.touched = true;
        touched_.push_back(domains_[di].slot);
    }
}

void
Engine::rescanTouched()
{
    for (std::size_t gi : touched_) {
        Group &g = groups_[gi];
        g.touched = false;
        if (!g.dormant)
            continue;
        // Land its clocks: the scan needs fresh edges, and a woken
        // group's walk then needs no landing of its own.
        for (std::size_t di : g.domains)
            syncDomain(domains_[di]);
        bool active = false;
        const Tick cand = scanGroup(g, kTickMax, active);
        if (active || cand != g.wake) {
            wakeGroup(gi);
        } else {
            for (std::size_t di : g.domains)
                domains_[di].clock->dormant_ = true;  // derived again
        }
    }
    touched_.clear();
}

void
Engine::wakeAll()
{
    for (auto &d : domains_) {
        if (d.clock->dormant_)
            syncDomain(d);
        d.dormant = false;
        d.walked = true;
    }
    awake_.clear();
    for (std::size_t g = 0; g < groups_.size(); ++g) {
        groups_[g].dormant = false;
        groups_[g].ticked = false;
        groups_[g].touched = false;
        awake_.push_back(g);
    }
    touched_.clear();
    dormantHeap_ = {};
    dormantCount_ = 0;
    walk_.resize(domains_.size());
    for (std::size_t i = 0; i < walk_.size(); ++i)
        walk_[i] = i;
    woken_.clear();
    walkDirty_ = false;
}

void
Engine::rebuildGroups()
{
    wakeAll();
    groups_.clear();
    std::vector<std::size_t> slot(domains_.size(), domains_.size());
    for (std::size_t i = 0; i < domains_.size(); ++i) {
        const std::size_t root = groupOf(i);
        if (slot[root] == domains_.size()) {
            slot[root] = groups_.size();
            groups_.emplace_back();
        }
        groups_[slot[root]].domains.push_back(i);
        domains_[i].slot = slot[root];
    }
    awake_.clear();
    for (std::size_t g = 0; g < groups_.size(); ++g)
        awake_.push_back(g);
    layoutDirty_ = false;
}

void
Engine::rebuildWalk()
{
    // Drop the domains that went dormant, then merge the woken ones
    // back in creation (index) order.
    walk_.erase(std::remove_if(walk_.begin(), walk_.end(),
                               [this](std::size_t di) {
                                   Domain &d = domains_[di];
                                   if (!d.dormant)
                                       return false;
                                   d.walked = false;
                                   return true;
                               }),
                walk_.end());
    const std::size_t kept = walk_.size();
    for (std::size_t di : woken_) {
        Domain &d = domains_[di];
        if (!d.walked && !d.dormant) {
            d.walked = true;
            walk_.push_back(di);
        }
    }
    woken_.clear();
    const auto mid = walk_.begin() + static_cast<long>(kept);
    std::sort(mid, walk_.end());
    std::inplace_merge(walk_.begin(), mid, walk_.end());
    walkDirty_ = false;
}

void
Engine::verifyDormant()
{
    // Nothing inside a dormant group ticked, so only input from outside
    // it can pull a component's next needed edge below the cached wake.
    for (const Group &g : groups_) {
        if (!g.dormant)
            continue;
        for (std::size_t di : g.domains) {
            const Clock &clk = *domains_[di].clock;
            const bool on_edge = now_ % clk.period() == 0;
            for (const Component *c : domains_[di].components) {
                const Tick due =
                    !c->idle() ? (on_edge ? now_ : clk.nextEdge(now_))
                               : wakeEdge(clk, now_, c->wakeTime());
                if (due < g.wake)
                    fatal("dormancy verifier: component '%s' of the "
                          "dormant group of clock '%s' needs the edge "
                          "at %llu, before the group's wake %llu: a "
                          "tick handed it input from another group",
                          c->name().c_str(),
                          domains_[g.domains.front()]
                              .clock->name()
                              .c_str(),
                          static_cast<unsigned long long>(due),
                          static_cast<unsigned long long>(g.wake));
            }
        }
    }
}

void
Engine::verifyUntouched()
{
    // Between run calls only host code runs, so an untouched dormant
    // group must answer exactly as when it went to sleep.
    for (const Group &g : groups_) {
        if (!g.dormant || g.touched)
            continue;
        const Component *first = nullptr;  // earliest need
        Tick cand = kTickMax;
        bool busy = false;
        for (std::size_t di : g.domains) {
            const Clock &clk = *domains_[di].clock;
            for (const Component *c : domains_[di].components) {
                if (!c->idle()) {
                    first = c;
                    busy = true;
                    break;
                }
                const Tick due = wakeEdge(clk, now_, c->wakeTime());
                if (first == nullptr || due < cand) {
                    first = c;
                    cand = due;
                }
            }
            if (busy)
                break;
        }
        if (first == nullptr || (!busy && cand == g.wake))
            continue;
        const std::string change =
            busy ? std::string("is no longer idle")
                 : format("needs the edge at %llu, not the group's "
                          "wake %llu",
                          static_cast<unsigned long long>(cand),
                          static_cast<unsigned long long>(g.wake));
        fatal("dormancy verifier: component '%s' of the dormant group "
              "of clock '%s' %s at run call entry, with no "
              "noteMutation(): host input bypassed the hook",
              first->name().c_str(),
              domains_[g.domains.front()].clock->name().c_str(),
              change.c_str());
    }
}

void
Engine::runFor(Tick duration)
{
    runUntil(now_ + duration);
}

void
Engine::runUntil(Tick t)
{
    if (domains_.empty())
        fatal("Engine::runUntil with no clock domains");
    beginCall();

    while (true) {
        if (fastForwardNow()) {
            const Tick next = nextEventEdge();
            if (next > t)
                break;
            commitFastForward(next);
        } else {
            if (dormantCount_ != 0)
                wakeAll();
            const Tick next = nextEdge();
            if (next > t)
                break;
            commitEdge(next, false);
        }
    }
    // Clamp, never rewind: a runUntilDone-style caller may already sit
    // past t. Sync the clocks so skipped no-op edges still count.
    now_ = std::max(now_, t);
    syncClocks();
}

void
Engine::runCycles(Clock *clk, Cycles n)
{
    if (findDomain(clk) == nullptr)
        fatal("runCycles: clock '%s' not in this engine",
              clk->name().c_str());
    runUntil(clk->cyclesToTicks(clk->cycle() + n));
}

bool
Engine::runUntilDone(const std::function<bool()> &done, Tick max_duration)
{
    const Tick deadline = now_ + max_duration;
    if (done())
        return true;
    if (now_ >= deadline)
        return false;
    beginCall();
    // The reference schedule never runs past the first edge at or after
    // the deadline; an idle jump must land there too, not at some later
    // wake. That edge is fixed for the call (every step starts below
    // the deadline), so it is found once, when a step first reaches
    // the deadline: most calls end before.
    Tick stop = 0;
    const auto clamp = [&](Tick next) {
        if (next < deadline)
            return next;
        if (stop == 0)
            stop = firstEdgeFrom(deadline);
        return std::min(next, stop);
    };
    bool fired = false;
    while (now_ < deadline && !fired) {
        if (fastForwardNow()) {
            commitFastForward(clamp(nextEventEdge()));
        } else {
            if (dormantCount_ != 0)
                wakeAll();
            commitEdge(clamp(nextEdge()), false);
        }
        // The predicate is host code inside the call: the groups its
        // input touches are asked again before the next edge.
        fired = done();
    }
    syncClocks();
    return fired;
}

} // namespace harmonia
