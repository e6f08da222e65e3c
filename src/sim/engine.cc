#include "sim/engine.h"

#include <algorithm>
#include <cstdlib>

#include "common/logging.h"
#include "fault/fault_plan.h"  // harmonia-lint: allow(LAYER-002) serial fallback and fast-forward eligibility under an armed plan
#include "sim/ownership.h"
#include "sim/trace.h"

namespace harmonia {

Engine::Engine()
{
    const unsigned n = envThreads();
    if (n >= 1) {
        threads_ = n;
        parallel_ = n > 1;
        fastForward_ = true;
    }
    audit_ = OwnershipAuditor::envEnabled();
}

Engine::~Engine() { stopWorkers(); }

unsigned
Engine::envThreads()
{
    const char *env = std::getenv("HARMONIA_SIM_THREADS");
    if (env == nullptr || *env == '\0')
        return 0;
    char *end = nullptr;
    const unsigned long n = std::strtoul(env, &end, 10);
    if (end == env || *end != '\0')
        return 0;
    return static_cast<unsigned>(n);
}

Clock *
Engine::addClock(const std::string &name, double mhz)
{
    Domain d;
    d.clock = std::make_unique<Clock>(name, mhz);
    d.edge = d.clock->nextEdge(now_);
    d.synced = now_ == 0;
    d.group = d.auditRoot = domains_.size();
    domains_.push_back(std::move(d));
    fired_.reserve(domains_.size());
    groupsDirty_ = true;
    return domains_.back().clock.get();
}

Engine::Domain *
Engine::findDomain(const Clock *clk)
{
    for (auto &d : domains_)
        if (d.clock.get() == clk)
            return &d;
    return nullptr;
}

std::size_t
Engine::domainIndex(const Clock *clk)
{
    for (std::size_t i = 0; i < domains_.size(); ++i)
        if (domains_[i].clock.get() == clk)
            return i;
    fatal("clock '%s' does not belong to this engine",
          clk->name().c_str());
    return 0;
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
        groupsDirty_ = true;
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
    c->clock_ = clk;
    d->components.push_back(c);
    groupsDirty_ = true;
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
    c->clock_ = nullptr;
    groupsDirty_ = true;
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
Engine::commitEdge(Tick next, bool skip_idle)
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
    // advance-as-you-go (and is the only order that works once fired
    // domains tick concurrently). A domain whose cached edge is still
    // ahead has no edge in between, so its count already holds.
    fired_.clear();
    for (auto &d : domains_) {
        if (d.synced && d.edge > now_)
            continue;
        if (d.synced && d.edge == now_) {
            d.clock->advance();
            d.edge += d.clock->period();
        } else {
            // Fast-forward jumped some of its edges, or it was added
            // mid-run and lands for the first time.
            syncDomain(d);
            if (d.clock->cyclesToTicks(d.clock->cycle()) != now_)
                continue;
        }
        fired_.push_back(&d);
    }

    std::vector<std::vector<Domain *>> groups;
    if (parallel_ && threads_ > 1 && fired_.size() > 1 &&
        !Trace::instance().enabled() &&
        FaultPlan::active() == nullptr) {
        // Bucket fired domains by concurrency group, preserving
        // creation order within each bucket.
        std::vector<std::size_t> roots;
        for (Domain *d : fired_) {
            const std::size_t root =
                groupOf(static_cast<std::size_t>(d - domains_.data()));
            d->auditRoot = root;
            std::size_t slot = roots.size();
            for (std::size_t i = 0; i < roots.size(); ++i)
                if (roots[i] == root) {
                    slot = i;
                    break;
                }
            if (slot == roots.size()) {
                roots.push_back(root);
                groups.emplace_back();
            }
            groups[slot].push_back(d);
        }
    }

    if (groups.size() > 1) {
        if (audit_) {
            if (groupsDirty_)
                stampGroups();
            OwnershipAuditor::instance().beginEdge();
        }
        tickFired(groups, skip_idle);
        if (audit_)
            OwnershipAuditor::instance().endEdge();
    } else {
        // Serial reference schedule: creation order across domains.
        for (Domain *d : fired_)
            tickDomain(*d, skip_idle);
    }
    committing_ = false;
}

void
Engine::tickDomain(Domain &d, bool skip_idle)
{
    if (skip_idle) {
        // Re-evaluate at tick time, not scan time: a producer that
        // ticked earlier this edge may have just woken this component.
        for (Component *c : d.components)
            if (!c->idle())
                c->tick();
    } else {
        for (Component *c : d.components)
            c->tick();
    }
}

Tick
Engine::nextEventEdge()
{
    while (!events_.empty() && events_.top() <= now_)
        events_.pop();
    const Tick hint = events_.empty() ? kTickMax : events_.top();

    Tick next = kTickMax;
    for (auto &d : domains_) {
        Tick cand = kTickMax;
        bool active = false;
        Tick wake = kTickMax;
        for (Component *c : d.components) {
            if (!c->idle()) {
                active = true;
                break;
            }
            wake = std::min(wake, c->wakeTime());
        }
        if (active)
            cand = d.edge;
        else if (wake != kTickMax)
            cand = d.clock->nextEdge(
                std::max(now_, wake == 0 ? 0 : wake - 1));
        if (hint != kTickMax)
            cand = std::min(
                cand, d.clock->nextEdge(
                          std::max(now_, hint == 0 ? 0 : hint - 1)));
        next = std::min(next, cand);
    }
    return next;
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

    while (true) {
        const bool ff = fastForwardNow();
        const Tick next = ff ? nextEventEdge() : nextEdge();
        if (next > t)
            break;
        commitEdge(next, ff);
    }
    // Clamp, never rewind: a runUntilDone-style caller may already sit
    // past t. Sync the clocks so skipped no-op edges still count.
    now_ = std::max(now_, t);
    for (auto &d : domains_)
        if (!d.synced || d.edge <= now_)
            syncDomain(d);
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
    // The reference schedule never runs past the first edge at or after
    // the deadline; an idle jump must land there too, not at some later
    // wake. That edge is fixed for the call: every step starts below
    // the deadline.
    Tick stop = kTickMax;
    for (const auto &d : domains_)
        stop = std::min(stop, d.clock->nextEdge(deadline - 1));
    while (now_ < deadline) {
        const bool ff = fastForwardNow();
        commitEdge(std::min(ff ? nextEventEdge() : nextEdge(), stop), ff);
        if (done())
            return true;
    }
    return false;
}

// --- Worker pool ---------------------------------------------------

void
Engine::setParallel(bool on)
{
    parallel_ = on;
}

void
Engine::setThreads(unsigned n)
{
    threads_ = std::max(1u, n);
}

void
Engine::ensureWorkers()
{
    const std::size_t want = threads_ - 1;  // main thread participates
    while (workers_.size() < want)
        workers_.emplace_back([this] { workerLoop(); });
}

void
Engine::stopWorkers()
{
    {
        std::lock_guard<std::mutex> lk(poolMutex_);
        poolShutdown_ = true;
    }
    poolCv_.notify_all();
    for (auto &w : workers_)
        w.join();
    workers_.clear();
    poolShutdown_ = false;
}

void
Engine::workerLoop()
{
    std::uint64_t seen = 0;
    std::unique_lock<std::mutex> lk(poolMutex_);
    while (true) {
        poolCv_.wait(lk, [&] {
            return poolShutdown_ || poolGeneration_ != seen;
        });
        if (poolShutdown_)
            return;
        seen = poolGeneration_;
        while (work_ != nullptr && nextTask_ < work_->size()) {
            std::vector<Domain *> &task = (*work_)[nextTask_++];
            const bool skip = taskSkipIdle_;
            lk.unlock();
            OwnershipAuditor::setCurrentGroup(task.front()->auditRoot);
            for (Domain *d : task)
                tickDomain(*d, skip);
            OwnershipAuditor::setCurrentGroup(
                OwnershipAuditor::kNoGroup);
            lk.lock();
            if (--tasksLeft_ == 0)
                poolDoneCv_.notify_all();
        }
    }
}

void
Engine::drainTasks(bool skip_idle)
{
    std::unique_lock<std::mutex> lk(poolMutex_);
    while (work_ != nullptr && nextTask_ < work_->size()) {
        std::vector<Domain *> &task = (*work_)[nextTask_++];
        lk.unlock();
        OwnershipAuditor::setCurrentGroup(task.front()->auditRoot);
        for (Domain *d : task)
            tickDomain(*d, skip_idle);
        OwnershipAuditor::setCurrentGroup(OwnershipAuditor::kNoGroup);
        lk.lock();
        if (--tasksLeft_ == 0)
            poolDoneCv_.notify_all();
    }
}

void
Engine::stampGroups()
{
    for (std::size_t i = 0; i < domains_.size(); ++i) {
        const std::size_t root = groupOf(i);
        for (Component *c : domains_[i].components)
            c->auditGroup_ = root;
    }
    groupsDirty_ = false;
}

void
Engine::tickFired(std::vector<std::vector<Domain *>> &fired,
                  bool skip_idle)
{
    ensureWorkers();
    {
        std::lock_guard<std::mutex> lk(poolMutex_);
        work_ = &fired;
        nextTask_ = 0;
        tasksLeft_ = fired.size();
        taskSkipIdle_ = skip_idle;
        ++poolGeneration_;
    }
    poolCv_.notify_all();
    drainTasks(skip_idle);
    std::unique_lock<std::mutex> lk(poolMutex_);
    poolDoneCv_.wait(lk, [&] { return tasksLeft_ == 0; });
    work_ = nullptr;
}

} // namespace harmonia
