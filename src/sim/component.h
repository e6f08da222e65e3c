/**
 * @file
 * Base class for everything that does work on a clock edge: vendor IP
 * models, wrappers, RBB logic, roles, the unified control kernel.
 */

#ifndef HARMONIA_SIM_COMPONENT_H_
#define HARMONIA_SIM_COMPONENT_H_

#include <cstddef>
#include <functional>
#include <string>

#include "common/types.h"
#include "sim/ownership.h"

namespace harmonia {

class Clock;
class Engine;

/**
 * A clocked component. The engine calls tick() once per rising edge of
 * the component's clock, in registration order within the domain —
 * register consumers before producers to model registered outputs.
 */
class Component {
  public:
    explicit Component(std::string name);
    virtual ~Component() = default;

    Component(const Component &) = delete;
    Component &operator=(const Component &) = delete;

    /** Advance one cycle of this component's clock domain. */
    virtual void tick() = 0;

    /**
     * Quiescence report for the engine's idle fast-forward. Returning
     * true is a contract: tick() at the current instant — and at every
     * later edge up to wakeTime(), absent external input — would change
     * no observable state (no counters, no queues, no trace, no fault
     * queries). The default is the safe answer: never idle.
     */
    virtual bool idle() const { return false; }

    /**
     * Earliest future time at which tick() may stop being a no-op while
     * idle() is true (a scheduled delivery, a sample interval, a busy
     * window expiring). kTickMax means "only external input wakes me".
     * Must be conservative: waking too early is harmless, too late is
     * a simulation bug.
     */
    virtual Tick wakeTime() const { return kTickMax; }

    const std::string &name() const { return name_; }

    /** Clock domain; null until registered with an Engine. */
    Clock *clock() const { return clock_; }

    /** Owning engine; null until registered. Lets host-side code
     *  reached from a component post next-event hints
     *  (Engine::scheduleEvent) for deadlines the engine cannot see. */
    Engine *engine() const { return engine_; }

    /** Current simulated time; 0 until registered. */
    Tick now() const { return *engineNow_; }

    /** Current cycle of this component's clock; 0 until registered. */
    Cycles cycle() const;

    /** Simulated time of the last Engine::add; it ticks on the edges
     *  of its clock strictly after this. */
    Tick registeredAt() const { return registeredAt_; }

    /**
     * Whether the calling code runs inside an engine edge ahead of this
     * component's own turn at now() in the serial reference order
     * (domain creation order, then registration order). False between
     * edges. Across domains of a fast-forward edge the tick cursor —
     * the domain the edge is running on this thread — answers, and
     * @p turn_passed is not called: on a parallel edge it may read
     * state that this component's own domain writes. Within
     * this component's domain, and on a tick-by-tick edge, @p
     * turn_passed() answers: whether the engine has already ticked this
     * component, or asked its idle(), at now(). State that is computed
     * lazily when read uses it to show a reader exactly what the
     * tick-by-tick schedule has at that point.
     */
    template <typename TurnPassed>
    bool edgePending(TurnPassed turn_passed) const
    {
        if (!insideEdge())
            return false;
        if (tickingDomain_ != kNoDomain && tickingDomain_ != domain_)
            return tickingDomain_ < domain_;
        return !turn_passed();
    }

    /**
     * Ownership-audit hook: call at the top of every externally
     * reachable state mutator (a push, a pop, a submit). One relaxed
     * atomic load when the auditor is disarmed; during an audited
     * parallel edge it checks that the calling thread's concurrency
     * group owns this component. See sim/ownership.h. Called from a
     * runUntilDone predicate (the only host code inside a run call),
     * it also makes the engine rescan its dormant groups before the
     * next edge; on every other path it costs one thread-local load.
     */
    void noteMutation() const
    {
        if (OwnershipAuditor::armed())
            OwnershipAuditor::instance().checkMutation(*this);
        if (inPredicate_)
            noteHostInput();
    }

    /** Concurrency-group stamp set by the engine before audited
     *  parallel edges; kNoGroup until then. */
    std::size_t auditGroup() const { return auditGroup_; }

  private:
    friend class Engine;

    /** An engine edge is being committed (edgePending). */
    bool insideEdge() const;

    void noteHostInput() const;

    static constexpr std::size_t kNoDomain = ~std::size_t{0};

    /// What now() reads while unregistered.
    static constexpr Tick kUnregisteredNow = 0;

    /// The tick cursor (edgePending): index of the domain a
    /// fast-forward edge is ticking on this thread, else kNoDomain.
    inline static thread_local std::size_t tickingDomain_ = kNoDomain;

    /// A runUntilDone predicate is running on this thread
    /// (noteMutation).
    inline static thread_local bool inPredicate_ = false;

    std::string name_;
    Clock *clock_ = nullptr;
    Engine *engine_ = nullptr;
    /// The owning engine's time (Engine::add), read inline by now().
    const Tick *engineNow_ = &kUnregisteredNow;
    std::size_t auditGroup_ = OwnershipAuditor::kNoGroup;
    std::size_t domain_ = 0;  ///< engine domain index (Engine::add)
    Tick registeredAt_ = 0;
};

/** Wraps a lambda as a Component — handy in tests and benches. */
class FunctionComponent : public Component {
  public:
    FunctionComponent(std::string name, std::function<void()> fn)
        : Component(std::move(name)), fn_(std::move(fn)) {}

    void tick() override { fn_(); }

  private:
    std::function<void()> fn_;
};

} // namespace harmonia

#endif // HARMONIA_SIM_COMPONENT_H_
