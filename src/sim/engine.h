/**
 * @file
 * The simulation engine: owns clock domains, registers components, and
 * advances simulated time edge by edge on the calling thread. Its
 * default schedule, idle fast-forward, jumps over spans of simulated
 * time in which every component reports quiescence and leaves a
 * concurrency group (clocks coupled by fuseClocks) whose components
 * are all idle dormant until its wake edge. It is bit-identical to the
 * tick-by-tick reference schedule, which HARMONIA_SIM_THREADS=0
 * selects.
 */

#ifndef HARMONIA_SIM_ENGINE_H_
#define HARMONIA_SIM_ENGINE_H_

#include <functional>
#include <memory>
#include <queue>
#include <string>
#include <utility>
#include <vector>

#include "common/types.h"
#include "sim/clock.h"
#include "sim/component.h"

namespace harmonia {

/**
 * Tick-based multi-clock simulation engine.
 *
 * Clocks are owned by the engine; components are not (they usually live
 * inside a testbench or platform object). Each step advances time to
 * the earliest pending clock edge and ticks that domain's components in
 * registration order.
 *
 * Concurrency groups: domains that exchange state through direct calls
 * (a CDC FIFO's two sides, an RBB and the control kernel that commands
 * it) must be fused into one concurrency group with fuseClocks().
 * Every schedule ticks the fired domains of an edge in creation order;
 * the group is what idle fast-forward scans, puts to sleep and wakes
 * as one, so a tick must never hand input to another group.
 *
 * Idle fast-forward (skipping idle components, jumping over edges on
 * which nothing would tick) is the default schedule; the tick-by-tick
 * schedule (setIdleFastForward(false)) is the reference it must match,
 * bit for bit. It stays on under an armed fault plan unless
 * the plan holds a live rule of a kind some tick() queries
 * (FaultPlan::tickRuleLive): host-plane rules (isHostPlane) are only
 * queried between edges, so a DeviceDeath or CmdDrop window never
 * slows the edge loop, while a live LinkFlap window keeps every
 * component ticking on every edge until it closes.
 *
 * The loop asks components only when it can jump: a group whose last
 * edge ticked a component takes its next edge unasked, and only a
 * group whose last edge ticked nothing is scanned (nextEventEdge).
 *
 * Under fast-forward the concurrency group is the unit of dormancy:
 * a group whose components all report idle is cached in a min-heap
 * keyed on its wake edge, and until that edge the loop neither asks
 * its components again nor walks its domains, so an idle card costs
 * nothing per edge. A dormant domain's clock is not advanced either:
 * Clock::cycle() derives its count from engine time when read, and a
 * run call lands only the clocks it walked before it returns. This
 * rests on the group contract fuseClocks() already states — a tick
 * never hands input to another group — and on the touched-group
 * contract for host code: every mutator that code outside a group
 * reaches calls Component::noteMutation(), which marks a dormant
 * group touched. step(), runUntil() and runUntilDone() ask the touched
 * groups again when entered, and a runUntilDone predicate's input is
 * asked before the next edge; untouched dormant groups are not asked
 * at all, so a run call costs nothing per idle card. With the
 * dormancy audit on, every run call's entry also asks each untouched
 * dormant group and fatal()s, naming the component and the group's
 * clock, when one is no longer idle or its wake edge moved (host
 * input bypassed noteMutation()), and every committed fast-forward
 * edge re-checks the dormant groups and fatal()s when a component
 * needs an edge before its group's wake (a tick handed it input).
 */
class Engine {
  public:
    Engine();

    Engine(const Engine &) = delete;
    Engine &operator=(const Engine &) = delete;

    /** Create a clock domain owned by this engine. */
    Clock *addClock(const std::string &name, double mhz);

    /**
     * Register @p c on domain @p clk. A component may be registered
     * exactly once; @p clk must belong to this engine.
     */
    void add(Component *c, Clock *clk);

    /**
     * Deregister @p c from its domain so it can be add()ed again —
     * possibly on a different engine (role failover moves roles
     * between shells this way). @p c must be registered here.
     */
    void remove(Component *c);

    /**
     * Declare that the domains of @p a and @p b exchange state through
     * direct calls: one concurrency group, which idle fast-forward
     * scans, puts to sleep and wakes as one. Transitive: fusing a-b
     * and b-c puts all three in one group.
     */
    void fuseClocks(Clock *a, Clock *b);

    Tick now() const { return now_; }

    /** Advance exactly one clock edge (possibly several domains):
     *  the next edge of any domain, so every dormant group wakes. */
    void step();

    /** Run for @p duration simulated picoseconds. */
    void runFor(Tick duration);

    /** Run until simulated time reaches @p t (never rewinds). */
    void runUntil(Tick t);

    /** Run @p n cycles of domain @p clk. */
    void runCycles(Clock *clk, Cycles n);

    /**
     * Run until @p done returns true (checked after every edge) or
     * @p max_duration elapses. Returns true if @p done fired.
     *
     * Fast-forward contract: @p done must be a function of component
     * state (queues, counters, flags mutated by ticks). A predicate
     * keyed directly on simulated time needs a scheduleEvent() hint so
     * the idle jump lands an edge at the time it watches.
     */
    bool runUntilDone(const std::function<bool()> &done,
                      Tick max_duration);

    // --- Idle fast-forward -----------------------------------------

    /** Enable/disable the idle fast-forward path (default on unless
     *  HARMONIA_SIM_THREADS is 0; false is the tick-by-tick reference
     *  schedule). An armed plan's live tick-queried rules suspend it
     *  (class comment). */
    void setIdleFastForward(bool on) { fastForward_ = on; }
    bool idleFastForward() const { return fastForward_; }

    /**
     * Hint that something outside the component graph (a host-side DMA
     * deadline, a fault window opening) becomes interesting at @p t:
     * an idle fast-forward never jumps past the first edge at or after
     * a pending hint. Stale hints are discarded harmlessly.
     */
    void scheduleEvent(Tick t);

    /**
     * Enable/disable the dormancy verifier: every run call's entry
     * asks the untouched dormant groups, and every committed
     * fast-forward edge re-checks the dormant groups (class comment).
     * Defaults to the HARMONIA_SIM_AUDIT environment switch (set and
     * not "0"). Costs nothing tick by tick.
     */
    void setDormancyAudit(bool on) { audit_ = on; }
    bool dormancyAudit() const { return audit_; }

  private:
    friend class Component;  // touch

    struct Domain {
        std::unique_ptr<Clock> clock;
        /// First edge strictly after now_ (cached: commitEdge touches
        /// only domains whose edge has come).
        Tick edge = 0;
        /// False until its clock next lands at now_: for a domain
        /// added mid-run (its count stays 0 until then) and for one
        /// whose group woke (its count stays derived until then).
        bool synced = true;
        /// Its group is cached dormant: not walked, edge stale, and its
        /// clock dormant too (count derived) until it next lands.
        bool dormant = false;
        /// Listed in walk_.
        bool walked = true;
        std::size_t slot = 0;  ///< its group's index in groups_
        std::vector<Component *> components;
        std::size_t group = 0;  ///< union-find parent (domain index)
    };

    /** A concurrency group as the fast-forward loop caches it. */
    struct Group {
        std::vector<std::size_t> domains;  ///< indices, creation order
        bool dormant = false;
        /// While dormant: the first edge at which it must be walked
        /// again (kTickMax: only host input wakes it).
        Tick wake = kTickMax;
        /// Listed in touched_: host input since it went dormant.
        bool touched = false;
        /// Its last fast-forward edge ticked a component.
        bool ticked = false;
        /// Its last scan jumped over an edge of one of its domains.
        bool jumped = false;
    };

    /** (wake edge, group index), earliest first. */
    using WakeEntry = std::pair<Tick, std::size_t>;

    Domain *findDomain(const Clock *clk);
    std::size_t domainIndex(const Clock *clk);
    std::size_t groupOf(std::size_t domain_index);

    /** Earliest pending edge of any domain. */
    Tick nextEdge() const;

    /** Earliest edge that must run, honoring idleness; kTickMax when
     *  every component is dormant with no wake and no hint. After an
     *  edge on which a group ticked, and unless its last scan jumped,
     *  the group is busy unasked: it bounds the result by walkNext_
     *  (committing an edge the scan would skip is safe; skipping one it
     *  would pick is not). The other groups are scanned (scanGroup),
     *  and every all-idle one is cached as dormant. */
    Tick nextEventEdge();

    /** Cache awake_[@p slot], all idle, as dormant until @p wake:
     *  neither scanned nor walked in between. */
    void sleepGroup(std::size_t slot, Tick wake);

    /** Wake the dormant groups due at @p next. A heap entry whose
     *  group woke early or re-slept to another edge is stale. */
    void wakeDue(Tick next);

    /** First edge of any domain at or after the earliest pending
     *  hint, computed once per hint; kTickMax without one. */
    Tick hintEdge();

    /** First edge of any domain at or after @p t (t > 0). */
    Tick firstEdgeFrom(Tick t) const;

    /** Idle fast-forward is enabled and no armed tick-queried fault
     *  rule is live (see the class comment). */
    bool fastForwardNow() const;

    /** Land @p d's clock at now_ (one divide), refresh its edge and
     *  end its dormancy. */
    void syncDomain(Domain &d);

    /** Land the clocks the call walked whose edge has passed (end of
     *  a run call); a dormant clock derives its count. */
    void syncClocks();

    /** Land at @p next: sync the clocks whose edge has come, tick the
     *  fired domains. Walks every domain: the tick-by-tick path and
     *  step(). Never re-entered from a tick. */
    void commitEdge(Tick next, bool skip_idle);

    /** The fast-forward commitEdge: wake the dormant groups due at
     *  @p next, then walk only the awake groups' domains. */
    void commitFastForward(Tick next);

    /** commitEdge's body over @p walk (domains, or indices into
     *  domains_, in creation order). SkipIdle is a template argument
     *  so the tick-by-tick instantiation carries none of the
     *  fast-forward path's code. */
    template <bool SkipIdle, typename Walk>
    void commitDomains(Walk &walk, Tick next);

    /** Every group awake, every dormant clock landed. Run whenever
     *  fast-forward pauses and when the layout changes. */
    void wakeAll();

    /** Entry to a run call: ask the touched groups again (under the
     *  audit, check the untouched ones first). */
    void beginCall()
    {
        if (audit_ && dormantCount_ != 0 && !layoutDirty_)
            verifyUntouched();
        if (!touched_.empty())
            rescanTouched();
    }

    /** Component::noteMutation() on domain @p di, whose clock is
     *  dormant: list its group in touched_. */
    void touch(std::size_t di);

    /** Ask every touched dormant group again: wake those no longer
     *  idle or whose wake edge moved, leave the rest dormant. */
    void rescanTouched();

    /** Return dormant group @p gi to the scan and the walk. */
    void wakeGroup(std::size_t gi);

    /** Scan @p g: its earliest needed edge, setting @p active when a
     *  component is busy; once it is, domains whose next edge cannot
     *  beat @p best or the group's own candidate are not asked. Notes
     *  whether the scan jumped over one of the group's edges. */
    Tick scanGroup(Group &g, Tick best, bool &active);

    /** Re-derive groups_ from the union-find (layout changed). */
    void rebuildGroups();

    /** Bring walk_ up to date with the groups' dormancy. */
    void rebuildWalk();

    /** Audit: fatal() when a dormant group's component needs an edge
     *  before the group's wake. */
    void verifyDormant();

    /** Audit at call entry: fatal() when an untouched dormant group is
     *  no longer idle or its wake edge moved. */
    void verifyUntouched();

    Tick now_ = 0;
    std::vector<Domain> domains_;
    /// One clock of each distinct period (firstEdgeFrom).
    std::vector<const Clock *> periodClocks_;
    std::vector<Domain *> fired_;  ///< commitEdge buffer, reused
    bool committing_ = false;      ///< inside commitEdge
    std::priority_queue<Tick, std::vector<Tick>, std::greater<Tick>>
        events_;
    Tick hintTick_ = 0;  ///< hint hintEdge_ was computed for (0: none)
    Tick hintEdge_ = kTickMax;
    /// Earliest next edge of the domains the last fast-forward edge
    /// walked; stale once now_ reaches it (nextEventEdge).
    Tick walkNext_ = 0;

    // Fast-forward dormancy cache (see the class comment).
    std::vector<Group> groups_;
    std::vector<std::size_t> awake_;  ///< groups nextEventEdge scans
    std::priority_queue<WakeEntry, std::vector<WakeEntry>,
                        std::greater<WakeEntry>>
        dormantHeap_;
    std::size_t dormantCount_ = 0;
    /// Dormant groups host input touched since they were last asked.
    std::vector<std::size_t> touched_;
    /// Domains of awake groups, creation order: what a fast-forward
    /// edge walks.
    std::vector<std::size_t> walk_;
    std::vector<std::size_t> woken_;  ///< woken since walk_ was built
    bool walkDirty_ = false;
    bool layoutDirty_ = true;  ///< clock/component/fuse change

    bool fastForward_ = true;
    bool audit_ = false;
};

} // namespace harmonia

#endif // HARMONIA_SIM_ENGINE_H_
