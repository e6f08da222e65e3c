/**
 * @file
 * The simulation engine: owns clock domains, registers components, and
 * advances simulated time edge by edge. Domains can execute in
 * parallel on a persistent worker pool (grouped by declared coupling,
 * see fuseClocks), and an idle fast-forward path jumps over spans of
 * simulated time in which every component reports quiescence and
 * leaves a concurrency group whose components are all idle dormant
 * until its wake edge. Both modes are bit-identical to the serial
 * tick-by-tick reference schedule. Serial fast-forward is the default;
 * HARMONIA_SIM_THREADS=n adds n threads, and 0 selects the reference.
 */

#ifndef HARMONIA_SIM_ENGINE_H_
#define HARMONIA_SIM_ENGINE_H_

#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <queue>
#include <string>
#include <thread>
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
 * Concurrency model: domains that exchange state through direct calls
 * (a CDC FIFO's two sides, an RBB and the control kernel that commands
 * it) must be fused into one concurrency group with fuseClocks();
 * within a group, domains always tick serially in creation order —
 * exactly the reference schedule. Distinct groups share no state and
 * may tick concurrently. The engine additionally serializes any step
 * where tracing is enabled or a fault plan is armed (both keep global
 * sequential state), so those runs are trivially schedule-independent.
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
 * nothing per edge. This rests on the group contract fuseClocks()
 * already states — a tick never hands input to another group — and on
 * host code running between run calls: step(), runUntil() and
 * runUntilDone() rescan every group when entered, so no mutator needs
 * a wake hook. Host code inside a call (a runUntilDone predicate) may
 * feed input only through mutators that call
 * Component::noteMutation(), which makes the loop rescan before its
 * next edge. A dormant group's clocks sync when it wakes, and every
 * clock syncs before a run call returns; in between, code outside the
 * group (a runUntilDone predicate included) must not read its cycle().
 * With the ownership audit on, every committed fast-forward edge
 * re-checks the dormant groups and fatal()s, naming the group and the
 * component, when a component needs an edge before its group's wake.
 */
class Engine {
  public:
    Engine();
    ~Engine();

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
     * direct calls and must never tick concurrently. Transitive: fusing
     * a-b and b-c puts all three in one group.
     */
    void fuseClocks(Clock *a, Clock *b);

    Tick now() const { return now_; }

    /** Advance exactly one clock edge (possibly several domains). */
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

    // --- Parallel execution & idle fast-forward ---------------------

    /** Enable/disable the worker pool. Serial is the default. */
    void setParallel(bool on);
    bool parallel() const { return parallel_; }

    /** Worker count used when parallel (clamped to >= 1). */
    void setThreads(unsigned n);
    unsigned threads() const { return threads_; }

    /** Enable/disable the idle fast-forward path (default on; false
     *  is the tick-by-tick reference schedule). An armed plan's live
     *  tick-queried rules suspend it (class comment). */
    void setIdleFastForward(bool on) { fastForward_ = on; }
    bool idleFastForward() const { return fastForward_; }

    /**
     * Hint that something outside the component graph (a host-side DMA
     * deadline, a fault window opening) becomes interesting at @p t:
     * an idle fast-forward never jumps past the first edge at or after
     * a pending hint. Stale hints are discarded harmlessly.
     */
    void scheduleEvent(Tick t);

    /** HARMONIA_SIM_THREADS value; nullopt when unset or malformed. */
    static std::optional<unsigned> envThreads();

    /**
     * Enable/disable the dynamic ownership auditor (sim/ownership.h):
     * during every parallel edge, instrumented mutations are checked
     * against the concurrency-group stamps, and every fast-forward
     * edge re-checks the dormant groups (class comment). Defaults to
     * the HARMONIA_SIM_AUDIT environment switch. Costs nothing while
     * the engine runs serially without fast-forward.
     */
    void setOwnershipAudit(bool on) { audit_ = on; }
    bool ownershipAudit() const { return audit_; }

  private:
    friend class Component;  // noteHostInput

    struct Domain {
        std::unique_ptr<Clock> clock;
        /// First edge strictly after now_ (cached: commitEdge touches
        /// only domains whose edge has come).
        Tick edge = 0;
        /// False for a domain added mid-run until its clock first
        /// lands at now_: its cycle count stays 0 until then.
        bool synced = true;
        /// Its group is cached dormant: not walked, clock lagging.
        bool dormant = false;
        /// Listed in walk_.
        bool walked = true;
        /// Some component ticked on its last fast-forward edge. Written
        /// only by the thread ticking the domain; folded into its group
        /// after the edge.
        bool ticked = false;
        std::size_t slot = 0;  ///< its group's index in groups_
        std::vector<Component *> components;
        std::size_t group = 0;  ///< union-find parent (domain index)
        /// Resolved group root, refreshed as parallel edges are
        /// bucketed; read by workers to tag their audit group.
        std::size_t auditRoot = 0;
    };

    /** A concurrency group as the fast-forward loop caches it. */
    struct Group {
        std::vector<std::size_t> domains;  ///< indices, creation order
        bool dormant = false;
        /// While dormant: the first edge at which it must be walked
        /// again (kTickMax: only the next run call's rescan).
        Tick wake = kTickMax;
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

    /** Idle fast-forward is enabled and no armed tick-queried fault
     *  rule is live (see the class comment). */
    bool fastForwardNow() const;

    /** Land @p d's clock at now_ (one divide) and refresh its edge. */
    void syncDomain(Domain &d);

    /** Land every clock an edge has passed (end of a run call). */
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

    /** Every group awake, every lagging clock landed. Run after host
     *  input mid-call and whenever fast-forward pauses. */
    void wakeAll();

    /** Entry to a run call: host code may have touched any group, so
     *  every dormant group is asked again (rescanDormant). */
    void beginCall()
    {
        hostInput_ = false;
        if (dormantCount_ != 0)
            rescanDormant();
    }

    /** Ask every dormant group again: wake those no longer idle to
     *  the same wake edge, leave the rest dormant. */
    void rescanDormant();

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

    /** Tick fired_ on the worker pool, one task per concurrency
     *  group; false, having ticked nothing, when every fired domain
     *  is in one group. Kept out of the commit loop: its locals would
     *  cost the serial loop registers. */
    bool tickGroupsInParallel(bool skip_idle);

    /** Tick @p fired (lists of fired domains per group) in parallel
     *  when eligible, serially otherwise. */
    void tickFired(std::vector<std::vector<Domain *>> &fired,
                   bool skip_idle);

    void tickDomain(Domain &d, bool skip_idle);

    void ensureWorkers();
    void stopWorkers();
    void workerLoop();
    void drainTasks(bool skip_idle);

    /** Stamp every component with its group root (audit only). */
    void stampGroups();

    Tick now_ = 0;
    std::vector<Domain> domains_;
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
    /// Domains of awake groups, creation order: what a fast-forward
    /// edge walks.
    std::vector<std::size_t> walk_;
    std::vector<std::size_t> woken_;  ///< woken since walk_ was built
    bool walkDirty_ = false;
    bool layoutDirty_ = true;  ///< clock/component/fuse change
    bool hostInput_ = false;   ///< noteMutation() from a predicate

    bool parallel_ = false;
    bool fastForward_ = true;
    unsigned threads_ = 1;
    bool audit_ = false;
    bool groupsDirty_ = true;  ///< component/fuse change since stamp

    // Worker pool state, all guarded by poolMutex_.
    std::vector<std::thread> workers_;
    std::mutex poolMutex_;
    std::condition_variable poolCv_;
    std::condition_variable poolDoneCv_;
    std::vector<std::vector<Domain *>> *work_ = nullptr;
    std::size_t nextTask_ = 0;
    std::size_t tasksLeft_ = 0;
    bool taskSkipIdle_ = false;
    std::uint64_t poolGeneration_ = 0;
    bool poolShutdown_ = false;
};

} // namespace harmonia

#endif // HARMONIA_SIM_ENGINE_H_
