#include <gtest/gtest.h>

#include "common/logging.h"
#include "fault/fault_plan.h"
#include "sim/engine.h"

namespace harmonia {
namespace {

TEST(Engine, SingleDomainTickCount)
{
    Engine e;
    Clock *clk = e.addClock("clk", 250.0);
    int ticks = 0;
    FunctionComponent c("c", [&] { ++ticks; });
    e.add(&c, clk);

    e.runFor(40'000);  // 10 cycles at 4 ns
    EXPECT_EQ(ticks, 10);
    EXPECT_EQ(clk->cycle(), 10u);
    EXPECT_EQ(e.now(), 40'000u);
}

TEST(Engine, TwoDomainsRatio)
{
    Engine e;
    Clock *fast = e.addClock("fast", 500.0);  // 2 ns
    Clock *slow = e.addClock("slow", 125.0);  // 8 ns
    int fast_ticks = 0, slow_ticks = 0;
    FunctionComponent cf("f", [&] { ++fast_ticks; });
    FunctionComponent cs("s", [&] { ++slow_ticks; });
    e.add(&cf, fast);
    e.add(&cs, slow);

    e.runFor(80'000);  // 80 ns
    EXPECT_EQ(fast_ticks, 40);
    EXPECT_EQ(slow_ticks, 10);
}

TEST(Engine, RegistrationOrderWithinDomain)
{
    Engine e;
    Clock *clk = e.addClock("clk", 100.0);
    std::vector<int> order;
    FunctionComponent a("a", [&] { order.push_back(1); });
    FunctionComponent b("b", [&] { order.push_back(2); });
    e.add(&a, clk);
    e.add(&b, clk);

    e.step();
    ASSERT_EQ(order.size(), 2u);
    EXPECT_EQ(order[0], 1);
    EXPECT_EQ(order[1], 2);
}

TEST(Engine, RunCycles)
{
    Engine e;
    Clock *a = e.addClock("a", 300.0);
    Clock *b = e.addClock("b", 100.0);
    (void)b;
    e.runCycles(a, 7);
    EXPECT_EQ(a->cycle(), 7u);
}

TEST(Engine, RunUntilDone)
{
    Engine e;
    Clock *clk = e.addClock("clk", 100.0);
    int ticks = 0;
    FunctionComponent c("c", [&] { ++ticks; });
    e.add(&c, clk);

    EXPECT_TRUE(e.runUntilDone([&] { return ticks >= 5; }, 1'000'000));
    EXPECT_EQ(ticks, 5);

    EXPECT_FALSE(
        e.runUntilDone([&] { return ticks >= 1000; }, 50'000));
}

TEST(Engine, ComponentNowAndCycle)
{
    Engine e;
    Clock *clk = e.addClock("clk", 250.0);
    Tick seen_now = 0;
    Cycles seen_cycle = 0;
    FunctionComponent *cp = nullptr;
    FunctionComponent c("c", [&] {
        seen_now = cp->now();
        seen_cycle = cp->cycle();
    });
    cp = &c;
    e.add(&c, clk);
    e.step();
    EXPECT_EQ(seen_now, 4000u);
    EXPECT_EQ(seen_cycle, 1u);
}

TEST(Engine, DoubleRegistrationRejected)
{
    Engine e;
    Clock *clk = e.addClock("clk", 100.0);
    FunctionComponent c("c", [] {});
    e.add(&c, clk);
    EXPECT_THROW(e.add(&c, clk), FatalError);
}

TEST(Engine, ForeignClockRejected)
{
    Engine e1, e2;
    Clock *clk2 = e2.addClock("clk", 100.0);
    FunctionComponent c("c", [] {});
    EXPECT_THROW(e1.add(&c, clk2), FatalError);
}

TEST(Engine, StepWithNoClocksRejected)
{
    Engine e;
    EXPECT_THROW(e.step(), FatalError);
}

TEST(Engine, RunUntilSetsExactTime)
{
    Engine e;
    e.addClock("clk", 100.0);
    e.runUntil(12'345);
    EXPECT_EQ(e.now(), 12'345u);
}

TEST(Engine, RunUntilNeverRewindsTime)
{
    Engine e;
    Clock *clk = e.addClock("clk", 250.0);
    e.runFor(40'000);
    ASSERT_EQ(e.now(), 40'000u);

    // A target already in the past must clamp, not rewind: rewinding
    // now_ (and the clock cycles with it) would replay edges.
    e.runUntil(5'000);
    EXPECT_EQ(e.now(), 40'000u);
    EXPECT_EQ(clk->cycle(), 10u);
}

// --- Idle fast-forward: parity with the tick-by-tick engine. ---

/** One tick: who ran, at which instant, on which cycle. */
struct TickRecord {
    std::string who;
    Tick at = 0;
    Cycles cycle = 0;

    bool operator==(const TickRecord &) const = default;
};

/**
 * Does observable work every @p interval cycles and reports itself
 * idle (with an exact wake) in between — the HealthMonitor shape.
 * With @p log it also appends each working tick to that shared log,
 * so tick order across domains can be compared.
 */
class PeriodicCounter : public Component {
  public:
    PeriodicCounter(std::string name, Cycles interval,
                    std::vector<TickRecord> *log = nullptr)
        : Component(std::move(name)), interval_(interval), log_(log)
    {
    }

    void tick() override
    {
        if (cycle() % interval_ == 0) {
            ++count_;
            at_.push_back(now());
            if (log_ != nullptr)
                log_->push_back({name(), now(), cycle()});
        }
    }
    bool idle() const override { return cycle() % interval_ != 0; }
    Tick wakeTime() const override
    {
        return clock()->cyclesToTicks(
            (cycle() / interval_ + 1) * interval_);
    }

    std::uint64_t count_ = 0;
    std::vector<Tick> at_;

  private:
    Cycles interval_;
    std::vector<TickRecord> *log_;
};

/** Fires once at the first edge at or after @p when, then sleeps. */
class OneShotAlarm : public Component {
  public:
    OneShotAlarm(std::string name, Tick when)
        : Component(std::move(name)), when_(when)
    {
    }

    void tick() override
    {
        if (!fired_ && now() >= when_) {
            fired_ = true;
            firedAt_ = now();
        }
    }
    bool idle() const override { return fired_ || now() < when_; }
    Tick wakeTime() const override
    {
        return fired_ ? kTickMax : when_;
    }

    Tick when_;
    bool fired_ = false;
    Tick firedAt_ = 0;
};

/**
 * One fixture's worth of state: two multi-ratio domains (the shell's
 * 250 MHz kernel clock against a 322.27 MHz line clock), periodic
 * work on both and a one-shot alarm in the middle of a long gap.
 */
struct FfScenario {
    Engine engine;
    Clock *kernel;
    Clock *line;
    PeriodicCounter slow{"slow", 64};
    PeriodicCounter fast{"fast", 48};
    OneShotAlarm alarm{"alarm", 777'777};

    explicit FfScenario(bool fast_forward)
        : kernel(engine.addClock("kernel", 250.0)),
          line(engine.addClock("line", 322.27))
    {
        engine.setIdleFastForward(fast_forward);
        engine.add(&slow, kernel);
        engine.add(&fast, line);
        engine.add(&alarm, line);
    }
};

TEST(Engine, FastForwardMatchesTickByTick)
{
    FfScenario serial(false);
    FfScenario ff(true);

    // Cross several intermediate deadlines so clamping at arbitrary
    // (non-edge) stop times is exercised too, not just the end state.
    for (const Tick t :
         {100'000u, 777'000u, 800'001u, 2'000'000u, 5'000'003u}) {
        serial.engine.runUntil(t);
        ff.engine.runUntil(t);
        ASSERT_EQ(serial.engine.now(), ff.engine.now()) << t;
        ASSERT_EQ(serial.kernel->cycle(), ff.kernel->cycle()) << t;
        ASSERT_EQ(serial.line->cycle(), ff.line->cycle()) << t;
    }

    EXPECT_EQ(serial.slow.count_, ff.slow.count_);
    EXPECT_EQ(serial.slow.at_, ff.slow.at_);
    EXPECT_EQ(serial.fast.count_, ff.fast.count_);
    EXPECT_EQ(serial.fast.at_, ff.fast.at_);
    EXPECT_GT(ff.slow.count_, 10u);
}

TEST(Engine, MidGapWakeNeverSkipped)
{
    FfScenario serial(false);
    FfScenario ff(true);
    serial.engine.runUntil(5'000'000);
    ff.engine.runUntil(5'000'000);

    // The alarm sits mid-gap between the periodic counters' wakes; a
    // fast-forward that trusted only the active components would jump
    // straight over it.
    ASSERT_TRUE(serial.alarm.fired_);
    ASSERT_TRUE(ff.alarm.fired_);
    EXPECT_EQ(serial.alarm.firedAt_, ff.alarm.firedAt_);
    EXPECT_GE(ff.alarm.firedAt_, ff.alarm.when_);
    // ...and it fired at the *first* line-clock edge past the wake.
    EXPECT_LT(ff.alarm.firedAt_ - ff.alarm.when_,
              ff.line->cyclesToTicks(1));
}

TEST(Engine, RunUntilDoneOvershootMatchesSerial)
{
    const auto run = [](bool fast_forward) {
        Engine e;
        e.setIdleFastForward(fast_forward);
        Clock *clk = e.addClock("clk", 322.27);
        OneShotAlarm alarm("alarm", 9'999'999);  // beyond deadline
        e.add(&alarm, clk);
        // done() is time-dependent: the engine must stop on exactly
        // the first edge at or after the deadline, not at the far
        // wake point.
        EXPECT_FALSE(
            e.runUntilDone([&] { return false; }, 123'456));
        return e.now();
    };
    EXPECT_EQ(run(false), run(true));
}

TEST(Engine, ScheduledEventWakesIdleEngine)
{
    const auto run = [](bool fast_forward) {
        Engine e;
        e.setIdleFastForward(fast_forward);
        Clock *clk = e.addClock("clk", 250.0);
        OneShotAlarm sleeper("sleeper", kTickMax);  // idle forever
        e.add(&sleeper, clk);
        e.scheduleEvent(1'000'001);  // host-side deadline hint
        EXPECT_TRUE(e.runUntilDone(
            [&] { return e.now() > 1'000'000; }, 100'000'000));
        return e.now();
    };
    const Tick serial = run(false);
    EXPECT_EQ(serial, run(true));
    EXPECT_GT(serial, 1'000'000u);
    // First edge past the hint, not some later wake.
    EXPECT_LE(serial, 1'004'000u);
}

TEST(Engine, StepSkipsIdleWorkWhenFastForwarding)
{
    Engine e;
    e.setIdleFastForward(true);
    Clock *clk = e.addClock("clk", 250.0);
    PeriodicCounter counter("c", 4);
    int raw_ticks = 0;
    FunctionComponent probe("probe", [&] { ++raw_ticks; });
    e.add(&counter, clk);
    e.add(&probe, clk);

    // step() still commits one edge at a time (benches drive it), but
    // idle components are skipped on the edges where they report idle.
    for (int i = 0; i < 8; ++i)
        e.step();
    EXPECT_EQ(raw_ticks, 8);          // default components never skip
    EXPECT_EQ(counter.count_, 2u);    // cycles 4 and 8
    EXPECT_EQ(counter.at_.size(), 2u);
}

// --- Fast-forward under an armed fault plan. ---

/**
 * Claims to be idle yet counts every tick it gets: a count of zero
 * proves the engine skipped it, a count per edge that it did not.
 */
class IdleProbe : public Component {
  public:
    using Component::Component;

    void tick() override { ++ticks_; }
    bool idle() const override { return true; }

    int ticks_ = 0;
};

/** A fast-forwarding engine with one 4 ns domain holding a probe. */
struct ProbeRig {
    Engine engine;
    Clock *clk = engine.addClock("clk", 250.0);
    IdleProbe probe{"probe"};

    ProbeRig()
    {
        engine.setIdleFastForward(true);
        engine.add(&probe, clk);
    }
};

TEST(Engine, HostPlaneRulesKeepFastForward)
{
    ProbeRig rig;
    // Live for the whole test, but only CmdDriver queries these kinds,
    // between edges: no tick can match them.
    FaultPlan plan(7);
    plan.addWindow(FaultKind::DeviceDeath, 0, kTickMax, 1.0);
    plan.addOneShot(FaultKind::CmdDrop, 0, "cmd01");
    plan.arm();

    for (int i = 0; i < 8; ++i)
        rig.engine.step();
    rig.engine.runFor(40'000);
    EXPECT_EQ(rig.probe.ticks_, 0);
    EXPECT_EQ(rig.engine.now(), 72'000u);
    EXPECT_EQ(rig.clk->cycle(), 18u);
}

TEST(Engine, LiveTickRuleTicksEveryEdge)
{
    ProbeRig rig;
    // Not open yet, but a MAC tick will query it once it is.
    FaultPlan plan(7);
    plan.addWindow(FaultKind::LinkFlap, 1'000'000, 2'000'000, 1.0,
                   "mac");
    plan.arm();

    for (int i = 0; i < 8; ++i)
        rig.engine.step();
    EXPECT_EQ(rig.probe.ticks_, 8);
    rig.engine.runFor(40'000);
    EXPECT_EQ(rig.probe.ticks_, 18);
}

TEST(Engine, FastForwardResumesOnceTickRulesClose)
{
    ProbeRig rig;
    FaultPlan plan(7);
    plan.addWindow(FaultKind::StreamBitFlip, 0, 40'000, 0.5);
    plan.arm();

    // Each edge is decided before it lands, while now < until, so
    // every edge up to and including the one at `until` ticks; every
    // later one is skipped again.
    rig.engine.runUntil(40'000);
    EXPECT_EQ(rig.probe.ticks_, 10);
    rig.engine.step();
    rig.engine.runFor(400'000);
    EXPECT_EQ(rig.probe.ticks_, 10);
    EXPECT_EQ(rig.clk->cycle(), 111u);
}

// --- Cached clock edges: parity with a brute-force reference. ---

/** A domain as the brute-force reference sees it. */
struct RefDomain {
    std::string who;
    Tick period;
    Cycles interval;
};

/** Walk every picosecond in (@p from, @p to]; each domain, in creation
 *  order, logs on its edges whose cycle is a multiple of its interval. */
void
bruteForce(const std::vector<RefDomain> &domains, Tick from, Tick to,
           std::vector<TickRecord> &log)
{
    for (Tick t = from + 1; t <= to; ++t)
        for (const RefDomain &d : domains)
            if (t % d.period == 0 && (t / d.period) % d.interval == 0)
                log.push_back({d.who, t, t / d.period});
}

/** First instant after @p from at which any domain has an edge. */
Tick
bruteNextEdge(const std::vector<RefDomain> &domains, Tick from)
{
    for (Tick t = from + 1;; ++t)
        for (const RefDomain &d : domains)
            if (t % d.period == 0)
                return t;
}

TEST(Engine, MidRunClockAndOffEdgeStopMatchBruteForce)
{
    for (const bool fast_forward : {false, true}) {
        const char *label = fast_forward ? "ff" : "tick-by-tick";
        Engine e;
        e.setIdleFastForward(fast_forward);
        std::vector<TickRecord> log;
        Clock *a = e.addClock("a", 250.0);
        PeriodicCounter la("a", 1, &log);
        e.add(&la, a);
        e.runFor(10'000);

        // Added with now > 0: its count stays 0 until the next
        // committed edge lands it.
        Clock *b = e.addClock("b", 322.27);
        PeriodicCounter lb("b", 3, &log);
        e.add(&lb, b);
        EXPECT_EQ(b->cycle(), 0u) << label;

        std::vector<RefDomain> ref{{"a", a->period(), 1}};
        std::vector<TickRecord> want;
        bruteForce(ref, 0, 10'000, want);
        ref.push_back({"b", b->period(), 3});

        // Stop between edges, just short of one of b's logging edges
        // (cycle 18), then commit exactly one more edge.
        const Tick stop = 18 * b->period() - 1;
        e.runUntil(stop);
        bruteForce(ref, 10'000, stop, want);
        ASSERT_EQ(e.now(), stop) << label;
        EXPECT_EQ(a->cycle(), stop / a->period()) << label;
        EXPECT_EQ(b->cycle(), stop / b->period()) << label;

        e.step();
        const Tick edge = bruteNextEdge(ref, stop);
        bruteForce(ref, stop, edge, want);
        ASSERT_EQ(e.now(), edge) << label;
        EXPECT_EQ(a->cycle(), edge / a->period()) << label;
        EXPECT_EQ(b->cycle(), edge / b->period()) << label;

        EXPECT_EQ(log, want) << label;
        EXPECT_EQ(want.back().at, edge);
        EXPECT_GT(want.size(), 15u);
    }
}

// --- Dormant concurrency groups under fast-forward. ---

/**
 * Idle until a host-set wake (or an external poke), then does one unit
 * of work per wake. Counts how often the engine asks whether it is
 * idle, so a test can tell a dormant group from a scanned one.
 */
class Sleeper : public Component {
  public:
    using Component::Component;

    void tick() override
    {
        if (pending_ || now() >= wake_) {
            pending_ = false;
            wake_ = kTickMax;
            worked_.push_back(now());
        }
    }
    bool idle() const override
    {
        ++idleCalls_;
        return !pending_ && now() < wake_;
    }
    Tick wakeTime() const override { return wake_; }

    /** Host input that bypasses noteMutation(). */
    void poke() { pending_ = true; }

    /** Host input through the noteMutation() hook. */
    void submit()
    {
        noteMutation();
        pending_ = true;
    }

    Tick wake_ = kTickMax;
    std::vector<Tick> worked_;
    mutable std::uint64_t idleCalls_ = 0;

  private:
    bool pending_ = false;
};

/** Two unfused domains: a busy group and a sleeping one. */
struct TwoGroups {
    Engine engine;
    Clock *busyClk = engine.addClock("busy", 250.0);
    Clock *sleepClk = engine.addClock("sleep", 322.27);
    int busyTicks = 0;
    FunctionComponent busy{"busy", [this] { ++busyTicks; }};
    Sleeper sleeper{"sleeper"};

    explicit TwoGroups(bool fast_forward = true)
    {
        engine.setIdleFastForward(fast_forward);
        engine.add(&busy, busyClk);
        engine.add(&sleeper, sleepClk);
    }
};

TEST(Engine, DormantGroupIsNotAskedUntilItsWake)
{
    TwoGroups g;
    g.engine.setOwnershipAudit(false);  // the verifier asks every edge
    g.sleeper.wake_ = 700'001;
    g.engine.runUntil(2'000'000);

    // It worked exactly once, on the first edge of its own clock at or
    // after its wake...
    ASSERT_EQ(g.sleeper.worked_.size(), 1u);
    EXPECT_EQ(g.sleeper.worked_[0], g.sleepClk->nextEdge(700'000));
    // ...while the busy group ticked on every one of its 500 edges,
    // and the sleeper was asked only when its group was scanned: at
    // entry, at its wake edge (tick time and the rescan after it).
    EXPECT_EQ(g.busyTicks, 500);
    EXPECT_LE(g.sleeper.idleCalls_, 4u);
}

TEST(Engine, HostInputBetweenCallsWakesDormantGroup)
{
    TwoGroups g;
    g.engine.runUntil(1'000'000);
    EXPECT_TRUE(g.sleeper.worked_.empty());

    // poke() calls no hook: only the next call's rescan can see it.
    g.sleeper.poke();
    g.engine.runUntil(2'000'000);
    ASSERT_EQ(g.sleeper.worked_.size(), 1u);
    EXPECT_EQ(g.sleeper.worked_[0], g.sleepClk->nextEdge(1'000'000));
}

TEST(Engine, PredicateInputWakesDormantGroupMidCall)
{
    // A runUntilDone predicate is host code inside the call: input it
    // feeds through noteMutation() lands on the sleeper's next edge,
    // as tick by tick, though the sleeper's group is dormant.
    for (const bool fast_forward : {false, true}) {
        const char *label = fast_forward ? "ff" : "tick-by-tick";
        TwoGroups g(fast_forward);
        Tick fed = 0;
        EXPECT_TRUE(g.engine.runUntilDone(
            [&g, &fed] {
                if (fed == 0 && g.engine.now() >= 400'000) {
                    fed = g.engine.now();
                    g.sleeper.submit();
                }
                return !g.sleeper.worked_.empty();
            },
            2'000'000))
            << label;
        ASSERT_EQ(g.sleeper.worked_.size(), 1u) << label;
        EXPECT_EQ(g.sleeper.worked_[0], g.sleepClk->nextEdge(fed))
            << label;
    }
}

TEST(Engine, DormantClocksAreExactWhenCallsReturn)
{
    TwoGroups g;
    const auto exact = [&g](const char *after) {
        EXPECT_EQ(g.sleepClk->cycle(),
                  g.engine.now() / g.sleepClk->period())
            << after;
        EXPECT_EQ(g.sleeper.cycle(), g.sleepClk->cycle()) << after;
    };
    g.engine.runUntil(1'234'567);
    exact("runUntil");
    g.engine.step();
    exact("step");
    EXPECT_TRUE(g.engine.runUntilDone(
        [&g] { return g.busyTicks >= 700; }, 10'000'000));
    exact("runUntilDone");
    EXPECT_FALSE(g.engine.runUntilDone([] { return false; }, 555'555));
    exact("runUntilDone deadline");
}

TEST(Engine, TickRuleClosingMidCallResumesDormancy)
{
    const auto run = [](bool fast_forward) {
        TwoGroups g(fast_forward);
        IdleProbe probe("probe");
        g.engine.add(&probe, g.sleepClk);
        g.sleeper.wake_ = 3'000'001;
        // No hook matches this target, but while it is live every
        // component ticks on every edge.
        FaultPlan plan(3);
        plan.addWindow(FaultKind::StreamBitFlip, 0, 1'000'000, 1.0,
                       "nowhere");
        plan.arm();
        g.engine.runUntil(5'000'000);
        // Every edge is decided before it lands, so the last one that
        // ticks everything is the first edge at or after the window.
        const Tick last = std::min(g.busyClk->nextEdge(999'999),
                                   g.sleepClk->nextEdge(999'999));
        if (fast_forward) {
            EXPECT_EQ(probe.ticks_,
                      static_cast<int>(last / g.sleepClk->period()));
        }
        return g.sleeper.worked_;
    };
    const std::vector<Tick> worked = run(true);
    EXPECT_EQ(worked, run(false));
    // After the window closed the probe's group went dormant again and
    // still woke on the sleeper's wake.
    ASSERT_EQ(worked.size(), 1u);
}

TEST(Engine, ClockAddedMidCallJoinsTheSchedule)
{
    for (const bool fast_forward : {false, true}) {
        const char *label = fast_forward ? "ff" : "tick-by-tick";
        TwoGroups g(fast_forward);
        Clock *late = nullptr;
        std::vector<TickRecord> log;
        PeriodicCounter counter("late", 5, &log);
        // The predicate registers a new domain halfway through the
        // call; it must tick on its own edges from then on.
        g.engine.runUntilDone(
            [&] {
                if (late == nullptr && g.engine.now() >= 400'000) {
                    late = g.engine.addClock("late", 100.0);
                    g.engine.add(&counter, late);
                }
                return false;
            },
            2'000'000);
        ASSERT_NE(late, nullptr) << label;
        std::vector<TickRecord> want;
        for (Tick t = 400'001; t <= g.engine.now(); ++t)
            if (t % late->period() == 0 &&
                (t / late->period()) % 5 == 0)
                want.push_back({"late", t, t / late->period()});
        EXPECT_EQ(log, want) << label;
        EXPECT_GT(want.size(), 5u) << label;
    }
}

TEST(Engine, DormancyVerifierNamesACrossGroupInput)
{
    TwoGroups g;
    g.engine.setOwnershipAudit(true);
    // A tick of the busy group hands input to the sleeping group: the
    // group contract dormancy rests on, broken.
    FunctionComponent meddler("meddler", [&g] {
        if (g.engine.now() == 400'000)
            g.sleeper.poke();
    });
    g.engine.add(&meddler, g.busyClk);
    try {
        g.engine.runUntil(1'000'000);
        FAIL() << "the verifier did not fire";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("'sleeper'"),
                  std::string::npos)
            << e.what();
        EXPECT_NE(std::string(e.what()).find("'sleep'"),
                  std::string::npos)
            << e.what();
    }
}

} // namespace
} // namespace harmonia
