/**
 * @file
 * The fast-forward oracle: idle fast-forward, audited and unaudited,
 * must be bit-identical to the tick-by-tick reference schedule on
 * racks the test did not hand-pick. Each seed builds 1-8 cards of
 * devices A-D (unified shells plus one tailored shell, each with a
 * recovery manager and a one-slot PR controller), drives a seeded mix
 * of commands, packets and DMA under a seeded fault schedule over
 * every FaultKind, and renders everything observable to lines: the
 * full RunImage, every command response, each card's sensor block,
 * latched alarms and the tick of every alarm irq. Aimed sensor reads
 * also check the serial order itself (aimedSensorRead), which two
 * schedules of one build could get wrong together.
 *
 * On even seeds the tailored card's port feeds a sink MAC on a clock of
 * its own through connectPeer instead of looping back, and every
 * arrival is logged with the edge it landed on: the one cross-clock
 * link between domains that are not a shell's own.
 *
 * The health monitor is where laziness could leak, so the mix leans
 * on it: SensorRead and ObsDelta reads of the health gauges (some of
 * another card's), some of them timed so the control kernel executes
 * them exactly on a sensor conversion edge (where it must still see
 * its own card's previous conversion);
 * a ThermalExcursion window that latches an over-temperature alarm
 * while fast-forward is suspended, and a lowered alarm limit that
 * latches one on the ripple while it is running, so RecoveryManager
 * degrades and restores in both regimes. Between run calls the host
 * also writes cards' registers and moves their ambient temperature
 * and utilization, input that reaches a dormant group only through
 * its noteMutation() hook. The engines run with the dormancy audit
 * on, except one fast-forward mode that runs unaudited, as
 * production does.
 *
 * A failing seed prints its seed, the mode and the first differing
 * line.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/strings.h"
#include "fault/fault_plan.h"
#include "fault/recovery.h"
#include "host/cmd_driver.h"
#include "host/dma_engine.h"
#include "roles/role.h"
#include "run_image.h"
#include "shell/partial_reconfig.h"
#include "shell/tailoring.h"
#include "shell/unified_shell.h"
#include "sim/engine.h"
#include "sim/trace.h"
#include "telemetry/telemetry_target.h"

namespace harmonia {
namespace {

constexpr std::uint64_t kSeeds = 64;

/** Scenario steps; host work, then a stretch of engine time each. */
constexpr std::size_t kSteps = 18;
/** Every tick-queried fault window closes before this time, so the
 *  later steps run on the fast-forward path. */
constexpr Tick kTickRulesEnd = 12'000'000;
/** Host-plane windows (never suspend fast-forward) end by here. */
constexpr Tick kHostRulesEnd = 30'000'000;
/** The plan is disarmed from this step on. */
constexpr std::size_t kDisarmStep = 13;
/** Command deadline per attempt: short, so a dead card stays cheap. */
constexpr Tick kCallTimeout = 3'000'000;
/** Kernel cycles per temperature-ripple step (HealthMonitor). */
constexpr Cycles kRippleStep = 64;

constexpr const char *kDevices[] = {"DeviceA", "DeviceB", "DeviceC",
                                    "DeviceD"};

/** splitmix64: one self-contained stream per seed. */
class SeedRng {
  public:
    explicit SeedRng(std::uint64_t seed) : s_(seed * 0x9e3779b97f4a7c15ULL)
    {
    }

    std::uint64_t next()
    {
        s_ += 0x9e3779b97f4a7c15ULL;
        std::uint64_t z = s_;
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
        return z ^ (z >> 31);
    }

    std::uint64_t below(std::uint64_t n) { return next() % n; }

    /** Uniform in [lo, hi). */
    Tick range(Tick lo, Tick hi) { return lo + below(hi - lo); }

  private:
    std::uint64_t s_;
};

/** A tenant that does nothing: it gives the PR fault kinds a slot to
 *  fail a load in and to corrupt. */
class QuietRole : public Role {
  public:
    QuietRole() : Role("oracle_role", RoleArch::LookAside, reqs()) {}

    static RoleRequirements reqs()
    {
        RoleRequirements r;
        r.name = "oracle_role";
        r.needsHost = false;
        r.roleLogic = {300, 400, 0, 0, 0};
        return r;
    }

    void tick() override {}
    bool idle() const override { return true; }
};

/** Logs each packet a sink MAC delivers, on the edge it delivers it:
 *  registered after the sink on the sink's clock. */
class SinkLog : public Component {
  public:
    explicit SinkLog(MacIp &sink) : Component("oracle_sink_log"), sink_(sink)
    {
    }

    const std::vector<std::string> &lines() const { return lines_; }

    void tick() override
    {
        while (sink_.rxAvailable()) {
            const PacketDesc pkt = sink_.rxPop();
            lines_.push_back(format(
                "sink t=%llu flow=%llx bytes=%u",
                static_cast<unsigned long long>(now()),
                static_cast<unsigned long long>(pkt.flowHash),
                pkt.bytes));
        }
    }
    bool idle() const override { return !sink_.rxAvailable(); }

  private:
    MacIp &sink_;
    std::vector<std::string> lines_;
};

/** One card of the rack and the host-side objects that drive it. */
struct Card {
    std::unique_ptr<Shell> shell;
    std::unique_ptr<RecoveryManager> recovery;
    std::unique_ptr<PrController> pr;
    std::unique_ptr<CmdDriver> driver;
    std::unique_ptr<HostDma> dma;
    QuietRole role;
    std::uint32_t subId = 0;
    std::uint64_t nextDmaId = 1;
};

/** Engine execution mode under test. */
struct Mode {
    const char *name;
    bool fastForward;
    bool audit;  ///< the dormancy verifier
};

/**
 * The verifier asks every dormant component on every fast-forward
 * edge and every untouched one at every call's entry, so only an
 * unaudited mode asks no more than production does.
 */
constexpr Mode kReference{"tick-by-tick", false, true};
constexpr Mode kModes[] = {{"ff", true, true},
                           {"ff-unaudited", true, false}};

std::string
words(const std::vector<std::uint32_t> &data)
{
    std::string out;
    for (std::uint32_t w : data)
        out += format(" %x", w);
    return out;
}

/** The rack, its traffic and its fault schedule for one seed. */
class OracleRun {
  public:
    OracleRun(std::uint64_t seed, const Mode &mode)
        : rng_(seed), plan_(seed + 1), sinkShape_(seed % 2 == 0)
    {
        engine_.setIdleFastForward(mode.fastForward);
        engine_.setDormancyAudit(mode.audit);
        build();
        schedule();
    }

    std::vector<std::string> run()
    {
        const bool traced = rng_.below(8) == 0;
        Trace::instance().clear();
        Trace::instance().setEnabled(traced);
        plan_.arm();
        for (std::size_t i = 0; i < cards_.size(); ++i)
            subscribe(i);
        for (std::size_t step = 0; step < kSteps; ++step) {
            if (step == kDisarmStep)
                plan_.disarm();
            hostStep(step);
        }
        plan_.disarm();
        engine_.runFor(rng_.range(2'000'000, 6'000'000));
        drain();
        for (std::size_t i = 0; i < cards_.size(); ++i)
            logSensors(i);

        RunImage img;
        img.endNow = engine_.now();
        img.wireBytes = wireBytes_;
        img.wirePackets = wirePackets_;
        img.faultFingerprint = plan_.fingerprint();
        img.faultInjected = plan_.injectedTotal();
        img.metrics = renderMetrics(MetricsRegistry::instance(), "ff");
        img.spans = renderSpans();
        Trace::instance().setEnabled(false);
        Trace::instance().clear();

        std::vector<std::string> lines = imageLines(img);
        lines.insert(lines.end(), log_.begin(), log_.end());
        if (sinkLog_ != nullptr)
            lines.insert(lines.end(), sinkLog_->lines().begin(),
                         sinkLog_->lines().end());
        return lines;
    }

  private:
    void build()
    {
        const std::size_t unified = rng_.below(8);  // plus one tailored
        cards_ = std::vector<Card>(unified + 1);
        for (std::size_t i = 0; i < cards_.size(); ++i) {
            Card &c = cards_[i];
            const FpgaDevice &dev = DeviceDatabase::instance().byName(
                kDevices[rng_.below(4)]);
            const std::string name = format("ff%zu_%s", i,
                                            dev.name.c_str());
            if (i < unified) {
                c.shell = std::make_unique<Shell>(
                    engine_, dev, unifiedConfigFor(dev), name);
            } else {
                RoleRequirements reqs;
                reqs.name = "oracle_tailored";
                reqs.needsNetwork = true;
                reqs.networkGbps = 100;
                reqs.hostQueues = 16;
                c.shell = std::make_unique<Shell>(
                    engine_, dev, tailorConfigFor(dev, reqs), name);
            }
            c.shell->registerTelemetry();
            if (sinkShape_ && i == unified)
                connectSink(c.shell->network(0).mac());
            else
                c.shell->network(0).setLoopback(true);
            c.recovery =
                std::make_unique<RecoveryManager>(engine_, *c.shell);
            c.recovery->registerTelemetry(MetricsRegistry::instance(),
                                          name + "/recovery");
            c.pr = std::make_unique<PrController>(
                name + ".pr", engine_, *c.shell,
                std::vector<ResourceVector>{{400, 600, 1, 0, 1}});
            c.driver = std::make_unique<CmdDriver>(engine_, *c.shell);
            c.driver->setRetryPolicy({2, 500'000, 2.0, 1'000'000});
            c.driver->registerTelemetry(MetricsRegistry::instance(),
                                        name + "/driver");
            c.dma = std::make_unique<HostDma>(c.shell->host());
            DmaRecoveryPolicy dma_policy;
            dma_policy.timeout = 8'000'000;
            c.dma->setRecoveryPolicy(dma_policy);
            c.dma->registerTelemetry(MetricsRegistry::instance(),
                                     name + "/dma");
            for (std::uint16_t q = 1; q <= 4; ++q)
                c.shell->host().setQueueActive(q, true);
            c.shell->health().alarmLine().subscribe([this, i] {
                log_.push_back(format(
                    "c%zu alarm irq t=%llu", i,
                    static_cast<unsigned long long>(engine_.now())));
            });
            c.pr->load(0, c.role);
        }
        plan_.registerTelemetry(MetricsRegistry::instance(), "ff_fault");
    }

    /** The sink shape: @p mac transmits to a sink MAC on a clock of
     *  its own (registered first, so connectPeer fuses the clocks). */
    void connectSink(MacIp &mac)
    {
        sink_ = std::make_unique<XilinxCmac>(100, "oracle_sink");
        sinkLog_ = std::make_unique<SinkLog>(*sink_);
        Clock *clk = engine_.addClock("oracle_sink_clk", 250.0);
        engine_.add(sink_.get(), clk);
        engine_.add(sinkLog_.get(), clk);
        mac.connectPeer(sink_.get());
    }

    /** One rule of every FaultKind, windows seeded. */
    void schedule()
    {
        const std::size_t n = cards_.size();
        for (std::size_t k = 0;
             k < static_cast<std::size_t>(FaultKind::kCount); ++k) {
            const auto kind = static_cast<FaultKind>(k);
            const Card &victim = cards_[rng_.below(n)];
            const std::string &shell = victim.shell->name();
            const Tick from = rng_.range(0, kTickRulesEnd / 2);
            switch (kind) {
              case FaultKind::ThermalExcursion:
                // Ends well inside the armed phase, so the recovery
                // manager degrades and restores before the plan goes.
                plan_.addWindow(kind, from, from + 2'000'000, 1.0,
                                victim.shell->health().name(), 60'000);
                break;
              case FaultKind::LinkFlap:
              case FaultKind::DmaStall:
                // Level kinds; MAC and DMA names are per shell kind,
                // not per card, so the window hits every card.
                plan_.addWindow(kind, from,
                                from + rng_.range(200'000, 1'500'000),
                                1.0);
                break;
              case FaultKind::PrSlotCorrupt:
                plan_.addWindow(kind, from, kTickRulesEnd, 1.0,
                                victim.pr->name());
                break;
              case FaultKind::DeviceDeath:
              case FaultKind::KernelWedge:
                plan_.addWindow(kind, rng_.range(0, kHostRulesEnd),
                                kHostRulesEnd,
                                rng_.below(2) ? 1.0 : 0.3, shell);
                break;
              default:
                if (isHostPlane(kind)) {
                    const Tick at = rng_.range(0, kHostRulesEnd);
                    plan_.addWindow(kind, at, kHostRulesEnd, 0.15);
                } else {
                    plan_.addWindow(kind, from, kTickRulesEnd,
                                    0.05 + 0.05 * rng_.below(6));
                }
                break;
            }
        }
    }

    /** Advance to one tick before the next kernel edge that is a
     *  ripple step (so also a conversion) with the soft core idle:
     *  a command submitted now executes exactly on that edge. */
    void aimAtConversion(Card &c)
    {
        const Tick period = c.shell->kernelClock()->period();
        const Cycles now_cycle = engine_.now() / period;
        const Cycles edge =
            ((now_cycle + UnifiedControlKernel::kCyclesPerCommand +
              8) / kRippleStep + 1) * kRippleStep;
        engine_.runUntil(edge * period - 1);
    }

    CallOutcome call(std::size_t i, std::uint8_t rbb, std::uint16_t code,
                     const std::vector<std::uint32_t> &data)
    {
        const CallOutcome out = cards_[i].driver->callChecked(
            rbb, 0, code, data, kCallTimeout);
        log_.push_back(format(
            "c%zu t=%llu code=%04x %s attempts=%u status=%04x data:%s",
            i, static_cast<unsigned long long>(engine_.now()), code,
            toString(out.status), out.attempts,
            out.response.status, words(out.response.data).c_str()));
        return out;
    }

    /**
     * The kernel ticks before the monitor, so a SensorRead it executes
     * on a conversion edge must return the previous conversion: the
     * one a host read just before that edge sees. A first-attempt Ok
     * answer was executed on exactly the aimed edge.
     */
    void aimedSensorRead(std::size_t i)
    {
        Card &c = cards_[i];
        aimAtConversion(c);
        const std::uint32_t before = c.shell->health().temperatureMilliC();
        const CallOutcome out =
            call(i, kRbbHealth, kCmdSensorRead, {});
        if (out.ok() && out.attempts == 1 &&
            out.response.status == kCmdOk &&
            out.response.data[kSensorTempMilliC] != before)
            log_.push_back(format(
                "VIOLATION c%zu: SensorRead on a conversion edge saw "
                "temp %u, not the previous conversion's %u",
                i, out.response.data[kSensorTempMilliC], before));
    }

    /** Some cards subscribe to the previous card's health gauges: a
     *  kernel then reads another card's monitor, which must show what
     *  the serial order shows a reader behind that card's domains. */
    void subscribe(std::size_t i)
    {
        Card &c = cards_[i];
        const std::size_t target = i > 0 && rng_.below(2) ? i - 1 : i;
        std::vector<std::uint32_t> req{0};
        TelemetryTarget::packNameTo(
            req, cards_[target].shell->name() + "/health/");
        const CallOutcome out = c.driver->callChecked(
            kRbbTelemetry, 0, kCmdObsSubscribe, req, kCallTimeout);
        if (out.ok() && !out.response.data.empty())
            c.subId = out.response.data[0];
    }

    void logSensors(std::size_t i)
    {
        const HealthMonitor &h = cards_[i].shell->health();
        log_.push_back(format(
            "c%zu sensors t=%llu temp=%u vccint=%u vccaux=%u power=%u "
            "alarms=%x degraded=%d pr=%s",
            i, static_cast<unsigned long long>(engine_.now()),
            h.temperatureMilliC(), h.vccIntMilliV(), h.vccAuxMilliV(),
            h.powerMilliW(), h.alarms(),
            cards_[i].recovery->degraded() ? 1 : 0,
            toString(cards_[i].pr->slotState(0))));
    }

    void act(std::size_t i)
    {
        Card &c = cards_[i];
        switch (rng_.below(9)) {
          case 0:
            aimedSensorRead(i);
            break;
          case 1:
            call(i, kRbbHealth, kCmdSensorRead,
                 {static_cast<std::uint32_t>(rng_.below(5))});
            break;
          case 2:
            aimAtConversion(c);
            call(i, kRbbTelemetry, kCmdObsDelta, {c.subId});
            break;
          case 3:
            call(i, kRbbTelemetry, kCmdObsDelta, {c.subId});
            break;
          case 4:
            call(i, kRbbNetwork, kCmdStatsSnapshot, {});
            break;
          case 5:
            call(i, kRbbSystem, kCmdTimeCount, {});
            break;
          case 6:
            if (c.shell->network(0).txReady()) {
                PacketDesc pkt;
                pkt.bytes = 64 + 64 * rng_.below(8);
                pkt.flowHash = rng_.next();
                c.shell->network(0).txPush(pkt);
            }
            break;
          case 7:
            c.dma->submit(rng_.below(2) ? DmaDir::H2C : DmaDir::C2H,
                          static_cast<std::uint16_t>(1 + rng_.below(4)),
                          256 * (1 + rng_.below(8)), c.nextDmaId++);
            break;
          default:
            logSensors(i);
            break;
        }
    }

    /**
     * Host input that is neither a command nor a push: a register
     * write over the card's reg interconnect (a DMA queue turned on or
     * off through QUEUE_SEL/QUEUE_CTRL) or a health setter (ambient or
     * utilization, which move the next alarm latch). It lands between
     * run calls, ahead of the step's other actions, on a card whose
     * group the last call usually left dormant; only its
     * noteMutation() lets the next call ask that group again.
     */
    void configure(std::size_t i)
    {
        Card &c = cards_[i];
        HealthMonitor &h = c.shell->health();
        const std::uint64_t what = rng_.below(3);
        const std::uint64_t value = rng_.below(16);
        if (what == 0) {
            RegInterconnect &regs = c.shell->regs();
            const std::string &host = c.shell->host().name();
            regs.write(regs.addrOf(host, "QUEUE_SEL"),
                       static_cast<std::uint32_t>(1 + value % 4));
            regs.write(regs.addrOf(host, "QUEUE_CTRL"), value < 12);
        } else if (what == 1) {
            h.setAmbientMilliC(
                35'000 + 1'500 * static_cast<std::uint32_t>(value));
        } else {
            h.setUtilization(0.05 * static_cast<double>(value));
        }
        log_.push_back(format(
            "c%zu configure t=%llu what=%llu value=%llu", i,
            static_cast<unsigned long long>(engine_.now()),
            static_cast<unsigned long long>(what),
            static_cast<unsigned long long>(value)));
    }

    void hostStep(std::size_t step)
    {
        // A seeded card's alarm limit drops below the ripple's peak
        // once fast-forward runs again, and comes back later: the
        // latch lands on whichever conversion crosses first. The
        // setter is that step's only host input, so only its
        // noteMutation() lets the run call notice it.
        if (step == kSteps / 2) {
            warm_ = rng_.below(cards_.size());
            HealthMonitor &h = cards_[warm_].shell->health();
            h.setTempLimitMilliC(h.temperatureMilliC() + 1'000 -
                                 125 * static_cast<std::uint32_t>(
                                           rng_.below(12)));
        } else if (step == kSteps / 2 + 3) {
            cards_[warm_].shell->health().setTempLimitMilliC(
                HealthMonitor::kDefaultTempLimitMilliC);
        } else {
            if (rng_.below(3) == 0)
                configure(rng_.below(cards_.size()));
            const std::size_t actions = 1 + rng_.below(3);
            for (std::size_t a = 0; a < actions; ++a)
                act(rng_.below(cards_.size()));
            if (sink_ != nullptr)
                feedSink();
        }
        engine_.runFor(rng_.range(300'000, 2'500'000));
        drain();
    }

    /** A short burst out of the port that feeds the sink. */
    void feedSink()
    {
        NetworkRbb &port = cards_.back().shell->network(0);
        for (std::uint64_t n = 1 + rng_.below(6); n > 0 && port.txReady();
             --n) {
            PacketDesc pkt;
            pkt.bytes = 64 + 64 * rng_.below(8);
            pkt.flowHash = rng_.next();
            port.txPush(pkt);
        }
    }

    void drain()
    {
        for (Card &c : cards_) {
            c.dma->poll();
            for (std::uint16_t q = 1; q <= 4; ++q)
                while (c.dma->hasCompletion(q))
                    c.dma->popCompletion(q);
            while (c.shell->network(0).rxAvailable()) {
                wireBytes_ += c.shell->network(0).rxPop().bytes;
                ++wirePackets_;
            }
        }
    }

    SeedRng rng_;
    FaultPlan plan_;
    Engine engine_;
    std::vector<Card> cards_;
    std::vector<std::string> log_;
    const bool sinkShape_;
    std::unique_ptr<XilinxCmac> sink_;
    std::unique_ptr<SinkLog> sinkLog_;
    std::uint64_t wireBytes_ = 0;
    std::uint64_t wirePackets_ = 0;
    std::size_t warm_ = 0;
};

std::vector<std::string>
runSeed(std::uint64_t seed, const Mode &mode)
{
    return OracleRun(seed, mode).run();
}

TEST(FastForwardOracle, SeededRacksMatchTickByTick)
{
    unsigned failures = 0;
    for (std::uint64_t seed = 1; seed <= kSeeds && failures < 3;
         ++seed) {
        const std::vector<std::string> golden =
            runSeed(seed, kReference);
        for (const std::string &line : golden)
            if (line.rfind("VIOLATION", 0) == 0) {
                ADD_FAILURE() << "seed " << seed << " "
                              << kReference.name << ": " << line;
                ++failures;
            }
        for (const Mode &mode : kModes) {
            const std::string diff =
                firstDifference(golden, runSeed(seed, mode));
            if (!diff.empty()) {
                ADD_FAILURE() << "seed " << seed << " " << mode.name
                              << " diverges from tick-by-tick at "
                              << diff;
                ++failures;
            }
        }
    }
}

/** Runs a callback on the edge at a host-set time; idle elsewhere. */
class AtAim : public Component {
  public:
    AtAim(std::string name, const Tick &aim, std::function<void()> fn)
        : Component(std::move(name)), aim_(aim), fn_(std::move(fn))
    {
    }

    void tick() override
    {
        if (now() == aim_)
            fn_();
    }
    bool idle() const override { return now() != aim_; }
    Tick wakeTime() const override
    {
        return aim_ > now() ? aim_ : kTickMax;
    }

  private:
    const Tick &aim_;
    std::function<void()> fn_;
};

/**
 * A read from another card's tick sees what the serial order shows
 * it. Two cards on equal kernel clocks: on the edge where one card's
 * kernel executes an aimed SensorRead, a probe on the other card
 * snapshots a registry holding the first card's health gauges. The
 * kernel must still see its previous conversion, and the probe the
 * previous one when its card comes first in creation order (ahead of
 * the monitor's domain) and the new one when it comes second.
 */
TEST(FastForwardOracle, CrossCardRegistryReadOnAnAimedSensorEdge)
{
    const FpgaDevice &dev = DeviceDatabase::instance().byName("DeviceA");
    for (const bool probe_first : {false, true}) {
        const char *label = probe_first ? "probe first" : "probe second";
        Engine engine;
        engine.setIdleFastForward(true);
        MetricsRegistry reg;  // outlives the card's gauges
        std::unique_ptr<Shell> prober;
        if (probe_first)
            prober = std::make_unique<Shell>(
                engine, dev, unifiedConfigFor(dev), "prober");
        Shell card(engine, dev, unifiedConfigFor(dev), "card");
        if (!probe_first)
            prober = std::make_unique<Shell>(
                engine, dev, unifiedConfigFor(dev), "prober");
        card.health().registerTelemetry(reg, "card/health");

        Tick aim = 0;
        std::vector<std::uint32_t> seen;
        AtAim probe("probe", aim, [&] {
            for (const MetricSample &m : reg.snapshot())
                if (m.name == "card/health/temp_milli_c")
                    seen.push_back(static_cast<std::uint32_t>(m.value));
        });
        engine.add(&probe, prober->kernelClock());

        CmdDriver bmc(engine, card, kCtrlBmc);
        const Tick period = card.kernelClock()->period();
        ASSERT_EQ(prober->kernelClock()->period(), period);
        for (Cycles i = 0; i < 15; ++i) {
            // A rising ripple step (the temperature moves there) with
            // the soft core idle.
            const Cycles edge = 4096 * (i + 1) + kRippleStep * (i + 1);
            aim = edge * period;
            engine.runUntil(aim - 1);
            const std::uint32_t before = card.health().temperatureMilliC();
            const CommandPacket resp = bmc.call(
                kRbbHealth, 0, kCmdSensorRead, {kSensorTempMilliC});
            ASSERT_EQ(resp.status, kCmdOk) << label;
            ASSERT_EQ(engine.now(), aim) << label;
            EXPECT_EQ(resp.data[0], before) << label << " edge " << edge;
            ASSERT_EQ(seen.size(), i + 1) << label;
            EXPECT_EQ(seen.back(), probe_first ? before : before + 125)
                << label << " edge " << edge;
        }
    }
}

} // namespace
} // namespace harmonia
