/**
 * @file
 * The determinism golden harness: the headline guarantee of the
 * parallel engine is that a parallel run (any thread count, idle
 * fast-forward on) is bit-identical to the serial tick-by-tick run.
 * "Bit-identical" is checked the strong way — full telemetry
 * snapshots, trace span trees, fault-plan fingerprints and the wire
 * bytes a scenario moved, not a handful of summary counters.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "common/strings.h"
#include "fault/fault_plan.h"
#include "host/cmd_driver.h"
#include "host/dma_engine.h"
#include "run_image.h"
#include "shell/cdc.h"
#include "shell/unified_shell.h"
#include "sim/trace.h"
#include "workload/packet_gen.h"

namespace harmonia {
namespace {

const FpgaDevice &
deviceA()
{
    return DeviceDatabase::instance().byName("DeviceA");
}

/** Engine execution mode under test. */
struct Mode {
    unsigned threads = 1;
    bool parallel = false;
    bool fastForward = false;
};

void
apply(Engine &engine, const Mode &m)
{
    engine.setThreads(m.threads);
    engine.setParallel(m.parallel);
    engine.setIdleFastForward(m.fastForward);
}

/** Fault schedule armed over an end-to-end run. */
enum class Chaos {
    None,
    /// Stream, command and DMA faults over the first 200M ticks.
    Mixed,
    /// Only host-plane kinds (isHostPlane): fast-forward stays on.
    HostPlane,
    /// Stream bit flips over the first 50M ticks only, so
    /// fast-forward resumes partway through the run.
    EarlyStreamFlips,
};

/**
 * Fig-10-style end-to-end scenario on a unified shell: loopback
 * network traffic, DMA on four tenant queues, periodic control
 * commands, then a long settle window (where idle fast-forward earns
 * its keep). Optionally under a chaos schedule and with tracing on.
 */
RunImage
runEndToEnd(const Mode &mode, bool with_trace, Chaos chaos)
{
    Trace::instance().clear();
    Trace::instance().setEnabled(with_trace);

    RunImage img;
    {
        // Declared before the shell: its ScopedMetrics unregister on
        // destruction, so the registry must outlive it.
        MetricsRegistry reg;
        Engine engine;
        apply(engine, mode);
        auto shell = Shell::makeUnified(engine, deviceA());
        shell->network(0).setLoopback(true);

        shell->registerTelemetry(reg);

        CmdDriver driver(engine, *shell);
        HostDma dma(shell->host());
        DmaRecoveryPolicy dma_policy;
        dma_policy.timeout = 20'000'000;
        dma.setRecoveryPolicy(dma_policy);
        for (std::uint16_t q = 1; q <= 4; ++q)
            shell->host().setQueueActive(q, true);
        dma.registerTelemetry(reg, "host_dma");

        FaultPlan plan(20260806);
        switch (chaos) {
          case Chaos::None:
            break;
          case Chaos::Mixed:
            plan.addWindow(FaultKind::StreamBitFlip, 0, 200'000'000,
                           0.1);
            plan.addWindow(FaultKind::CmdDrop, 0, 200'000'000, 0.1,
                           "cmd01");
            plan.addWindow(FaultKind::DmaCompletionLoss, 0,
                           200'000'000, 0.05);
            break;
          case Chaos::HostPlane:
            plan.addWindow(FaultKind::CmdDrop, 0, 200'000'000, 0.3,
                           "cmd01");
            plan.addWindow(FaultKind::RespCorrupt, 0, 200'000'000, 0.3,
                           "cmd01");
            plan.addWindow(FaultKind::KernelWedge, 0, 200'000'000, 0.5,
                           shell->name());
            break;
          case Chaos::EarlyStreamFlips:
            plan.addWindow(FaultKind::StreamBitFlip, 0, 50'000'000,
                           0.1);
            break;
        }
        if (chaos != Chaos::None)
            plan.arm();

        std::uint64_t next_id = 1;
        for (int round = 0; round < 24; ++round) {
            if (shell->network(0).txReady()) {
                PacketDesc pkt;
                pkt.bytes = 256 + (round % 4) * 64;
                shell->network(0).txPush(pkt);
            }
            const auto q =
                static_cast<std::uint16_t>(1 + round % 4);
            dma.submit(round % 2 ? DmaDir::H2C : DmaDir::C2H, q,
                       1024, next_id++);
            if (round % 8 == 0)
                driver.call(kRbbSystem, 0, kCmdTimeCount);
            engine.runFor(2'000'000);
            dma.poll();
            while (shell->network(0).rxAvailable()) {
                const PacketDesc pkt = shell->network(0).rxPop();
                img.wireBytes += pkt.bytes;
                ++img.wirePackets;
            }
            for (std::uint16_t dq = 1; dq <= 4; ++dq)
                while (dma.hasCompletion(dq))
                    dma.popCompletion(dq);
        }

        // Mostly-idle settle: the serial engine grinds every edge,
        // the fast-forward engine jumps between sparse wake points.
        // Both must land in the same place.
        for (int i = 0; i < 10; ++i) {
            engine.runFor(10'000'000);
            dma.poll();
        }

        img.endNow = engine.now();
        img.metrics = renderMetrics(reg);
        img.faultFingerprint = plan.fingerprint();
        img.faultInjected = plan.injectedTotal();
    }
    img.spans = renderSpans();
    Trace::instance().setEnabled(false);
    Trace::instance().clear();
    return img;
}

/**
 * Four fully independent CDC pipelines, each its own pair of fused
 * clocks — four concurrency groups, so parallel dispatch actually
 * fans out across the worker pool (the unified shell is one group by
 * design). Producers serialize packets into the crossing, consumers
 * checksum what comes out.
 */
RunImage
runGroups(const Mode &mode)
{
    constexpr int kPipes = 4;
    const double write_mhz[kPipes] = {250.0, 322.27, 450.0, 100.0};
    const double read_mhz[kPipes] = {322.27, 250.0, 300.0, 500.0};

    RunImage img;
    Engine engine;
    apply(engine, mode);

    std::vector<std::unique_ptr<ParamCdc>> cdcs;
    std::vector<std::unique_ptr<FunctionComponent>> comps;
    std::vector<std::uint64_t> pushed(kPipes, 0);
    std::vector<std::uint64_t> checksum(kPipes, 0);

    for (int p = 0; p < kPipes; ++p) {
        Clock *w = engine.addClock(format("pipe%d.w", p),
                                   write_mhz[p]);
        Clock *r = engine.addClock(format("pipe%d.r", p),
                                   read_mhz[p]);
        auto cdc = std::make_unique<ParamCdc>(
            engine, format("pipe%d.cdc", p), w, r, 512, 512, 16);
        ParamCdc *c = cdc.get();
        auto producer = std::make_unique<FunctionComponent>(
            format("pipe%d.prod", p), [c, p, &pushed] {
                if (pushed[p] < 200 && c->canPush()) {
                    PacketDesc pkt;
                    pkt.bytes = 64 + (pushed[p] % 7) * 64;
                    pkt.flowHash = pushed[p] * 2654435761u + p;
                    c->push(pkt);
                    ++pushed[p];
                }
            });
        auto consumer = std::make_unique<FunctionComponent>(
            format("pipe%d.cons", p), [c, p, &checksum] {
                while (c->canPop()) {
                    const PacketDesc pkt = c->pop();
                    checksum[p] =
                        checksum[p] * 1099511628211ull ^
                        (pkt.flowHash + pkt.bytes);
                }
            });
        engine.add(consumer.get(), r);
        engine.add(producer.get(), w);
        cdcs.push_back(std::move(cdc));
        comps.push_back(std::move(producer));
        comps.push_back(std::move(consumer));
    }

    engine.runFor(20'000'000);

    img.endNow = engine.now();
    for (int p = 0; p < kPipes; ++p) {
        img.wirePackets += pushed[p];
        img.metrics.push_back(format("pipe%d pushed=%llu sum=%llu "
                                     "occ=%zu",
                                     p,
                                     static_cast<unsigned long long>(
                                         pushed[p]),
                                     static_cast<unsigned long long>(
                                         checksum[p]),
                                     cdcs[p]->occupancy()));
    }
    return img;
}

TEST(Determinism, EndToEndParallelMatchesSerial)
{
    const RunImage golden =
        runEndToEnd(Mode{1, false, false}, false, Chaos::None);
    EXPECT_GT(golden.wirePackets, 0u);

    for (unsigned threads : {1u, 2u, 4u}) {
        const RunImage run = runEndToEnd(
            Mode{threads, threads > 1, true}, false, Chaos::None);
        expectIdentical(golden, run,
                        format("threads=%u", threads));
    }
}

TEST(Determinism, EndToEndSpanTreesMatchUnderTracing)
{
    const RunImage golden =
        runEndToEnd(Mode{1, false, false}, true, Chaos::None);
    EXPECT_GT(golden.spans.size(), 0u);

    const RunImage run =
        runEndToEnd(Mode{4, true, true}, true, Chaos::None);
    expectIdentical(golden, run, "traced threads=4");
}

TEST(Determinism, ChaosRunsMatchSerial)
{
    // Stream and DMA windows hold fast-forward off while they are live
    // (most of the mixed run, the first third of the early-flips one);
    // host-plane rules never do. Every run must equal the tick-by-tick
    // golden.
    const std::pair<Chaos, const char *> schedules[] = {
        {Chaos::Mixed, "mixed"},
        {Chaos::HostPlane, "host-plane"},
        {Chaos::EarlyStreamFlips, "early-flips"},
    };
    for (const auto &[chaos, name] : schedules) {
        const RunImage golden =
            runEndToEnd(Mode{1, false, false}, false, chaos);
        EXPECT_GT(golden.faultInjected, 0u) << name;

        for (unsigned threads : {1u, 2u, 4u}) {
            const RunImage run = runEndToEnd(
                Mode{threads, threads > 1, true}, false, chaos);
            expectIdentical(golden, run,
                            format("%s threads=%u", name, threads));
        }
    }
}

TEST(Determinism, IndependentGroupsMatchAcrossThreadCounts)
{
    const RunImage golden = runGroups(Mode{1, false, false});
    EXPECT_EQ(golden.wirePackets, 4u * 200u);

    for (unsigned threads : {2u, 4u}) {
        const RunImage run =
            runGroups(Mode{threads, true, true});
        expectIdentical(golden, run,
                        format("groups threads=%u", threads));
    }
}

TEST(Determinism, EnvVarSelectsThreadsAndFastForward)
{
    // Fast-forward is the default; HARMONIA_SIM_THREADS adds threads,
    // and 0 selects the tick-by-tick reference schedule.
    struct Case {
        const char *value;  ///< nullptr: unset
        unsigned threads;
        bool parallel;
        bool fastForward;
    };
    const Case cases[] = {{nullptr, 1, false, true},
                          {"", 1, false, true},
                          {"1", 1, false, true},
                          {"4", 4, true, true},
                          {"0", 1, false, false},
                          {"four", 1, false, true}};
    // Restored afterwards: a CI job may set it for the whole binary.
    const char *outer = std::getenv("HARMONIA_SIM_THREADS");
    const bool was_set = outer != nullptr;
    const std::string saved = was_set ? outer : "";
    for (const Case &c : cases) {
        if (c.value == nullptr)
            unsetenv("HARMONIA_SIM_THREADS");
        else
            setenv("HARMONIA_SIM_THREADS", c.value, 1);
        const Engine engine;
        const std::string label = c.value ? c.value : "unset";
        EXPECT_EQ(engine.threads(), c.threads) << label;
        EXPECT_EQ(engine.parallel(), c.parallel) << label;
        EXPECT_EQ(engine.idleFastForward(), c.fastForward) << label;
    }
    if (was_set)
        setenv("HARMONIA_SIM_THREADS", saved.c_str(), 1);
    else
        unsetenv("HARMONIA_SIM_THREADS");
}

} // namespace
} // namespace harmonia
