#include <gtest/gtest.h>

#include "common/fnv.h"
#include "common/logging.h"
#include "host/cmd_driver.h"
#include "roles/l4lb.h"
#include "telemetry/metrics_registry.h"
#include "workload/flow_gen.h"

namespace harmonia {
namespace {

TEST(Layer4Lb, RendezvousIsDeterministicAndSpread)
{
    Layer4Lb lb(64);
    std::map<unsigned, int> counts;
    for (std::uint64_t flow = 0; flow < 64000; ++flow) {
        const unsigned s = lb.pickServer(flow);
        EXPECT_EQ(s, lb.pickServer(flow));  // deterministic
        ++counts[s];
    }
    EXPECT_EQ(counts.size(), 64u);
    for (const auto &[server, n] : counts) {
        EXPECT_GT(n, 600) << server;   // ~1000 expected
        EXPECT_LT(n, 1400) << server;
    }
}

TEST(Layer4Lb, ConnectionTablePinsFlows)
{
    Layer4Lb lb(16);
    const unsigned s = lb.processFlowPacket(0x42, FlowPhase::Syn);
    EXPECT_TRUE(lb.isPinned(0x42));
    EXPECT_EQ(lb.pinnedServer(0x42), s);
    EXPECT_EQ(lb.processFlowPacket(0x42, FlowPhase::Data), s);
    EXPECT_EQ(lb.stats().value("table_hits"), 1u);
    lb.processFlowPacket(0x42, FlowPhase::Fin);
    EXPECT_FALSE(lb.isPinned(0x42));
    EXPECT_EQ(lb.stats().value("flows_closed"), 1u);
}

TEST(Layer4Lb, PinnedFlowsSurviveServerSetChanges)
{
    // The stateful-LB property: established connections stay on
    // their server even when the healthy set changes.
    Layer4Lb lb(8);
    const unsigned s = lb.processFlowPacket(0x77, FlowPhase::Syn);
    const unsigned other = (s + 1) % 8;
    lb.setServerHealthy(other, false);
    EXPECT_EQ(lb.processFlowPacket(0x77, FlowPhase::Data), s);

    // New flows avoid the unhealthy server.
    for (std::uint64_t flow = 1000; flow < 1200; ++flow)
        EXPECT_NE(lb.pickServer(flow), other);
}

TEST(Layer4Lb, RendezvousMinimalDisruption)
{
    // Removing one of 16 servers remaps only its own flows.
    Layer4Lb lb(16);
    std::map<std::uint64_t, unsigned> before;
    for (std::uint64_t flow = 0; flow < 4000; ++flow)
        before[flow] = lb.pickServer(flow);
    lb.setServerHealthy(3, false);
    int moved = 0;
    for (const auto &[flow, server] : before) {
        if (lb.pickServer(flow) != server) {
            EXPECT_EQ(server, 3u) << "non-victim flow moved";
            ++moved;
        }
    }
    EXPECT_GT(moved, 100);  // server 3's share did move
}

TEST(Layer4Lb, TableEvictionWhenFull)
{
    Layer4Lb lb(4);
    for (std::uint64_t flow = 0;
         flow < Layer4Lb::kConnTableCapacity + 10; ++flow)
        lb.processFlowPacket(flow, FlowPhase::Syn);
    EXPECT_LE(lb.connectionCount(), Layer4Lb::kConnTableCapacity);
    EXPECT_GT(lb.stats().value("evictions"), 0u);
}

TEST(Layer4Lb, NoHealthyServersFatal)
{
    Layer4Lb lb(2);
    lb.setServerHealthy(0, false);
    lb.setServerHealthy(1, false);
    EXPECT_THROW(lb.pickServer(1), FatalError);
    EXPECT_THROW(Layer4Lb{0}, FatalError);
}

TEST(Layer4Lb, DatapathForwardsAcrossPorts)
{
    Engine engine;
    auto shell = Shell::makeTailored(
        engine, DeviceDatabase::instance().byName("DeviceB"),
        Layer4Lb::standardRequirements());
    Layer4Lb role(16);
    role.bind(engine, *shell);

    // Flows arrive on port 0 and leave on port 1 toward the chosen
    // real server's queue.
    for (std::uint64_t flow = 0; flow < 8; ++flow) {
        PacketDesc pkt;
        pkt.flowHash = flow;
        pkt.flags = kFlagSyn;
        pkt.bytes = 64;
        shell->network(0).mac().injectRx(pkt, engine.now());
    }
    engine.runFor(20'000'000);
    EXPECT_EQ(role.stats().value("forwarded_packets"), 8u);
    EXPECT_EQ(shell->network(1).monitor().value("tx_packets"), 8u);
    EXPECT_EQ(role.connectionCount(), 8u);
}

TEST(Layer4Lb, TailoredShellRegistrySeriesStayPinned)
{
    // Counters resolve lazily, on their first increment: a counter no
    // event has touched must stay out of the registry. The name set a
    // seeded burst leaves behind is pinned (the values of the
    // string-keyed lookups the handles replaced), so a counter that
    // starts resolving eagerly or late moves the count or the hash.
    MetricsRegistry reg;  // outlives every registration below
    Engine engine;
    auto shell = Shell::makeTailored(
        engine, DeviceDatabase::instance().byName("DeviceB"),
        Layer4Lb::standardRequirements());
    Layer4Lb role(64);
    role.bind(engine, *shell);
    shell->registerTelemetry(reg);
    CmdDriver driver(engine, *shell);
    driver.registerTelemetry(reg, "host/cmd01");
    driver.initializeAll();

    FlowGenConfig cfg;
    cfg.seed = 11;
    cfg.concurrentFlows = 64;
    cfg.packetsPerFlow = 8;
    cfg.packetBytes = 256;
    FlowGenerator gen(cfg);
    Tick at = engine.now();
    for (int i = 0; i < 512; ++i) {
        PacketDesc p = gen.next(at).packet;
        shell->network(0).mac().injectRx(p, at);
        at += wireTime(p.bytes, 100e9);
    }
    engine.runFor(at - engine.now() + 1'000'000);
    driver.collectAllStats();
    ASSERT_GT(role.stats().value("forwarded_packets"), 0u);

    Fnv1a64 names;
    const std::vector<ScalarSeries> series = reg.scalarSeries();
    for (const ScalarSeries &s : series)
        names.str(s.name);
    EXPECT_EQ(series.size(), 56u);
    EXPECT_EQ(names.value(), 0x50983c090fe85a50ULL);
}

} // namespace
} // namespace harmonia
