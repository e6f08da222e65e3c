#include <gtest/gtest.h>

#include <vector>

#include "common/logging.h"
#include "ip/mac_ip.h"
#include "sim/engine.h"

namespace harmonia {
namespace {

struct MacBench {
    Engine engine;
    Clock *clk;
    XilinxCmac mac{100};

    MacBench()
    {
        clk = engine.addClock("clk", MacIp::clockMhzFor(100));
        engine.add(&mac, clk);
    }
};

TEST(MacIp, WidthScalesWithRate)
{
    // The paper: 128/512/2048 bits for 25/100/400G.
    EXPECT_EQ(MacIp::widthBitsFor(25), 128u);
    EXPECT_EQ(MacIp::widthBitsFor(100), 512u);
    EXPECT_EQ(MacIp::widthBitsFor(400), 2048u);
    EXPECT_THROW(MacIp::widthBitsFor(40), FatalError);
}

TEST(MacIp, LoopbackDeliversInOrder)
{
    MacBench b;
    b.mac.setLoopback(true);

    for (std::uint64_t i = 0; i < 10; ++i) {
        PacketDesc pkt;
        pkt.id = i;
        pkt.bytes = 256;
        ASSERT_TRUE(b.mac.txReady());
        b.mac.txPush(pkt);
    }

    std::uint64_t next = 0;
    b.engine.runUntilDone(
        [&] {
            while (b.mac.rxAvailable()) {
                EXPECT_EQ(b.mac.rxPop().id, next);
                ++next;
            }
            return next == 10;
        },
        10'000'000);
    EXPECT_EQ(next, 10u);
    EXPECT_EQ(b.mac.stats().value("tx_packets"), 10u);
    EXPECT_EQ(b.mac.stats().value("rx_packets"), 10u);
}

TEST(MacIp, ThroughputBoundedByLineRate)
{
    MacBench b;
    b.mac.setLoopback(true);

    // Saturate with 256B packets for 100 us and measure.
    const Tick duration = 100'000'000;
    std::uint64_t received = 0;
    std::uint64_t received_bytes = 0;
    const Tick start = b.engine.now();
    while (b.engine.now() - start < duration) {
        while (b.mac.txReady()) {
            PacketDesc pkt;
            pkt.bytes = 256;
            b.mac.txPush(pkt);
        }
        b.engine.step();
        while (b.mac.rxAvailable()) {
            received_bytes += b.mac.rxPop().bytes;
            ++received;
        }
    }
    const double seconds =
        static_cast<double>(duration) / kTicksPerSecond;
    const double gbps = received_bytes * 8.0 / seconds / 1e9;
    // Goodput = 100G * 256/(256+24 overhead) ~ 91.4 Gbps.
    EXPECT_GT(gbps, 88.0);
    EXPECT_LT(gbps, 100.0);
}

TEST(MacIp, PeerLinkDelivers)
{
    Engine engine;
    Clock *clk = engine.addClock("clk", 322.265625);
    XilinxCmac a(100, "a");
    XilinxCmac c(100, "c");
    engine.add(&a, clk);
    engine.add(&c, clk);
    a.connectPeer(&c);
    c.connectPeer(&a);

    PacketDesc pkt;
    pkt.id = 77;
    pkt.bytes = 1500;
    a.txPush(pkt);
    ASSERT_TRUE(engine.runUntilDone([&] { return c.rxAvailable(); },
                                    10'000'000));
    EXPECT_EQ(c.rxPop().id, 77u);
}

/**
 * A sink MAC on its own clock behind connectPeer: the link fuses the
 * two clocks, so under fast-forward the sink's group cannot go dormant
 * while the sender hands it packets. Every packet arrives, at the same
 * edge as tick by tick.
 */
TEST(MacIp, PeerLinkAcrossClocksDeliversUnderFastForward)
{
    constexpr std::uint64_t kBursts = 5;
    constexpr std::uint64_t kBurst = 8;
    std::vector<Tick> arrivals[2];
    for (const bool fast_forward : {false, true}) {
        Engine engine;
        engine.setIdleFastForward(fast_forward);
        XilinxCmac tx(100, "tx");
        XilinxCmac sink(100, "sink");
        engine.add(&tx, engine.addClock("tx_clk", 322.265625));
        engine.add(&sink, engine.addClock("sink_clk", 250.0));
        tx.connectPeer(&sink);

        std::vector<Tick> &seen = arrivals[fast_forward];
        for (std::uint64_t b = 0; b < kBursts; ++b) {
            // An idle gap first: the sink has nothing to do.
            engine.runFor(2'000'000);
            for (std::uint64_t i = 0; i < kBurst; ++i) {
                PacketDesc pkt;
                pkt.id = b * kBurst + i;
                pkt.bytes = 64 + 32 * (pkt.id % 5);
                ASSERT_TRUE(tx.txReady());
                tx.txPush(pkt);
            }
            const bool done = engine.runUntilDone(
                [&] {
                    while (sink.rxAvailable()) {
                        EXPECT_EQ(sink.rxPop().id, seen.size());
                        seen.push_back(engine.now());
                    }
                    return seen.size() == (b + 1) * kBurst;
                },
                1'000'000'000);
            ASSERT_TRUE(done) << "fast_forward=" << fast_forward
                              << " burst " << b;
        }
        EXPECT_EQ(sink.stats().value("rx_packets"), kBursts * kBurst);
    }
    EXPECT_EQ(arrivals[0], arrivals[1]);
}

TEST(MacIp, RxOverflowDropsAndCounts)
{
    MacBench b;
    b.mac.setLoopback(true);
    // Push far more than the 64-entry RX queue without draining.
    std::uint64_t pushed = 0;
    for (int round = 0; round < 300; ++round) {
        while (b.mac.txReady() && pushed < 300) {
            PacketDesc pkt;
            pkt.bytes = 64;
            b.mac.txPush(pkt);
            ++pushed;
        }
        b.engine.step();
    }
    b.engine.runFor(50'000'000);
    EXPECT_GT(b.mac.stats().value("rx_dropped"), 0u);
}

TEST(MacIp, VendorsDifferInRegisterMapsAndInit)
{
    XilinxCmac x(100, "x");
    IntelEtileMac i(100, "i");
    EXPECT_EQ(x.dataProtocol(), Protocol::Axi4Stream);
    EXPECT_EQ(i.dataProtocol(), Protocol::AvalonStream);
    // Xilinx's recipe needs the align-wait dance; Intel self-inits.
    EXPECT_GT(x.initSequence().size(), i.initSequence().size());
    // No shared register names.
    for (const auto &xd : x.regs().descriptors())
        for (const auto &id : i.regs().descriptors())
            EXPECT_NE(xd.name, id.name);
}

TEST(MacIp, StatusRegsTrackEnablement)
{
    XilinxCmac x(100);
    EXPECT_EQ(x.regs().readByName("STAT_RX_STATUS"), 0u);
    x.applyInitSequence();
    EXPECT_EQ(x.regs().readByName("STAT_RX_STATUS"), 1u);
    EXPECT_EQ(x.regs().readByName("STAT_TX_STATUS"), 1u);
}

TEST(MacIp, StatRegistersMirrorCounters)
{
    MacBench b;
    b.mac.setLoopback(true);
    PacketDesc pkt;
    pkt.bytes = 512;
    b.mac.txPush(pkt);
    b.engine.runFor(1'000'000);
    EXPECT_EQ(b.mac.regs().readByName("STAT_TX_TOTAL_PACKETS"), 1u);
    EXPECT_EQ(b.mac.regs().readByName("STAT_TX_TOTAL_BYTES"), 512u);
}

TEST(MacIp, FactorySelectsByVendor)
{
    auto x = makeMac(Vendor::Xilinx, 25);
    auto i = makeMac(Vendor::Intel, 400);
    EXPECT_EQ(x->vendor(), Vendor::Xilinx);
    EXPECT_EQ(x->dataWidthBits(), 128u);
    EXPECT_EQ(i->vendor(), Vendor::Intel);
    EXPECT_EQ(i->dataWidthBits(), 2048u);
}

TEST(MacIp, ResetClearsState)
{
    MacBench b;
    b.mac.setLoopback(true);
    PacketDesc pkt;
    pkt.bytes = 64;
    b.mac.txPush(pkt);
    b.engine.runFor(1'000'000);
    b.mac.reset();
    EXPECT_FALSE(b.mac.rxAvailable());
    EXPECT_EQ(b.mac.stats().value("tx_packets"), 0u);
}

} // namespace
} // namespace harmonia
