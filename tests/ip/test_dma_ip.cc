#include <gtest/gtest.h>

#include <deque>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "ip/dma_ip.h"
#include "sim/engine.h"

namespace harmonia {
namespace {

struct DmaBench {
    Engine engine;
    Clock *clk;
    XilinxQdma dma{4, 16, 64};

    DmaBench()
    {
        clk = engine.addClock("clk", DmaIp::clockMhzFor(4));
        engine.add(&dma, clk);
    }
};

TEST(DmaIp, LinkBandwidthScalesWithGenAndLanes)
{
    XilinxQdma g3x8(3, 8, 4);
    XilinxQdma g4x16(4, 16, 4);
    XilinxQdma g5x16(5, 16, 4);
    EXPECT_NEAR(g3x8.linkBandwidth(), 7.88e9, 0.1e9);
    EXPECT_NEAR(g4x16.linkBandwidth(), 31.5e9, 0.2e9);
    EXPECT_NEAR(g5x16.linkBandwidth(), 63.0e9, 0.5e9);
    // Paper: width/clock double with each generation.
    EXPECT_EQ(DmaIp::widthBitsFor(3) * 2, DmaIp::widthBitsFor(4));
    EXPECT_EQ(DmaIp::widthBitsFor(4) * 2, DmaIp::widthBitsFor(5));
}

TEST(DmaIp, TlpEfficiencyShape)
{
    // Small transfers pay proportionally more header overhead.
    EXPECT_LT(DmaIp::tlpEfficiency(64), DmaIp::tlpEfficiency(256));
    EXPECT_DOUBLE_EQ(DmaIp::tlpEfficiency(256),
                     DmaIp::tlpEfficiency(4096));
    EXPECT_GT(DmaIp::tlpEfficiency(64), 0.5);
    EXPECT_DOUBLE_EQ(DmaIp::tlpEfficiency(0), 1.0);
}

TEST(DmaIp, CompletionCarriesLatency)
{
    DmaBench b;
    DmaRequest req;
    req.dir = DmaDir::H2C;
    req.queue = 3;
    req.bytes = 4096;
    req.issued = b.engine.now();
    ASSERT_TRUE(b.dma.post(req));

    ASSERT_TRUE(b.engine.runUntilDone(
        [&] { return b.dma.hasCompletion(); }, 50'000'000));
    const DmaCompletion c = b.dma.popCompletion();
    EXPECT_EQ(c.request.queue, 3);
    // At least base latency + serialization.
    EXPECT_GE(c.latency(), b.dma.baseLatency());
    EXPECT_LT(c.latency(), 10'000'000u);  // < 10 us
}

TEST(DmaIp, ControlChannelIsolatedFromDataBacklog)
{
    DmaBench b;
    // Swamp one data queue with large transfers.
    for (int i = 0; i < 32; ++i) {
        DmaRequest req;
        req.bytes = 1 << 20;
        req.queue = 0;
        req.issued = b.engine.now();
        b.dma.post(req);
    }
    DmaRequest ctrl;
    ctrl.control = true;
    ctrl.bytes = 64;
    ctrl.issued = b.engine.now();
    ASSERT_TRUE(b.dma.post(ctrl));

    // The control completion must arrive at base latency, not behind
    // the megabyte backlog.
    DmaCompletion first{};
    bool got_ctrl = false;
    b.engine.runUntilDone(
        [&] {
            while (b.dma.hasCompletion()) {
                first = b.dma.popCompletion();
                if (first.request.control) {
                    got_ctrl = true;
                    return true;
                }
            }
            return false;
        },
        50'000'000);
    ASSERT_TRUE(got_ctrl);
    EXPECT_LE(first.latency(), b.dma.baseLatency() + 100'000);
}

TEST(DmaIp, RoundRobinAcrossQueues)
{
    DmaBench b;
    for (std::uint16_t q = 0; q < 4; ++q) {
        for (int i = 0; i < 8; ++i) {
            DmaRequest req;
            req.queue = q;
            req.bytes = 1024;
            req.issued = b.engine.now();
            ASSERT_TRUE(b.dma.post(req));
        }
    }
    std::vector<std::uint16_t> order;
    b.engine.runUntilDone(
        [&] {
            while (b.dma.hasCompletion())
                order.push_back(b.dma.popCompletion().request.queue);
            return order.size() == 32;
        },
        100'000'000);
    ASSERT_EQ(order.size(), 32u);
    // First four completions hit four distinct queues (round robin).
    std::set<std::uint16_t> first4(order.begin(), order.begin() + 4);
    EXPECT_EQ(first4.size(), 4u);
}

/**
 * The data path's grant order as a scan of every queue computes it:
 * from the slot after the last grant, the first queue holding a
 * request, wrapping past the last queue.
 */
class DenseRoundRobin {
  public:
    explicit DenseRoundRobin(std::size_t queues) : queues_(queues) {}

    void post(std::uint16_t q, std::uint64_t id)
    {
        queues_[q].push_back(id);
    }

    /** Every posted id, in grant order. */
    std::vector<std::uint64_t> drain()
    {
        std::vector<std::uint64_t> order;
        for (bool found = true; found;) {
            found = false;
            for (std::size_t i = 0; i < queues_.size(); ++i) {
                const std::size_t q = (next_ + i) % queues_.size();
                if (queues_[q].empty())
                    continue;
                order.push_back(queues_[q].front());
                queues_[q].pop_front();
                next_ = (q + 1) % queues_.size();
                found = true;
                break;
            }
        }
        return order;
    }

    void reset()
    {
        for (auto &q : queues_)
            q.clear();
        next_ = 0;
    }

  private:
    std::vector<std::deque<std::uint64_t>> queues_;
    std::size_t next_ = 0;
};

TEST(DmaIp, SparseRoundRobinMatchesDenseScan)
{
    // Data completions leave in grant order (the link serializes), so
    // each phase's completion ids must equal the dense scan's drain.
    // Phases share the cursor: the second refills the drained queues
    // from where the first left it and wraps past queue 63, the third
    // runs after reset().
    DmaBench b;
    DenseRoundRobin want(b.dma.numQueues());
    std::uint64_t next_id = 1;
    const auto phase = [&](const std::vector<std::pair<std::uint16_t,
                                                       int>> &posts) {
        for (const auto &[q, n] : posts) {
            for (int i = 0; i < n; ++i) {
                DmaRequest req;
                req.queue = q;
                req.bytes = 512;
                req.id = next_id;
                req.issued = b.engine.now();
                ASSERT_TRUE(b.dma.post(req));
                want.post(q, next_id++);
            }
        }
        const std::vector<std::uint64_t> expect = want.drain();
        std::vector<std::uint64_t> got;
        ASSERT_TRUE(b.engine.runUntilDone(
            [&] {
                while (b.dma.hasCompletion())
                    got.push_back(b.dma.popCompletion().request.id);
                return got.size() == expect.size();
            },
            200'000'000));
        EXPECT_EQ(got, expect);
    };

    phase({{63, 3}, {5, 1}, {40, 4}, {0, 2}, {17, 3}});
    phase({{62, 1}, {1, 2}, {63, 1}, {33, 5}});  // drain and refill
    // A half-drained backlog is dropped by reset(); the cursor, too.
    for (std::uint16_t q : {9, 50}) {
        DmaRequest req;
        req.queue = q;
        req.bytes = 1 << 20;
        ASSERT_TRUE(b.dma.post(req));
    }
    b.dma.reset();
    want.reset();
    EXPECT_EQ(b.dma.queueDepth(9), 0u);
    phase({{48, 2}, {3, 2}, {63, 1}, {0, 1}});
}

TEST(DmaIp, UnusedQueueHasNoDepth)
{
    DmaBench b;
    for (std::uint16_t q = 0; q < b.dma.numQueues(); ++q)
        EXPECT_EQ(b.dma.queueDepth(q), 0u) << q;
    EXPECT_THROW(b.dma.queueDepth(64), FatalError);
}

TEST(DmaIp, QueueBackPressure)
{
    DmaBench b;
    DmaRequest req;
    req.queue = 1;
    req.bytes = 64;
    int accepted = 0;
    while (b.dma.post(req))
        ++accepted;
    EXPECT_EQ(accepted, 64);  // per-queue FIFO depth
    EXPECT_GT(b.dma.stats().value("data_rejected"), 0u);
    EXPECT_EQ(b.dma.queueDepth(1), 64u);
}

TEST(DmaIp, InvalidArgumentsFatal)
{
    EXPECT_THROW(XilinxQdma(2, 16, 64), FatalError);   // bad gen
    EXPECT_THROW(XilinxQdma(4, 4, 64), FatalError);    // bad lanes
    EXPECT_THROW(XilinxQdma(4, 16, 0), FatalError);    // no queues
    EXPECT_THROW(XilinxQdma(4, 16, 4096), FatalError); // too many

    DmaBench b;
    DmaRequest req;
    req.queue = 64;  // out of range
    EXPECT_THROW(b.dma.post(req), FatalError);
}

TEST(DmaIp, VendorsDifferInRegistersAndRecipes)
{
    XilinxQdma x(4, 16, 64, "x");
    IntelMcdma i(4, 16, 64, "i");
    EXPECT_NE(x.initSequence().size(), i.initSequence().size());
    for (const auto &xd : x.regs().descriptors())
        for (const auto &id : i.regs().descriptors())
            EXPECT_NE(xd.name, id.name);
    // Dependencies name different toolchains.
    EXPECT_NE(x.dependencies().at("cad_tool"),
              i.dependencies().at("cad_tool"));
}

TEST(DmaIp, BulkStyleTradesLatencyForEfficiency)
{
    // §3.3.2: a BDMA instance for bulk transfer, SGDMA for discrete.
    XilinxQdma bulk(4, 16, 8, "bulk", DmaEngineStyle::Bulk);
    XilinxQdma sg(4, 16, 8, "sg", DmaEngineStyle::ScatterGather);

    // Bulk moves big buffers with less framing overhead...
    EXPECT_GT(bulk.payloadEfficiency(1 << 20),
              sg.payloadEfficiency(1 << 20));
    EXPECT_EQ(bulk.maxPayload(), 4096u);
    EXPECT_EQ(sg.maxPayload(), 256u);
    // ...at a higher per-transfer setup latency.
    EXPECT_GT(bulk.baseLatency(), sg.baseLatency());
    EXPECT_STREQ(toString(DmaEngineStyle::Bulk), "BDMA");
}

TEST(DmaIp, BulkThroughputWinsOnLargeTransfers)
{
    auto run = [](DmaEngineStyle style) {
        Engine engine;
        Clock *clk = engine.addClock("clk", DmaIp::clockMhzFor(4));
        XilinxQdma dma(4, 16, 4, "t", style);
        engine.add(&dma, clk);
        std::uint64_t done = 0;
        std::uint64_t issued = 0;
        const Tick start = engine.now();
        while (done < 200) {
            while (issued < 200) {
                DmaRequest req;
                req.bytes = 1 << 20;
                req.issued = engine.now();
                if (!dma.post(req))
                    break;
                ++issued;
            }
            engine.step();
            while (dma.hasCompletion()) {
                dma.popCompletion();
                ++done;
            }
        }
        return engine.now() - start;
    };
    EXPECT_LT(run(DmaEngineStyle::Bulk),
              run(DmaEngineStyle::ScatterGather));
}

TEST(DmaIp, FactorySelectsByChipVendor)
{
    auto x = makeDma(Vendor::Xilinx, 3, 16, 128);
    auto i = makeDma(Vendor::Intel, 4, 16, 128);
    EXPECT_EQ(x->vendor(), Vendor::Xilinx);
    EXPECT_EQ(i->vendor(), Vendor::Intel);
    EXPECT_EQ(x->pcieGen(), 3u);
    EXPECT_EQ(i->numQueues(), 128u);
}

} // namespace
} // namespace harmonia
