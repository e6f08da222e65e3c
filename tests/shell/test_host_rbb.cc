#include <gtest/gtest.h>

#include "cmd/command_codes.h"
#include "common/logging.h"
#include "shell/host_rbb.h"

namespace harmonia {
namespace {

struct HostBench {
    Engine engine;
    Clock *clk;
    HostRbb rbb;

    explicit HostBench(unsigned queues = 1024)
        : clk(engine.addClock("clk", DmaIp::clockMhzFor(4))),
          rbb(engine, clk, Vendor::Xilinx, 4, 16, queues)
    {
    }
};

TEST(HostRbb, DefaultsToThousandQueues)
{
    HostBench b;
    EXPECT_EQ(b.rbb.numQueues(), 1024u);
    EXPECT_EQ(b.rbb.activeQueueCount(), 0u);
}

TEST(HostRbb, InactiveQueuesRejectTraffic)
{
    HostBench b;
    EXPECT_FALSE(b.rbb.submit(DmaDir::H2C, 7, 4096));
    EXPECT_EQ(b.rbb.monitor().value("rejected"), 1u);
    b.rbb.setQueueActive(7, true);
    EXPECT_TRUE(b.rbb.submit(DmaDir::H2C, 7, 4096));
    EXPECT_EQ(b.rbb.monitor().value("submitted"), 1u);
}

TEST(HostRbb, CompletionsFlowPerQueue)
{
    HostBench b;
    b.rbb.setQueueActive(3, true);
    ASSERT_TRUE(b.rbb.submit(DmaDir::C2H, 3, 8192, 55));
    ASSERT_TRUE(b.engine.runUntilDone(
        [&] { return b.rbb.hasCompletion(); }, 100'000'000));
    const DmaCompletion c = b.rbb.popCompletion();
    EXPECT_EQ(c.request.queue, 3);
    EXPECT_EQ(c.request.id, 55u);
    EXPECT_GE(c.latency(), b.rbb.dma().baseLatency());
}

TEST(HostRbb, IsolationAcrossTenantQueues)
{
    HostBench b;
    b.rbb.setQueueActive(1, true);
    b.rbb.setQueueActive(2, true);
    // Tenant 1 floods its queue; tenant 2 still gets service.
    for (int i = 0; i < 16; ++i)
        b.rbb.submit(DmaDir::H2C, 1, 1 << 20);
    ASSERT_TRUE(b.rbb.submit(DmaDir::H2C, 2, 4096, 99));

    bool tenant2_done = false;
    std::uint64_t tenant2_latency = 0;
    b.engine.runUntilDone(
        [&] {
            while (b.rbb.hasCompletion()) {
                const DmaCompletion c = b.rbb.popCompletion();
                if (c.request.queue == 2) {
                    tenant2_done = true;
                    tenant2_latency = c.latency();
                }
            }
            return tenant2_done;
        },
        500'000'000);
    ASSERT_TRUE(tenant2_done);
    // Round-robin keeps tenant 2 from waiting behind all 16 MB.
    EXPECT_LT(tenant2_latency, 200'000'000u);
}

TEST(HostRbb, ActiveListScalesSchedulingToActiveSet)
{
    HostBench b;
    // Activate only two of 1024 queues: grants must only touch them.
    b.rbb.setQueueActive(100, true);
    b.rbb.setQueueActive(900, true);
    EXPECT_EQ(b.rbb.activeQueueCount(), 2u);
    b.rbb.submit(DmaDir::H2C, 100, 64);
    b.rbb.submit(DmaDir::H2C, 900, 64);
    unsigned seen = 0;
    b.engine.runUntilDone(
        [&] {
            while (b.rbb.hasCompletion()) {
                const auto c = b.rbb.popCompletion();
                EXPECT_TRUE(c.request.queue == 100 ||
                            c.request.queue == 900);
                ++seen;
            }
            return seen == 2;
        },
        100'000'000);
    EXPECT_EQ(seen, 2u);
}

TEST(HostRbb, ControlChannelPassThrough)
{
    HostBench b;
    EXPECT_TRUE(b.rbb.submitControl(64, 1));
    ASSERT_TRUE(b.engine.runUntilDone(
        [&] { return b.rbb.hasCompletion(); }, 100'000'000));
    EXPECT_TRUE(b.rbb.popCompletion().request.control);
}

TEST(HostRbb, QueueConfigCommandActivatesRanges)
{
    HostBench b;
    const auto res =
        b.rbb.executeCommand(kCmdQueueConfig, {10, 20, 1});
    EXPECT_EQ(res.status, kCmdOk);
    EXPECT_EQ(b.rbb.activeQueueCount(), 20u);
    EXPECT_TRUE(b.rbb.queueActive(10));
    EXPECT_TRUE(b.rbb.queueActive(29));
    EXPECT_FALSE(b.rbb.queueActive(30));

    // Deactivate the range again.
    b.rbb.executeCommand(kCmdQueueConfig, {10, 20, 0});
    EXPECT_EQ(b.rbb.activeQueueCount(), 0u);

    EXPECT_EQ(
        b.rbb.executeCommand(kCmdQueueConfig, {1020, 10, 1}).status,
        kCmdBadArgument);
}

TEST(HostRbb, QueueControlRegisters)
{
    HostBench b;
    b.rbb.ctrlRegs().writeByName("QUEUE_SEL", 5);
    b.rbb.ctrlRegs().writeByName("QUEUE_CTRL", 1);
    EXPECT_TRUE(b.rbb.queueActive(5));
    EXPECT_EQ(b.rbb.ctrlRegs().readByName("MON_ACTIVE_QUEUES"), 1u);
}

TEST(HostRbb, DepthMonitoring)
{
    HostBench b;
    b.rbb.setQueueActive(0, true);
    for (int i = 0; i < 5; ++i)
        b.rbb.submit(DmaDir::H2C, 0, 1 << 20);
    EXPECT_GT(b.rbb.queueDepth(0), 0u);
    EXPECT_THROW(b.rbb.queueDepth(5000), FatalError);
}

TEST(HostRbb, WorkloadCalibrationMatchesPaperRatios)
{
    HostBench b;
    const DevWorkload w = b.rbb.devWorkload();
    const double total = w.total();
    EXPECT_NEAR(w.reusableLoc / total, 0.76, 0.02);
    EXPECT_NEAR((total - w.instanceLoc) / total, 0.91, 0.02);
}

TEST(HostRbb, IdleCountsStagedRequestsOnEveryQueue)
{
    HostBench b;
    EXPECT_TRUE(b.rbb.idle());
    b.rbb.setQueueActive(9, true);
    ASSERT_TRUE(b.rbb.submit(DmaDir::H2C, 9, 64, 1));
    EXPECT_FALSE(b.rbb.idle());

    // Deactivated with a request still staged: the scheduler never
    // grants it, but the RBB is not idle while it waits.
    b.rbb.setQueueActive(9, false);
    b.engine.runFor(1'000'000);
    EXPECT_EQ(b.rbb.queueDepth(9), 1u);
    EXPECT_FALSE(b.rbb.idle());

    b.rbb.setQueueActive(9, true);
    ASSERT_TRUE(b.engine.runUntilDone(
        [&] { return b.rbb.hasCompletion(); }, 100'000'000));
    EXPECT_EQ(b.rbb.popCompletion().request.id, 1u);
    EXPECT_EQ(b.rbb.queueDepth(9), 0u);
    EXPECT_TRUE(b.rbb.idle());

    // Reset drops whatever is staged, and the count with it.
    ASSERT_TRUE(b.rbb.submit(DmaDir::H2C, 9, 64, 2));
    EXPECT_FALSE(b.rbb.idle());
    b.rbb.executeCommand(kCmdModuleReset, {});
    EXPECT_TRUE(b.rbb.idle());
}

TEST(HostRbb, ResetClearsQueuesAndState)
{
    HostBench b;
    b.rbb.setQueueActive(4, true);
    b.rbb.submit(DmaDir::H2C, 4, 64);
    b.rbb.executeCommand(kCmdModuleReset, {});
    EXPECT_EQ(b.rbb.activeQueueCount(), 0u);
    EXPECT_FALSE(b.rbb.hasCompletion());
}

} // namespace
} // namespace harmonia
