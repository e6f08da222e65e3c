#include <gtest/gtest.h>

#include "cmd/command_codes.h"
#include "common/logging.h"
#include "host/dma_engine.h"

namespace harmonia {
namespace {

struct HostDmaBench {
    Engine engine;
    Clock *clk;
    HostRbb rbb;
    HostDma dma;

    HostDmaBench()
        : clk(engine.addClock("clk", 250.0)),
          rbb(engine, clk, Vendor::Xilinx, 4, 16, 64), dma(rbb)
    {
        rbb.setQueueActive(1, true);
        rbb.setQueueActive(2, true);
    }
};

TEST(HostDma, RoutesCompletionsPerQueue)
{
    HostDmaBench b;
    ASSERT_TRUE(b.dma.submit(DmaDir::H2C, 1, 4096, 11));
    ASSERT_TRUE(b.dma.submit(DmaDir::C2H, 2, 4096, 22));

    b.engine.runUntilDone(
        [&] {
            b.dma.poll();
            return b.dma.hasCompletion(1) && b.dma.hasCompletion(2);
        },
        100'000'000);

    EXPECT_EQ(b.dma.popCompletion(1).request.id, 11u);
    EXPECT_EQ(b.dma.popCompletion(2).request.id, 22u);
    EXPECT_EQ(b.dma.completedTransfers(), 2u);
    EXPECT_EQ(b.dma.completedBytes(), 8192u);
}

TEST(HostDma, ControlCompletionsSeparated)
{
    HostDmaBench b;
    b.rbb.submitControl(64, 7);
    b.engine.runUntilDone(
        [&] {
            b.dma.poll();
            return b.dma.hasControlCompletion();
        },
        100'000'000);
    EXPECT_FALSE(b.dma.hasCompletion(1));
    EXPECT_EQ(b.dma.popControlCompletion().request.id, 7u);
}

TEST(HostDma, QueueFirstUsedAfterResetRoutesCompletions)
{
    // Queue 9 has no bins until its first submission, which comes after
    // the Host RBB was reset: its completion lands in its own bin.
    HostDmaBench b;
    ASSERT_TRUE(b.dma.submit(DmaDir::H2C, 1, 4096, 11));
    b.rbb.executeCommand(kCmdModuleReset, {});
    EXPECT_FALSE(b.dma.hasCompletion(9));
    EXPECT_EQ(b.dma.outstanding(9), 0u);
    EXPECT_FALSE(b.dma.queueQuarantined(9));

    b.rbb.setQueueActive(9, true);
    ASSERT_TRUE(b.dma.submit(DmaDir::C2H, 9, 2048, 99));
    EXPECT_EQ(b.dma.outstanding(9), 1u);
    ASSERT_TRUE(b.engine.runUntilDone(
        [&] {
            b.dma.poll();
            return b.dma.hasCompletion(9);
        },
        100'000'000));
    EXPECT_EQ(b.dma.popCompletion(9).request.id, 99u);
    EXPECT_EQ(b.dma.outstanding(9), 0u);
    EXPECT_FALSE(b.dma.hasCompletion(1));
    EXPECT_EQ(b.dma.completedTransfers(), 1u);
}

TEST(HostDma, InactiveQueueRejected)
{
    HostDmaBench b;
    EXPECT_FALSE(b.dma.submit(DmaDir::H2C, 50, 64));
}

TEST(HostDma, ErrorsAreFatal)
{
    HostDmaBench b;
    EXPECT_THROW(b.dma.popCompletion(1), FatalError);
    EXPECT_THROW(b.dma.hasCompletion(5000), FatalError);
    EXPECT_THROW(b.dma.popControlCompletion(), FatalError);
}

} // namespace
} // namespace harmonia
