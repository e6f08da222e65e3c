#include <gtest/gtest.h>

#include <vector>

#include "common/logging.h"
#include "rtl/fifo.h"
#include "rtl/fifo_array.h"

namespace harmonia {
namespace {

TEST(Fifo, FifoOrder)
{
    Fifo<int> f(4);
    f.push(1);
    f.push(2);
    f.push(3);
    EXPECT_EQ(f.pop(), 1);
    EXPECT_EQ(f.pop(), 2);
    EXPECT_EQ(f.pop(), 3);
    EXPECT_TRUE(f.empty());
}

TEST(Fifo, BackPressure)
{
    Fifo<int> f(2);
    EXPECT_TRUE(f.canPush());
    f.push(1);
    f.push(2);
    EXPECT_FALSE(f.canPush());
    EXPECT_TRUE(f.full());
    f.pop();
    EXPECT_TRUE(f.canPush());
}

TEST(Fifo, OverflowIsPanic)
{
    Fifo<int> f(1);
    f.push(1);
    EXPECT_THROW(f.push(2), PanicError);
}

TEST(Fifo, UnderflowIsPanic)
{
    Fifo<int> f(1);
    EXPECT_THROW(f.pop(), PanicError);
    EXPECT_THROW(f.front(), PanicError);
}

TEST(Fifo, ZeroCapacityRejected)
{
    EXPECT_THROW(Fifo<int>(0), FatalError);
}

TEST(Fifo, FrontDoesNotConsume)
{
    Fifo<int> f(2);
    f.push(9);
    EXPECT_EQ(f.front(), 9);
    EXPECT_EQ(f.size(), 1u);
    EXPECT_EQ(f.pop(), 9);
}

TEST(Fifo, MoveOnlyPayloads)
{
    Fifo<std::unique_ptr<int>> f(2);
    f.push(std::make_unique<int>(5));
    auto p = f.pop();
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(*p, 5);
}

TEST(Fifo, Clear)
{
    Fifo<int> f(4);
    f.push(1);
    f.push(2);
    f.clear();
    EXPECT_TRUE(f.empty());
    EXPECT_TRUE(f.canPush());
}

TEST(FifoArray, StorageOnFirstPush)
{
    FifoArray<int> a(100, 2);
    EXPECT_EQ(a.size(99), 0u);
    EXPECT_FALSE(a.canPop(99));
    EXPECT_TRUE(a.canPush(99));
    a.push(99, 7);
    a.push(99, 8);
    EXPECT_FALSE(a.canPush(99));
    EXPECT_EQ(a.front(99), 7);
    EXPECT_EQ(a.pop(99), 7);
    EXPECT_EQ(a.pop(99), 8);
    EXPECT_FALSE(a.canPop(99));
    EXPECT_THROW(a.pop(99), PanicError);
    a.push(3, 1);
    a.clear();
    EXPECT_EQ(a.size(3), 0u);
    EXPECT_EQ(a.nextNonEmpty(0), FifoArray<int>::kNone);
}

TEST(FifoArray, NextNonEmptyMatchesAScanOfEveryQueue)
{
    // Counts that do and do not fill the last bitmap word; every start
    // against a brute-force wrapping scan.
    for (const std::size_t n : {1u, 63u, 64u, 65u, 130u, 1024u}) {
        FifoArray<int> a(n, 4);
        std::vector<bool> full(n, false);
        std::uint64_t x = n;
        for (int round = 0; round < 6; ++round) {
            x = x * 6364136223846793005ULL + 1442695040888963407ULL;
            const std::size_t q = (x >> 33) % n;
            if (full[q]) {
                a.pop(q);
                full[q] = false;
            } else {
                a.push(q, 0);
                full[q] = true;
            }
            for (std::size_t from = 0; from < n; ++from) {
                std::size_t want = FifoArray<int>::kNone;
                for (std::size_t i = 0; i < n; ++i)
                    if (full[(from + i) % n]) {
                        want = (from + i) % n;
                        break;
                    }
                ASSERT_EQ(a.nextNonEmpty(from), want)
                    << "n=" << n << " from=" << from;
            }
        }
    }
}

} // namespace
} // namespace harmonia
