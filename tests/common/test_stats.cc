#include <gtest/gtest.h>

#include <type_traits>

#include "common/logging.h"
#include "common/stats.h"

namespace harmonia {
namespace {

TEST(Counter, IncrementAndReset)
{
    Counter c;
    EXPECT_EQ(c.value(), 0u);
    c.inc();
    c.inc(41);
    EXPECT_EQ(c.value(), 42u);
    c.reset();
    EXPECT_EQ(c.value(), 0u);
}

TEST(RateMeter, RatePerSecond)
{
    RateMeter m;
    EXPECT_EQ(m.ratePerSecond(), 0.0);
    m.record(0, 0);
    // 1000 events over 1 us => 1e9 events/s.
    m.record(1'000'000, 1000);
    EXPECT_DOUBLE_EQ(m.ratePerSecond(), 1e9);
    EXPECT_EQ(m.total(), 1000u);
}

TEST(RateMeter, SingleSampleHasNoRate)
{
    RateMeter m;
    m.record(500, 10);
    EXPECT_EQ(m.ratePerSecond(), 0.0);
    EXPECT_EQ(m.total(), 10u);
}

TEST(Histogram, BucketsAndStats)
{
    Histogram h(10, 10);
    for (std::uint64_t v : {5, 15, 15, 25, 95, 1000})
        h.sample(v);
    EXPECT_EQ(h.count(), 6u);
    EXPECT_EQ(h.min(), 5u);
    EXPECT_EQ(h.max(), 1000u);
    EXPECT_NEAR(h.mean(), (5 + 15 + 15 + 25 + 95 + 1000) / 6.0, 1e-9);
    EXPECT_EQ(h.buckets()[0], 1u);
    EXPECT_EQ(h.buckets()[1], 2u);
    EXPECT_EQ(h.buckets()[2], 1u);
    EXPECT_EQ(h.buckets()[9], 1u);
}

TEST(Histogram, Percentile)
{
    Histogram h(1, 100);
    for (std::uint64_t v = 0; v < 100; ++v)
        h.sample(v);
    EXPECT_NEAR(h.percentile(50), 50.0, 2.0);
    EXPECT_NEAR(h.percentile(99), 99.0, 2.0);
}

TEST(Histogram, RejectsBadConstruction)
{
    EXPECT_THROW(Histogram(0, 10), FatalError);
    EXPECT_THROW(Histogram(10, 0), FatalError);
}

TEST(Histogram, PercentileClampsOutOfRangeRequests)
{
    Histogram h(10, 4);
    h.sample(5);
    h.sample(25);
    // Out-of-range requests clamp to [0, 100] instead of aborting, so
    // monitoring code can pass through unvalidated wire values.
    EXPECT_DOUBLE_EQ(h.percentile(-1), h.percentile(0));
    EXPECT_DOUBLE_EQ(h.percentile(101), h.percentile(100));
    // p100 lands in the last occupied bucket; p0 in the first.
    EXPECT_GE(h.percentile(100), h.percentile(0));
}

TEST(Histogram, PercentileOnEmptyIsZero)
{
    Histogram h(10, 4);
    EXPECT_DOUBLE_EQ(h.percentile(50), 0.0);
    EXPECT_DOUBLE_EQ(h.percentile(-5), 0.0);
    EXPECT_DOUBLE_EQ(h.percentile(200), 0.0);
}

TEST(Histogram, PercentileOnSingleSampleIsItsBucketMidpoint)
{
    Histogram h(10, 8);
    h.sample(42);  // bucket [40, 50) -> midpoint 45
    // With one sample, every percentile resolves to the same bucket:
    // the sliding-window percentile path (obs plane) relies on this.
    EXPECT_DOUBLE_EQ(h.percentile(0), 45.0);
    EXPECT_DOUBLE_EQ(h.percentile(50), 45.0);
    EXPECT_DOUBLE_EQ(h.percentile(99), 45.0);
    EXPECT_DOUBLE_EQ(h.percentile(100), 45.0);
    EXPECT_EQ(h.min(), h.max());
}

TEST(Histogram, PercentileOverflowReportsMax)
{
    Histogram h(10, 2);  // covers [0, 20); everything else overflows
    h.sample(1'000'000);
    EXPECT_EQ(h.overflow(), 1u);
    EXPECT_DOUBLE_EQ(h.percentile(99), 1'000'000.0);
}

TEST(Histogram, ResetClearsEverything)
{
    Histogram h(10, 4);
    h.sample(5);
    h.sample(500);
    h.reset();
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.overflow(), 0u);
    EXPECT_DOUBLE_EQ(h.percentile(50), 0.0);
}

TEST(RateMeter, SameTickRecordsAccumulateWithoutRate)
{
    RateMeter m;
    m.record(1000, 5);
    m.record(1000, 7);
    // Zero elapsed time cannot produce a finite rate; the total still
    // accumulates and a later record restores the rate.
    EXPECT_EQ(m.ratePerSecond(), 0.0);
    EXPECT_EQ(m.total(), 12u);
    m.record(1'001'000, 12);
    EXPECT_GT(m.ratePerSecond(), 0.0);
}

TEST(StatGroup, SnapshotSortedByName)
{
    StatGroup g("mod");
    g.counter("zeta").inc(3);
    g.counter("alpha").inc(1);
    g.counter("mid").inc(2);
    const auto snap = g.snapshot();
    ASSERT_EQ(snap.size(), 3u);
    EXPECT_EQ(snap[0].first, "alpha");
    EXPECT_EQ(snap[1].first, "mid");
    EXPECT_EQ(snap[2].first, "zeta");
    EXPECT_EQ(g.value("zeta"), 3u);
    EXPECT_EQ(g.value("missing"), 0u);
}

TEST(StatGroup, ResetAll)
{
    StatGroup g("mod");
    g.counter("a").inc(5);
    g.counter("b").inc(7);
    g.resetAll();
    EXPECT_EQ(g.value("a"), 0u);
    EXPECT_EQ(g.value("b"), 0u);
}

// A handle must not be copied (or moved) away from the group its
// cached pointer lives in.
static_assert(!std::is_copy_constructible_v<CounterHandle>);
static_assert(!std::is_copy_assignable_v<CounterHandle>);
static_assert(!std::is_move_constructible_v<CounterHandle>);

TEST(CounterHandle, ResolvesLazilyOnFirstUse)
{
    StatGroup g("mod");
    CounterHandle h(g, "rx_packets");
    EXPECT_TRUE(g.snapshot().empty());
    h.inc();
    h.inc(2);
    const auto snap = g.snapshot();
    ASSERT_EQ(snap.size(), 1u);
    EXPECT_EQ(snap[0].first, "rx_packets");
    EXPECT_EQ(snap[0].second, 3u);
}

TEST(CounterHandle, AliasesNamedCounterAcrossResetAll)
{
    StatGroup g("mod");
    g.counter("bytes").inc(5);
    CounterHandle h(g, "bytes");
    EXPECT_EQ(h.get().value(), 5u);  // binds to the existing counter
    EXPECT_EQ(&h.get(), &g.counter("bytes"));
    h.inc(10);
    g.counter("bytes").inc(1);
    EXPECT_EQ(g.value("bytes"), 16u);
    EXPECT_EQ(h.get().value(), 16u);

    // Later counters joining the map leave this one's node in place,
    // and resetAll() zeroes it without unbinding the handle.
    for (int i = 0; i < 64; ++i)
        g.counter(format("c%02d", i)).inc();
    g.resetAll();
    EXPECT_EQ(h.get().value(), 0u);
    h.inc(7);
    EXPECT_EQ(g.value("bytes"), 7u);
    EXPECT_EQ(&h.get(), &g.counter("bytes"));
    EXPECT_EQ(g.snapshot().size(), 65u);
}

} // namespace
} // namespace harmonia
