#include <gtest/gtest.h>

#include "common/logging.h"
#include "obs/sampler.h"
#include "sim/engine.h"

namespace harmonia {
namespace {

TEST(Sampler, PeriodHoldsInSimulatedTime)
{
    MetricsRegistry reg;
    Counter c;
    reg.addCounter("ctr", &c);

    Engine engine;
    TimeSeriesStore store;
    Clock *clk = engine.addClock("clk", 100.0);  // 10 ns period
    Sampler sampler("sampler", reg, store, 50'000);  // every 50 ns
    engine.add(&sampler, clk);

    engine.runCycles(clk, 100);  // 1 us
    // First edge at 10 ns scrapes immediately, then every 50 ns:
    // 10, 60, 110, ... 960 -> 20 scrapes over the run.
    EXPECT_EQ(store.ingested(), 20u);
    const std::vector<TsPoint> pts = store.points("ctr");
    ASSERT_EQ(pts.size(), 20u);
    EXPECT_EQ(pts[0].tick, 10'000u);
    EXPECT_EQ(pts[1].tick - pts[0].tick, 50'000u);
}

TEST(Sampler, PeriodIndependentOfClockDomain)
{
    // The same 100 ns period scrapes at the same simulated-time rate
    // whether the sampler ticks on a fast or a slow clock.
    MetricsRegistry reg;
    Counter c;
    reg.addCounter("ctr", &c);
    Engine engine;
    TimeSeriesStore sa, sb;
    Clock *fast = engine.addClock("fast", 500.0);  // 2 ns
    Clock *slow = engine.addClock("slow", 50.0);   // 20 ns
    Sampler a("a", reg, sa, 100'000);
    Sampler b("b", reg, sb, 100'000);
    engine.add(&a, fast);
    engine.add(&b, slow);

    engine.runFor(1'000'000);  // 1 us
    EXPECT_EQ(sa.ingested(), sb.ingested());
    ASSERT_GE(sa.ingested(), 2u);
    EXPECT_EQ(sa.points("ctr")[1].tick - sa.points("ctr")[0].tick,
              100'000u);
    EXPECT_EQ(sb.points("ctr")[1].tick - sb.points("ctr")[0].tick,
              100'000u);
}

TEST(Sampler, SlowClockDegradesToEveryEdge)
{
    // Period shorter than the clock: one scrape per edge, no bursts.
    MetricsRegistry reg;
    Engine engine;
    TimeSeriesStore store;
    Clock *clk = engine.addClock("clk", 10.0);  // 100 ns period
    Sampler sampler("s", reg, store, 1'000);    // 1 ns "period"
    engine.add(&sampler, clk);
    engine.runCycles(clk, 10);
    EXPECT_EQ(store.ingested(), 10u);
}

TEST(Sampler, SnapshotsSeeLiveValues)
{
    MetricsRegistry reg;
    Counter c;
    reg.addCounter("ctr", &c);

    Engine engine;
    TimeSeriesStore store;
    Clock *clk = engine.addClock("clk", 100.0);
    FunctionComponent worker("worker", [&] { c.inc(); });
    Sampler sampler("s", reg, store, 10'000);  // every edge
    engine.add(&worker, clk);
    engine.add(&sampler, clk);

    engine.runCycles(clk, 5);
    ASSERT_EQ(store.ingested(), 5u);
    // Later scrapes observe strictly more increments than earlier.
    const std::vector<TsPoint> pts = store.points("ctr");
    ASSERT_EQ(pts.size(), 5u);
    EXPECT_GT(pts.back().value, pts.front().value);
    EXPECT_EQ(store.seriesNames(), std::vector<std::string>{"ctr"});
}

TEST(Sampler, RejectsZeroPeriod)
{
    MetricsRegistry reg;
    TimeSeriesStore store;
    EXPECT_THROW(Sampler("s", reg, store, 0), FatalError);
}

} // namespace
} // namespace harmonia
