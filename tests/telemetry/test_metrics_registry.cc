#include <gtest/gtest.h>

#include "common/stats.h"
#include "telemetry/metrics_registry.h"

namespace harmonia {
namespace {

TEST(MetricsRegistry, SnapshotSortedAndTyped)
{
    MetricsRegistry reg;
    Counter c;
    c.inc(7);
    RateMeter m;
    m.record(0);
    m.record(1'000'000, 999);  // 1000 events over 1 us
    Histogram h(10, 8);
    h.sample(15);

    reg.addCounter("z/count", &c);
    reg.addRate("a/rate", &m);
    reg.addHistogram("m/lat", &h);
    reg.addGauge("b/depth", [] { return 3.5; });

    const auto snap = reg.snapshot();
    ASSERT_EQ(snap.size(), 4u);
    EXPECT_EQ(snap[0].name, "a/rate");
    EXPECT_EQ(snap[0].kind, MetricKind::Rate);
    EXPECT_DOUBLE_EQ(snap[0].value, 1e9);
    EXPECT_EQ(snap[1].name, "b/depth");
    EXPECT_DOUBLE_EQ(snap[1].value, 3.5);
    EXPECT_EQ(snap[2].name, "m/lat");
    EXPECT_EQ(snap[2].kind, MetricKind::Histogram);
    EXPECT_EQ(snap[2].count, 1u);
    EXPECT_EQ(snap[2].max, 15u);
    EXPECT_EQ(snap[3].name, "z/count");
    EXPECT_DOUBLE_EQ(snap[3].value, 7.0);
}

TEST(MetricsRegistry, ScalarSeriesFlattenHistograms)
{
    MetricsRegistry reg;
    Counter c, sibling;
    c.inc(7);
    Histogram h(10, 8);
    h.sample(15);
    h.sample(35);
    reg.addCounter("m/count", &c);
    reg.addGauge("m/depth", [] { return 3.5; });
    reg.addHistogram("m/lat", &h);
    reg.addCounter("m/lat/a", &sibling);
    reg.addCounter("other/x", &c);

    const std::vector<MetricSample> snap = reg.snapshot();
    const MetricSample &lat = snap[2];
    ASSERT_EQ(lat.name, "m/lat");

    // A histogram becomes count + /p50 + /p99; the percentile series
    // sort among their siblings; the prefix filters "other/".
    const std::vector<ScalarSeries> series = reg.scalarSeries("m/");
    ASSERT_EQ(series.size(), 6u);
    EXPECT_EQ(series[0].name, "m/count");
    EXPECT_EQ(series[0].value, 7.0);
    EXPECT_TRUE(series[0].exact);
    EXPECT_EQ(series[1].name, "m/depth");
    EXPECT_EQ(series[1].value, 3.5);
    EXPECT_FALSE(series[1].exact);
    EXPECT_EQ(series[2].name, "m/lat");
    EXPECT_EQ(series[2].value, 2.0);  // the count
    EXPECT_TRUE(series[2].exact);
    EXPECT_EQ(series[3].name, "m/lat/a");
    EXPECT_EQ(series[4].name, "m/lat/p50");
    EXPECT_EQ(series[4].value, lat.p50);
    EXPECT_FALSE(series[4].exact);
    EXPECT_EQ(series[5].name, "m/lat/p99");
    EXPECT_EQ(series[5].value, lat.p99);
    EXPECT_FALSE(series[5].exact);

    // No prefix: every series.
    EXPECT_EQ(reg.scalarSeries().size(), 7u);
}

TEST(MetricsRegistry, GroupExpandsLazilyCreatedCounters)
{
    MetricsRegistry reg;
    StatGroup g("mod");
    g.counter("early").inc();
    reg.addGroup("shell/net0", &g);
    // Counters created after registration still export: groups are
    // enumerated at snapshot time.
    g.counter("late").inc(2);

    const auto snap = reg.snapshot();
    ASSERT_EQ(snap.size(), 2u);
    EXPECT_EQ(snap[0].name, "shell/net0/early");
    EXPECT_EQ(snap[1].name, "shell/net0/late");
    EXPECT_DOUBLE_EQ(snap[1].value, 2.0);
}

TEST(MetricsRegistry, NameCollisionsGetSuffixes)
{
    MetricsRegistry reg;
    Counter a, b, c;
    reg.addCounter("shell/ctr", &a);
    reg.addCounter("shell/ctr", &b);
    reg.addCounter("shell/ctr", &c);
    const auto snap = reg.snapshot();
    ASSERT_EQ(snap.size(), 3u);
    EXPECT_EQ(snap[0].name, "shell/ctr");
    EXPECT_EQ(snap[1].name, "shell/ctr~2");
    EXPECT_EQ(snap[2].name, "shell/ctr~3");
}

TEST(MetricsRegistry, RemoveIsIdempotent)
{
    MetricsRegistry reg;
    Counter c;
    const MetricId id = reg.addCounter("x", &c);
    EXPECT_EQ(reg.size(), 1u);
    reg.remove(id);
    EXPECT_EQ(reg.size(), 0u);
    reg.remove(id);  // stale id: no-op
    EXPECT_EQ(reg.size(), 0u);
}

TEST(ScopedMetrics, UnregistersOnDestruction)
{
    MetricsRegistry reg;
    Counter c;
    Histogram h(10, 4);
    {
        ScopedMetrics scoped(reg);
        scoped.addCounter("tmp/count", &c);
        scoped.addHistogram("tmp/lat", &h);
        EXPECT_EQ(reg.size(), 2u);
    }
    // A destroyed component leaves no dangling metric pointers.
    EXPECT_EQ(reg.size(), 0u);
    EXPECT_TRUE(reg.snapshot().empty());
}

TEST(ScopedMetrics, ResetRetargetsToAnotherRegistry)
{
    MetricsRegistry first, second;
    Counter c;
    ScopedMetrics scoped(first);
    scoped.addCounter("x", &c);
    EXPECT_EQ(first.size(), 1u);

    scoped.reset(second);
    EXPECT_EQ(first.size(), 0u);
    scoped.addCounter("x", &c);
    EXPECT_EQ(second.size(), 1u);
    scoped.release();
    EXPECT_EQ(second.size(), 0u);
}

TEST(MetricsRegistry, ManyShellsComeAndGo)
{
    // Teardown stress: interleaved registration scopes must leave the
    // registry empty and usable, mimicking tests that construct dozens
    // of shells against the global instance.
    MetricsRegistry reg;
    Counter c;
    for (int round = 0; round < 50; ++round) {
        ScopedMetrics a(reg), b(reg);
        a.addCounter("shell/ctr", &c);
        b.addCounter("shell/ctr", &c);  // collides -> ~2
        EXPECT_EQ(reg.size(), 2u);
        a.release();
        EXPECT_EQ(reg.size(), 1u);
        // The released base name is reusable immediately.
        b.addCounter("shell/ctr", &c);
        EXPECT_EQ(reg.size(), 2u);
    }
    EXPECT_EQ(reg.size(), 0u);
}

} // namespace
} // namespace harmonia
