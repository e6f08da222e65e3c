#include <gtest/gtest.h>

#include "common/logging.h"
#include "obs/timeseries.h"

namespace harmonia {
namespace {

TEST(TimeSeries, IngestPointAndQuery)
{
    TimeSeriesStore store;
    store.ingestPoint(100, "a", 1.0);
    store.ingestPoint(200, "a", 2.0);
    store.ingestPoint(150, "b", 9.0);

    EXPECT_TRUE(store.has("a"));
    EXPECT_FALSE(store.has("zz"));
    EXPECT_EQ(store.seriesCount(), 2u);
    EXPECT_EQ(store.latest("a"), 2.0);
    EXPECT_EQ(store.latestTick("a"), 200u);
    EXPECT_EQ(store.latest("unknown"), 0.0);

    const std::vector<TsPoint> pts = store.points("a");
    ASSERT_EQ(pts.size(), 2u);
    EXPECT_EQ(pts[0].tick, 100u);
    EXPECT_EQ(pts[1].value, 2.0);
}

TEST(TimeSeries, SeriesNamesAreSorted)
{
    TimeSeriesStore store;
    store.ingestPoint(1, "zeta", 0.0);
    store.ingestPoint(1, "alpha", 0.0);
    store.ingestPoint(1, "mid", 0.0);
    const std::vector<std::string> names = store.seriesNames();
    ASSERT_EQ(names.size(), 3u);
    EXPECT_EQ(names[0], "alpha");
    EXPECT_EQ(names[1], "mid");
    EXPECT_EQ(names[2], "zeta");
}

TEST(TimeSeries, RawRingEvictsOldest)
{
    TsConfig cfg;
    cfg.rawCapacity = 4;
    TimeSeriesStore store(cfg);
    for (Tick t = 1; t <= 10; ++t)
        store.ingestPoint(t * 100, "s",
                          static_cast<double>(t));
    const std::vector<TsPoint> pts = store.points("s");
    ASSERT_EQ(pts.size(), 4u);
    EXPECT_EQ(pts.front().tick, 700u);  // 7th point is the oldest kept
    EXPECT_EQ(pts.back().value, 10.0);
}

TEST(TimeSeries, RollupsSealOnWindowBoundary)
{
    TsConfig cfg;
    cfg.midWindow = 100;
    cfg.longWindow = 1000;
    TimeSeriesStore store(cfg);

    // Two points in window [0,100), two in [100,200).
    store.ingestPoint(10, "s", 5.0);
    store.ingestPoint(90, "s", 1.0);
    store.ingestPoint(110, "s", 7.0);
    store.ingestPoint(190, "s", 3.0);

    const std::vector<TsRollup> mid =
        store.rollups("s", TsTier::Mid);
    ASSERT_EQ(mid.size(), 2u);  // one sealed + the open bucket
    EXPECT_EQ(mid[0].windowStart, 0u);
    EXPECT_EQ(mid[0].count, 2u);
    EXPECT_EQ(mid[0].min, 1.0);
    EXPECT_EQ(mid[0].max, 5.0);
    EXPECT_EQ(mid[0].sum, 6.0);
    EXPECT_EQ(mid[0].last, 1.0);
    EXPECT_DOUBLE_EQ(mid[0].mean(), 3.0);

    EXPECT_EQ(mid[1].windowStart, 100u);
    EXPECT_EQ(mid[1].count, 2u);
    EXPECT_EQ(mid[1].max, 7.0);

    // The long tier has everything still in one open bucket.
    const std::vector<TsRollup> lng =
        store.rollups("s", TsTier::Long);
    ASSERT_EQ(lng.size(), 1u);
    EXPECT_EQ(lng[0].count, 4u);
}

TEST(TimeSeries, DeltaAndRateOverWindow)
{
    TimeSeriesStore store;
    // A counter ramping 100 per 1 us of simulated time.
    for (Tick t = 0; t <= 10; ++t)
        store.ingestPoint(t * 1'000'000, "ctr",
                          static_cast<double>(t) * 100.0);

    // Window covering the last 5 points: 6 us back from 10 us.
    EXPECT_DOUBLE_EQ(store.delta("ctr", 5'000'000, 10'000'000),
                     500.0);
    // 500 events over 5 us -> 1e8 events/s.
    EXPECT_DOUBLE_EQ(store.rate("ctr", 5'000'000, 10'000'000), 1e8);

    // Degenerate windows: fewer than two points -> 0.
    EXPECT_EQ(store.delta("ctr", 100, 10'000'000), 0.0);
    EXPECT_EQ(store.rate("ctr", 100, 10'000'000), 0.0);
    EXPECT_EQ(store.delta("unknown", 1'000'000, 10'000'000), 0.0);
}

TEST(TimeSeries, WindowStatsAggregates)
{
    TimeSeriesStore store;
    store.ingestPoint(100, "g", 4.0);
    store.ingestPoint(200, "g", 8.0);
    store.ingestPoint(300, "g", 6.0);

    const TsWindowStats w = store.windowStats("g", 300, 300);
    EXPECT_FALSE(w.empty());
    EXPECT_EQ(w.count, 3u);
    EXPECT_EQ(w.min, 4.0);
    EXPECT_EQ(w.max, 8.0);
    EXPECT_DOUBLE_EQ(w.mean, 6.0);
    EXPECT_EQ(w.first, 4.0);
    EXPECT_EQ(w.last, 6.0);
    EXPECT_EQ(w.firstTick, 100u);
    EXPECT_EQ(w.lastTick, 300u);

    // Window excludes the first point.
    const TsWindowStats tail = store.windowStats("g", 150, 300);
    EXPECT_EQ(tail.count, 2u);
    EXPECT_EQ(tail.first, 8.0);

    EXPECT_TRUE(store.windowStats("unknown", 100, 100).empty());
}

TEST(TimeSeries, PercentileOverWindow)
{
    TimeSeriesStore store;
    EXPECT_EQ(store.percentileOver("s", 100, 99.0, 100), 0.0);

    // A ramp 1..100: p50 near 50, p99 near 99.
    for (Tick t = 1; t <= 100; ++t)
        store.ingestPoint(t, "s", static_cast<double>(t));
    const double p50 = store.percentileOver("s", 100, 50.0, 100);
    const double p99 = store.percentileOver("s", 100, 99.0, 100);
    EXPECT_NEAR(p50, 50.0, 1.0);
    EXPECT_NEAR(p99, 99.0, 1.0);
    EXPECT_LT(p50, p99);
}

TEST(TimeSeries, MaxSeriesBoundDropsExcess)
{
    TsConfig cfg;
    cfg.maxSeries = 2;
    TimeSeriesStore store(cfg);
    store.ingestPoint(1, "a", 1.0);
    store.ingestPoint(1, "b", 1.0);
    store.ingestPoint(1, "c", 1.0);  // dropped
    store.ingestPoint(2, "a", 2.0);  // existing series still ingests

    EXPECT_EQ(store.seriesCount(), 2u);
    EXPECT_FALSE(store.has("c"));
    EXPECT_EQ(store.droppedSeries(), 1u);
    EXPECT_EQ(store.latest("a"), 2.0);
}

TEST(TimeSeries, ClearResetsEverything)
{
    TimeSeriesStore store;
    store.ingest(1, {});
    store.ingestPoint(1, "a", 1.0);
    store.clear();
    EXPECT_EQ(store.seriesCount(), 0u);
    EXPECT_EQ(store.ingested(), 0u);
    EXPECT_FALSE(store.has("a"));
}

TEST(TimeSeries, RejectsDegenerateConfig)
{
    TsConfig bad;
    bad.rawCapacity = 0;
    EXPECT_THROW(TimeSeriesStore{bad}, FatalError);
    TsConfig badWindow;
    badWindow.midWindow = 0;
    EXPECT_THROW(TimeSeriesStore{badWindow}, FatalError);
}

// --- Tier-boundary pins: the default rollup windows are 1k cycles
// (mid, 4'000'000 ticks) and 100k cycles (long, 400'000'000 ticks) of
// the 250 MHz kernel clock. These tests pin the exact boundary
// semantics: a bucket covers [k*window, (k+1)*window), so a point
// landing exactly ON a boundary tick belongs to the UPPER bucket and
// seals the lower one. A regression here silently shifts every SLO
// burn rate computed from rollup history.

TEST(TimeSeries, PointOnMidBoundaryBelongsToUpperBucket)
{
    TimeSeriesStore store;  // default tiers: 4'000'000 / 400'000'000
    store.ingestPoint(0, "s", 1.0);
    store.ingestPoint(3'999'999, "s", 2.0);  // last tick of bucket 0

    // Bucket 0 is still open: no sealed history yet.
    std::vector<TsRollup> mid = store.rollups("s", TsTier::Mid);
    ASSERT_EQ(mid.size(), 1u);
    EXPECT_EQ(mid[0].windowStart, 0u);
    EXPECT_EQ(mid[0].count, 2u);

    // Exactly 4'000'000 seals bucket 0 and opens [4M, 8M) with the
    // boundary point inside it — boundary ticks are never counted in
    // the lower bucket.
    store.ingestPoint(4'000'000, "s", 7.0);
    mid = store.rollups("s", TsTier::Mid);
    ASSERT_EQ(mid.size(), 2u);
    EXPECT_EQ(mid[0].windowStart, 0u);
    EXPECT_EQ(mid[0].count, 2u);
    EXPECT_EQ(mid[0].min, 1.0);
    EXPECT_EQ(mid[0].max, 2.0);
    EXPECT_EQ(mid[0].sum, 3.0);
    EXPECT_EQ(mid[0].last, 2.0);
    EXPECT_EQ(mid[1].windowStart, 4'000'000u);
    EXPECT_EQ(mid[1].count, 1u);
    EXPECT_EQ(mid[1].min, 7.0);
    EXPECT_EQ(mid[1].max, 7.0);

    // One more full bucket: [4M, 8M) sealed with exactly the
    // boundary point and its interior follower.
    store.ingestPoint(7'999'999, "s", 9.0);
    store.ingestPoint(8'000'000, "s", 0.5);
    mid = store.rollups("s", TsTier::Mid);
    ASSERT_EQ(mid.size(), 3u);
    EXPECT_EQ(mid[1].windowStart, 4'000'000u);
    EXPECT_EQ(mid[1].count, 2u);
    EXPECT_EQ(mid[1].sum, 16.0);
    EXPECT_EQ(mid[2].windowStart, 8'000'000u);

    // The long tier saw the same five points in one open bucket —
    // mid boundaries are invisible to it.
    const std::vector<TsRollup> lng = store.rollups("s", TsTier::Long);
    ASSERT_EQ(lng.size(), 1u);
    EXPECT_EQ(lng[0].windowStart, 0u);
    EXPECT_EQ(lng[0].count, 5u);
}

TEST(TimeSeries, LongTierSealsExactlyAtHundredKCycleSeam)
{
    TimeSeriesStore store;
    store.ingestPoint(399'999'999, "s", 3.0);  // last long-bucket tick
    store.ingestPoint(400'000'000, "s", 5.0);  // first of the next

    const std::vector<TsRollup> lng =
        store.rollups("s", TsTier::Long);
    ASSERT_EQ(lng.size(), 2u);
    EXPECT_EQ(lng[0].windowStart, 0u);
    EXPECT_EQ(lng[0].count, 1u);
    EXPECT_EQ(lng[0].last, 3.0);
    EXPECT_EQ(lng[1].windowStart, 400'000'000u);
    EXPECT_EQ(lng[1].count, 1u);
    EXPECT_EQ(lng[1].last, 5.0);

    // The same two points straddle a mid seam too: 399'999'999 is in
    // mid bucket [396M, 400M), the boundary point in [400M, 404M).
    const std::vector<TsRollup> mid = store.rollups("s", TsTier::Mid);
    ASSERT_EQ(mid.size(), 2u);
    EXPECT_EQ(mid[0].windowStart, 396'000'000u);
    EXPECT_EQ(mid[1].windowStart, 400'000'000u);
}

TEST(TimeSeries, WindowQueriesSpanTierSeamsOverRawPoints)
{
    TimeSeriesStore store;
    // One point each side of the long seam plus one far earlier.
    store.ingestPoint(300'000'000, "s", 1.0);
    store.ingestPoint(399'999'999, "s", 2.0);
    store.ingestPoint(400'000'001, "s", 4.0);

    // A window straddling the 400M seam sees both adjacent points —
    // windowed queries run over the raw ring, never rollup buckets,
    // so a tier seam cannot split or drop samples.
    const TsWindowStats st =
        store.windowStats("s", 10, 400'000'005);
    ASSERT_EQ(st.count, 2u);
    EXPECT_EQ(st.first, 2.0);
    EXPECT_EQ(st.last, 4.0);
    EXPECT_EQ(st.firstTick, 399'999'999u);
    EXPECT_EQ(st.lastTick, 400'000'001u);
    EXPECT_EQ(store.delta("s", 10, 400'000'005), 2.0);

    // Window edges are inclusive on both sides: [from, now].
    const TsWindowStats edge =
        store.windowStats("s", 2, 400'000'001);
    ASSERT_EQ(edge.count, 2u);
    EXPECT_EQ(edge.firstTick, 399'999'999u);
}

} // namespace
} // namespace harmonia
