#include <gtest/gtest.h>

#include "common/json.h"
#include "sim/trace.h"
#include "telemetry/metrics_registry.h"
#include "telemetry/profiler.h"

namespace harmonia {
namespace {

struct TraceGuard {
    TraceGuard()
    {
        Trace::instance().clear();
        Trace::instance().setEnabled(true);
    }
    ~TraceGuard()
    {
        Trace::instance().setEnabled(false);
        Trace::instance().clear();
    }
};

/** One root with two children and a grandchild, on distinct tracks. */
void
recordTree(std::uint64_t corr)
{
    Trace &t = Trace::instance();
    const SpanId root = t.beginSpan(0, "driver", "call", "command",
                                    TraceContext{0, corr});
    t.completeSpan(10, 40, "kernel", "decode", "command",
                   TraceContext{root, corr});
    t.completeSpan(50, 90, "wire", "transfer", "wire",
                   TraceContext{root, corr});
    t.endSpan(root, 100);
}

TEST(Profiler, FoldComputesSelfAndTotalPerTrack)
{
    TraceGuard guard;
    Profiler prof;
    recordTree(1);
    EXPECT_EQ(prof.fold(), 3u);

    const auto snap = prof.snapshot();
    ASSERT_EQ(snap.size(), 3u);  // sorted by (who, cat)
    EXPECT_EQ(snap[0].who, "driver");
    EXPECT_EQ(snap[0].totalTicks, 100u);
    // Root self = 100 - (30 + 40) direct children.
    EXPECT_EQ(snap[0].selfTicks, 30u);
    EXPECT_EQ(snap[1].who, "kernel");
    EXPECT_EQ(snap[1].selfTicks, 30u);
    EXPECT_EQ(snap[2].who, "wire");
    EXPECT_EQ(snap[2].selfTicks, 40u);

    // The telescoping identity: self times sum to the root duration.
    Tick self_sum = 0;
    for (const ProfileEntry &e : snap)
        self_sum += e.selfTicks;
    EXPECT_EQ(self_sum, 100u);
    EXPECT_EQ(prof.windowBegin(), 0u);
    EXPECT_EQ(prof.windowEnd(), 100u);
}

TEST(Profiler, FoldIsIncrementalAndNeverDoubleCounts)
{
    TraceGuard guard;
    Profiler prof;
    recordTree(1);
    EXPECT_EQ(prof.fold(), 3u);
    EXPECT_EQ(prof.fold(), 0u);  // watermark: nothing new

    Trace::instance().completeSpan(200, 250, "kernel", "decode",
                                   "command");
    EXPECT_EQ(prof.fold(), 1u);
    const auto snap = prof.snapshot();
    // The kernel track accumulated exactly one more span.
    for (const ProfileEntry &e : snap)
        if (e.who == "kernel") {
            EXPECT_EQ(e.spans, 2u);
            EXPECT_EQ(e.totalTicks, 80u);
        }
}

TEST(Profiler, ResetSkipsEverythingRecordedSoFar)
{
    TraceGuard guard;
    Profiler prof;
    recordTree(1);
    prof.reset();
    EXPECT_EQ(prof.fold(), 0u);
    EXPECT_TRUE(prof.snapshot().empty());

    recordTree(2);
    EXPECT_EQ(prof.fold(), 3u);
    EXPECT_EQ(prof.snapshot().size(), 3u);
}

TEST(Profiler, OverlappingChildrenClampSelfAtZero)
{
    TraceGuard guard;
    Trace &t = Trace::instance();
    const SpanId root =
        t.beginSpan(0, "p", "root", "x", TraceContext{0, 9});
    // Two children that together exceed the parent's duration.
    t.completeSpan(0, 80, "c", "a", "y", TraceContext{root, 9});
    t.completeSpan(10, 90, "c", "b", "y", TraceContext{root, 9});
    t.endSpan(root, 100);

    Profiler prof;
    prof.fold();
    for (const ProfileEntry &e : prof.snapshot()) {
        if (e.who == "p") {
            EXPECT_EQ(e.selfTicks, 0u);  // clamped, not underflowed
        }
    }
}

TEST(Profiler, OccupancyIsTrackTimeOverWindow)
{
    TraceGuard guard;
    Trace &t = Trace::instance();
    t.completeSpan(0, 100, "a", "x", "cat");
    t.completeSpan(100, 200, "b", "y", "cat");
    Profiler prof;
    prof.fold();
    const auto snap = prof.snapshot();
    ASSERT_EQ(snap.size(), 2u);
    EXPECT_DOUBLE_EQ(snap[0].occupancy, 0.5);
    EXPECT_DOUBLE_EQ(snap[1].occupancy, 0.5);
}

TEST(Profiler, RegisterTelemetryPublishesPerTrackGauges)
{
    TraceGuard guard;
    MetricsRegistry reg;
    Profiler prof;
    recordTree(1);
    prof.fold();
    prof.registerTelemetry(reg, "shellA/profile");

    double kernel_self = -1, driver_total = -1;
    for (const MetricSample &s : reg.snapshot()) {
        if (s.name == "shellA/profile/kernel/command/self_ticks")
            kernel_self = s.value;
        if (s.name == "shellA/profile/driver/command/total_ticks")
            driver_total = s.value;
    }
    EXPECT_DOUBLE_EQ(kernel_self, 30.0);
    EXPECT_DOUBLE_EQ(driver_total, 100.0);

    // Tracks discovered by a later fold register themselves too.
    Trace::instance().completeSpan(300, 310, "rbb0", "exec", "rbb");
    prof.fold();
    bool seen = false;
    for (const MetricSample &s : reg.snapshot())
        if (s.name == "shellA/profile/rbb0/rbb/total_ticks") {
            seen = true;
            EXPECT_DOUBLE_EQ(s.value, 10.0);
        }
    EXPECT_TRUE(seen);
}

TEST(Profiler, ToJsonIsParsableAndComplete)
{
    TraceGuard guard;
    Profiler prof;
    recordTree(1);
    prof.fold();
    // The profile JSON must survive its own parser losslessly.
    const std::string text = prof.toJson();
    std::string err;
    const JsonValue doc = JsonValue::parse(text, &err);
    EXPECT_TRUE(err.empty()) << err;
    ASSERT_EQ(doc.get("entries").size(), 3u);
    EXPECT_EQ(doc.get("entries").at(0).get("who").asString(),
              "driver");
    EXPECT_EQ(doc.get("entries").at(0).get("self_ticks").asU64(),
              30u);
}

TEST(SpanTree, ForCorrFiltersAndSortsByBegin)
{
    TraceGuard guard;
    Trace &t = Trace::instance();
    t.completeSpan(50, 60, "other", "noise", "x",
                   TraceContext{0, 8});
    recordTree(7);
    const auto tree = spanTreeForCorr(t, 7);
    ASSERT_EQ(tree.size(), 3u);
    EXPECT_EQ(tree[0].who, "driver");  // earliest begin first
    EXPECT_EQ(tree[1].who, "kernel");
    EXPECT_EQ(tree[2].who, "wire");
    // Correlation 0 means "untraced" and never matches anything.
    EXPECT_TRUE(spanTreeForCorr(t, 0).empty());
}

TEST(SpanTree, RenderIndentsChildrenUnderParents)
{
    TraceGuard guard;
    recordTree(3);
    const std::string text =
        renderSpanTree(spanTreeForCorr(Trace::instance(), 3));
    EXPECT_NE(text.find("driver/command"), std::string::npos);
    EXPECT_NE(text.find("\n  kernel/command"), std::string::npos);
    EXPECT_NE(text.find("\n  wire/wire"), std::string::npos);
    EXPECT_NE(text.find("(self 30)"), std::string::npos);
}

TEST(TraceGauges, ExposeLeakAndDropCounters)
{
    TraceGuard guard;
    Trace &t = Trace::instance();
    MetricsRegistry reg;
    ScopedMetrics handle(reg);
    registerTraceGauges(handle, "trace", t);

    t.beginSpan(1, "a", "open_forever");
    t.endSpan(999'999, 5);  // unmatched
    t.setMaxOpenSpans(1);
    EXPECT_EQ(t.beginSpan(2, "b", "dropped"), 0u);
    t.setMaxOpenSpans(Trace::kMaxOpenSpans);

    std::map<std::string, double> vals;
    for (const MetricSample &s : reg.snapshot())
        vals[s.name] = s.value;
    EXPECT_DOUBLE_EQ(vals["trace/open_spans"], 1.0);
    EXPECT_DOUBLE_EQ(vals["trace/unmatched_ends"], 1.0);
    EXPECT_DOUBLE_EQ(vals["trace/dropped_open_spans"], 1.0);
    EXPECT_DOUBLE_EQ(vals["trace/span_capacity"],
                     static_cast<double>(t.capacity()));
}

} // namespace
} // namespace harmonia
