#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <string_view>

#include "cmd/control_kernel.h"
#include "common/logging.h"
#include "sim/engine.h"
#include "sim/trace.h"

namespace harmonia {
namespace {

/** RAII guard: enable tracing for one test, restore after. */
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

TEST(Trace, DisabledByDefaultAndFreeWhenOff)
{
    Trace::instance().clear();
    ASSERT_FALSE(Trace::instance().enabled());
    Trace::instance().record(100, "x", "y");
    EXPECT_EQ(Trace::instance().size(), 0u);
}

TEST(Trace, RecordsComponentEvents)
{
    TraceGuard guard;
    Engine engine;
    Clock *clk = engine.addClock("clk", 100.0);
    FunctionComponent *cp = nullptr;
    FunctionComponent c("worker", [&] {
        trace(*cp, "tick %llu",
              static_cast<unsigned long long>(cp->cycle()));
    });
    cp = &c;
    engine.add(&c, clk);
    engine.runCycles(clk, 3);

    ASSERT_EQ(Trace::instance().size(), 3u);
    const auto &entries = Trace::instance().entries();
    EXPECT_EQ(entries[0].who, "worker");
    EXPECT_EQ(entries[0].what, "tick 1");
    EXPECT_EQ(entries[2].tick, 30'000u);  // 3rd edge of 100 MHz
}

TEST(Trace, RingBounded)
{
    TraceGuard guard;
    for (std::size_t i = 0; i < Trace::kCapacity + 50; ++i)
        Trace::instance().record(i, "a", "b");
    EXPECT_EQ(Trace::instance().size(), Trace::kCapacity);
    EXPECT_EQ(Trace::instance().entries().front().tick, 50u);
}

TEST(Trace, DumpRendersReadableLines)
{
    TraceGuard guard;
    Trace::instance().record(1'500'000, "uck", "executed ModuleInit");
    const std::string out = Trace::instance().dump();
    EXPECT_NE(out.find("uck"), std::string::npos);
    EXPECT_NE(out.find("ModuleInit"), std::string::npos);
    EXPECT_NE(out.find("us"), std::string::npos);  // human time
}

TEST(Trace, SetCapacityPreservesNewestEntries)
{
    TraceGuard guard;
    for (Tick t = 0; t < 100; ++t)
        Trace::instance().record(t, "a", "b");
    Trace::instance().setCapacity(10);
    ASSERT_EQ(Trace::instance().size(), 10u);
    const auto entries = Trace::instance().entries();
    EXPECT_EQ(entries.front().tick, 90u);
    EXPECT_EQ(entries.back().tick, 99u);
    // Capacity 0 clamps to 1 rather than wedging the ring.
    Trace::instance().setCapacity(0);
    EXPECT_EQ(Trace::instance().capacity(), 1u);
    Trace::instance().record(123, "a", "b");
    EXPECT_EQ(Trace::instance().size(), 1u);
    Trace::instance().setCapacity(Trace::kCapacity);
}

TEST(Trace, SpanPairingMeasuresDuration)
{
    TraceGuard guard;
    const SpanId id =
        Trace::instance().beginSpan(1000, "wrap", "ingress", "wrapper");
    ASSERT_NE(id, 0u);
    EXPECT_EQ(Trace::instance().openSpanCount(), 1u);
    EXPECT_EQ(Trace::instance().endSpan(id, 4000), 3000u);
    EXPECT_EQ(Trace::instance().openSpanCount(), 0u);
    ASSERT_EQ(Trace::instance().spanCount(), 1u);
    const auto spans = Trace::instance().spans();
    EXPECT_EQ(spans[0].begin, 1000u);
    EXPECT_EQ(spans[0].end, 4000u);
    EXPECT_EQ(spans[0].who, "wrap");
    EXPECT_EQ(spans[0].cat, "wrapper");
}

TEST(Trace, UnmatchedSpanEndsAreCountedNotRecorded)
{
    TraceGuard guard;
    EXPECT_EQ(Trace::instance().endSpan(0, 100), 0u);  // "no span" id
    EXPECT_EQ(Trace::instance().endSpan(777, 100), 0u);
    EXPECT_EQ(Trace::instance().spanCount(), 0u);
    // endSpan(0) is the documented no-op for disabled begins; only the
    // genuinely unknown id counts as unmatched.
    EXPECT_EQ(Trace::instance().unmatchedEnds(), 1u);
}

TEST(Trace, SpansFreeWhenDisabled)
{
    Trace::instance().clear();
    ASSERT_FALSE(Trace::instance().enabled());
    EXPECT_EQ(Trace::instance().beginSpan(1, "a", "b"), 0u);
    Trace::instance().completeSpan(1, 2, "a", "b");
    EXPECT_EQ(Trace::instance().spanCount(), 0u);
    EXPECT_EQ(Trace::instance().openSpanCount(), 0u);
}

TEST(Trace, SpanViewsCostNothingOffAndAreCopiedOn)
{
    TraceGuard guard;
    Trace &t = Trace::instance();
    // Views into a buffer that changes after the call: the span must
    // keep its own copy, cut at the view's length (no terminator).
    std::string buf = "wrap0|ingress|wrapper";
    const std::string_view who = std::string_view(buf).substr(0, 5);
    const std::string_view what = std::string_view(buf).substr(6, 7);
    const std::string_view cat = std::string_view(buf).substr(14);

    // Off: nothing is stored or counted, even with the open table full.
    t.setMaxOpenSpans(1);
    const SpanId held = t.beginSpan(1, "x", "held");
    ASSERT_NE(held, 0u);
    t.setEnabled(false);
    const TraceContext ctx{held, 9};
    EXPECT_EQ(t.beginSpan(2, who, what, cat), 0u);
    EXPECT_EQ(t.beginSpan(2, who, what, cat, ctx), 0u);
    t.completeSpan(2, 3, who, what, cat);
    t.completeSpan(2, 3, who, what, cat, ctx);
    t.record(2, who, what);
    EXPECT_EQ(t.spanCount(), 0u);
    EXPECT_EQ(t.openSpanCount(), 1u);
    EXPECT_EQ(t.droppedOpens(), 0u);
    EXPECT_EQ(t.size(), 0u);
    t.setMaxOpenSpans(Trace::kMaxOpenSpans);

    // On: who, what and cat round-trip through both span kinds.
    t.clear();
    t.setEnabled(true);
    const SpanId id = t.beginSpan(10, who, what, cat);
    t.completeSpan(20, 30, who, what, cat);
    t.record(40, who, what);
    buf.assign(buf.size(), '#');
    t.endSpan(id, 15);
    const auto all = t.spans();
    ASSERT_EQ(all.size(), 2u);
    for (const Trace::Span &s : all) {
        EXPECT_EQ(s.who, "wrap0");
        EXPECT_EQ(s.what, "ingress");
        EXPECT_EQ(s.cat, "wrapper");
    }
    ASSERT_EQ(t.entries().size(), 1u);
    EXPECT_EQ(t.entries()[0].who, "wrap0");
    EXPECT_EQ(t.entries()[0].what, "ingress");
}

TEST(Trace, CompleteSpanRecordsPreMeasuredInterval)
{
    TraceGuard guard;
    Trace::instance().completeSpan(500, 900, "mem", "mem_read",
                                   "wrapper");
    ASSERT_EQ(Trace::instance().spanCount(), 1u);
    const auto spans = Trace::instance().spans();
    EXPECT_EQ(spans[0].end - spans[0].begin, 400u);
}

TEST(Trace, AmbientContextStampsNewSpans)
{
    TraceGuard guard;
    Trace &t = Trace::instance();
    const std::uint64_t corr = t.newCorrelation();
    const SpanId root = t.beginSpan(0, "drv", "call", "command",
                                    TraceContext{0, corr});
    {
        ScopedTraceContext scope(TraceContext{root, corr});
        const SpanId child = t.beginSpan(10, "uck", "decode");
        t.endSpan(child, 20);
        t.completeSpan(12, 18, "rbb", "exec");
    }
    // Scope popped: back to the unarmed default.
    EXPECT_FALSE(t.context().armed());
    t.endSpan(root, 30);

    const auto spans = t.spans();
    ASSERT_EQ(spans.size(), 3u);
    for (const Trace::Span &s : spans)
        EXPECT_EQ(s.corr, corr) << s.who;
    EXPECT_EQ(spans[0].parent, root);  // child closed first
    EXPECT_EQ(spans[1].parent, root);
    EXPECT_EQ(spans[2].parent, 0u);    // the root itself
}

TEST(Trace, ScopedContextsNest)
{
    TraceGuard guard;
    Trace &t = Trace::instance();
    ScopedTraceContext outer(TraceContext{11, 1});
    {
        ScopedTraceContext inner(TraceContext{22, 1});
        EXPECT_EQ(t.context().parent, 22u);
    }
    EXPECT_EQ(t.context().parent, 11u);
}

TEST(Trace, WireTagsRoundTripContexts)
{
    TraceGuard guard;
    Trace &t = Trace::instance();
    const TraceContext ctx{42, 7};
    const std::uint16_t tag = t.armTag(ctx);
    ASSERT_NE(tag, 0);
    EXPECT_EQ(t.armedTagCount(), 1u);

    const TraceContext back = t.taggedContext(tag);
    EXPECT_EQ(back.parent, 42u);
    EXPECT_EQ(back.corr, 7u);

    // Unknown and zero tags resolve to the unarmed context.
    EXPECT_FALSE(t.taggedContext(0).armed());
    EXPECT_FALSE(
        t.taggedContext(static_cast<std::uint16_t>(tag + 1)).armed());

    t.disarmTag(tag);
    EXPECT_EQ(t.armedTagCount(), 0u);
    EXPECT_FALSE(t.taggedContext(tag).armed());
    t.disarmTag(tag);  // idempotent
}

TEST(Trace, TagAllocationSkipsLiveTags)
{
    TraceGuard guard;
    Trace &t = Trace::instance();
    const std::uint16_t a = t.armTag({1, 1});
    const std::uint16_t b = t.armTag({2, 2});
    EXPECT_NE(a, b);
    EXPECT_EQ(t.taggedContext(a).parent, 1u);
    EXPECT_EQ(t.taggedContext(b).parent, 2u);
    t.disarmTag(a);
    t.disarmTag(b);
    // Disabled tracing never hands out tags.
    t.setEnabled(false);
    EXPECT_EQ(t.armTag({3, 3}), 0);
    t.setEnabled(true);
}

TEST(Trace, OpenSpanTableBoundDropsNotLeaks)
{
    TraceGuard guard;
    Trace &t = Trace::instance();
    t.setMaxOpenSpans(2);
    const SpanId a = t.beginSpan(1, "x", "a");
    const SpanId b = t.beginSpan(2, "x", "b");
    ASSERT_NE(a, 0u);
    ASSERT_NE(b, 0u);
    EXPECT_EQ(t.beginSpan(3, "x", "c"), 0u);  // table full
    EXPECT_EQ(t.droppedOpens(), 1u);
    t.endSpan(a, 5);
    EXPECT_NE(t.beginSpan(6, "x", "d"), 0u);  // slot freed
    t.setMaxOpenSpans(Trace::kMaxOpenSpans);
}

TEST(Trace, OpenSpanBeginQueriesLiveSpans)
{
    TraceGuard guard;
    Trace &t = Trace::instance();
    const SpanId s = t.beginSpan(1234, "x", "live");
    EXPECT_EQ(t.openSpanBegin(s), 1234u);
    EXPECT_EQ(t.openSpanBegin(0), 0u);
    t.endSpan(s, 2000);
    EXPECT_EQ(t.openSpanBegin(s), 0u);  // completed: no longer open
}

TEST(Trace, EnvCapacityOverrideAppliesAndValidates)
{
    TraceGuard guard;
    Trace &t = Trace::instance();
    const std::size_t before = t.capacity();

    ::setenv("HARMONIA_TRACE_CAP", "512", 1);
    t.applyEnvCapacity();
    EXPECT_EQ(t.capacity(), 512u);
    EXPECT_EQ(t.maxOpenSpans(), 512u);

    // Malformed values are ignored, not fatal.
    ::setenv("HARMONIA_TRACE_CAP", "12abc", 1);
    t.applyEnvCapacity();
    EXPECT_EQ(t.capacity(), 512u);
    ::setenv("HARMONIA_TRACE_CAP", "0", 1);
    t.applyEnvCapacity();
    EXPECT_EQ(t.capacity(), 512u);

    ::unsetenv("HARMONIA_TRACE_CAP");
    t.applyEnvCapacity();  // absent: no change
    EXPECT_EQ(t.capacity(), 512u);

    t.setCapacity(before);
    t.setMaxOpenSpans(Trace::kMaxOpenSpans);
}

TEST(Trace, ControlKernelEmitsExecutionEvents)
{
    TraceGuard guard;
    Engine engine;
    Clock *clk = engine.addClock("clk", 250.0);
    UnifiedControlKernel kernel("uck");
    engine.add(&kernel, clk);

    CommandPacket cmd;
    cmd.rbbId = kRbbSystem;
    cmd.commandCode = kCmdTimeCount;
    ASSERT_TRUE(kernel.submit(cmd));
    ASSERT_TRUE(engine.runUntilDone(
        [&] { return kernel.hasResponse(); }, 10'000'000));

    bool seen = false;
    for (const auto &e : Trace::instance().entries())
        if (e.who == "uck" &&
            e.what.find("TimeCount") != std::string::npos)
            seen = true;
    EXPECT_TRUE(seen);
}

} // namespace
} // namespace harmonia
