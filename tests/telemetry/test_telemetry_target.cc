#include <gtest/gtest.h>

#include "cmd/command_codes.h"
#include "common/logging.h"
#include "sim/trace.h"
#include "telemetry/profiler.h"
#include "telemetry/telemetry_target.h"

namespace harmonia {
namespace {

std::uint64_t
u64At(const std::vector<std::uint32_t> &d, std::size_t i)
{
    return (static_cast<std::uint64_t>(d[i]) << 32) | d[i + 1];
}

TEST(TelemetryTarget, BadIndexAndUnknownCodeAreRejected)
{
    MetricsRegistry reg;
    TelemetryTarget target(reg);
    EXPECT_EQ(target.executeCommand(kCmdObsDelta, {}).status,
              kCmdBadArgument);
    EXPECT_EQ(target.executeCommand(kCmdObsDelta, {7}).status,
              kCmdBadArgument);
    EXPECT_EQ(target.executeCommand(kCmdTableWrite, {}).status,
              kCmdUnknownCode);
    // The retired TelemetryList / TelemetrySnapshot polling codes.
    for (const std::uint16_t retired : {0x0030, 0x0031})
        EXPECT_EQ(target.executeCommand(retired, {0}).status,
                  kCmdUnknownCode);
}

TEST(TelemetryTarget, StatusReadReportsRegistrySize)
{
    MetricsRegistry reg;
    Counter c;
    reg.addCounter("x", &c);
    reg.addCounter("y", &c);
    TelemetryTarget target(reg);
    const CommandResult r =
        target.executeCommand(kCmdModuleStatusRead, {});
    ASSERT_EQ(r.status, kCmdOk);
    EXPECT_EQ(r.data[0], 2u);
}

TEST(TelemetryTarget, LongNamesTruncateCleanly)
{
    MetricsRegistry reg;
    Counter c;
    const std::string relative(TelemetryTarget::kNameWords * 4 + 20,
                               'x');
    reg.addCounter("card/" + relative, &c);
    TelemetryTarget target(reg);

    std::vector<std::uint32_t> open{0};
    TelemetryTarget::packNameTo(open, "card/");
    const CommandResult sub =
        target.executeCommand(kCmdObsSubscribe, open);
    ASSERT_EQ(sub.status, kCmdOk);
    const CommandResult page =
        target.executeCommand(kCmdObsSubscribe, {sub.data[0], 0});
    ASSERT_EQ(page.status, kCmdOk);
    ASSERT_EQ(page.data[1], 1u);
    // The map page carries the name relative to the subscribed
    // prefix, truncated to the packed width, never garbled.
    EXPECT_EQ(TelemetryTarget::unpackName(&page.data[4]),
              std::string(TelemetryTarget::kNameWords * 4, 'x'));
}

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

TEST(TelemetryTarget, ProfileCommandsNeedAnAttachedProfiler)
{
    MetricsRegistry reg;
    TelemetryTarget target(reg);
    EXPECT_EQ(target.executeCommand(kCmdProfileSnapshot, {}).status,
              kCmdInternalError);
    EXPECT_EQ(target.executeCommand(kCmdProfileReset, {}).status,
              kCmdInternalError);
}

TEST(TelemetryTarget, ProfileSnapshotWalksTracksInBatches)
{
    TraceGuard guard;
    // More tracks than one batch, so the walk must paginate.
    const std::size_t tracks = TelemetryTarget::kProfileBatch + 2;
    for (std::size_t i = 0; i < tracks; ++i)
        Trace::instance().completeSpan(
            i * 100, i * 100 + 10 + i, format("mod%zu", i), "work",
            "cat");

    MetricsRegistry reg;
    Profiler prof;
    TelemetryTarget target(reg);
    target.attachProfiler(&prof);

    std::vector<std::pair<std::string, std::uint64_t>> seen;
    std::uint32_t start = 0;
    for (;;) {
        // ProfileSnapshot folds the trace itself: no prior fold().
        const CommandResult res =
            target.executeCommand(kCmdProfileSnapshot, {start});
        ASSERT_EQ(res.status, kCmdOk);
        const std::uint32_t total = res.data[0];
        const std::uint32_t k = res.data[1];
        EXPECT_EQ(total, tracks);
        EXPECT_LE(k, TelemetryTarget::kProfileBatch);
        std::size_t off = 2;
        for (std::uint32_t i = 0; i < k; ++i) {
            EXPECT_EQ(res.data[off], start + i);  // index echo
            const std::uint64_t spans = u64At(res.data, off + 1);
            const std::uint64_t self = u64At(res.data, off + 5);
            EXPECT_EQ(spans, 1u);
            EXPECT_EQ(u64At(res.data, off + 3), self);  // no children
            seen.emplace_back(
                TelemetryTarget::unpackName(&res.data[off + 7]),
                self);
            off += 7 + TelemetryTarget::kNameWords;
        }
        start += k;
        if (start >= total || k == 0)
            break;
    }

    ASSERT_EQ(seen.size(), tracks);
    // Names are "who|cat"; self times match what was recorded.
    EXPECT_EQ(seen[0].first, "mod0|cat");
    EXPECT_EQ(seen[0].second, 10u);
    EXPECT_EQ(seen[tracks - 1].first,
              format("mod%zu|cat", tracks - 1));
    EXPECT_EQ(seen[tracks - 1].second, 10u + tracks - 1);
}

TEST(TelemetryTarget, ProfileResetDropsAggregatesOverTheWire)
{
    TraceGuard guard;
    Trace::instance().completeSpan(0, 50, "mod", "work", "cat");

    MetricsRegistry reg;
    Profiler prof;
    TelemetryTarget target(reg);
    target.attachProfiler(&prof);

    CommandResult res =
        target.executeCommand(kCmdProfileSnapshot, {0});
    ASSERT_EQ(res.status, kCmdOk);
    EXPECT_EQ(res.data[0], 1u);

    EXPECT_EQ(target.executeCommand(kCmdProfileReset, {}).status,
              kCmdOk);
    res = target.executeCommand(kCmdProfileSnapshot, {0});
    ASSERT_EQ(res.status, kCmdOk);
    EXPECT_EQ(res.data[0], 0u);  // aggregates gone, spans skipped
}

} // namespace
} // namespace harmonia
