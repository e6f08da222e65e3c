#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "cmd/command_codes.h"
#include "common/logging.h"
#include "host/host_app.h"
#include "obs/fleet_sim.h"
#include "obs/hub.h"
#include "obs/trace_federation.h"
#include "telemetry/telemetry_target.h"

namespace harmonia {
namespace {

/** Open a streaming subscription; returns its id. */
std::uint32_t
openSub(TelemetryTarget &target, const std::string &prefix = "")
{
    std::vector<std::uint32_t> req{0};
    if (!prefix.empty())
        TelemetryTarget::packNameTo(req, prefix);
    const CommandResult r =
        target.executeCommand(kCmdObsSubscribe, req);
    EXPECT_EQ(r.status, kCmdOk);
    EXPECT_GE(r.data.size(), 5u);
    return r.data.empty() ? 0 : r.data[0];
}

/**
 * Walk the map pages of one subscription into index order, re-adding
 * the subscribed @p prefix to each page's prefix-relative name the
 * way ObsHub does.
 */
std::vector<ObsMapEntry>
walkMap(TelemetryTarget &target, std::uint32_t sub_id,
        const std::string &prefix = "")
{
    constexpr std::size_t kRecord = 2 + TelemetryTarget::kNameWords;
    std::vector<ObsMapEntry> map;
    std::uint32_t start = 0;
    for (;;) {
        const CommandResult r =
            target.executeCommand(kCmdObsSubscribe, {sub_id, start});
        EXPECT_EQ(r.status, kCmdOk);
        const std::uint32_t total = r.data[0];
        const std::uint32_t k = r.data[1];
        if (map.size() != total)
            map.resize(total);
        for (std::uint32_t i = 0; i < k; ++i) {
            const std::size_t at = 2 + i * kRecord;
            const std::uint32_t idx = r.data[at];
            EXPECT_LT(idx, map.size());
            map[idx].enc = r.data[at + 1];
            map[idx].name =
                prefix + TelemetryTarget::unpackName(&r.data[at + 2]);
        }
        start += k;
        if (k == 0 || start >= total)
            break;
    }
    return map;
}

/** One decoded ObsDelta response. */
struct DecodedDelta {
    std::uint32_t epoch = 0;
    std::uint32_t seq = 0;
    std::uint32_t flags = 0;
    std::vector<std::pair<std::uint32_t, std::uint64_t>> records;
};

DecodedDelta
readDelta(TelemetryTarget &target, std::uint32_t sub_id,
          std::uint32_t req_flags = 0)
{
    std::vector<std::uint32_t> req{sub_id};
    if (req_flags != 0)
        req.push_back(req_flags);
    const CommandResult r = target.executeCommand(kCmdObsDelta, req);
    EXPECT_EQ(r.status, kCmdOk);
    DecodedDelta d;
    if (r.data.size() < 4)
        return d;
    d.epoch = r.data[0];
    d.seq = r.data[1];
    d.flags = r.data[2];
    const std::uint32_t k = r.data[3];
    EXPECT_EQ(r.data.size(), 4u + std::size_t{k} * 3);
    for (std::uint32_t i = 0; i < k; ++i) {
        const std::size_t at = 4 + std::size_t{i} * 3;
        d.records.emplace_back(
            r.data[at],
            (static_cast<std::uint64_t>(r.data[at + 1]) << 32) |
                r.data[at + 2]);
    }
    return d;
}

/** Value of @p name in a decoded delta via @p map; -1 when absent. */
double
deltaValue(const DecodedDelta &d, const std::vector<ObsMapEntry> &map,
           const std::string &name)
{
    for (const auto &[idx, raw] : d.records) {
        if (idx >= map.size() || map[idx].name != name)
            continue;
        return map[idx].enc == 1 ? static_cast<double>(raw) / 1000.0
                                 : static_cast<double>(raw);
    }
    return -1.0;
}

/** Raw wire value of @p name in a decoded delta; ~0 when absent. */
std::uint64_t
deltaRaw(const DecodedDelta &d, const std::vector<ObsMapEntry> &map,
         const std::string &name)
{
    for (const auto &[idx, raw] : d.records)
        if (idx < map.size() && map[idx].name == name)
            return raw;
    return ~std::uint64_t{0};
}

// --- Protocol level: TelemetryTarget against a local registry. -----

TEST(Federation, SubscribeFreezesSortedFilteredMap)
{
    MetricsRegistry reg;
    Counter cx, cy, cz;
    Histogram h(1000, 64);
    h.sample(5'000);
    reg.addCounter("a/y", &cy);
    reg.addCounter("b/z", &cz);
    reg.addCounter("a/x", &cx);
    reg.addHistogram("a/h", &h);

    TelemetryTarget target(reg);
    const std::uint32_t sub = openSub(target, "a/");
    const std::vector<ObsMapEntry> map = walkMap(target, sub, "a/");

    // Histogram explodes into count + /p50 + /p99; "b/z" filtered
    // out; order is name-sorted.
    ASSERT_EQ(map.size(), 5u);
    EXPECT_EQ(map[0].name, "a/h");
    EXPECT_EQ(map[0].enc, 0u);
    EXPECT_EQ(map[1].name, "a/h/p50");
    EXPECT_EQ(map[1].enc, 1u);
    EXPECT_EQ(map[2].name, "a/h/p99");
    EXPECT_EQ(map[2].enc, 1u);
    EXPECT_EQ(map[3].name, "a/x");
    EXPECT_EQ(map[4].name, "a/y");
}

TEST(Federation, DeltaSendsEverythingOnceThenOnlyChanges)
{
    MetricsRegistry reg;
    Counter ca, cb, big;
    ca.inc(5);
    big.inc(123456789);
    Histogram h(1000, 64);
    for (std::uint64_t v : {1'000ull, 5'000ull, 60'000ull})
        h.sample(v);
    reg.addCounter("s/a", &ca);
    reg.addCounter("s/b", &cb);
    reg.addCounter("s/big", &big);
    reg.addGauge("s/depth", [] { return 2.25; });
    reg.addHistogram("s/lat", &h);

    TelemetryTarget target(reg);
    const std::uint32_t sub = openSub(target);
    const std::vector<ObsMapEntry> map = walkMap(target, sub);

    // First delta: the full set, never-sent series included at 0.
    DecodedDelta d = readDelta(target, sub);
    EXPECT_EQ(d.seq, 1u);
    EXPECT_EQ(d.flags, 0u);
    ASSERT_EQ(d.records.size(), 7u);
    EXPECT_EQ(deltaValue(d, map, "s/a"), 5.0);
    EXPECT_EQ(deltaValue(d, map, "s/b"), 0.0);
    // Counters are exact; gauges travel milli-scaled; a histogram's
    // count is exact and its p50/p99 are milli-scaled.
    const MetricSample lat = reg.snapshot().back();
    ASSERT_EQ(lat.name, "s/lat");
    EXPECT_EQ(deltaRaw(d, map, "s/big"), 123456789u);
    EXPECT_EQ(deltaRaw(d, map, "s/depth"), 2250u);
    EXPECT_EQ(deltaRaw(d, map, "s/lat"), 3u);
    EXPECT_EQ(deltaRaw(d, map, "s/lat/p50"),
              static_cast<std::uint64_t>(lat.p50 * 1000 + 0.5));
    EXPECT_EQ(deltaRaw(d, map, "s/lat/p99"),
              static_cast<std::uint64_t>(lat.p99 * 1000 + 0.5));

    // Quiescent: nothing to send, seq still advances.
    d = readDelta(target, sub);
    EXPECT_EQ(d.seq, 2u);
    EXPECT_TRUE(d.records.empty());

    // One change moves exactly one record, cumulative value.
    ca.inc(7);
    d = readDelta(target, sub);
    EXPECT_EQ(d.seq, 3u);
    ASSERT_EQ(d.records.size(), 1u);
    EXPECT_EQ(deltaValue(d, map, "s/a"), 12.0);
}

TEST(Federation, DeltaBatchesWithMorePendingFlag)
{
    MetricsRegistry reg;
    std::vector<Counter> counters(TelemetryTarget::kDeltaBatch + 10);
    for (std::size_t i = 0; i < counters.size(); ++i) {
        counters[i].inc(i + 1);
        reg.addCounter(format("m/%03zu", i), &counters[i]);
    }

    TelemetryTarget target(reg);
    const std::uint32_t sub = openSub(target);

    // The map walk pages past kMapBatch and fills every index in
    // name order.
    ASSERT_GT(counters.size(), TelemetryTarget::kMapBatch);
    const std::vector<ObsMapEntry> map = walkMap(target, sub);
    ASSERT_EQ(map.size(), counters.size());
    for (std::size_t i = 0; i < map.size(); ++i)
        EXPECT_EQ(map[i].name, format("m/%03zu", i));

    DecodedDelta d = readDelta(target, sub);
    EXPECT_EQ(d.records.size(), TelemetryTarget::kDeltaBatch);
    EXPECT_EQ(d.flags & 0x2u, 0x2u);  // more pending

    d = readDelta(target, sub);
    EXPECT_EQ(d.records.size(), 10u);
    EXPECT_EQ(d.flags & 0x2u, 0u);

    d = readDelta(target, sub);
    EXPECT_TRUE(d.records.empty());
}

TEST(Federation, MapChangeRefreezesUnderNewEpoch)
{
    MetricsRegistry reg;
    Counter ca;
    reg.addCounter("s/a", &ca);

    TelemetryTarget target(reg);
    const std::uint32_t sub = openSub(target);
    DecodedDelta d = readDelta(target, sub);
    const std::uint32_t epoch0 = d.epoch;
    ASSERT_EQ(d.records.size(), 1u);

    // The registry changes shape: the next delta carries no records,
    // just the map-changed flag under a bumped epoch — and seq stays
    // gapless, so a map change is never mistaken for a lost response.
    Counter cb;
    cb.inc(9);
    const MetricId id = reg.addCounter("s/b", &cb);
    d = readDelta(target, sub);
    EXPECT_EQ(d.flags & 0x1u, 0x1u);
    EXPECT_EQ(d.epoch, epoch0 + 1);
    EXPECT_EQ(d.seq, 2u);
    EXPECT_TRUE(d.records.empty());

    // Re-read the map, then the full re-send arrives.
    const std::vector<ObsMapEntry> map = walkMap(target, sub);
    ASSERT_EQ(map.size(), 2u);
    d = readDelta(target, sub);
    EXPECT_EQ(d.seq, 3u);
    ASSERT_EQ(d.records.size(), 2u);
    EXPECT_EQ(deltaValue(d, map, "s/b"), 9.0);
    reg.remove(id);
}

TEST(Federation, ResyncRequestResendsCumulativeValues)
{
    MetricsRegistry reg;
    Counter ca, cb;
    ca.inc(3);
    cb.inc(4);
    reg.addCounter("s/a", &ca);
    reg.addCounter("s/b", &cb);

    TelemetryTarget target(reg);
    const std::uint32_t sub = openSub(target);
    const std::vector<ObsMapEntry> map = walkMap(target, sub);
    DecodedDelta d = readDelta(target, sub);
    ASSERT_EQ(d.records.size(), 2u);
    d = readDelta(target, sub);
    EXPECT_TRUE(d.records.empty());

    // Resync: everything again, values still cumulative.
    d = readDelta(target, sub, 0x1);
    EXPECT_EQ(d.seq, 3u);
    ASSERT_EQ(d.records.size(), 2u);
    EXPECT_EQ(deltaValue(d, map, "s/a"), 3.0);
    EXPECT_EQ(deltaValue(d, map, "s/b"), 4.0);
}

TEST(Federation, DroppedDeltaLeavesVisibleSeqGap)
{
    MetricsRegistry reg;
    Counter ca;
    reg.addCounter("s/a", &ca);

    TelemetryTarget target(reg);
    const std::uint32_t sub = openSub(target);
    DecodedDelta d = readDelta(target, sub);
    EXPECT_EQ(d.seq, 1u);

    // The lost response consumed the change: without a resync its
    // samples would be gone for good — the seq jump is the only tell.
    ca.inc(8);
    ASSERT_TRUE(target.dropOneDelta(sub));
    d = readDelta(target, sub);
    EXPECT_EQ(d.seq, 3u);
    EXPECT_TRUE(d.records.empty());

    const std::vector<ObsMapEntry> map = walkMap(target, sub);
    d = readDelta(target, sub, 0x1);
    EXPECT_EQ(deltaValue(d, map, "s/a"), 8.0);
}

TEST(Federation, SubscriptionCapacityAndClose)
{
    MetricsRegistry reg;
    Counter c;
    reg.addCounter("a", &c);
    TelemetryTarget target(reg);

    std::vector<std::uint32_t> ids;
    for (std::size_t i = 0; i < TelemetryTarget::kMaxSubscriptions;
         ++i)
        ids.push_back(openSub(target));
    EXPECT_EQ(target.subscriptionCount(),
              TelemetryTarget::kMaxSubscriptions);
    EXPECT_EQ(target.executeCommand(kCmdObsSubscribe, {0}).status,
              kCmdInternalError);

    // Close frees the slot; stale ids are rejected, not crashed on.
    EXPECT_EQ(
        target.executeCommand(kCmdObsSubscribe, {ids[0]}).status,
        kCmdOk);
    EXPECT_EQ(target.subscriptionCount(),
              TelemetryTarget::kMaxSubscriptions - 1);
    EXPECT_EQ(target.executeCommand(kCmdObsDelta, {ids[0]}).status,
              kCmdBadArgument);
    EXPECT_EQ(
        target.executeCommand(kCmdObsSubscribe, {ids[0], 0}).status,
        kCmdBadArgument);
    EXPECT_FALSE(target.dropOneDelta(ids[0]));
}

// --- Hub level: streaming federation over a real shell. ------------

/** Map names equal the registry's full names, all distinct. */
void
expectFullNames(const std::vector<ObsMapEntry> &map,
                const std::vector<ScalarSeries> &expected)
{
    ASSERT_EQ(map.size(), expected.size());
    std::set<std::string> distinct;
    for (std::size_t i = 0; i < map.size(); ++i) {
        EXPECT_EQ(map[i].name, expected[i].name);
        distinct.insert(map[i].name);
    }
    EXPECT_EQ(distinct.size(), map.size());
}

TEST(Federation, HubMapNamesAreFullRegistryNames)
{
    Engine engine;
    auto shell = Shell::makeUnified(
        engine, DeviceDatabase::instance().byName("DeviceA"));
    shell->registerTelemetry();
    const std::string prefix = shell->name() + "/";
    const MetricsRegistry &reg = MetricsRegistry::instance();

    // Map pages carry names relative to the subscribed prefix, so the
    // long wrapper-latency names and their /p50 and /p99 series stay
    // distinct after the hub re-adds the prefix. The subscription
    // freezes the registry as it was before its own commands bumped
    // the kernel's per-command counters.
    const std::vector<ScalarSeries> frozen = reg.scalarSeries(prefix);
    ObsHub hub(engine);
    ASSERT_TRUE(hub.addDevice("DeviceA", "uut", *shell));
    ASSERT_TRUE(hub.subscribe("DeviceA"));
    EXPECT_EQ(frozen.size(), 46u);
    expectFullNames(hub.deviceMap("DeviceA"), frozen);
    EXPECT_TRUE(std::any_of(frozen.begin(), frozen.end(),
                            [](const ScalarSeries &s) {
                                return s.name.size() >
                                       TelemetryTarget::kNameWords * 4;
                            }));

    // A poll follows the counters those commands created.
    hub.poll(engine.now());
    expectFullNames(hub.deviceMap("DeviceA"), reg.scalarSeries(prefix));
}

TEST(Federation, HubStreamsFewerWireWordsThanSnapshotPolling)
{
    Engine engine;
    auto shell = Shell::makeUnified(
        engine, DeviceDatabase::instance().byName("DeviceA"));
    shell->registerTelemetry();

    ObsHub hub(engine);
    ASSERT_TRUE(hub.addDevice("DeviceA", "uut", *shell));
    ASSERT_TRUE(hub.subscribe("DeviceA"));
    EXPECT_GT(hub.device("DeviceA").mapSize, 0u);

    for (int i = 0; i < 8; ++i) {
        engine.runFor(1'000'000);
        hub.poll(engine.now());
    }

    // The acceptance bar: streaming must move strictly fewer wire
    // words than the same coverage polled as full snapshots.
    EXPECT_GT(hub.streamedWireWords(), 0u);
    EXPECT_GT(hub.snapshotEquivalentWords(), 0u);
    EXPECT_LT(hub.streamedWireWords(), hub.snapshotEquivalentWords());
    EXPECT_EQ(hub.gapsDetected(), 0u);
    EXPECT_TRUE(hub.device("DeviceA").alive);
}

TEST(Federation, ForcedGapTriggersResyncWithoutLossOrDoubleCount)
{
    Engine engine;
    auto shell = Shell::makeUnified(
        engine, DeviceDatabase::instance().byName("DeviceA"));
    shell->registerTelemetry();

    // A test-owned counter the wire traffic itself never perturbs.
    Counter acked;
    ScopedMetrics scoped;
    scoped.reset(MetricsRegistry::instance());
    const std::string series = "unified_DeviceA/drill/acked";
    scoped.addCounter(series, &acked);

    ObsHub hub(engine);
    ASSERT_TRUE(hub.addDevice("DeviceA", "uut", *shell));
    ASSERT_TRUE(hub.subscribe("DeviceA"));
    const auto &map = hub.deviceMap("DeviceA");
    ASSERT_TRUE(std::any_of(
        map.begin(), map.end(),
        [&](const ObsMapEntry &e) { return e.name == series; }));

    // Warm-up polls let the lazily-created kernel stats settle so the
    // frozen map is stable before the fault is injected.
    for (int i = 0; i < 3; ++i) {
        engine.runFor(1'000'000);
        hub.poll(engine.now());
    }
    EXPECT_EQ(hub.store().latest(series), 0.0);

    acked.inc(7);
    engine.runFor(1'000'000);
    hub.poll(engine.now());
    EXPECT_EQ(hub.store().latest(series), 7.0);
    EXPECT_EQ(hub.gapsDetected(), 0u);

    // inc to 19, then lose the one delta that carries it: the card's
    // shadow advances to 19, so an ordinary next delta would never
    // re-send it. Only the seq-gap -> full-resync path can recover.
    acked.inc(12);
    ASSERT_TRUE(shell->telemetryTarget().dropOneDelta(
        hub.device("DeviceA").subId));

    engine.runFor(1'000'000);
    hub.poll(engine.now());
    EXPECT_EQ(hub.device("DeviceA").gapsDetected, 1u);
    EXPECT_EQ(hub.device("DeviceA").resyncs, 1u);
    // No loss: the resent cumulative value landed.
    EXPECT_EQ(hub.store().latest(series), 19.0);
    // No double count: cumulative re-ingest can't inflate the series.
    EXPECT_EQ(hub.store().windowStats(series, engine.now(),
                                      engine.now())
                  .max,
              19.0);
    EXPECT_EQ(hub.store().delta(series, engine.now(), engine.now()),
              19.0);
}

TEST(Federation, RegistryChurnReloadsMapMidStream)
{
    Engine engine;
    auto shell = Shell::makeUnified(
        engine, DeviceDatabase::instance().byName("DeviceA"));
    shell->registerTelemetry();

    ObsHub hub(engine);
    ASSERT_TRUE(hub.addDevice("DeviceA", "uut", *shell));
    ASSERT_TRUE(hub.subscribe("DeviceA"));
    for (int i = 0; i < 3; ++i) {
        engine.runFor(1'000'000);
        hub.poll(engine.now());
    }
    const std::uint64_t reloads_before =
        hub.device("DeviceA").mapReloads;
    const std::size_t map_before = hub.device("DeviceA").mapSize;

    // A series appears mid-stream: the card re-freezes, the hub
    // re-reads the map, and the new series' value still lands.
    Counter late;
    late.inc(5);
    ScopedMetrics scoped;
    scoped.reset(MetricsRegistry::instance());
    const std::string series = "unified_DeviceA/drill/late";
    scoped.addCounter(series, &late);

    engine.runFor(1'000'000);
    hub.poll(engine.now());
    EXPECT_GT(hub.device("DeviceA").mapReloads, reloads_before);
    EXPECT_EQ(hub.device("DeviceA").mapSize, map_before + 1);
    EXPECT_EQ(hub.store().latest(series), 5.0);
    EXPECT_EQ(hub.gapsDetected(), 0u);
}

TEST(Federation, LivenessProbeGatesPollingAndRevives)
{
    Engine engine;
    auto shell = Shell::makeUnified(
        engine, DeviceDatabase::instance().byName("DeviceA"));
    shell->registerTelemetry();

    ObsHub hub(engine);
    ASSERT_TRUE(hub.addDevice("DeviceA", "uut", *shell));
    ASSERT_TRUE(hub.subscribe("DeviceA"));
    bool probe_alive = true;
    hub.attachLiveness("DeviceA", [&] { return probe_alive; });

    engine.runFor(1'000'000);
    hub.poll(engine.now());
    EXPECT_TRUE(hub.device("DeviceA").alive);
    EXPECT_EQ(hub.store().latest("fleet/devices/alive"), 1.0);

    // A dead probe verdict skips the device without burning wire.
    probe_alive = false;
    const std::uint64_t streamed = hub.streamedWireWords();
    hub.poll(engine.now());
    EXPECT_FALSE(hub.device("DeviceA").alive);
    EXPECT_EQ(hub.streamedWireWords(), streamed);
    EXPECT_EQ(hub.store().latest("fleet/devices/alive"), 0.0);

    probe_alive = true;
    hub.poll(engine.now());
    EXPECT_TRUE(hub.device("DeviceA").alive);
    EXPECT_EQ(hub.store().latest("fleet/devices/alive"), 1.0);
}

TEST(Federation, FleetRollupsAggregateAcrossDevices)
{
    Engine engine;
    auto a = Shell::makeUnified(
        engine, DeviceDatabase::instance().byName("DeviceA"));
    auto d = Shell::makeUnified(
        engine, DeviceDatabase::instance().byName("DeviceD"));
    a->registerTelemetry();
    d->registerTelemetry();

    Counter ca, cd;
    ca.inc(30);
    cd.inc(12);
    ScopedMetrics scoped;
    scoped.reset(MetricsRegistry::instance());
    scoped.addCounter("unified_DeviceA/drill/load", &ca);
    scoped.addCounter("unified_DeviceD/drill/load", &cd);

    ObsHub hub(engine);
    ASSERT_TRUE(hub.addDevice("DeviceA", "x", *a));
    ASSERT_TRUE(hub.addDevice("DeviceD", "y", *d));
    hub.addRollup("drill/load");
    ASSERT_EQ(hub.subscribeAll(), 2u);

    engine.runFor(1'000'000);
    hub.poll(engine.now());
    EXPECT_EQ(hub.store().latest("fleet/devices/alive"), 2.0);
    EXPECT_EQ(hub.store().latest("fleet/drill/load/sum"), 42.0);
    EXPECT_EQ(hub.store().latest("fleet/drill/load/max"), 30.0);
    EXPECT_EQ(hub.fleetQuantile("drill/load", 100.0), 30.0);
    EXPECT_EQ(hub.fleetQuantile("drill/load", 0.0), 12.0);
}

// --- Trace federation. ---------------------------------------------

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

TEST(Federation, StitchesCrossDeviceSpanTrees)
{
    TraceGuard guard;
    Engine engine;
    auto a = Shell::makeUnified(
        engine, DeviceDatabase::instance().byName("DeviceA"));
    auto d = Shell::makeUnified(
        engine, DeviceDatabase::instance().byName("DeviceD"));
    CmdDriver driver_a(engine, *a);
    CmdDriver driver_d(engine, *d);

    TraceFederation fed;
    fed.addDevice("DeviceA", a->name());
    fed.addDevice("DeviceD", d->name());
    EXPECT_EQ(fed.deviceFor("unified_DeviceA.uck"), "DeviceA");
    EXPECT_EQ(fed.deviceFor("cmd00"), "host");

    // One request spanning both cards under a shared correlation id.
    TraceContext ctx;
    ctx.corr = Trace::instance().newCorrelation();
    {
        ScopedTraceContext scope(ctx);
        driver_a.call(kRbbSystem, 0, kCmdTimeCount);
        driver_d.call(kRbbSystem, 0, kCmdTimeCount);
    }

    const std::vector<std::uint64_t> corrs =
        fed.crossDeviceCorrs(Trace::instance());
    ASSERT_NE(std::find(corrs.begin(), corrs.end(), ctx.corr),
              corrs.end());

    const FederatedTree tree =
        fed.treeForCorr(Trace::instance(), ctx.corr);
    ASSERT_EQ(tree.devices.size(), 2u);
    EXPECT_EQ(tree.devices[0], "DeviceA");
    EXPECT_EQ(tree.devices[1], "DeviceD");
    EXPECT_FALSE(tree.spans.empty());

    // Device columns are space-padded to a fixed width in the render.
    const std::string text = TraceFederation::render(tree);
    EXPECT_NE(text.find("[DeviceA "), std::string::npos);
    EXPECT_NE(text.find("[DeviceD "), std::string::npos);
    EXPECT_NE(text.find("across [DeviceA DeviceD]"), std::string::npos);
}

// --- End to end: the canned fleet drill is deterministic. ----------

TEST(Federation, FleetSimDeterministicAcrossRuns)
{
    FleetSimConfig cfg;
    cfg.rounds = 12;
    cfg.deathAt = 30'000'000;

    std::string top1;
    std::string summary1;
    std::uint64_t fp1 = 0;
    {
        FleetSim sim(cfg);
        sim.run();
        top1 = sim.top();
        summary1 = sim.summary();
        fp1 = sim.fingerprint();
        // The injected death was detected by failure tracking alone.
        EXPECT_FALSE(sim.hub().device(cfg.victim).alive);
        EXPECT_EQ(sim.hub().gapsDetected(), 0u);
    }
    {
        FleetSim sim(cfg);
        sim.run();
        EXPECT_EQ(sim.top(), top1);
        EXPECT_EQ(sim.summary(), summary1);
        EXPECT_EQ(sim.fingerprint(), fp1);
    }
}

} // namespace
} // namespace harmonia
