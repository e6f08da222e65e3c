/**
 * @file
 * l4lb_flows: a DeviceB shell tailored to the Layer4Lb role, fed from
 * a seeded FlowGenerator (SYN / 16 data / FIN, 256 B data packets,
 * 1024 concurrent flows) at 100 Gb/s line rate into a sink MAC. Every
 * packet ticks MAC -> wrapper -> CDC -> NetworkRbb -> role and back
 * out, so the per-tick shell and telemetry cost dominates; the command
 * path and the fleet do nothing.
 *
 * Closed loop in fixed slices: inject one slice of packets at line
 * rate, run the engine until the sink has them all, then the next. An
 * operation is one forwarded packet; a slice's wall time divided by
 * its packets is one per-operation sample. The traced run also times
 * the fig17-style native path (raw MAC -> inline L4LB decision -> raw
 * MAC) on the same packets, so the shell's share per packet shows.
 */

#include <memory>
#include <unordered_map>

#include "bench.h"
#include "host/cmd_driver.h"
#include "roles/l4lb.h"
#include "spans.h"
#include "workload/flow_gen.h"

using namespace harmonia;

namespace perfbench {

namespace {

constexpr std::size_t kSlicePackets = 32;
/** 1024 slices, enough for a p99 per episode, in about 0.15 s: short
 *  episodes let the quiet percentile skip the disturbed ones. */
constexpr std::size_t kEpisodePackets = 1024 * kSlicePackets;
constexpr double kTailPct = 99.0;
constexpr double kLineBps = 100e9;
constexpr unsigned kRealServers = 64;
/** Simulated slack past a slice's last arrival before giving up. */
constexpr Tick kSliceSlack = 1'000'000'000;  // 1 ms

/** One packet as the sink saw it. */
struct Arrival {
    std::uint64_t flow = 0;
    std::uint16_t server = 0;
    Tick latency = 0;
};

/** The harmonia path: tailored shell + bound role + sink MAC. */
struct Rig {
    Engine engine;
    std::unique_ptr<Shell> shell;
    Layer4Lb lb{kRealServers};
    XilinxCmac sink{100, "sink"};
    std::unique_ptr<CmdDriver> driver;

    Rig()
        : shell(Shell::makeTailored(
              engine, DeviceDatabase::instance().byName("DeviceB"),
              Layer4Lb::standardRequirements()))
    {
        lb.bind(engine, *shell);
        engine.add(&sink, engine.addClock("sink_clk", 322.265625));
        tx().mac().connectPeer(&sink);
        driver = std::make_unique<CmdDriver>(engine, *shell);
        driver->initializeAll();
    }

    NetworkRbb &rx() { return shell->network(0); }
    NetworkRbb &tx()
    {
        return shell->network(shell->networkCount() > 1 ? 1 : 0);
    }
    MacIp &inMac() { return rx().mac(); }

    /** Every packet a counter says was dropped on the way. */
    std::uint64_t drops()
    {
        std::uint64_t n = 0;
        for (MacIp *mac : {&rx().mac(), &tx().mac(),
                           static_cast<MacIp *>(&sink)})
            for (const char *c :
                 {"rx_dropped", "rx_bad_fcs", "link_down_drops"})
                n += mac->stats().value(c);
        for (NetworkRbb *rbb : {&rx(), &tx()})
            for (const char *c : {"rx_drops", "rx_bad_fcs", "rx_shed",
                                  "filtered_packets"})
                n += rbb->monitor().value(c);
        return n;
    }
};

/** The native path of fig17: raw MACs around an inline decision. */
struct NativeRig {
    Engine engine;
    XilinxCmac in{100, "in"};
    XilinxCmac out{100, "out"};
    XilinxCmac sink{100, "sink"};
    Layer4Lb lb{kRealServers};
    FunctionComponent role{"native_role", [this] {
                               while (in.rxAvailable() && out.txReady()) {
                                   PacketDesc pkt = in.rxPop();
                                   FlowPhase phase = FlowPhase::Data;
                                   if (pkt.flags & kFlagSyn)
                                       phase = FlowPhase::Syn;
                                   else if (pkt.flags & kFlagFin)
                                       phase = FlowPhase::Fin;
                                   pkt.queue = static_cast<std::uint16_t>(
                                       lb.processFlowPacket(pkt.flowHash,
                                                            phase));
                                   out.txPush(pkt);
                               }
                           }};

    NativeRig()
    {
        Clock *clk = engine.addClock("clk", MacIp::clockMhzFor(100));
        out.connectPeer(&sink);
        engine.add(&role, clk);
        engine.add(&in, clk);
        engine.add(&out, clk);
        engine.add(&sink, clk);
    }

    MacIp &inMac() { return in; }
};

std::vector<FlowPacket>
makePackets(std::uint64_t seed)
{
    FlowGenConfig cfg;
    cfg.seed = seed;
    cfg.concurrentFlows = 1024;
    cfg.packetsPerFlow = 16;
    cfg.packetBytes = 256;
    FlowGenerator gen(cfg);
    std::vector<FlowPacket> pkts;
    pkts.reserve(kEpisodePackets);
    for (std::size_t i = 0; i < kEpisodePackets; ++i)
        pkts.push_back(gen.next(0));
    return pkts;
}

/** Per-episode simulated outcome of the harmonia path. */
struct Outcome {
    std::uint64_t digest = 0;
    std::uint64_t rxPackets = 0, txPackets = 0, rxDrops = 0;
    std::uint64_t conns = 0;
};

/**
 * Push every packet through @p rig slice by slice, timing each slice
 * as one sample. Arrivals of the whole episode land in @p arrivals.
 */
template <class R>
void
pumpSlices(R &rig, const std::vector<FlowPacket> &pkts, SpanLog &log,
           Phase &phase, std::vector<Arrival> &arrivals)
{
    arrivals.clear();
    arrivals.reserve(pkts.size());
    for (std::size_t first = 0; first < pkts.size();
         first += kSlicePackets) {
        const std::size_t n = std::min(kSlicePackets, pkts.size() - first);
        const std::size_t want = arrivals.size() + n;
        const std::uint64_t op = phase.ops;
        const std::int64_t t0 = wallNs();
        {
            ScopedSpan op_span(log, kOpSpan, op);
            Tick at = rig.engine.now();
            {
                ScopedSpan inject(log, "ip.inject", op);
                for (std::size_t i = first; i < first + n; ++i) {
                    PacketDesc p = pkts[i].packet;
                    p.injected = at;
                    rig.inMac().injectRx(p, at);
                    at += wireTime(p.bytes, kLineBps);
                }
            }
            ScopedSpan run(log, "sim.run_until_done", op);
            rig.engine.runUntilDone(
                [&] {
                    while (rig.sink.rxAvailable()) {
                        const PacketDesc p = rig.sink.rxPop();
                        arrivals.push_back(
                            {p.flowHash, p.queue,
                             rig.engine.now() - p.injected});
                    }
                    return arrivals.size() >= want;
                },
                at - rig.engine.now() + kSliceSlack);
        }
        const double us = static_cast<double>(wallNs() - t0) / 1e3;
        phase.opWallUs.push_back(us / static_cast<double>(n));
        phase.measuredS += us / 1e6;
        phase.ops += n;
        phase.attempted += n;
    }
}

/** Check conservation and flow pinning; fold the episode's digest. */
Outcome
checkEpisode(Rig &rig, const std::vector<FlowPacket> &pkts,
             const std::vector<Arrival> &arrivals, Phase &phase,
             Result &res)
{
    Outcome out;
    const std::uint64_t drops = rig.drops();
    if (arrivals.size() + drops != pkts.size()) {
        const std::uint64_t lost = pkts.size() - arrivals.size() - drops;
        phase.failed += lost;
        res.fail(std::to_string(lost) + " packets unaccounted for");
    }
    std::unordered_map<std::uint64_t, std::uint16_t> pins;
    Digest digest;
    for (const Arrival &a : arrivals) {
        const auto [it, fresh] = pins.emplace(a.flow, a.server);
        if (a.server >= kRealServers || (!fresh && it->second != a.server))
            res.fail("a flow moved between real servers");
        digest.add(a.flow ^ (static_cast<std::uint64_t>(a.server) << 48));
        digest.add(a.latency);
    }
    out.rxPackets = rig.rx().monitor().value("rx_packets");
    out.txPackets = rig.tx().monitor().value("tx_packets");
    out.rxDrops = drops;
    out.conns = rig.lb.connectionCount();
    digest.add(rig.engine.now());
    digest.add(drops);
    digest.add(out.rxPackets);
    digest.add(out.txPackets);
    digest.add(out.conns);
    digest.add(rig.lb.stats().value("table_hits"));
    digest.add(rig.lb.stats().value("table_misses"));
    out.digest = digest.value();
    return out;
}

/** Harmonia-path episodes: at least kMinEpisodes and @p seconds. */
Phase
runPhase(const std::vector<FlowPacket> &pkts, double seconds,
         SpanLog &log, Result &res, Outcome &first,
         std::vector<Tick> *latencies = nullptr)
{
    Phase phase;
    std::vector<Arrival> arrivals;
    const std::int64_t start = wallNs();
    while (phase.episodes() < kMinEpisodes ||
           secondsSince(start) < seconds) {
        pinForEpisode(phase.episodes());
        const std::int64_t s0 = wallNs();
        Rig rig;
        phase.setupS.push_back(secondsSince(s0));
        phase.beginEpisode();
        pumpSlices(rig, pkts, log, phase, arrivals);
        phase.endEpisode();
        const Outcome out = checkEpisode(rig, pkts, arrivals, phase, res);
        if (first.digest == 0)
            first = out;
        else if (out.digest != first.digest)
            res.fail("episode digest differs within one seed");
        if (latencies != nullptr && latencies->empty())
            for (const Arrival &a : arrivals)
                latencies->push_back(a.latency);
    }
    return phase;
}

/** Native-path episodes until @p seconds; same packets and slices. */
Phase
runNative(const std::vector<FlowPacket> &pkts, double seconds,
          Result &res)
{
    Phase phase;
    SpanLog off;
    std::vector<Arrival> arrivals;
    const std::int64_t start = wallNs();
    while (phase.episodes() == 0 || secondsSince(start) < seconds) {
        pinForEpisode(phase.episodes());
        NativeRig rig;
        phase.beginEpisode();
        pumpSlices(rig, pkts, off, phase, arrivals);
        phase.endEpisode();
        if (arrivals.size() != pkts.size())
            res.fail("native path lost packets");
    }
    return phase;
}

} // namespace

Result
runL4lbFlows(const Options &opts)
{
    Result res;
    const std::vector<FlowPacket> pkts = makePackets(opts.seed);
    Outcome first;
    SpanLog log;

    if (!opts.trace) {
        const Phase phase = runPhase(pkts, opts.seconds, log, res, first);
        res.attempted = phase.attempted;
        res.failed = phase.failed;
        reportEndToEnd(phase, kTailPct, res);
    } else {
        const Phase plain =
            runPhase(pkts, opts.seconds * 0.4, log, res, first);
        log.setEnabled(true);
        std::vector<Tick> lat;
        const Phase traced =
            runPhase(pkts, opts.seconds * 0.4, log, res, first, &lat);
        log.setEnabled(false);
        const Phase native = runNative(pkts, opts.seconds * 0.2, res);

        res.attempted = plain.attempted + traced.attempted;
        res.failed = plain.failed + traced.failed;
        const double harmonia_ns = 1e9 / plain.opsPerS();
        const double native_ns = 1e9 / native.opsPerS();
        std::vector<double> lat_ns;
        lat_ns.reserve(lat.size());
        for (const Tick t : lat)
            lat_ns.push_back(static_cast<double>(t) / 1e3);
        res.metrics = {
            {"shell.wall_ns_per_pkt", harmonia_ns - native_ns, "ns"},
            {"roles.native_wall_ns_per_pkt", native_ns, "ns"},
            {"roles.l4lb_conn_count", static_cast<double>(first.conns),
             "count"},
            {"shell.rx_packets", static_cast<double>(first.rxPackets),
             "count"},
            {"shell.tx_packets", static_cast<double>(first.txPackets),
             "count"},
            {"shell.rx_drops", static_cast<double>(first.rxDrops),
             "count"},
            {"sim.sim_pkt_lat_ns_p50", percentile(lat_ns, 50.0), "ns"},
            {"bench.trace_overhead_pct", traceOverheadPct(plain, traced),
             "%"},
            {"bench.span_coverage", log.opCoverage(), "ratio"},
        };
        completePerLayer(res);
        if (!opts.traceOut.empty() && !log.writeChromeTrace(opts.traceOut))
            res.fail("cannot write " + opts.traceOut);
    }
    char line[64];
    std::snprintf(line, sizeof line, "digest %016llx",
                  static_cast<unsigned long long>(first.digest));
    res.notes.emplace_back(line);
    return res;
}

} // namespace perfbench
