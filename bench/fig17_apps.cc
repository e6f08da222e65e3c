/**
 * @file
 * Figure 17: application throughput and latency with and without
 * Harmonia. "Without" is a custom native shell: the same role logic
 * wired straight to the vendor IPs, with no wrapper or RBB layer.
 * BITW applications sweep packet size; Retrieval sweeps corpus size.
 */

#include <cstdio>
#include <cstdlib>
#include <functional>

#include "bench_report.h"
#include "common/strings.h"
#include "roles/host_network.h"
#include "roles/l4lb.h"
#include "roles/retrieval.h"
#include "roles/sec_gateway.h"
#include "workload/flow_gen.h"

using namespace harmonia;

namespace {

struct PerfPoint {
    double gbps = 0;
    double latencyUs = 0;
    /// Every packet the sink got, the unmeasured tail included.
    std::uint64_t delivered = 0;
};

/** A packet decision: returns true to forward (possibly mutating). */
using Decision = std::function<bool(PacketDesc &)>;

/** Give up on the rest of a run after this much simulated time. */
constexpr Tick kRunLimit = 2'000'000'000;

/**
 * Measure @p packets already injected toward @p sink: throughput and
 * mean latency over the first 95% of arrivals, then the rest drained
 * unmeasured until @p all_in says every forwarded packet has arrived
 * (or kRunLimit passes), for the conservation check.
 */
PerfPoint
measure(Engine &engine, MacIp &sink, unsigned packets,
        const std::function<bool(std::uint64_t)> &all_in)
{
    PerfPoint p;
    std::uint64_t lat = 0, bytes = 0;
    const Tick start = engine.now();
    engine.runUntilDone(
        [&] {
            while (sink.rxAvailable()) {
                const PacketDesc pkt = sink.rxPop();
                lat += engine.now() - pkt.injected;
                bytes += pkt.bytes;
                ++p.delivered;
            }
            return p.delivered >= packets * 95 / 100;
        },
        kRunLimit);
    const double s =
        static_cast<double>(engine.now() - start) / kTicksPerSecond;
    if (p.delivered != 0) {
        p.gbps = bytes * 8.0 / s / 1e9;
        p.latencyUs = lat / 1e6 / p.delivered;
    }
    engine.runUntilDone(
        [&] {
            for (; sink.rxAvailable(); sink.rxPop())
                ++p.delivered;
            return all_in(p.delivered);
        },
        kRunLimit);
    return p;
}

/** Exit non-zero, before any number of the run is printed, when @p
 *  path delivered a packet count other than @p expected. */
void
checkConservation(const char *path, std::uint32_t pkt_bytes,
                  unsigned injected, std::uint64_t expected,
                  std::uint64_t delivered)
{
    if (delivered == expected)
        return;
    std::fprintf(stderr,
                 "fig17: %s path at %u B delivered %llu of %u injected "
                 "packets, %llu forwarded by the decision\n",
                 path, pkt_bytes,
                 static_cast<unsigned long long>(delivered), injected,
                 static_cast<unsigned long long>(expected));
    std::exit(1);
}

/**
 * Native BITW path: raw MAC -> inline role decision -> raw MAC, with
 * a sink MAC measuring arrival on the line side.
 */
PerfPoint
nativeBitw(const Decision &decide, std::uint32_t pkt_bytes,
           unsigned packets, std::uint64_t &forwarded)
{
    Engine engine;
    Clock *clk = engine.addClock("clk", MacIp::clockMhzFor(100));
    XilinxCmac in_mac(100, "in");
    XilinxCmac out_mac(100, "out");
    XilinxCmac sink(100, "sink");
    out_mac.connectPeer(&sink);

    std::uint64_t dropped = 0;
    FunctionComponent role("native_role", [&] {
        while (in_mac.rxAvailable() && out_mac.txReady()) {
            PacketDesc pkt = in_mac.rxPop();
            if (decide(pkt))
                out_mac.txPush(pkt);
            else
                ++dropped;
        }
    });
    engine.add(&role, clk);
    engine.add(&in_mac, clk);
    engine.add(&out_mac, clk);
    engine.add(&sink, clk);

    const Tick wire = wireTime(pkt_bytes, 100e9);
    for (unsigned i = 0; i < packets; ++i) {
        PacketDesc pkt;
        pkt.id = i;
        pkt.flowHash = i % 1024;
        pkt.bytes = pkt_bytes;
        pkt.injected = engine.now() + i * wire;
        in_mac.injectRx(pkt, pkt.injected);
    }
    const PerfPoint p =
        measure(engine, sink, packets, [&](std::uint64_t delivered) {
            return delivered + dropped >= packets;
        });
    forwarded = packets - dropped;
    checkConservation("native", pkt_bytes, packets, forwarded,
                      p.delivered);
    return p;
}

/** Harmonia BITW path: tailored shell + bound role + sink MAC. The
 *  role decides as the native path does, so it must deliver the
 *  @p forwarded packets the native decision forwarded. */
PerfPoint
harmoniaBitw(Role &role, const RoleRequirements &reqs,
             const char *device_name, std::uint32_t pkt_bytes,
             unsigned packets, std::uint64_t forwarded)
{
    Engine engine;
    auto shell = Shell::makeTailored(
        engine, DeviceDatabase::instance().byName(device_name), reqs);
    role.bind(engine, *shell);

    NetworkRbb &rx_port = shell->network(0);
    NetworkRbb &tx_port = shell->networkCount() > 1
                              ? shell->network(1)
                              : shell->network(0);
    Clock *sink_clk = engine.addClock("sink_clk", 322.265625);
    XilinxCmac sink(100, "sink");
    engine.add(&sink, sink_clk);
    tx_port.mac().connectPeer(&sink);

    const Tick wire = wireTime(pkt_bytes, 100e9);
    for (unsigned i = 0; i < packets; ++i) {
        PacketDesc pkt;
        pkt.id = i;
        pkt.flowHash = i % 1024;
        pkt.bytes = pkt_bytes;
        pkt.injected = engine.now() + i * wire;
        rx_port.mac().injectRx(pkt, pkt.injected);
    }
    const PerfPoint p =
        measure(engine, sink, packets, [&](std::uint64_t delivered) {
            return delivered >= forwarded;
        });
    checkConservation("harmonia", pkt_bytes, packets, forwarded,
                      p.delivered);
    return p;
}

void
bitwTable(const char *title, const Decision &native_decision,
          const std::function<std::unique_ptr<Role>()> &make_role,
          const RoleRequirements &reqs,
          const char *device_name = "DeviceB",
          const char *report_scenario = nullptr)
{
    std::printf("=== Figure 17: %s (BITW) ===\n", title);
    // The absolute added latency is what matters: deployed BITW
    // applications see ~10 us end to end (hosts, switches), so a
    // few tens of ns is the paper's "< 1%".
    TablePrinter table({"pkt size", "native Gbps", "harmonia Gbps",
                        "native lat us", "harmonia lat us",
                        "added ns", "% of 10us e2e"});
    const unsigned packets =
        static_cast<unsigned>(scaledIters(1500, 200));
    for (std::uint32_t size : {64u, 128u, 256u, 512u, 1024u}) {
        std::uint64_t forwarded = 0;
        const PerfPoint n =
            nativeBitw(native_decision, size, packets, forwarded);
        auto role = make_role();
        const PerfPoint h = harmoniaBitw(*role, reqs, device_name, size,
                                         packets, forwarded);
        const double added_ns = (h.latencyUs - n.latencyUs) * 1e3;
        table.addRow(
            {std::to_string(size), format("%.1f", n.gbps),
             format("%.1f", h.gbps), format("%.3f", n.latencyUs),
             format("%.3f", h.latencyUs), format("%.0f", added_ns),
             format("%.2f", added_ns / 10'000 * 100)});
        if (report_scenario != nullptr && size == 512)
            BenchReport("fig17_apps", report_scenario)
                .metric("native_gbps", n.gbps)
                .metric("harmonia_gbps", h.gbps)
                .metric("harmonia_lat_us", h.latencyUs)
                .metric("added_lat_ns", added_ns)
                .emit();
    }
    table.print();
    std::puts("");
}

} // namespace

int
main()
{
    // --- Sec-Gateway: policy check on every packet. ---
    {
        SecGateway policy_holder;
        policy_holder.addPolicy({0xff, 0x13, false});
        bitwTable(
            "Sec-Gateway",
            [&](PacketDesc &pkt) {
                return policy_holder.allows(pkt.flowHash);
            },
            [&] {
                auto role = std::make_unique<SecGateway>();
                role->addPolicy({0xff, 0x13, false});
                return role;
            },
            SecGateway::standardRequirements());
    }

    // --- Layer-4 LB: connection table + rendezvous hash. ---
    {
        Layer4Lb native_lb(64);
        bitwTable(
            "Layer-4 LB",
            [&](PacketDesc &pkt) {
                pkt.queue = static_cast<std::uint16_t>(
                    native_lb.processFlowPacket(pkt.flowHash,
                                                FlowPhase::Data));
                return true;
            },
            [] { return std::make_unique<Layer4Lb>(64); },
            Layer4Lb::standardRequirements(), "DeviceB", "l4lb_e2e");
    }

    // --- Host Network: exact-match flow cache, to-wire actions. ---
    {
        HostNetwork native_flows;
        for (std::uint64_t f = 0; f < 1024; ++f)
            native_flows.installFlow(f, {FlowAction::Kind::ToWire, 0});
        const RoleRequirements reqs =
            HostNetwork::standardRequirements();
        bitwTable(
            "Host Network",
            [&](PacketDesc &pkt) {
                return native_flows.hasFlow(pkt.flowHash);
            },
            [] {
                auto role = std::make_unique<HostNetwork>();
                role->setAutoInstall(false);
                for (std::uint64_t f = 0; f < 1024; ++f)
                    role->installFlow(
                        f, {FlowAction::Kind::ToWire, 0});
                return role;
            },
            reqs, "DeviceA");  // host-network needs external memory
    }

    // --- Retrieval: QPS and latency vs corpus size (look-aside). ---
    {
        std::puts("=== Figure 17d: Retrieval (look-aside) ===");
        TablePrinter table({"corpus items", "harmonia QPS",
                            "harmonia lat", "native QPS (est)",
                            "lat delta %"});
        for (std::uint64_t items :
             {1000ULL, 100'000ULL, 10'000'000ULL, 1'000'000'000ULL}) {
            Engine engine;
            auto shell = Shell::makeTailored(
                engine, DeviceDatabase::instance().byName("DeviceA"),
                Retrieval::standardRequirements());
            Retrieval role;
            role.bind(engine, *shell);
            role.setCorpusItems(items);

            // Corpora past 10^7 items are reported analytically: the
            // simulated scan would take minutes of wall clock for the
            // same number.
            Tick latency = 0;
            if (items <= 10'000'000ULL) {
                role.submitQuery(1);
                engine.runUntilDone([&] { return role.hasResult(); },
                                    3'000'000'000'000ULL);
                latency = role.popResult().latency();
            } else {
                latency = role.queryServiceTime();
            }
            const double lat_s =
                static_cast<double>(latency) / kTicksPerSecond;

            // Native: identical scan/compute bound; the wrapper only
            // adds its fixed cycles to the sampled block reads.
            const Tick wrapper_overhead =
                2 * shell->memory().wrapper().addedLatency();
            const double native_lat_s =
                lat_s - static_cast<double>(wrapper_overhead) /
                            kTicksPerSecond;
            table.addRow(
                {std::to_string(items), format("%.1f", 1.0 / lat_s),
                 humanTime(latency),
                 format("%.1f", 1.0 / native_lat_s),
                 format("%.3f",
                        (lat_s - native_lat_s) / native_lat_s * 100)});
        }
        table.print();
    }
    std::puts("");
    std::puts("(paper: Harmonia reaches full bandwidth / desired QPS "
              "with < 1% latency increase)");
    return 0;
}
