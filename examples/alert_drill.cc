/**
 * @file
 * Alert drill: the full observe → decide → explain loop on one card.
 * A seeded FaultPlan drops the workload driver's command packets for a
 * fixed window; the Sampler feeds every scrape into the time-series
 * store; the SLO engine's burn-rate evaluation walks the availability
 * alert through pending → firing → resolved → inactive; and the armed
 * flight recorder auto-dumps a post-mortem bundle at the firing edge,
 * carrying the event ring, alert states, series tails, the fault log
 * and the causal span tree of the failing command. A standalone tool
 * reads the same alert state back over the packetized command plane.
 *
 *   $ ./alert_drill                       # fixed default seed
 *   $ ./alert_drill 42 my_bundle.json     # any schedule, any path
 *
 * Identical seeds produce byte-identical bundles — including under
 * HARMONIA_SIM_THREADS=4, because the engine serializes whenever
 * tracing or an armed fault plan is live. CI diffs two runs.
 */

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "fault/fault_plan.h"
#include "host/cmd_driver.h"
#include "obs/flight_recorder.h"
#include "obs/ops_client.h"
#include "obs/sampler.h"
#include "obs/slo.h"

using namespace harmonia;

int
main(int argc, char **argv)
{
    const std::uint64_t seed =
        argc > 1 ? std::strtoull(argv[1], nullptr, 0) : 20260808ull;
    const std::string bundle_path =
        argc > 2 ? argv[2] : "ops_postmortem.json";

    // Spans are the explain half of the drill: the bundle ends with
    // the causal tree of the command the fault window killed.
    Trace::instance().setEnabled(true);
    Trace::instance().setCapacity(16384);

    const FpgaDevice &device =
        DeviceDatabase::instance().byName("DeviceA");
    Engine engine;
    auto shell = Shell::makeUnified(engine, device);

    MetricsRegistry &reg = MetricsRegistry::instance();
    reg.clear();  // examples share the process-wide instance
    shell->registerTelemetry(reg);

    CmdDriver driver(engine, *shell);
    driver.registerTelemetry(reg, "host/app");
    driver.initializeAll();

    // --- Observe: scrape the registry into retained history. ---
    TimeSeriesStore store;
    Sampler sampler("sampler", reg, store, 1'000'000);  // every 1 us
    engine.add(&sampler, shell->kernelClock());

    // --- Decide: availability SLO over the driver's counters, plus a
    // latency objective that should stay quiet throughout. ---
    SloEngine slo("slo", store, 1'000'000);
    SloSpec avail;
    avail.name = "cmd-availability";
    avail.kind = SloKind::ErrorRate;
    avail.badMetric = "host/app/timeouts";
    avail.totalMetric = "host/app/commands";
    avail.objective = 0.9;  // one timeout in ten is tolerable
    avail.window = 10'000'000;
    avail.burnThreshold = 1.0;
    avail.clearRatio = 0.5;
    avail.pendingFor = 3'000'000;
    avail.resolveFor = 10'000'000;
    const std::size_t avail_i = slo.addSpec(avail);

    SloSpec lat;
    lat.name = "cmd-latency";
    lat.kind = SloKind::LatencyP99;
    lat.metric = "host/app/roundtrip_ps/p99";
    lat.objective = 50'000'000.0;  // 50 us: far above any roundtrip
    lat.window = 10'000'000;
    const std::size_t lat_i = slo.addSpec(lat);
    slo.registerTelemetry(reg, "slo");
    engine.add(&slo, shell->kernelClock());

    // --- Explain: the black box, armed, dumping at the firing edge.
    FlightRecorder fdr;
    fdr.attachStore(&store);
    fdr.attachSlo(&slo);
    fdr.setDumpOnAlert(true);
    fdr.setAutoDumpPath(bundle_path);
    fdr.setRearmInterval(kTickMax);  // exactly one bundle per drill
    fdr.registerTelemetry(reg, "fdr");
    fdr.arm();
    slo.attachRecorder(&fdr);

    // The injury: drop every command from the workload driver for
    // 50 us, long enough to burn through the availability budget.
    FaultPlan plan(seed);
    plan.addWindow(FaultKind::CmdDrop, 60'000'000, 110'000'000, 1.0,
                   "cmd01");
    plan.arm();
    fdr.attachFaultPlan(&plan);

    // The observer: a standalone tool on its own controller id, so
    // the fault filter above never touches the monitoring path.
    CmdDriver tool(engine, *shell, kCtrlStandaloneTool);
    shell->telemetryTarget().attachSloEngine(&slo);
    shell->telemetryTarget().attachRecorder(&fdr);
    OpsClient ops(tool);

    std::printf("alert drill on %s, seed %llu -> %s\n",
                device.name.c_str(),
                static_cast<unsigned long long>(seed),
                bundle_path.c_str());

    // --- Drive traffic through the outage and past recovery. ---
    std::vector<std::pair<Tick, AlertState>> timeline;
    AlertState last = AlertState::Inactive;
    std::uint64_t calls_ok = 0, calls_failed = 0;
    while (engine.now() < 250'000'000) {
        const CallOutcome out = driver.callChecked(
            kRbbSystem, 0, kCmdTimeCount, {}, 3'000'000);
        if (out.ok())
            ++calls_ok;
        else
            ++calls_failed;
        engine.runFor(1'000'000);
        const AlertState st = slo.status(avail_i).state;
        if (st != last) {
            timeline.emplace_back(engine.now(), st);
            last = st;
        }
    }

    std::printf("\ncommands: %llu ok, %llu failed (%llu injected "
                "drops)\n",
                static_cast<unsigned long long>(calls_ok),
                static_cast<unsigned long long>(calls_failed),
                static_cast<unsigned long long>(plan.injectedTotal()));
    std::printf("alert timeline (%s):\n", avail.name.c_str());
    for (const auto &[tick, state] : timeline)
        std::printf("  %12llu ps  %s\n",
                    static_cast<unsigned long long>(tick),
                    toString(state));

    // --- The lifecycle must have completed a full loop. ---
    const AlertStatus &st = slo.status(avail_i);
    const bool lifecycle_ok =
        st.pendingEvents >= 1 && st.fireEvents >= 1 &&
        st.resolveEvents >= 1 && st.state == AlertState::Inactive;
    const bool quiet_ok =
        slo.status(lat_i).state == AlertState::Inactive &&
        slo.status(lat_i).fireEvents == 0;
    std::printf("\nlifecycle: pending=%llu fire=%llu resolve=%llu "
                "final=%s -> %s; latency slo stayed quiet -> %s\n",
                static_cast<unsigned long long>(st.pendingEvents),
                static_cast<unsigned long long>(st.fireEvents),
                static_cast<unsigned long long>(st.resolveEvents),
                toString(st.state), lifecycle_ok ? "OK" : "FAIL",
                quiet_ok ? "OK" : "FAIL");

    // --- The observer reads the same story over the wire. ---
    WireSlo ws;
    const bool wire_ok = ops.sloCount() == 2 &&
                         ops.readSlo(static_cast<std::uint32_t>(
                                         avail_i),
                                     &ws) &&
                         ws.name == avail.name &&
                         ws.state == st.state &&
                         ws.fireEvents == st.fireEvents &&
                         ops.readAlerts().size() == 2;
    std::printf("command-plane parity: %s\n", wire_ok ? "OK" : "FAIL");

    // --- The black box must have dumped once, at the firing edge. ---
    const bool dumped = fdr.dumps() == 1;
    std::ifstream in(bundle_path);
    std::stringstream ss;
    ss << in.rdbuf();
    std::string err;
    const JsonValue doc = JsonValue::parse(ss.str(), &err);
    const bool parsed = err.empty() && doc.has("harmonia_postmortem");
    bool bundle_ok = false;
    if (parsed) {
        const JsonValue &tree = doc.get("span_tree");
        bundle_ok = doc.get("reason").asString() ==
                        "alert:" + avail.name &&
                    doc.has("events") && doc.has("alerts") &&
                    doc.has("series") && doc.has("faults") &&
                    tree.isArray() && tree.size() > 0 &&
                    tree.at(0).get("parent").asU64() == 0;
        std::printf("post-mortem bundle: %zu bytes, %zu events, "
                    "%zu-span causal tree of the failing command "
                    "-> %s\n",
                    ss.str().size(), doc.get("events").size(),
                    tree.size(), bundle_ok ? "OK" : "FAIL");
    } else {
        std::printf("post-mortem bundle missing or unparseable "
                    "(%s) -> FAIL\n", err.c_str());
    }

    const bool pass =
        lifecycle_ok && quiet_ok && wire_ok && dumped && bundle_ok;
    std::printf("\nalert drill: %s\n", pass ? "PASS" : "FAIL");
    return pass ? 0 : 1;
}
