/**
 * @file
 * Observability scenario: what a fleet operator's tooling sees through
 * Harmonia's telemetry plane. An L4 load balancer serves traffic on a
 * unified shell while every layer — interface wrappers, RBBs, the
 * unified control kernel, the host command driver — publishes into the
 * metrics registry; a Sampler scrapes it into a time-series store on a
 * fixed simulated-time period. Afterwards an ObsHub reads the card
 * over the packetized command interface (an ObsSubscribe / ObsDelta
 * subscription, subscribe then poll) and checks parity with the
 * in-process view, and the run exports a Chrome trace
 * (chrome://tracing, Perfetto) plus Prometheus-style and JSON-lines
 * metrics.
 *
 *   $ ./ops_monitoring
 *   $ jq . ops_trace.json | head
 */

#include <cmath>
#include <cstdio>
#include <map>

#include "host/cmd_driver.h"
#include "obs/hub.h"
#include "obs/sampler.h"
#include "roles/l4lb.h"
#include "telemetry/exporter.h"
#include "workload/flow_gen.h"

using namespace harmonia;

int
main()
{
    // Deep trace: the workload generates thousands of wrapper spans.
    Trace::instance().setEnabled(true);
    Trace::instance().setCapacity(16384);

    const FpgaDevice &device =
        DeviceDatabase::instance().byName("DeviceA");
    Engine engine;
    auto shell = Shell::makeUnified(engine, device);
    std::printf("board: %s\n", device.toString().c_str());

    // --- Publish every layer into the process-wide registry. ---
    MetricsRegistry &reg = MetricsRegistry::instance();
    reg.clear();  // examples share the process-wide instance
    shell->registerTelemetry(reg);

    // Scrape the registry every 1 us of simulated time.
    TimeSeriesStore history;
    Sampler sampler("sampler", reg, history, 1'000'000);
    engine.add(&sampler, shell->kernelClock());

    CmdDriver driver(engine, *shell);
    driver.registerTelemetry(reg, "host/app");
    driver.initializeAll();

    // --- Serve L4LB traffic; every layer records as it works. ---
    Layer4Lb lb(16);
    lb.bind(engine, *shell);
    FlowGenConfig fg;
    fg.concurrentFlows = 256;
    fg.packetsPerFlow = 8;
    FlowGenerator flows(fg);
    const Tick wire = wireTime(256, 100e9);
    for (int i = 0; i < 3000; ++i) {
        FlowPacket fp = flows.next(engine.now() + i * wire);
        fp.packet.injected = engine.now() + i * wire;
        shell->network(0).mac().injectRx(fp.packet,
                                         fp.packet.injected);
    }
    engine.runFor(100'000'000);  // 100 us

    std::printf("workload: %llu packets forwarded, %llu connections\n",
                static_cast<unsigned long long>(
                    lb.stats().value("forwarded_packets")),
                static_cast<unsigned long long>(lb.connectionCount()));
    std::printf("sampler: %llu scrapes into %zu series\n",
                static_cast<unsigned long long>(history.ingested()),
                history.seriesCount());

    // --- The card read over the command plane through an ObsHub. ---
    // Subscribe, then poll: the first poll drains every series once.
    // The subscription's own commands lazily create their kernel
    // per-command-code counters; the hub follows those map changes
    // within the poll, so its map ends equal to the registry's.
    ObsHub hub(engine);
    hub.addDevice(device.name, "l4lb", *shell);
    if (!hub.subscribe(device.name)) {
        std::printf("telemetry subscription failed\n");
        return 1;
    }
    hub.poll(engine.now());

    const std::string prefix = shell->name() + "/";
    const std::vector<ScalarSeries> expected =
        reg.scalarSeries(prefix);
    const std::vector<ObsMapEntry> &streamed =
        hub.deviceMap(device.name);
    std::printf("\ncommand-plane read via ObsHub: %zu series "
                "(registry has %zu under %s)\n",
                streamed.size(), expected.size(), prefix.c_str());

    // Parity: full names and encodings must agree everywhere; values
    // must agree for the layers quiescent during the read (the
    // command path itself keeps churning uck counters).
    std::size_t value_checks = 0, mismatches = 0;
    const bool names_ok = streamed.size() == expected.size();
    for (std::size_t i = 0; names_ok && i < streamed.size(); ++i) {
        const ScalarSeries &e = expected[i];
        if (streamed[i].name != e.name ||
            streamed[i].enc != (e.exact ? 0u : 1u)) {
            std::printf("  name/encoding mismatch at %zu: wire '%s' "
                        "vs '%s'\n",
                        i, streamed[i].name.c_str(), e.name.c_str());
            ++mismatches;
            continue;
        }
        const bool quiescent =
            e.name.find("/net") != std::string::npos ||
            e.name.find("/mem") != std::string::npos;
        if (!quiescent)
            continue;
        const double got = hub.store().latest(e.name);
        const bool ok = e.exact ? got == e.value
                                : std::fabs(got - e.value) <= 0.001;
        ++value_checks;
        if (!ok) {
            std::printf("  value mismatch at %zu (%s): %f vs %f\n", i,
                        e.name.c_str(), got, e.value);
            ++mismatches;
        }
    }
    std::printf("parity: %zu quiescent series value-checked, "
                "%zu mismatches -> %s\n",
                value_checks, mismatches,
                names_ok && mismatches == 0 ? "OK" : "FAIL");

    // --- Span accounting: every layer shows up in the trace. ---
    std::map<std::string, std::size_t> by_cat;
    for (const Trace::Span &s : Trace::instance().spans())
        ++by_cat[s.cat];
    std::printf("\ntrace spans by category (%zu retained, "
                "%zu open, %llu unmatched ends):\n",
                Trace::instance().spanCount(),
                Trace::instance().openSpanCount(),
                static_cast<unsigned long long>(
                    Trace::instance().unmatchedEnds()));
    for (const auto &[cat, n] : by_cat)
        std::printf("  %-10s %zu\n", cat.c_str(), n);

    // --- Export: Chrome trace + Prometheus text + JSON lines. ---
    const std::vector<MetricSample> final_snap = reg.snapshot();
    const std::string trace_json =
        toChromeTraceJson(Trace::instance());
    const std::string metrics_text = toMetricsText(final_snap);
    const std::string metrics_jsonl = toMetricsJsonLines(final_snap);
    const bool exported =
        writeTextFile("ops_trace.json", trace_json) &&
        writeTextFile("ops_metrics.txt", metrics_text) &&
        writeTextFile("ops_metrics.jsonl", metrics_jsonl);
    if (exported)
        std::printf("\nexported ops_trace.json (%zu bytes), "
                    "ops_metrics.txt (%zu bytes), "
                    "ops_metrics.jsonl (%zu lines)\n",
                    trace_json.size(), metrics_text.size(),
                    final_snap.size());
    else
        std::printf("\nexport failed (unwritable directory?)\n");

    // --- Self-check of the scenario's observability claims. ---
    const bool has_cmd_span = by_cat.count("command") != 0;
    const bool has_wrapper_span =
        by_cat.count("wrapper") != 0 || by_cat.count("fifo") != 0;
    std::size_t histogram_layers = 0;
    bool saw_wrapper_hist = false, saw_uck_hist = false,
         saw_host_hist = false;
    for (const MetricSample &s : final_snap) {
        if (s.kind != MetricKind::Histogram || s.count == 0)
            continue;
        if (!saw_wrapper_hist &&
            s.name.find("/wrapper/") != std::string::npos) {
            saw_wrapper_hist = true;
            ++histogram_layers;
        }
        if (!saw_uck_hist &&
            s.name.find("/uck/") != std::string::npos) {
            saw_uck_hist = true;
            ++histogram_layers;
        }
        if (!saw_host_hist &&
            s.name.find("host/") == 0) {
            saw_host_hist = true;
            ++histogram_layers;
        }
    }
    std::printf("self-check: command span %s, wrapper/fifo span %s, "
                "latency histograms from %zu layers -> %s\n",
                has_cmd_span ? "yes" : "NO",
                has_wrapper_span ? "yes" : "NO", histogram_layers,
                has_cmd_span && has_wrapper_span &&
                        histogram_layers >= 3 && names_ok &&
                        mismatches == 0 && exported
                    ? "PASS"
                    : "FAIL");
    return has_cmd_span && has_wrapper_span && histogram_layers >= 3 &&
                   names_ok && mismatches == 0 && exported
               ? 0
               : 1;
}
