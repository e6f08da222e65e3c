/**
 * @file
 * perfbench: host wall-clock benchmark of the simulator.
 *
 *   perfbench --workload <fleet_churn|cmd_stream|l4lb_flows>
 *             --seed <n> --seconds <s> --trace <0|1> [--trace-out <file>]
 *
 * Runs one workload single-threaded as a closed loop for the given
 * wall time, checks its outputs, and prints as the last line one JSON
 * object {correct, attempted, failed, metrics}. --trace 0 reports the
 * end-to-end metrics; --trace 1 reports the per-layer metrics from a
 * traced phase measured against an untraced one.
 */

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "bench.h"

using namespace perfbench;

namespace {

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload "
                 "<fleet_churn|cmd_stream|l4lb_flows> --seed <n> "
                 "--seconds <s> --trace <0|1> [--trace-out <file>]\n",
                 why);
    std::exit(2);
}

Options
parse(int argc, char **argv)
{
    Options o;
    bool have_workload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + arg).c_str());
        const std::string val = argv[++i];
        char *end = nullptr;
        if (arg == "--workload") {
            o.workload = val;
            have_workload = true;
        } else if (arg == "--seed") {
            o.seed = std::strtoull(val.c_str(), &end, 10);
            if (*end != '\0' || val.empty())
                usage("--seed takes a whole number");
        } else if (arg == "--seconds") {
            o.seconds = std::strtod(val.c_str(), &end);
            if (*end != '\0' || !(o.seconds > 0.0) || o.seconds > 600.0)
                usage("--seconds takes a number in (0, 600]");
        } else if (arg == "--trace") {
            if (val != "0" && val != "1")
                usage("--trace takes 0 or 1");
            o.trace = val == "1";
        } else if (arg == "--trace-out") {
            o.traceOut = val;
        } else {
            usage(("unknown option " + arg).c_str());
        }
    }
    if (!have_workload)
        usage("--workload is required");
    return o;
}

void
printResult(const Result &res)
{
    for (const std::string &note : res.notes)
        std::printf("# %s\n", note.c_str());
    if (!res.correct)
        std::printf("# FAILED CHECK: %s\n", res.error.c_str());
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                res.correct ? "true" : "false",
                static_cast<unsigned long long>(res.attempted),
                static_cast<unsigned long long>(res.failed));
    for (std::size_t i = 0; i < res.metrics.size(); ++i) {
        const Metric &m = res.metrics[i];
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i == 0 ? "" : ", ", m.name.c_str(),
                    std::isfinite(m.value) ? m.value : 0.0,
                    m.unit.c_str());
    }
    std::printf("}}\n");
}

} // namespace

int
main(int argc, char **argv)
{
    const Options opts = parse(argc, argv);
    Result res;
    try {
        if (opts.workload == "fleet_churn")
            res = runFleetChurn(opts);
        else if (opts.workload == "cmd_stream")
            res = runCmdStream(opts);
        else if (opts.workload == "l4lb_flows")
            res = runL4lbFlows(opts);
        else
            usage(("unknown workload " + opts.workload).c_str());
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s aborted: %s\n",
                     opts.workload.c_str(), e.what());
        return 2;
    }
    for (const Metric &m : res.metrics)
        if (!std::isfinite(m.value))
            res.fail("metric " + m.name + " is not finite");
    if (res.attempted == 0)
        res.fail("no operation was attempted");
    printResult(res);
    return res.correct ? 0 : 1;
}
