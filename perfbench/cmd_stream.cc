/**
 * @file
 * cmd_stream: one unified DeviceA shell on the default engine (serial,
 * no fast-forward) takes a seeded, fixed mix of host commands — small
 * status reads and large stats snapshots from the network RBB, status
 * writes to it and queue-config writes to the host RBB (the only RBB
 * that implements kCmdQueueConfig). The raw edge loop and the command
 * path do almost all the work; fleet, HA and obs do none.
 *
 * Closed loop, one synchronous caller: an operation is one
 * CmdDriver::call. Each episode builds a fresh shell and replays the
 * same seeded command list, so every episode of a run must end in the
 * same simulated digest.
 */

#include <algorithm>
#include <memory>
#include <utility>

#include "bench.h"
#include "host/cmd_driver.h"
#include "sim/trace.h"
#include "spans.h"
#include "telemetry/profiler.h"

using namespace harmonia;

namespace perfbench {

namespace {

/** Calls per episode: enough for a p99, in about 0.1 s of host time,
 *  so the quiet percentile has many episodes to choose from. */
constexpr std::size_t kCallsPerEpisode = 1000;
/** Calls of the one attribution episode with simulator tracing on. */
constexpr std::size_t kAttributionCalls = kCallsPerEpisode;
/** Fold well inside the trace ring (4 spans per call, 4096 deep). */
constexpr std::size_t kFoldEvery = 256;
constexpr double kTailPct = 99.0;

enum class Kind { ReadSmall, ReadStats, Write };

constexpr const char *kKindSpan[] = {"host.call.read_small",
                                     "host.call.read_stats",
                                     "host.call.write"};

struct Cmd {
    Kind kind = Kind::ReadSmall;
    std::uint8_t rbb = kRbbNetwork;
    std::uint16_t code = kCmdModuleStatusRead;
    std::vector<std::uint32_t> data;
};

/** The engine, shell and driver one episode runs on. */
struct Rig {
    Engine engine;
    std::unique_ptr<Shell> shell;
    std::unique_ptr<CmdDriver> driver;

    Rig()
        : shell(Shell::makeUnified(
              engine, DeviceDatabase::instance().byName("DeviceA"))),
          driver(std::make_unique<CmdDriver>(engine, *shell))
    {
        driver->initializeAll();
    }

    std::uint64_t executed()
    {
        return shell->kernel().stats().value("commands_executed");
    }
};

/**
 * The seeded command list: a fixed mix — 40% small reads of
 * FLOW_TBL_IDX, 25% stats snapshots, 23% FLOW_TBL_IDX status writes and
 * 12% host queue-config writes — in seeded order with seeded values.
 * Queue-config writes come in pairs: the first disables a seeded range
 * of the queues initializeAll activated, the second re-enables it, so
 * the host RBB's active set (whose size the per-tick cost follows)
 * takes the same course under every seed.
 */
std::vector<Cmd>
makeCommands(std::uint64_t seed, std::size_t n)
{
    const Rig probe;  // only to read register addresses and queue count
    const std::uint32_t idx_reg =
        probe.shell->network(0).ctrlRegs().addrOf("FLOW_TBL_IDX");
    const unsigned active = std::min(64u, probe.shell->host().numQueues());

    const std::size_t reads = n * 40 / 100, stats = n * 25 / 100;
    const std::size_t queue_cfgs = n * 12 / 100 / 2 * 2;
    std::vector<Cmd> cmds(n);
    for (std::size_t i = 0; i < n; ++i) {
        if (i < reads)
            cmds[i] = {Kind::ReadSmall, kRbbNetwork, kCmdModuleStatusRead,
                       {idx_reg}};
        else if (i < reads + stats)
            cmds[i] = {Kind::ReadStats, kRbbNetwork, kCmdStatsSnapshot, {}};
        else if (i < reads + stats + queue_cfgs)
            cmds[i] = {Kind::Write, kRbbHost, kCmdQueueConfig, {}};
        else
            cmds[i] = {Kind::Write, kRbbNetwork, kCmdModuleStatusWrite, {}};
    }
    for (std::size_t i = n; i > 1; --i)  // seeded Fisher-Yates
        std::swap(cmds[i - 1], cmds[mix(seed, i) % i]);

    std::uint32_t first = 0, count = 0;
    std::size_t queue_cfg = 0;
    for (std::size_t i = 0; i < n; ++i) {
        Cmd &c = cmds[i];
        const std::uint64_t r = mix(seed ^ 0x5eed, i);
        if (c.code == kCmdModuleStatusWrite) {
            c.data = {idx_reg, static_cast<std::uint32_t>(r >> 16) & 0xffff};
        } else if (c.code == kCmdQueueConfig) {
            const bool enable = queue_cfg++ % 2 == 1;
            if (!enable) {
                count = 1 + (r >> 8) % 8;
                first = static_cast<std::uint32_t>((r >> 16) %
                                                   (active - count + 1));
            }
            c.data = {first, count, enable ? 1u : 0u};
        }
    }
    return cmds;
}

/** Simulated attribution accumulated by the attribution episode. */
struct Attribution {
    Tick driver = 0, wire = 0, kernel = 0, rbb = 0, roundTrip = 0;
    std::uint64_t calls = 0;
};

/**
 * Run one episode: set up a fresh rig, issue every command, check
 * each response. Returns the episode's simulated digest.
 */
std::uint64_t
runEpisode(const std::vector<Cmd> &cmds, SpanLog &log, Phase &phase,
           Result &res, std::uint64_t *retries,
           Attribution *attrib = nullptr)
{
    pinForEpisode(phase.episodes());
    const std::int64_t s0 = wallNs();
    Rig rig;
    phase.setupS.push_back(secondsSince(s0));
    phase.beginEpisode();

    Profiler *profiler = nullptr;
    if (attrib != nullptr) {
        Trace::instance().clear();
        Trace::instance().setEnabled(true);
        profiler = &rig.shell->profiler();
        profiler->reset();
    }

    const std::uint64_t executed0 = rig.executed();
    const std::uint64_t retries0 = rig.driver->stats().value("retries");
    Digest digest;
    bool shadow_known = false;
    std::uint32_t shadow = 0;  // host copy of FLOW_TBL_IDX
    for (std::size_t i = 0; i < cmds.size(); ++i) {
        const Cmd &c = cmds[i];
        const std::uint64_t op = phase.attempted++;
        const std::int64_t t0 = wallNs();
        CommandPacket resp;
        {
            ScopedSpan op_span(log, kOpSpan, op);
            ScopedSpan call(log, kKindSpan[static_cast<int>(c.kind)], op);
            resp = rig.driver->call(c.rbb, 0, c.code, c.data);
        }
        const double us = static_cast<double>(wallNs() - t0) / 1e3;
        phase.opWallUs.push_back(us);
        phase.measuredS += us / 1e6;
        ++phase.ops;

        if (attrib != nullptr) {
            attrib->roundTrip += rig.driver->lastLatency();
            if (i % kFoldEvery == kFoldEvery - 1)
                profiler->fold();
        }

        bool ok = resp.status == kCmdOk;
        if (ok && c.code == kCmdModuleStatusWrite) {
            shadow = c.data[1];
            shadow_known = true;
        } else if (ok && c.kind == Kind::ReadSmall && shadow_known) {
            ok = resp.data.size() == 1 && resp.data[0] == shadow;
        } else if (ok && c.kind == Kind::ReadStats) {
            // [count, up to 15 counter values]
            ok = !resp.data.empty() &&
                 resp.data.size() ==
                     1 + std::min<std::size_t>(resp.data[0], 15);
        }
        if (!ok) {
            ++phase.failed;
            res.fail("command " + std::to_string(i) +
                     " returned a bad response");
        }
        digest.add(resp.status);
        for (const std::uint32_t w : resp.data)
            digest.add(w);
    }

    const std::uint64_t executed = rig.executed() - executed0;
    if (executed != cmds.size())
        res.fail("kernel executed " + std::to_string(executed) +
                 " commands for " + std::to_string(cmds.size()) +
                 " calls");
    phase.endEpisode();
    *retries += rig.driver->stats().value("retries") - retries0;
    digest.add(rig.engine.now());
    digest.add(executed);

    if (attrib != nullptr) {
        profiler->fold();
        Trace::instance().setEnabled(false);
        const std::string &kernel = rig.shell->kernel().name();
        for (const ProfileEntry &e : profiler->snapshot()) {
            if (e.cat == "wire")
                attrib->wire += e.selfTicks;
            else if (e.cat == "rbb")
                attrib->rbb += e.selfTicks;
            else if (e.who == kernel)
                attrib->kernel += e.selfTicks;
            else
                attrib->driver += e.selfTicks;
        }
        attrib->calls += cmds.size();
        Trace::instance().clear();
    }
    return digest.value();
}

/** Episodes: at least kMinEpisodes and @p seconds of wall time. */
Phase
runPhase(const std::vector<Cmd> &cmds, double seconds, SpanLog &log,
         Result &res, std::uint64_t &digest, std::uint64_t *retries)
{
    Phase phase;
    const std::int64_t start = wallNs();
    while (phase.episodes() < kMinEpisodes ||
           secondsSince(start) < seconds) {
        const std::uint64_t d =
            runEpisode(cmds, log, phase, res, retries);
        if (digest == 0)
            digest = d;
        else if (d != digest)
            res.fail("episode digest differs within one seed");
    }
    return phase;
}

} // namespace

Result
runCmdStream(const Options &opts)
{
    Result res;
    const std::vector<Cmd> cmds = makeCommands(opts.seed, kCallsPerEpisode);
    std::uint64_t digest = 0;
    std::uint64_t retries = 0;
    SpanLog log;

    if (!opts.trace) {
        const Phase phase =
            runPhase(cmds, opts.seconds, log, res, digest, &retries);
        res.attempted = phase.attempted;
        res.failed = phase.failed;
        reportEndToEnd(phase, kTailPct, res);
    } else {
        const Phase plain =
            runPhase(cmds, opts.seconds / 2, log, res, digest, &retries);
        log.setEnabled(true);
        const Phase traced =
            runPhase(cmds, opts.seconds / 2, log, res, digest, &retries);
        log.setEnabled(false);

        // Simulated hop attribution, from the simulator's own causal
        // trace over one untimed episode — which must not change what
        // is simulated.
        Attribution at;
        Phase attrib_phase;
        SpanLog off;
        const std::vector<Cmd> head(
            cmds.begin(),
            cmds.begin() + static_cast<long>(kAttributionCalls));
        const std::uint64_t head_plain =
            runEpisode(head, off, attrib_phase, res, &retries);
        if (runEpisode(head, off, attrib_phase, res, &retries, &at) !=
            head_plain)
            res.fail("simulator tracing changed the simulated digest");
        const Tick hop_sum = at.driver + at.wire + at.kernel + at.rbb;
        if (hop_sum != at.roundTrip)
            res.fail("cmd hop self-times sum to " +
                     std::to_string(hop_sum) +
                     " ps, the round trips to " +
                     std::to_string(at.roundTrip) + " ps");

        res.attempted = plain.attempted + traced.attempted +
                        attrib_phase.attempted;
        res.failed =
            plain.failed + traced.failed + attrib_phase.failed;
        const double calls = static_cast<double>(at.calls);
        const auto per_call_ns = [calls](Tick t) {
            return static_cast<double>(t) / 1e3 / calls;
        };
        res.metrics = {
            {"host.call_wall_us.read_small",
             mean(log.durationsUs(kKindSpan[0])), "us"},
            {"host.call_wall_us.read_stats",
             mean(log.durationsUs(kKindSpan[1])), "us"},
            {"host.call_wall_us.write",
             mean(log.durationsUs(kKindSpan[2])), "us"},
            {"host.attempts_per_call",
             1.0 + static_cast<double>(retries) /
                       static_cast<double>(res.attempted),
             "count"},
            {"cmd.sim_self_ns.driver", per_call_ns(at.driver), "ns"},
            {"cmd.sim_self_ns.wire", per_call_ns(at.wire), "ns"},
            {"cmd.sim_self_ns.kernel", per_call_ns(at.kernel), "ns"},
            {"cmd.sim_self_ns.rbb", per_call_ns(at.rbb), "ns"},
            {"host.sim_roundtrip_ns", per_call_ns(at.roundTrip), "ns"},
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
                  static_cast<unsigned long long>(digest));
    res.notes.emplace_back(line);
    return res;
}

} // namespace perfbench
