#include "bench.h"

#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iterator>
#include <numeric>
#include <stdexcept>

namespace perfbench {

namespace {
constexpr double kTailLadder[] = {99.9, 99.0, 95.0, 90.0, 80.0, 50.0};
} // namespace

void
Phase::beginEpisode()
{
    opWallUs.clear();
    extraS = 0.0;
    opsAtBegin_ = ops;
}

void
Phase::endEpisode()
{
    const std::uint64_t epOps = ops - opsAtBegin_;
    if (episodes_ == 0) {
        samplesPerEpisode_ = opWallUs.size();
        opsPerEpisode_ = epOps;
        // Allocated once and filled, so the footprint (and peak RSS)
        // does not depend on how many episodes the run fits in.
        keptUs_.assign(kStoredEpisodes * samplesPerEpisode_, 0.0f);
    } else if (opWallUs.size() != samplesPerEpisode_ ||
               epOps != opsPerEpisode_) {
        throw std::logic_error("episodes of one phase differ in size");
    }
    if (episodes_++ % stride_ != 0)
        return;
    if (kept_ == kStoredEpisodes) {
        for (std::size_t k = 1; k < kept_ / 2; ++k) {
            std::copy_n(keptUs_.begin() + static_cast<long>(
                                              2 * k * samplesPerEpisode_),
                        samplesPerEpisode_,
                        keptUs_.begin() +
                            static_cast<long>(k * samplesPerEpisode_));
            keptExtraS_[k] = keptExtraS_[2 * k];
        }
        kept_ /= 2;
        keptExtraS_.resize(kept_);
        stride_ *= 2;
        if ((episodes_ - 1) % stride_ != 0)
            return;
    }
    std::copy(opWallUs.begin(), opWallUs.end(),
              keptUs_.begin() + static_cast<long>(kept_ * samplesPerEpisode_));
    keptExtraS_.push_back(extraS);
    ++kept_;
}

std::vector<double>
Phase::quietProfile() const
{
    std::vector<double> profile(samplesPerEpisode_);
    std::vector<double> across(kept_);
    for (std::size_t i = 0; i < samplesPerEpisode_; ++i) {
        for (std::size_t k = 0; k < kept_; ++k)
            across[k] = keptUs_[k * samplesPerEpisode_ + i];
        profile[i] = percentile(across, kQuietPct);
    }
    return profile;
}

double
Phase::opsPerS() const
{
    if (samplesPerEpisode_ == 0)
        return 0.0;
    const std::vector<double> profile = quietProfile();
    const double ops_per_sample = static_cast<double>(opsPerEpisode_) /
                                  static_cast<double>(samplesPerEpisode_);
    const double s =
        std::accumulate(profile.begin(), profile.end(), 0.0) *
            ops_per_sample / 1e6 +
        percentile(keptExtraS_, kQuietPct);
    return s > 0.0 ? static_cast<double>(opsPerEpisode_) / s : 0.0;
}

double
percentile(std::vector<double> v, double pct)
{
    if (v.empty())
        return 0.0;
    auto rank = static_cast<std::size_t>(
        std::ceil(pct / 100.0 * static_cast<double>(v.size())));
    rank = std::clamp<std::size_t>(rank, 1, v.size()) - 1;
    std::nth_element(v.begin(), v.begin() + static_cast<long>(rank),
                     v.end());
    return v[rank];
}

std::size_t
samplesForTail(double pct)
{
    return static_cast<std::size_t>(std::ceil(10.0 * 100.0 / (100.0 - pct)));
}

Tail
tailOf(const std::vector<double> &v)
{
    for (const double pct : kTailLadder)
        if (v.size() >= samplesForTail(pct))
            return {pct, percentile(v, pct), v.size()};
    return {50.0, percentile(v, 50.0), v.size()};
}

double
mean(const std::vector<double> &v)
{
    if (v.empty())
        return 0.0;
    return std::accumulate(v.begin(), v.end(), 0.0) /
           static_cast<double>(v.size());
}

double
peakRssMb()
{
    // VmHWM, not getrusage: ru_maxrss survives exec, so it would report
    // the launching script's footprint when that is larger.
    std::FILE *f = std::fopen("/proc/self/status", "r");
    if (f == nullptr)
        return 0.0;
    char line[256];
    double kib = 0.0;
    while (std::fgets(line, sizeof line, f) != nullptr)
        if (std::sscanf(line, "VmHWM: %lf", &kib) == 1)
            break;
    std::fclose(f);
    return kib / 1024.0;
}

std::size_t
pinForEpisode(std::size_t episode)
{
    static const std::vector<int> cpus = [] {
        std::vector<int> out;
        cpu_set_t allowed;
        if (sched_getaffinity(0, sizeof allowed, &allowed) == 0)
            for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu)
                if (CPU_ISSET(cpu, &allowed))
                    out.push_back(cpu);
        return out;
    }();
    if (cpus.empty())
        return 0;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus[episode % cpus.size()], &one);
    return sched_setaffinity(0, sizeof one, &one) == 0 ? cpus.size() : 0;
}

void
Result::fail(const std::string &why)
{
    if (correct)
        error = why;
    correct = false;
}

void
reportEndToEnd(const Phase &phase, double tail_pct, Result &res)
{
    const std::vector<double> profile = phase.quietProfile();
    res.metrics.push_back({"ops_per_s", phase.opsPerS(), "1/s"});
    res.metrics.push_back(
        {"op_wall_us_p50", percentile(profile, 50.0), "us"});
    res.metrics.push_back(
        {"op_wall_us_tail", percentile(profile, tail_pct), "us"});
    res.metrics.push_back({"setup_s", percentile(phase.setupS, 50.0), "s"});
    res.metrics.push_back({"peak_rss_mb", peakRssMb(), "MiB"});
    char line[240];
    std::snprintf(line, sizeof line,
                  "timings are per-sample quiet percentiles over %zu "
                  "episodes; op_wall_us_tail is p%g of %zu samples; "
                  "%llu operations in all; setup_s is the median of %zu "
                  "set-ups",
                  phase.episodes(), tail_pct, profile.size(),
                  static_cast<unsigned long long>(phase.ops),
                  phase.setupS.size());
    res.notes.emplace_back(line);
}

namespace {

/** Every per-layer metric, in report order (README.md maps each to
 *  the end-to-end metric and workload it should move). */
const Metric kPerLayer[] = {
    {"fleet.admit_wall_us_p50", 0, "us"},
    {"fleet.admit_wall_us_tail", 0, "us"},
    {"fleet.admit_placed_ratio", 0, "ratio"},
    {"fleet.migrate_wall_us", 0, "us"},
    {"fleet.migrate_ok_ratio", 0, "ratio"},
    {"fleet.call_wall_us", 0, "us"},
    {"fleet.journal_high_water", 0, "count"},
    {"fleet.poll_wall_us", 0, "us"},
    {"obs.hub_poll_wall_us", 0, "us"},
    {"obs.samples_ingested", 0, "count"},
    {"sim.runfor_wall_us", 0, "us"},
    {"sim.sim_ns_per_wall_ms", 0, "ns/ms"},
    {"fault.armed_wall_share", 0, "ratio"},
    {"host.call_wall_us.read_small", 0, "us"},
    {"host.call_wall_us.read_stats", 0, "us"},
    {"host.call_wall_us.write", 0, "us"},
    {"host.attempts_per_call", 0, "count"},
    {"cmd.sim_self_ns.driver", 0, "ns"},
    {"cmd.sim_self_ns.wire", 0, "ns"},
    {"cmd.sim_self_ns.kernel", 0, "ns"},
    {"cmd.sim_self_ns.rbb", 0, "ns"},
    {"host.sim_roundtrip_ns", 0, "ns"},
    {"shell.wall_ns_per_pkt", 0, "ns"},
    {"roles.native_wall_ns_per_pkt", 0, "ns"},
    {"roles.l4lb_conn_count", 0, "count"},
    {"shell.rx_packets", 0, "count"},
    {"shell.tx_packets", 0, "count"},
    {"shell.rx_drops", 0, "count"},
    {"sim.sim_pkt_lat_ns_p50", 0, "ns"},
    {"bench.trace_overhead_pct", 0, "%"},
    {"bench.span_coverage", 0, "ratio"},
};

} // namespace

void
completePerLayer(Result &res)
{
    std::vector<Metric> out;
    for (const Metric &cat : kPerLayer) {
        Metric m = cat;
        for (const Metric &got : res.metrics)
            if (got.name == cat.name)
                m.value = got.value;
        out.push_back(m);
    }
    for (const Metric &got : res.metrics) {
        const bool known =
            std::any_of(std::begin(kPerLayer), std::end(kPerLayer),
                        [&](const Metric &c) { return c.name == got.name; });
        if (!known)
            res.fail("metric " + got.name + " is not catalogued");
    }
    res.metrics = std::move(out);
}

double
traceOverheadPct(const Phase &untraced, const Phase &traced)
{
    const double u = untraced.opsPerS();
    const double t = traced.opsPerS();
    if (u <= 0.0 || t <= 0.0)
        return 0.0;
    return (u / t - 1.0) * 100.0;
}

} // namespace perfbench
