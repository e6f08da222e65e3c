/**
 * @file
 * The strong notion of "bit-identical" the determinism harness and the
 * fast-forward oracle share: everything observable at the end of a
 * run — full telemetry snapshots, trace span trees, fault-plan
 * fingerprints, the wire bytes a scenario moved and the end time —
 * rendered to strings, so a mismatch names the first differing line
 * instead of printing "false".
 */

#ifndef HARMONIA_TESTS_SIM_RUN_IMAGE_H_
#define HARMONIA_TESTS_SIM_RUN_IMAGE_H_

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "common/strings.h"
#include "sim/trace.h"
#include "telemetry/metrics_registry.h"

namespace harmonia {

/** Everything observable at the end of a run. */
struct RunImage {
    std::vector<std::string> metrics;
    std::vector<std::string> spans;
    std::uint64_t faultFingerprint = 0;
    std::uint64_t faultInjected = 0;
    std::uint64_t wireBytes = 0;
    std::uint64_t wirePackets = 0;
    Tick endNow = 0;

    bool operator==(const RunImage &) const = default;
};

/** One line per series of @p reg whose name starts with @p prefix. */
inline std::vector<std::string>
renderMetrics(const MetricsRegistry &reg, const std::string &prefix = "")
{
    std::vector<std::string> out;
    for (const MetricSample &s : reg.snapshot()) {
        if (s.name.compare(0, prefix.size(), prefix) != 0)
            continue;
        out.push_back(format(
            "%s k=%u v=%.17g n=%llu min=%llu max=%llu mean=%.17g "
            "p50=%.17g p99=%.17g",
            s.name.c_str(), static_cast<unsigned>(s.kind), s.value,
            static_cast<unsigned long long>(s.count),
            static_cast<unsigned long long>(s.min),
            static_cast<unsigned long long>(s.max), s.mean, s.p50,
            s.p99));
    }
    return out;
}

/** One line per recorded span, ids remapped to first appearance. */
inline std::vector<std::string>
renderSpans()
{
    // Span ids come from a process-global counter that survives
    // Trace::clear(), so remap them (and the parent links) to dense
    // first-appearance order — the tree shape is what must match.
    std::map<SpanId, std::uint64_t> dense;
    std::map<std::uint64_t, std::uint64_t> denseCorr;
    dense[0] = 0;
    denseCorr[0] = 0;
    const auto idOf = [&dense](SpanId id) {
        return dense.emplace(id, dense.size()).first->second;
    };
    const auto corrOf = [&denseCorr](std::uint64_t corr) {
        return denseCorr.emplace(corr, denseCorr.size()).first->second;
    };
    std::vector<std::string> out;
    for (const Trace::Span &s : Trace::instance().spans())
        out.push_back(format(
            "id=%llu parent=%llu corr=%llu [%llu,%llu] %s/%s/%s",
            static_cast<unsigned long long>(idOf(s.id)),
            static_cast<unsigned long long>(idOf(s.parent)),
            static_cast<unsigned long long>(corrOf(s.corr)),
            static_cast<unsigned long long>(s.begin),
            static_cast<unsigned long long>(s.end), s.who.c_str(),
            s.what.c_str(), s.cat.c_str()));
    return out;
}

/** The whole image as lines, scalars first. */
inline std::vector<std::string>
imageLines(const RunImage &img)
{
    std::vector<std::string> out{
        format("end_now=%llu", static_cast<unsigned long long>(img.endNow)),
        format("wire_bytes=%llu wire_packets=%llu",
               static_cast<unsigned long long>(img.wireBytes),
               static_cast<unsigned long long>(img.wirePackets)),
        format("fault_fingerprint=%016llx injected=%llu",
               static_cast<unsigned long long>(img.faultFingerprint),
               static_cast<unsigned long long>(img.faultInjected))};
    out.insert(out.end(), img.metrics.begin(), img.metrics.end());
    out.insert(out.end(), img.spans.begin(), img.spans.end());
    return out;
}

/**
 * Empty when @p golden and @p run render alike; otherwise the index
 * and both sides of their first differing line.
 */
inline std::string
firstDifference(const std::vector<std::string> &golden,
                const std::vector<std::string> &run)
{
    const std::size_t n = std::min(golden.size(), run.size());
    for (std::size_t i = 0; i < n; ++i)
        if (golden[i] != run[i])
            return format("line %zu:\n  want: %s\n  got:  %s", i,
                          golden[i].c_str(), run[i].c_str());
    if (golden.size() != run.size())
        return format("line %zu: want %zu lines, got %zu", n,
                      golden.size(), run.size());
    return "";
}

inline void
expectIdentical(const RunImage &golden, const RunImage &run,
                const std::string &label)
{
    const std::string diff =
        firstDifference(imageLines(golden), imageLines(run));
    EXPECT_TRUE(diff.empty()) << label << ": " << diff;
}

} // namespace harmonia

#endif // HARMONIA_TESTS_SIM_RUN_IMAGE_H_
