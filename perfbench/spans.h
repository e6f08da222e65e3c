/**
 * @file
 * The benchmark's own span recorder. Spans wrap calls into a layer's
 * public API from benchmark code only (nothing is recorded inside the
 * simulator); each carries a name, host start/end, its parent span
 * and the id of the operation it belongs to. Spans stay in memory and
 * are written out as one Chrome trace when the run ends.
 */

#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/** Name of the root span of every operation. */
inline constexpr const char *kOpSpan = "op";

struct Span {
    const char *name = "";  ///< string literal, static lifetime
    std::int64_t beginNs = 0;
    std::int64_t endNs = 0;
    std::int32_t parent = -1;  ///< index into the log, -1 = root
    std::uint64_t op = 0;

    double us() const { return static_cast<double>(endNs - beginNs) / 1e3; }
};

class SpanLog {
  public:
    /** Recording is off until enabled; a disabled log costs a branch. */
    void setEnabled(bool on) { enabled_ = on; }
    bool enabled() const { return enabled_; }

    /** Open a span under the innermost open one; -1 when disabled. */
    std::int32_t open(const char *name, std::uint64_t op);
    void close(std::int32_t idx);

    const std::vector<Span> &spans() const { return spans_; }

    /** Durations (us) of every span called @p name. */
    std::vector<double> durationsUs(const char *name) const;

    /** Total duration (us) of every span called @p name. */
    double totalUs(const char *name) const;

    /**
     * Share of the op spans' wall time covered by their direct
     * children — 1.0 means every microsecond of every operation sits
     * inside some layer's span.
     */
    double opCoverage() const;

    /** Write every span as Chrome trace JSON; false on I/O failure. */
    bool writeChromeTrace(const std::string &path) const;

  private:
    bool enabled_ = false;
    std::vector<Span> spans_;
    std::vector<std::int32_t> stack_;
};

/** RAII span; does nothing when the log is disabled. */
class ScopedSpan {
  public:
    ScopedSpan(SpanLog &log, const char *name, std::uint64_t op)
        : log_(log), idx_(log.open(name, op))
    {
    }
    ~ScopedSpan() { log_.close(idx_); }

    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    SpanLog &log_;
    std::int32_t idx_;
};

} // namespace perfbench

#endif // PERFBENCH_SPANS_H_
