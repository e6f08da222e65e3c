/**
 * @file
 * Statistics primitives used by RBB monitoring logic (§3.3.1): scalar
 * counters, rate meters (bps/pps over simulated time) and histograms.
 * A StatGroup collects the statistics of one hardware module so the
 * monitoring Ex-function and the host can enumerate them.
 */

#ifndef HARMONIA_COMMON_STATS_H_
#define HARMONIA_COMMON_STATS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/types.h"

namespace harmonia {

/** A monotonically increasing scalar statistic. */
class Counter {
  public:
    void inc(std::uint64_t n = 1) { value_ += n; }
    std::uint64_t value() const { return value_; }
    void reset() { value_ = 0; }

  private:
    std::uint64_t value_ = 0;
};

/**
 * Events-per-second meter over simulated time. Network RBB monitoring
 * reports real-time throughput (bps) and packet rate (pps) with this.
 */
class RateMeter {
  public:
    /** Record @p n events at simulated time @p now. */
    void record(Tick now, std::uint64_t n = 1);

    /** Total events recorded. */
    std::uint64_t total() const { return total_; }

    /** Average events/second between first and last record. */
    double ratePerSecond() const;

    void reset();

  private:
    std::uint64_t total_ = 0;
    Tick first_ = 0;
    Tick last_ = 0;
    bool started_ = false;
};

/** Fixed-bucket histogram, e.g. for latency distributions. */
class Histogram {
  public:
    /**
     * @param bucket_width Width of each bucket in sample units.
     * @param num_buckets  Bucket count; samples beyond the last bucket
     *                     land in an overflow bucket.
     */
    Histogram(std::uint64_t bucket_width, std::size_t num_buckets);

    void sample(std::uint64_t value);

    std::uint64_t count() const { return count_; }
    double mean() const;
    std::uint64_t min() const { return count_ ? min_ : 0; }
    std::uint64_t max() const { return max_; }

    /**
     * Approximate percentile using bucket midpoints. Contract: @p pct
     * is clamped into [0, 100] (no error for out-of-range input); an
     * empty histogram returns exactly 0.0; pct == 0 returns the first
     * occupied bucket's midpoint; samples past the last bucket resolve
     * to max().
     */
    double percentile(double pct) const;

    const std::vector<std::uint64_t> &buckets() const { return buckets_; }

    /** Samples that landed beyond the last bucket. */
    std::uint64_t overflow() const { return overflow_; }

    void reset();

  private:
    std::uint64_t bucketWidth_;
    std::vector<std::uint64_t> buckets_;
    std::uint64_t overflow_ = 0;
    std::uint64_t count_ = 0;
    std::uint64_t sum_ = 0;
    std::uint64_t min_ = 0;
    std::uint64_t max_ = 0;
};

/**
 * A named collection of counters belonging to one module. The host
 * retrieves these via the Module Status Read command.
 */
class StatGroup {
  public:
    explicit StatGroup(std::string name) : name_(std::move(name)) {}

    /** Get-or-create a counter by name. */
    Counter &counter(const std::string &name);

    /** Lookup; returns 0 for unknown counters. */
    std::uint64_t value(const std::string &name) const;

    const std::string &name() const { return name_; }

    /** Snapshot of all counters, sorted by name. */
    std::vector<std::pair<std::string, std::uint64_t>> snapshot() const;

    void resetAll();

  private:
    std::string name_;
    std::map<std::string, Counter> counters_;
};

/**
 * One named counter of a StatGroup, resolved on first use and cached.
 * Ticked code holds a handle per counter it bumps, so an increment is
 * a pointer test rather than a string build and a map walk — closer to
 * the hardware counter it models (§3.3.1).
 *
 * Resolution is lazy on purpose: the counter enters its group, and so
 * every snapshot and subscription map built from the group, at exactly
 * the moment a `counter(name)` call at the same site would create it.
 * std::map nodes are stable and nothing erases from or reassigns a
 * StatGroup, so the cached pointer lives as long as the group
 * (resetAll() zeroes values in place). The handle is neither copyable
 * nor movable, so a class holding one cannot be copied away from its
 * group; declare each handle after the group it names.
 */
class CounterHandle {
  public:
    /** @p name must outlive the handle (a string literal). */
    CounterHandle(StatGroup &group, const char *name)
        : group_(group), name_(name)
    {
    }

    CounterHandle(const CounterHandle &) = delete;
    CounterHandle &operator=(const CounterHandle &) = delete;

    void inc(std::uint64_t n = 1) { get().inc(n); }

    /** The counter, created in the group on the first call. */
    Counter &
    get()
    {
        if (counter_ == nullptr)
            counter_ = &group_.counter(name_);
        return *counter_;
    }

  private:
    StatGroup &group_;
    const char *name_;
    Counter *counter_ = nullptr;
};

} // namespace harmonia

#endif // HARMONIA_COMMON_STATS_H_
