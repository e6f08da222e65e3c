/**
 * @file
 * Process-wide metrics registry — the aggregation point of Harmonia's
 * telemetry plane. Every shell module (wrappers, RBBs, CDC FIFOs, the
 * unified control kernel, host drivers) registers its StatGroups, rate
 * meters, histograms and gauges under hierarchical slash-separated
 * names (`unified_DeviceA/net_rbb0/rx_packets`), so one snapshot sees
 * the whole system. The registry stores non-owning pointers; every
 * registrant holds a ScopedMetrics handle that unregisters on
 * teardown, keeping the registry valid across shells coming and going
 * in one process (tests construct dozens).
 */

#ifndef HARMONIA_TELEMETRY_METRICS_REGISTRY_H_
#define HARMONIA_TELEMETRY_METRICS_REGISTRY_H_

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "common/stats.h"

namespace harmonia {

/** What a registered metric measures. */
enum class MetricKind : std::uint32_t {
    Counter = 0,    ///< monotonically increasing integer
    Gauge = 1,      ///< instantaneous value (occupancy, temperature)
    Rate = 2,       ///< events per second of simulated time
    Histogram = 3,  ///< distribution (latencies)
};

const char *toString(MetricKind kind);

/** One metric's value at snapshot time. Histograms fill the tail. */
struct MetricSample {
    std::string name;
    MetricKind kind = MetricKind::Counter;
    double value = 0.0;  ///< counter/gauge/rate reading

    // Histogram-only fields.
    std::uint64_t count = 0;
    std::uint64_t min = 0;
    std::uint64_t max = 0;
    double mean = 0.0;
    double p50 = 0.0;
    double p99 = 0.0;
};

/**
 * One scalar series of the flattened registry: what the time-series
 * store retains and what a telemetry subscription streams.
 */
struct ScalarSeries {
    std::string name;
    double value = 0.0;
    /** The value is an exact integer (counters, histogram counts). */
    bool exact = false;
};

/** Handle for unregistering; stable for the registry's lifetime. */
using MetricId = std::uint64_t;

class MetricsRegistry {
  public:
    /** The process-wide registry most components register into. */
    static MetricsRegistry &instance();

    MetricsRegistry() = default;
    MetricsRegistry(const MetricsRegistry &) = delete;
    MetricsRegistry &operator=(const MetricsRegistry &) = delete;

    /**
     * Register one metric. The pointee must outlive the registration
     * (unregister via remove() / ScopedMetrics before teardown). A
     * name collision gets a `~N` suffix so both stay visible.
     */
    MetricId addCounter(const std::string &name, const Counter *c);
    MetricId addRate(const std::string &name, const RateMeter *m);
    MetricId addHistogram(const std::string &name, const Histogram *h);
    MetricId addGauge(const std::string &name,
                      std::function<double()> fn);

    /**
     * Register a whole StatGroup under @p prefix. The group's counters
     * are enumerated at snapshot time, so counters created lazily
     * after registration are still exported.
     */
    MetricId addGroup(const std::string &prefix, const StatGroup *g);

    /** Unregister; unknown ids are ignored (idempotent teardown). */
    void remove(MetricId id);

    /** Registered entries (a StatGroup counts as one). */
    std::size_t size() const { return entries_.size(); }

    /**
     * Snapshot every metric, StatGroups expanded, sorted by name (the
     * exporters' input; histograms carry their full summary). Only
     * names starting with @p prefix (all when empty); an entry that
     * cannot hold one is not read at all.
     */
    std::vector<MetricSample> snapshot(const std::string &prefix = "") const;

    /**
     * The snapshot flattened into scalar series: counters, gauges and
     * rates keep their name and value; a histogram becomes `name`
     * (its count), `name/p50` and `name/p99`. Only names starting
     * with @p prefix (all when empty), name-sorted. Reads no entry
     * outside the prefix, so a card's ObsDelta on a parallel edge
     * touches no other card's counters.
     */
    std::vector<ScalarSeries>
    scalarSeries(const std::string &prefix = "") const;

    /** Drop everything (tests). Outstanding ids become stale no-ops. */
    void clear();

  private:
    struct Entry {
        std::string name;
        MetricKind kind = MetricKind::Counter;
        const Counter *counter = nullptr;
        const RateMeter *rate = nullptr;
        const Histogram *histogram = nullptr;
        const StatGroup *group = nullptr;
        std::function<double()> gauge;
    };

    MetricId add(Entry entry);
    std::string uniqueName(const std::string &name) const;
    bool nameTaken(const std::string &name) const;

    MetricId nextId_ = 1;
    std::map<MetricId, Entry> entries_;
};

/**
 * RAII bundle of registrations. Components keep one as a member and
 * route every addX() through it; destruction unregisters all, so a
 * destroyed shell leaves no dangling metric pointers behind.
 */
class ScopedMetrics {
  public:
    explicit ScopedMetrics(MetricsRegistry &reg =
                               MetricsRegistry::instance())
        : registry_(&reg)
    {
    }

    ~ScopedMetrics() { release(); }

    ScopedMetrics(const ScopedMetrics &) = delete;
    ScopedMetrics &operator=(const ScopedMetrics &) = delete;

    MetricsRegistry &registry() { return *registry_; }

    void
    addCounter(const std::string &name, const Counter *c)
    {
        ids_.push_back(registry_->addCounter(name, c));
    }

    void
    addRate(const std::string &name, const RateMeter *m)
    {
        ids_.push_back(registry_->addRate(name, m));
    }

    void
    addHistogram(const std::string &name, const Histogram *h)
    {
        ids_.push_back(registry_->addHistogram(name, h));
    }

    void
    addGauge(const std::string &name, std::function<double()> fn)
    {
        ids_.push_back(registry_->addGauge(name, std::move(fn)));
    }

    void
    addGroup(const std::string &prefix, const StatGroup *g)
    {
        ids_.push_back(registry_->addGroup(prefix, g));
    }

    /** Unregister everything now (idempotent). */
    void
    release()
    {
        for (MetricId id : ids_)
            registry_->remove(id);
        ids_.clear();
    }

    /** Release, then point future registrations at @p reg. */
    void
    reset(MetricsRegistry &reg)
    {
        release();
        registry_ = &reg;
    }

    std::size_t size() const { return ids_.size(); }

  private:
    MetricsRegistry *registry_;
    std::vector<MetricId> ids_;
};

} // namespace harmonia

#endif // HARMONIA_TELEMETRY_METRICS_REGISTRY_H_
