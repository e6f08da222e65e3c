/**
 * @file
 * In-process time-series store: the retained-history half of the
 * observe→decide loop. The MetricsRegistry only knows instantaneous
 * values; this store keeps every registered metric's recent past in
 * fixed memory — a raw ring of (tick, value) points per series plus
 * two tiered rollup rings (min/max/sum/count per window) so long
 * horizons survive after the raw ring has wrapped. A Sampler built
 * over the store feeds it on every scrape, so history for the whole
 * registry costs one component.
 *
 * Queries are windowed: delta and rate for counters, min/max/mean for
 * gauges, and sliding percentiles computed by folding the window's
 * raw points through the existing Histogram. The SLO engine evaluates
 * burn rates over exactly these windows, and the flight recorder
 * snapshots series tails into its post-mortem bundle.
 *
 * Determinism contract: all state derives from ingested (tick, value)
 * pairs — no wall clock, no allocation-order dependence (series are
 * kept in a name-sorted map), so identical scrape sequences produce
 * identical stores, byte-identical once serialized.
 */

#ifndef HARMONIA_OBS_TIMESERIES_H_
#define HARMONIA_OBS_TIMESERIES_H_

#include <map>
#include <string>
#include <vector>

#include "common/stats.h"
#include "common/types.h"
#include "sim/trace.h"
#include "telemetry/metrics_registry.h"

namespace harmonia {

/** One retained observation. */
struct TsPoint {
    Tick tick = 0;
    double value = 0.0;
};

/** One rollup window's aggregate. */
struct TsRollup {
    Tick windowStart = 0;  ///< window covers [start, start + window)
    double min = 0.0;
    double max = 0.0;
    double sum = 0.0;
    double last = 0.0;
    std::uint64_t count = 0;

    double mean() const { return count ? sum / static_cast<double>(count) : 0.0; }
};

/** The two rollup tiers above the raw ring. */
enum class TsTier { Mid = 0, Long = 1 };

/** Windowed aggregate of raw points (empty() when no point hit). */
struct TsWindowStats {
    std::uint64_t count = 0;
    double min = 0.0;
    double max = 0.0;
    double mean = 0.0;
    double first = 0.0;
    double last = 0.0;
    Tick firstTick = 0;
    Tick lastTick = 0;

    bool empty() const { return count == 0; }
};

/** Retention shape; every series in a store shares one config. */
struct TsConfig {
    /** Raw points kept per series. */
    std::size_t rawCapacity = 512;
    /** Rollup buckets kept per tier per series. */
    std::size_t rollupCapacity = 128;
    /** Mid-tier window: 1k cycles of the 250 MHz kernel clock. */
    Tick midWindow = 4'000'000;
    /** Long-tier window: 100k cycles of the same clock. */
    Tick longWindow = 400'000'000;
    /** Hard bound on distinct series (fixed-memory guarantee). */
    std::size_t maxSeries = 4096;
};

class TimeSeriesStore {
  public:
    explicit TimeSeriesStore(TsConfig config = {});

    const TsConfig &config() const { return config_; }

    /**
     * Record one scrape of MetricsRegistry::scalarSeries(): every
     * series lands under its name, so a histogram's `<name>/p50` and
     * `<name>/p99` history is queryable like any gauge. Series are
     * created lazily up to maxSeries; excess series are dropped and
     * counted.
     */
    void ingest(Tick tick, const std::vector<ScalarSeries> &series);

    /** Record one point of one series (tests, derived metrics). */
    void ingestPoint(Tick tick, const std::string &name, double value);

    std::size_t seriesCount() const { return series_.size(); }
    bool has(const std::string &name) const;

    /** Name-sorted series names (deterministic iteration order). */
    std::vector<std::string> seriesNames() const;

    /** Raw points oldest→newest; empty vector for unknown series. */
    std::vector<TsPoint> points(const std::string &name) const;

    /** Rollup buckets oldest→newest for one tier. */
    std::vector<TsRollup> rollups(const std::string &name,
                                  TsTier tier) const;

    /** Most recent value; 0.0 when the series is unknown or empty. */
    double latest(const std::string &name) const;
    Tick latestTick(const std::string &name) const;

    /**
     * last - first over raw points in [now - window, now]. The natural
     * counter query; 0.0 when fewer than two points land in-window.
     */
    double delta(const std::string &name, Tick window, Tick now) const;

    /**
     * delta() divided by the observed span (first→last point) in
     * seconds of simulated time; 0.0 on a degenerate window.
     */
    double rate(const std::string &name, Tick window, Tick now) const;

    /** min/max/mean/first/last over raw points in the window. */
    TsWindowStats windowStats(const std::string &name, Tick window,
                              Tick now) const;

    /**
     * Sliding percentile over the window's raw points, folded through
     * the existing Histogram (same bucket-midpoint contract: empty
     * window → 0.0, one sample → that sample's bucket midpoint).
     * Negative values clamp to 0 (tick/occupancy series are >= 0).
     */
    double percentileOver(const std::string &name, Tick window,
                          double pct, Tick now) const;

    /** Scrapes ingested / points dropped by the maxSeries bound. */
    std::uint64_t ingested() const { return ingested_; }
    std::uint64_t droppedSeries() const { return droppedSeries_; }

    void clear();

  private:
    struct Series {
        BoundedRing<TsPoint> raw;
        BoundedRing<TsRollup> mid;
        BoundedRing<TsRollup> lng;
        TsRollup midOpen;   ///< accumulating bucket, not yet sealed
        TsRollup lngOpen;
        bool midStarted = false;
        bool lngStarted = false;

        explicit Series(const TsConfig &cfg)
            : raw(cfg.rawCapacity), mid(cfg.rollupCapacity),
              lng(cfg.rollupCapacity)
        {
        }
    };

    Series *findOrCreate(const std::string &name);
    const Series *find(const std::string &name) const;
    static void fold(TsRollup &open, bool &started, Tick window,
                     BoundedRing<TsRollup> &sealed, Tick tick,
                     double value);
    /** Raw points of @p s inside [now - window, now], oldest→newest. */
    std::vector<TsPoint> windowPoints(const Series &s, Tick window,
                                      Tick now) const;

    TsConfig config_;
    std::map<std::string, Series> series_;
    std::uint64_t ingested_ = 0;
    std::uint64_t droppedSeries_ = 0;
};

} // namespace harmonia

#endif // HARMONIA_OBS_TIMESERIES_H_
