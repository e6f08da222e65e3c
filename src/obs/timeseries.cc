#include "obs/timeseries.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"

namespace harmonia {

TimeSeriesStore::TimeSeriesStore(TsConfig config) : config_(config)
{
    if (config_.rawCapacity == 0 || config_.rollupCapacity == 0)
        fatal("time-series store: ring capacities must be non-zero");
    if (config_.midWindow == 0 || config_.longWindow == 0)
        fatal("time-series store: rollup windows must be non-zero");
}

TimeSeriesStore::Series *
TimeSeriesStore::findOrCreate(const std::string &name)
{
    auto it = series_.find(name);
    if (it != series_.end())
        return &it->second;
    if (series_.size() >= config_.maxSeries) {
        ++droppedSeries_;
        return nullptr;
    }
    it = series_.emplace(name, Series(config_)).first;
    return &it->second;
}

const TimeSeriesStore::Series *
TimeSeriesStore::find(const std::string &name) const
{
    const auto it = series_.find(name);
    return it == series_.end() ? nullptr : &it->second;
}

void
TimeSeriesStore::fold(TsRollup &open, bool &started, Tick window,
                      BoundedRing<TsRollup> &sealed, Tick tick,
                      double value)
{
    const Tick start = (tick / window) * window;
    if (started && open.windowStart != start) {
        sealed.push(open);
        started = false;
    }
    if (!started) {
        open = TsRollup{};
        open.windowStart = start;
        open.min = value;
        open.max = value;
        started = true;
    }
    open.min = std::min(open.min, value);
    open.max = std::max(open.max, value);
    open.sum += value;
    open.last = value;
    ++open.count;
}

void
TimeSeriesStore::ingestPoint(Tick tick, const std::string &name,
                             double value)
{
    Series *s = findOrCreate(name);
    if (s == nullptr)
        return;
    s->raw.push(TsPoint{tick, value});
    fold(s->midOpen, s->midStarted, config_.midWindow, s->mid, tick,
         value);
    fold(s->lngOpen, s->lngStarted, config_.longWindow, s->lng, tick,
         value);
}

void
TimeSeriesStore::ingest(Tick tick,
                        const std::vector<ScalarSeries> &series)
{
    ++ingested_;
    for (const ScalarSeries &s : series)
        ingestPoint(tick, s.name, s.value);
}

bool
TimeSeriesStore::has(const std::string &name) const
{
    return find(name) != nullptr;
}

std::vector<std::string>
TimeSeriesStore::seriesNames() const
{
    std::vector<std::string> out;
    out.reserve(series_.size());
    for (const auto &[name, s] : series_)
        out.push_back(name);
    return out;
}

std::vector<TsPoint>
TimeSeriesStore::points(const std::string &name) const
{
    const Series *s = find(name);
    return s == nullptr ? std::vector<TsPoint>{} : s->raw.snapshot();
}

std::vector<TsRollup>
TimeSeriesStore::rollups(const std::string &name, TsTier tier) const
{
    const Series *s = find(name);
    if (s == nullptr)
        return {};
    // The open bucket is part of the answer: a decision loop must see
    // the current window, not just sealed history.
    std::vector<TsRollup> out = tier == TsTier::Mid
                                    ? s->mid.snapshot()
                                    : s->lng.snapshot();
    const bool started =
        tier == TsTier::Mid ? s->midStarted : s->lngStarted;
    if (started)
        out.push_back(tier == TsTier::Mid ? s->midOpen : s->lngOpen);
    return out;
}

double
TimeSeriesStore::latest(const std::string &name) const
{
    const Series *s = find(name);
    if (s == nullptr || s->raw.size() == 0)
        return 0.0;
    return s->raw.at(s->raw.size() - 1).value;
}

Tick
TimeSeriesStore::latestTick(const std::string &name) const
{
    const Series *s = find(name);
    if (s == nullptr || s->raw.size() == 0)
        return 0;
    return s->raw.at(s->raw.size() - 1).tick;
}

std::vector<TsPoint>
TimeSeriesStore::windowPoints(const Series &s, Tick window,
                              Tick now) const
{
    const Tick from = now >= window ? now - window : 0;
    std::vector<TsPoint> out;
    for (std::size_t i = 0; i < s.raw.size(); ++i) {
        const TsPoint &p = s.raw.at(i);
        if (p.tick >= from && p.tick <= now)
            out.push_back(p);
    }
    return out;
}

double
TimeSeriesStore::delta(const std::string &name, Tick window,
                       Tick now) const
{
    const Series *s = find(name);
    if (s == nullptr)
        return 0.0;
    const std::vector<TsPoint> pts = windowPoints(*s, window, now);
    if (pts.size() < 2)
        return 0.0;
    return pts.back().value - pts.front().value;
}

double
TimeSeriesStore::rate(const std::string &name, Tick window,
                      Tick now) const
{
    const Series *s = find(name);
    if (s == nullptr)
        return 0.0;
    const std::vector<TsPoint> pts = windowPoints(*s, window, now);
    if (pts.size() < 2 || pts.back().tick == pts.front().tick)
        return 0.0;
    const double span_s =
        static_cast<double>(pts.back().tick - pts.front().tick) /
        static_cast<double>(kTicksPerSecond);
    return (pts.back().value - pts.front().value) / span_s;
}

TsWindowStats
TimeSeriesStore::windowStats(const std::string &name, Tick window,
                             Tick now) const
{
    TsWindowStats out;
    const Series *s = find(name);
    if (s == nullptr)
        return out;
    for (const TsPoint &p : windowPoints(*s, window, now)) {
        if (out.count == 0) {
            out.min = p.value;
            out.max = p.value;
            out.first = p.value;
            out.firstTick = p.tick;
        }
        out.min = std::min(out.min, p.value);
        out.max = std::max(out.max, p.value);
        out.mean += p.value;
        out.last = p.value;
        out.lastTick = p.tick;
        ++out.count;
    }
    if (out.count != 0)
        out.mean /= static_cast<double>(out.count);
    return out;
}

double
TimeSeriesStore::percentileOver(const std::string &name, Tick window,
                                double pct, Tick now) const
{
    const Series *s = find(name);
    if (s == nullptr)
        return 0.0;
    const std::vector<TsPoint> pts = windowPoints(*s, window, now);
    if (pts.empty())
        return 0.0;
    double maxv = 0.0;
    for (const TsPoint &p : pts)
        maxv = std::max(maxv, p.value);
    // 256 buckets spanning [0, max]; the Histogram's bucket-midpoint
    // contract then applies unchanged to the sliding window.
    const std::uint64_t width = std::max<std::uint64_t>(
        1, static_cast<std::uint64_t>(maxv / 255.0) + 1);
    Histogram h(width, 256);
    for (const TsPoint &p : pts)
        h.sample(p.value <= 0.0
                     ? 0
                     : static_cast<std::uint64_t>(
                           std::llround(p.value)));
    return h.percentile(pct);
}

void
TimeSeriesStore::clear()
{
    series_.clear();
    ingested_ = 0;
    droppedSeries_ = 0;
}

} // namespace harmonia
