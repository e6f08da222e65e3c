#include "telemetry/metrics_registry.h"

#include <algorithm>

#include "common/logging.h"

namespace harmonia {

const char *
toString(MetricKind kind)
{
    switch (kind) {
      case MetricKind::Counter:
        return "counter";
      case MetricKind::Gauge:
        return "gauge";
      case MetricKind::Rate:
        return "rate";
      case MetricKind::Histogram:
        return "histogram";
    }
    return "?";
}

MetricsRegistry &
MetricsRegistry::instance()
{
    static MetricsRegistry r;
    return r;
}

bool
MetricsRegistry::nameTaken(const std::string &name) const
{
    return byName_.count(name) != 0;
}

std::string
MetricsRegistry::uniqueName(const std::string &name) const
{
    if (!nameTaken(name))
        return name;
    for (unsigned n = 2;; ++n) {
        const std::string candidate = format("%s~%u", name.c_str(), n);
        if (!nameTaken(candidate))
            return candidate;
    }
}

MetricId
MetricsRegistry::add(Entry entry)
{
    if (entry.name.empty())
        fatal("metric registered with an empty name");
    entry.name = uniqueName(entry.name);
    const MetricId id = nextId_++;
    byName_.emplace(entry.name, id);
    entries_.emplace(id, std::move(entry));
    return id;
}

MetricId
MetricsRegistry::addCounter(const std::string &name, const Counter *c)
{
    if (c == nullptr)
        fatal("null counter registered as '%s'", name.c_str());
    Entry e;
    e.name = name;
    e.kind = MetricKind::Counter;
    e.counter = c;
    return add(std::move(e));
}

MetricId
MetricsRegistry::addRate(const std::string &name, const RateMeter *m)
{
    if (m == nullptr)
        fatal("null rate meter registered as '%s'", name.c_str());
    Entry e;
    e.name = name;
    e.kind = MetricKind::Rate;
    e.rate = m;
    return add(std::move(e));
}

MetricId
MetricsRegistry::addHistogram(const std::string &name,
                              const Histogram *h)
{
    if (h == nullptr)
        fatal("null histogram registered as '%s'", name.c_str());
    Entry e;
    e.name = name;
    e.kind = MetricKind::Histogram;
    e.histogram = h;
    return add(std::move(e));
}

MetricId
MetricsRegistry::addGauge(const std::string &name,
                          std::function<double()> fn)
{
    if (!fn)
        fatal("null gauge registered as '%s'", name.c_str());
    Entry e;
    e.name = name;
    e.kind = MetricKind::Gauge;
    e.gauge = std::move(fn);
    return add(std::move(e));
}

MetricId
MetricsRegistry::addGroup(const std::string &prefix, const StatGroup *g)
{
    if (g == nullptr)
        fatal("null stat group registered as '%s'", prefix.c_str());
    Entry e;
    e.name = prefix;
    e.kind = MetricKind::Counter;
    e.group = g;
    return add(std::move(e));
}

void
MetricsRegistry::remove(MetricId id)
{
    const auto it = entries_.find(id);
    if (it == entries_.end())
        return;
    byName_.erase(it->second.name);
    entries_.erase(it);
}

void
MetricsRegistry::clear()
{
    entries_.clear();
    byName_.clear();
}

std::vector<MetricSample>
MetricsRegistry::snapshot(const std::string &prefix) const
{
    // An entry's samples are named e.name (a group's: e.name + "/"
    // + counter), so one whose name and the prefix differ within
    // their common length holds none that starts with the prefix.
    const auto outside = [&prefix](const std::string &name) {
        const std::size_t n = std::min(name.size(), prefix.size());
        return name.compare(0, n, prefix, 0, n) != 0;
    };
    std::vector<MetricSample> out;
    out.reserve(entries_.size());
    for (const auto &[id, e] : entries_) {
        if (outside(e.name))
            continue;
        if (e.group != nullptr) {
            for (const auto &[counter_name, value] :
                 e.group->snapshot()) {
                MetricSample s;
                s.name = e.name + "/" + counter_name;
                s.kind = MetricKind::Counter;
                s.value = static_cast<double>(value);
                out.push_back(std::move(s));
            }
            continue;
        }
        MetricSample s;
        s.name = e.name;
        s.kind = e.kind;
        switch (e.kind) {
          case MetricKind::Counter:
            s.value = static_cast<double>(e.counter->value());
            break;
          case MetricKind::Gauge:
            s.value = e.gauge();
            break;
          case MetricKind::Rate:
            s.value = e.rate->ratePerSecond();
            break;
          case MetricKind::Histogram:
            s.count = e.histogram->count();
            s.min = e.histogram->min();
            s.max = e.histogram->max();
            s.mean = e.histogram->mean();
            s.p50 = e.histogram->percentile(50);
            s.p99 = e.histogram->percentile(99);
            s.value = static_cast<double>(s.count);
            break;
        }
        out.push_back(std::move(s));
    }
    std::erase_if(out, [&prefix](const MetricSample &s) {
        return s.name.compare(0, prefix.size(), prefix) != 0;
    });
    std::sort(out.begin(), out.end(),
              [](const MetricSample &a, const MetricSample &b) {
                  return a.name < b.name;
              });
    return out;
}

std::vector<ScalarSeries>
MetricsRegistry::scalarSeries(const std::string &prefix) const
{
    std::vector<ScalarSeries> out;
    for (const MetricSample &s : snapshot(prefix)) {
        // A histogram's value is its count: exact, like a counter's.
        const bool histogram = s.kind == MetricKind::Histogram;
        out.push_back(
            {s.name, s.value, histogram || s.kind == MetricKind::Counter});
        if (histogram) {
            out.push_back({s.name + "/p50", s.p50, false});
            out.push_back({s.name + "/p99", s.p99, false});
        }
    }
    // The snapshot is name-sorted, but the /p50 and /p99 series can
    // interleave with sibling metric names.
    std::sort(out.begin(), out.end(),
              [](const ScalarSeries &a, const ScalarSeries &b) {
                  return a.name < b.name;
              });
    return out;
}

} // namespace harmonia
