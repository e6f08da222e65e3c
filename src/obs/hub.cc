#include "obs/hub.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <set>

namespace harmonia {

namespace {

/** Total wire words of a packet with @p data_words of data. */
std::uint64_t
packetWords(std::size_t data_words)
{
    return CommandPacket::kHdLenWords + data_words + 1;
}

// Wire shape of the retired TelemetryList / TelemetrySnapshot polling
// pair (codes 0x0030/0x0031), kept as the baseline the stream's wire
// cost is measured against. A List page holds kPollListBatch records
// of { index, kind, name }; a Snapshot answers kind plus one u64 for a
// counter, gauge or rate, or kind plus count/min/max and milli
// mean/p50/p99 as u64 pairs for a histogram.
constexpr std::size_t kPollListBatch = 8;
constexpr std::size_t kPollListRecordWords =
    2 + TelemetryTarget::kNameWords;
constexpr std::size_t kPollScalarWords = 1 + 2;
constexpr std::size_t kPollHistogramWords = 1 + 6 * 2;

} // namespace

ObsHub::ObsHub(Engine &engine, TsConfig ts_config)
    : engine_(engine), store_(ts_config), slo_("obs.hub.slo", store_)
{
}

bool
ObsHub::addDevice(const std::string &label, const std::string &role,
                  Shell &shell)
{
    if (devices_.count(label) != 0)
        return false;
    Device &dev = devices_[label];
    dev.status.label = label;
    dev.status.role = role;
    dev.status.prefix = shell.name() + "/";
    dev.shell = &shell;
    dev.driver = std::make_unique<CmdDriver>(engine_, shell);
    return true;
}

CallOutcome
ObsHub::call(Device &dev, std::uint16_t code,
             const std::vector<std::uint32_t> &data)
{
    const CallOutcome out =
        dev.driver->callChecked(kRbbTelemetry, 0, code, data);
    // Every attempt retransmits the request; only an answered call
    // moved a response. Both directions count against streaming.
    streamedWords_ +=
        packetWords(data.size()) * std::max(1u, out.attempts);
    if (out.ok())
        streamedWords_ += packetWords(out.response.data.size());
    return out;
}

bool
ObsHub::subscribe(const std::string &label)
{
    const auto it = devices_.find(label);
    if (it == devices_.end())
        return false;
    Device &dev = it->second;
    ObsDeviceStatus &st = dev.status;

    std::vector<std::uint32_t> req{0};
    TelemetryTarget::packNameTo(req, st.prefix);
    const CallOutcome out = call(dev, kCmdObsSubscribe, req);
    if (!out.ok() || out.response.status != kCmdOk ||
        out.response.data.size() < 5)
        return false;

    st.subId = out.response.data[0];
    st.epoch = out.response.data[1];
    st.lastSeq = 0;
    st.subscribed = true;
    st.alive = true;
    st.consecutiveFailures = 0;
    if (!loadMap(dev)) {
        st.subscribed = false;
        return false;
    }
    return true;
}

std::size_t
ObsHub::subscribeAll()
{
    std::size_t ok = 0;
    for (auto &kv : devices_)
        if (subscribe(kv.first))
            ++ok;
    return ok;
}

bool
ObsHub::loadMap(Device &dev)
{
    constexpr std::size_t kRecord = 2 + TelemetryTarget::kNameWords;
    std::vector<ObsMapEntry> map;
    std::uint32_t start = 0;
    for (;;) {
        const CallOutcome out = call(dev, kCmdObsSubscribe,
                                     {dev.status.subId, start});
        if (!out.ok() || out.response.status != kCmdOk)
            return false;
        const std::vector<std::uint32_t> &d = out.response.data;
        if (d.size() < 2)
            return false;
        const std::uint32_t total = d[0];
        const std::uint32_t k = d[1];
        if (d.size() < 2 + static_cast<std::size_t>(k) * kRecord)
            return false;
        if (map.size() != total)
            map.resize(total);
        for (std::uint32_t r = 0; r < k; ++r) {
            const std::size_t at = 2 + r * kRecord;
            const std::uint32_t idx = d[at];
            if (idx >= map.size())
                return false;
            // Map-page names are relative to the subscribed prefix.
            map[idx].enc = d[at + 1];
            map[idx].name = dev.status.prefix +
                            TelemetryTarget::unpackName(&d[at + 2]);
        }
        start += k;
        if (k == 0 || start >= total)
            break;
    }
    dev.map = std::move(map);
    dev.status.mapSize = dev.map.size();
    return true;
}

void
ObsHub::ingestRecords(Device &dev, Tick now,
                      const std::vector<std::uint32_t> &data,
                      std::uint32_t k)
{
    for (std::uint32_t r = 0; r < k; ++r) {
        const std::size_t at = 4 + static_cast<std::size_t>(r) * 3;
        const std::uint32_t idx = data[at];
        if (idx >= dev.map.size())
            continue;  // stale index from a torn map change
        const std::uint64_t raw =
            (static_cast<std::uint64_t>(data[at + 1]) << 32) |
            data[at + 2];
        const double value =
            dev.map[idx].enc == 1
                ? static_cast<double>(raw) / 1000.0
                : static_cast<double>(raw);
        store_.ingestPoint(now, dev.map[idx].name, value);
        ++dev.status.samplesIngested;
    }
}

bool
ObsHub::drainDevice(Device &dev, Tick now)
{
    ObsDeviceStatus &st = dev.status;
    bool resync_pending = false;
    for (unsigned round = 0; round < kMaxDrainPerPoll; ++round) {
        std::vector<std::uint32_t> req{st.subId};
        if (resync_pending)
            req.push_back(0x1);  // full resync: re-send everything
        const CallOutcome out = call(dev, kCmdObsDelta, req);
        if (!out.ok() || out.response.status != kCmdOk) {
            ++st.pollFailures;
            return false;
        }
        const std::vector<std::uint32_t> &d = out.response.data;
        if (d.size() < 4 ||
            d.size() < 4 + static_cast<std::size_t>(d[3]) * 3) {
            ++st.pollFailures;
            return false;
        }
        const std::uint32_t seq = d[1];
        const std::uint32_t flags = d[2];
        const std::uint32_t k = d[3];
        const bool gap = seq != st.lastSeq + 1;
        st.epoch = d[0];
        st.lastSeq = seq;
        if (resync_pending) {
            ++st.resyncs;
            resync_pending = false;
        }

        if (flags & 0x1) {
            // The card re-froze the map under a new epoch; its
            // shadow is cleared, so the next response is a full
            // re-send against the new indices.
            ++st.mapReloads;
            if (!loadMap(dev)) {
                ++st.pollFailures;
                return false;
            }
            continue;
        }

        ingestRecords(dev, now, d, k);
        ++st.deltasApplied;

        if (gap) {
            // A produced response never reached us. Its samples live
            // only in the card's shadow now — ask for a full re-send.
            // Deltas carry cumulative values, so re-ingesting what we
            // did see cannot double-count.
            ++st.gapsDetected;
            resync_pending = true;
            continue;
        }
        if (!(flags & 0x2))
            break;
    }
    st.consecutiveFailures = 0;
    return true;
}

std::uint64_t
ObsHub::snapshotCostWords(const Device &dev) const
{
    // What one round of the same coverage costs as snapshot polling:
    // walk the List pages, then one Snapshot per base metric (a
    // histogram's /p50 and /p99 ride its one 13-word snapshot).
    std::set<std::string> names;
    for (const ObsMapEntry &e : dev.map)
        names.insert(e.name);

    const auto isDerived = [&names](const std::string &n) {
        for (const char *suffix : {"/p50", "/p99"}) {
            const std::size_t len = std::string(suffix).size();
            if (n.size() > len &&
                n.compare(n.size() - len, len, suffix) == 0 &&
                names.count(n.substr(0, n.size() - len)) != 0)
                return true;
        }
        return false;
    };

    std::uint64_t words = 0;
    std::size_t bases = 0;
    for (const ObsMapEntry &e : dev.map) {
        if (isDerived(e.name))
            continue;
        ++bases;
        const bool histogram = names.count(e.name + "/p50") != 0;
        // Request carries one index word; the response carries kind
        // plus the value words.
        words += packetWords(1);
        words += packetWords(histogram ? kPollHistogramWords
                                       : kPollScalarWords);
    }

    // List pages: request one start word, response 2 + k records.
    for (std::size_t at = 0; at < bases; at += kPollListBatch) {
        const std::size_t k = std::min(kPollListBatch, bases - at);
        words += packetWords(1);
        words += packetWords(2 + k * kPollListRecordWords);
    }
    return words;
}

void
ObsHub::refreshRollups(Tick now)
{
    // Fleet liveness is itself a series, so "how many cards answer"
    // is SLO-able exactly like any gauge.
    double alive = 0.0;
    double subscribed = 0.0;
    for (const auto &kv : devices_) {
        if (!kv.second.status.subscribed)
            continue;
        subscribed += 1.0;
        if (kv.second.status.alive)
            alive += 1.0;
    }
    store_.ingestPoint(now, "fleet/devices/alive", alive);
    store_.ingestPoint(now, "fleet/devices/subscribed", subscribed);

    for (const std::string &core : rollups_) {
        double sum = 0.0;
        double mx = 0.0;
        std::size_t n = 0;
        for (const auto &kv : devices_) {
            const ObsDeviceStatus &st = kv.second.status;
            if (!st.subscribed || !st.alive)
                continue;
            const std::string name = st.prefix + core;
            if (!store_.has(name))
                continue;
            const double v = store_.latest(name);
            sum += v;
            mx = n == 0 ? v : std::max(mx, v);
            ++n;
        }
        if (n == 0)
            continue;
        store_.ingestPoint(now, "fleet/" + core + "/sum", sum);
        store_.ingestPoint(now, "fleet/" + core + "/max", mx);
    }
}

void
ObsHub::poll(Tick now)
{
    ++polls_;
    for (auto &kv : devices_) {
        Device &dev = kv.second;
        ObsDeviceStatus &st = dev.status;
        if (!st.subscribed)
            continue;
        if (dev.probe != nullptr) {
            if (!dev.probe()) {
                st.alive = false;
                continue;
            }
            if (st.consecutiveFailures < kDeadAfter)
                st.alive = true;  // probe revived it
        }
        if (!st.alive)
            continue;
        if (drainDevice(dev, now)) {
            snapshotWords_ += snapshotCostWords(dev);
        } else if (++st.consecutiveFailures >= kDeadAfter) {
            st.alive = false;
        }
    }
    refreshRollups(now);
    slo_.evaluate(now);
}

void
ObsHub::attachLiveness(const std::string &label,
                       std::function<bool()> probe)
{
    const auto it = devices_.find(label);
    if (it != devices_.end())
        it->second.probe = std::move(probe);
}

void
ObsHub::addRollup(const std::string &core)
{
    if (std::find(rollups_.begin(), rollups_.end(), core) ==
        rollups_.end())
        rollups_.push_back(core);
}

double
ObsHub::fleetQuantile(const std::string &core, double pct) const
{
    std::vector<double> values;
    for (const auto &kv : devices_) {
        const ObsDeviceStatus &st = kv.second.status;
        if (!st.subscribed || !st.alive)
            continue;
        const std::string name = st.prefix + core;
        if (store_.has(name))
            values.push_back(store_.latest(name));
    }
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const double rank =
        std::max(0.0, std::min(100.0, pct)) / 100.0 *
        static_cast<double>(values.size() - 1);
    return values[static_cast<std::size_t>(std::llround(rank))];
}

std::size_t
ObsHub::addFleetSlo(SloSpec spec)
{
    return slo_.addSpec(std::move(spec));
}

std::vector<std::string>
ObsHub::deviceLabels() const
{
    std::vector<std::string> out;
    for (const auto &kv : devices_)
        out.push_back(kv.first);
    return out;
}

std::size_t
ObsHub::aliveCount() const
{
    std::size_t n = 0;
    for (const auto &kv : devices_)
        if (kv.second.status.alive)
            ++n;
    return n;
}

const ObsDeviceStatus &
ObsHub::device(const std::string &label) const
{
    return devices_.at(label).status;
}

const std::vector<ObsMapEntry> &
ObsHub::deviceMap(const std::string &label) const
{
    return devices_.at(label).map;
}

std::uint64_t
ObsHub::gapsDetected() const
{
    std::uint64_t n = 0;
    for (const auto &kv : devices_)
        n += kv.second.status.gapsDetected;
    return n;
}

std::uint64_t
ObsHub::resyncs() const
{
    std::uint64_t n = 0;
    for (const auto &kv : devices_)
        n += kv.second.status.resyncs;
    return n;
}

std::string
ObsHub::summary() const
{
    std::string out;
    for (const auto &kv : devices_) {
        const ObsDeviceStatus &st = kv.second.status;
        char line[256];
        std::snprintf(
            line, sizeof line,
            "%-8s role=%-12s %-5s sub=%u epoch=%u seq=%u map=%zu "
            "deltas=%llu samples=%llu gaps=%llu resyncs=%llu\n",
            st.label.c_str(), st.role.c_str(),
            st.alive ? "alive" : "DEAD", st.subId, st.epoch,
            st.lastSeq, st.mapSize,
            static_cast<unsigned long long>(st.deltasApplied),
            static_cast<unsigned long long>(st.samplesIngested),
            static_cast<unsigned long long>(st.gapsDetected),
            static_cast<unsigned long long>(st.resyncs));
        out += line;
    }
    return out;
}

} // namespace harmonia
