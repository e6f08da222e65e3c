#include "telemetry/telemetry_target.h"

#include <cmath>

#include "common/fnv.h"
#include "obs/flight_recorder.h"  // harmonia-lint: allow(LAYER-002) snapshots ride the command plane
#include "obs/slo.h"  // harmonia-lint: allow(LAYER-002) snapshots ride the command plane
#include "telemetry/profiler.h"

namespace harmonia {

namespace {

void
pushU64(std::vector<std::uint32_t> &out, std::uint64_t v)
{
    out.push_back(static_cast<std::uint32_t>(v >> 32));
    out.push_back(static_cast<std::uint32_t>(v));
}

std::uint64_t
milli(double v)
{
    if (!(v > 0.0))
        return 0;
    return static_cast<std::uint64_t>(std::llround(v * 1000.0));
}

/** The wire encoding of a series: 0 = exact u64, 1 = milli. */
std::uint32_t
encodingOf(const ScalarSeries &s)
{
    return s.exact ? 0 : 1;
}

/** A series' value in its wire encoding. */
std::uint64_t
encode(const ScalarSeries &s)
{
    return s.exact ? static_cast<std::uint64_t>(s.value) : milli(s.value);
}

/** FNV-1a over the full names and encodings: the map identity. */
std::uint64_t
mapHash(const std::vector<ScalarSeries> &series)
{
    Fnv1a64 h;
    for (const ScalarSeries &s : series)
        h.str(s.name).byte(static_cast<std::uint8_t>(encodingOf(s)));
    return h.value();
}

void
packName(std::vector<std::uint32_t> &out, const std::string &name)
{
    for (std::size_t w = 0; w < TelemetryTarget::kNameWords; ++w) {
        std::uint32_t word = 0;
        for (std::size_t b = 0; b < 4; ++b) {
            const std::size_t i = w * 4 + b;
            const std::uint32_t c =
                i < name.size()
                    ? static_cast<unsigned char>(name[i])
                    : 0;
            word |= c << (24 - 8 * b);
        }
        out.push_back(word);
    }
}

} // namespace

void
TelemetryTarget::packNameTo(std::vector<std::uint32_t> &out,
                            const std::string &name)
{
    packName(out, name);
}

std::string
TelemetryTarget::unpackName(const std::uint32_t *words, std::size_t n)
{
    std::string out;
    for (std::size_t w = 0; w < n; ++w)
        for (std::size_t b = 0; b < 4; ++b) {
            const char c = static_cast<char>(
                (words[w] >> (24 - 8 * b)) & 0xff);
            if (c == '\0')
                return out;
            out += c;
        }
    return out;
}

CommandResult
TelemetryTarget::profileSnapshot(const std::vector<std::uint32_t> &data)
{
    if (profiler_ == nullptr)
        return {kCmdInternalError, {}};
    profiler_->fold();
    const std::vector<ProfileEntry> snap = profiler_->snapshot();
    const std::size_t start = data.empty() ? 0 : data[0];

    CommandResult res;
    res.data.push_back(static_cast<std::uint32_t>(snap.size()));
    res.data.push_back(0);  // record count, patched below
    std::uint32_t k = 0;
    for (std::size_t i = start;
         i < snap.size() && k < kProfileBatch; ++i, ++k) {
        const ProfileEntry &e = snap[i];
        res.data.push_back(static_cast<std::uint32_t>(i));
        pushU64(res.data, e.spans);
        pushU64(res.data, e.totalTicks);
        pushU64(res.data, e.selfTicks);
        packName(res.data, e.who + "|" + e.cat);
    }
    res.data[1] = k;
    return res;
}

CommandResult
TelemetryTarget::profileReset()
{
    if (profiler_ == nullptr)
        return {kCmdInternalError, {}};
    profiler_->reset();
    return {};
}

CommandResult
TelemetryTarget::sloStatus(const std::vector<std::uint32_t> &data)
{
    if (slo_ == nullptr)
        return {kCmdInternalError, {}};
    const std::uint32_t total =
        static_cast<std::uint32_t>(slo_->specCount());

    CommandResult res;
    res.data.push_back(total);
    if (data.empty())
        return res;  // count query
    if (data[0] >= total)
        return {kCmdBadArgument, {}};

    const SloSpec &spec = slo_->spec(data[0]);
    const AlertStatus &st = slo_->status(data[0]);
    res.data.push_back(data[0]);
    res.data.push_back(static_cast<std::uint32_t>(spec.kind));
    res.data.push_back(static_cast<std::uint32_t>(st.state));
    pushU64(res.data, milli(spec.objective));
    pushU64(res.data, static_cast<std::uint64_t>(spec.window));
    pushU64(res.data, milli(st.burnRate));
    pushU64(res.data, milli(st.budgetConsumed));
    res.data.push_back(static_cast<std::uint32_t>(st.pendingEvents));
    res.data.push_back(static_cast<std::uint32_t>(st.fireEvents));
    res.data.push_back(static_cast<std::uint32_t>(st.resolveEvents));
    packName(res.data, spec.name);
    return res;
}

CommandResult
TelemetryTarget::alertSnapshot(const std::vector<std::uint32_t> &data)
{
    if (slo_ == nullptr)
        return {kCmdInternalError, {}};
    const std::uint32_t total =
        static_cast<std::uint32_t>(slo_->specCount());
    const std::size_t start = data.empty() ? 0 : data[0];

    CommandResult res;
    res.data.push_back(total);
    res.data.push_back(0);  // record count, patched below
    std::uint32_t k = 0;
    for (std::size_t i = start; i < total && k < kAlertBatch;
         ++i, ++k) {
        const AlertStatus &st = slo_->status(i);
        res.data.push_back(static_cast<std::uint32_t>(i));
        res.data.push_back(static_cast<std::uint32_t>(st.state));
        pushU64(res.data, static_cast<std::uint64_t>(st.since));
        pushU64(res.data, milli(st.burnRate));
        packName(res.data, st.name);
    }
    res.data[1] = k;
    return res;
}

CommandResult
TelemetryTarget::flightDump()
{
    if (recorder_ == nullptr)
        return {kCmdInternalError, {}};
    const Tick now = slo_ != nullptr ? slo_->now() : 0;
    recorder_->requestDump("command-plane request", now);

    CommandResult res;
    res.data.push_back(recorder_->dumpPending() ? 1 : 0);
    pushU64(res.data, recorder_->dumps());
    return res;
}

void
TelemetryTarget::freezeMap(Subscription &sub)
{
    const std::vector<ScalarSeries> series =
        registry_.scalarSeries(sub.prefix);
    sub.map.clear();
    for (const ScalarSeries &s : series)
        sub.map.push_back({s.name, encodingOf(s)});
    sub.map_hash = mapHash(series);
    sub.shadow.assign(sub.map.size(), 0);
    sub.sent.assign(sub.map.size(), false);
    ++sub.epoch;
}

void
TelemetryTarget::produceDelta(Subscription &sub,
                              std::vector<std::uint32_t> &out)
{
    const std::vector<ScalarSeries> series =
        registry_.scalarSeries(sub.prefix);

    ++sub.seq;
    out.clear();
    if (mapHash(series) != sub.map_hash) {
        // The flattened series set changed under the subscriber:
        // re-freeze, clear the shadow, and let the response carry
        // only the new epoch; the subscriber re-reads the map pages
        // and the next poll re-sends everything.
        freezeMap(sub);
        out.push_back(sub.epoch);
        out.push_back(sub.seq);
        out.push_back(0x1);  // flags: map changed
        out.push_back(0);  // k
        return;
    }

    out.push_back(sub.epoch);
    out.push_back(sub.seq);
    out.push_back(0);  // flags, patched below
    out.push_back(0);  // k, patched below
    std::uint32_t k = 0;
    std::uint32_t flags = 0;
    for (std::size_t i = 0; i < series.size(); ++i) {
        const std::uint64_t v = encode(series[i]);
        if (sub.sent[i] && sub.shadow[i] == v)
            continue;
        if (k == kDeltaBatch) {
            flags |= 0x2;  // more changed series than one batch
            break;
        }
        out.push_back(static_cast<std::uint32_t>(i));
        pushU64(out, v);
        sub.shadow[i] = v;
        sub.sent[i] = true;
        ++k;
    }
    out[2] = flags;
    out[3] = k;
}

CommandResult
TelemetryTarget::obsSubscribe(const std::vector<std::uint32_t> &data)
{
    if (data.empty())
        return {kCmdBadArgument, {}};

    if (data[0] == 0) {
        // Open a subscription, optionally prefix-filtered.
        std::string prefix;
        if (data.size() > 1) {
            if (data.size() < 1 + kNameWords)
                return {kCmdBadArgument, {}};
            prefix = unpackName(data.data() + 1, kNameWords);
        }
        if (subs_.size() >= kMaxSubscriptions)
            return {kCmdInternalError, {}};

        const std::uint32_t id = next_sub_id_++;
        Subscription &sub = subs_[id];
        sub.prefix = prefix;
        freezeMap(sub);

        CommandResult res;
        res.data.push_back(id);
        res.data.push_back(sub.epoch);
        res.data.push_back(static_cast<std::uint32_t>(sub.map.size()));
        pushU64(res.data, sub.map_hash);
        return res;
    }

    const auto it = subs_.find(data[0]);
    if (it == subs_.end())
        return {kCmdBadArgument, {}};
    Subscription &sub = it->second;

    if (data.size() == 1) {
        // Close.
        subs_.erase(it);
        return {};
    }

    // Map page. Names travel relative to the prefix the subscriber
    // sent, so prefixed names keep every packed character distinct.
    const std::size_t start = data[1];
    CommandResult res;
    res.data.push_back(static_cast<std::uint32_t>(sub.map.size()));
    res.data.push_back(0);  // record count, patched below
    std::uint32_t k = 0;
    for (std::size_t i = start;
         i < sub.map.size() && k < kMapBatch; ++i, ++k) {
        res.data.push_back(static_cast<std::uint32_t>(i));
        res.data.push_back(sub.map[i].enc);
        packName(res.data, sub.map[i].name.substr(sub.prefix.size()));
    }
    res.data[1] = k;
    return res;
}

CommandResult
TelemetryTarget::obsDelta(const std::vector<std::uint32_t> &data)
{
    if (data.empty())
        return {kCmdBadArgument, {}};
    const auto it = subs_.find(data[0]);
    if (it == subs_.end())
        return {kCmdBadArgument, {}};
    Subscription &sub = it->second;

    const std::uint32_t flags = data.size() > 1 ? data[1] : 0;
    if (flags & 0x1) {
        // Full resync: forget the shadow so every series is re-sent
        // as if never transmitted.
        sub.sent.assign(sub.map.size(), false);
    }

    CommandResult res;
    produceDelta(sub, res.data);
    return res;
}

bool
TelemetryTarget::dropOneDelta(std::uint32_t sub_id)
{
    const auto it = subs_.find(sub_id);
    if (it == subs_.end())
        return false;
    std::vector<std::uint32_t> discarded;
    produceDelta(it->second, discarded);
    return true;
}

CommandResult
TelemetryTarget::executeCommand(std::uint16_t code,
                                const std::vector<std::uint32_t> &data)
{
    switch (code) {
      case kCmdProfileSnapshot:
        return profileSnapshot(data);
      case kCmdProfileReset:
        return profileReset();
      case kCmdSloStatus:
        return sloStatus(data);
      case kCmdAlertSnapshot:
        return alertSnapshot(data);
      case kCmdFlightDump:
        return flightDump();
      case kCmdObsSubscribe:
        return obsSubscribe(data);
      case kCmdObsDelta:
        return obsDelta(data);
      case kCmdModuleStatusRead:
        // Alive probe: number of registered entries.
        return {kCmdOk,
                {static_cast<std::uint32_t>(registry_.size())}};
      default:
        return {kCmdUnknownCode, {}};
    }
}

} // namespace harmonia
