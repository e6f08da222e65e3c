/**
 * @file
 * Command-plane access to the telemetry registry: a CommandTarget the
 * shell registers at (kRbbTelemetry, 0) so hosts, BMCs and standalone
 * tools read the whole metrics registry through the same packetized
 * command interface the paper uses for sensors (§3.3.3). Registry
 * values have one read path, the ObsSubscribe / ObsDelta stream; a
 * one-shot read is a subscribe, a map walk and a single delta. Names
 * are packed as kNameWords words of NUL-padded ASCII.
 *
 * Wire protocol (all values 32-bit words):
 *
 *   ProfileSnapshot  data[0] = start index (optional, default 0)
 *     -> [ total, k, then k records of
 *          { index, spans_hi, spans_lo, total_ticks_hi/lo,
 *            self_ticks_hi/lo, name[kNameWords] = "who|cat" } ]
 *        (folds the trace first; kCmdInternalError when no profiler
 *         is attached)
 *
 *   ProfileReset     -> drops aggregates, skips recorded spans
 *
 *   SloStatus  data[0] = spec index (omit for the count query)
 *     -> count query:  [ total ]
 *        full status:  [ total, index, kind, state,
 *                        objective_milli_hi/lo, window_hi/lo,
 *                        burn_milli_hi/lo, budget_milli_hi/lo,
 *                        pending_events, fire_events, resolve_events,
 *                        name[kNameWords] ]
 *        (kCmdInternalError when no SLO engine is attached)
 *
 *   AlertSnapshot  data[0] = start index (optional, default 0)
 *     -> [ total, k, then k records of
 *          { index, state, since_hi/lo, burn_milli_hi/lo,
 *            name[kNameWords] } ]
 *
 *   FlightDump  -> asks the flight recorder for a post-mortem dump;
 *     [ pending, dumps_hi, dumps_lo ] after the request (pending is 0
 *     when an auto-dump path wrote the bundle synchronously).
 *
 *   ObsSubscribe  (streaming-subscription control; DESIGN.md §15)
 *     open:      data = [ 0 ] or [ 0, prefix[kNameWords] ]
 *       -> [ subId, epoch, seriesCount, mapHash_hi, mapHash_lo ]
 *       The card freezes a name-sorted *index map* of the registry's
 *       scalar series (MetricsRegistry::scalarSeries) whose names
 *       start with the optional prefix filter. The map hash covers
 *       the full names and encodings.
 *     map page:  data = [ subId, start ]
 *       -> [ seriesCount, k, then k records of
 *            { mapIndex, enc, name[kNameWords] } ]
 *       Names are relative to the subscription's prefix (the
 *       subscriber re-adds it), so a prefixed series name keeps its
 *       full kNameWords of distinguishing characters.
 *       enc 0 = exact u64, enc 1 = milli-scaled u64 (x1000).
 *     close:     data = [ subId ]  -> []
 *
 *   ObsDelta  data = [ subId ] or [ subId, flags ]
 *     request flags bit0: full resync — forget the shadow so every
 *     series is re-sent as if never transmitted.
 *     -> [ epoch, seq, flags, k, then k records of
 *          { mapIndex, value_hi, value_lo } ]
 *     Response flags bit0: the flattened series set changed; the card
 *     re-froze the map under a new epoch and cleared its shadow —
 *     re-read the map pages, then poll again for the full re-send.
 *     Response flags bit1: more changed series than one batch holds;
 *     poll again immediately. seq increments on every produced delta
 *     response, so a subscriber that sees seq jump by more than one
 *     knows a response was lost and must request a full resync.
 *
 * Command codes 0x0030 and 0x0031 (the retired TelemetryList /
 * TelemetrySnapshot polling pair) answer kCmdUnknownCode.
 */

#ifndef HARMONIA_TELEMETRY_TELEMETRY_TARGET_H_
#define HARMONIA_TELEMETRY_TELEMETRY_TARGET_H_

#include <map>

#include "cmd/command.h"  // harmonia-lint: allow(LAYER-002) speaks the command wire format
#include "telemetry/metrics_registry.h"

namespace harmonia {

class Profiler;
class SloEngine;
class FlightRecorder;

/** One flattened scalar series a subscription streams. */
struct ObsMapEntry {
    std::string name;
    /** 0 = exact u64, 1 = milli-scaled u64 (x1000, clamped at 0). */
    std::uint32_t enc = 0;
};

class TelemetryTarget : public CommandTarget {
  public:
    /** Words of packed name per record (4 chars each). */
    static constexpr std::size_t kNameWords = 12;

    /** Profile records per response (wider records, smaller batch). */
    static constexpr std::size_t kProfileBatch = 4;

    /** Alert records per AlertSnapshot response. */
    static constexpr std::size_t kAlertBatch = 4;

    /** Index-map records per ObsSubscribe map-page response. */
    static constexpr std::size_t kMapBatch = 8;

    /** Delta records per ObsDelta response (3 words each; the whole
     *  response must fit PayloadLen's 8-bit word count). */
    static constexpr std::size_t kDeltaBatch = 60;

    /** Concurrent subscriptions one card serves. */
    static constexpr std::size_t kMaxSubscriptions = 8;

    explicit TelemetryTarget(MetricsRegistry &registry =
                                 MetricsRegistry::instance())
        : registry_(registry)
    {
    }

    CommandResult
    executeCommand(std::uint16_t code,
                   const std::vector<std::uint32_t> &data) override;

    /**
     * Wire the causal profiler in; ProfileSnapshot / ProfileReset
     * answer kCmdInternalError until one is attached. Not owned.
     */
    void attachProfiler(Profiler *profiler) { profiler_ = profiler; }

    /**
     * Wire the SLO engine in; SloStatus / AlertSnapshot answer
     * kCmdInternalError until one is attached. Not owned.
     */
    void attachSloEngine(SloEngine *slo) { slo_ = slo; }

    /**
     * Wire the flight recorder in; FlightDump answers
     * kCmdInternalError until one is attached. Not owned.
     */
    void attachRecorder(FlightRecorder *recorder)
    {
        recorder_ = recorder;
    }

    /** Decode a record's packed name (tests, host tooling). */
    static std::string unpackName(const std::uint32_t *words,
                                  std::size_t n = kNameWords);

    /** Append a name packed the way records carry it (host tooling
     *  builds ObsSubscribe prefixes with this). */
    static void packNameTo(std::vector<std::uint32_t> &out,
                           const std::string &name);

    /** Live subscriptions (tests). */
    std::size_t subscriptionCount() const { return subs_.size(); }

    /**
     * Produce and discard the next delta for `subId`, advancing the
     * shadow and sequence number exactly as if the response had been
     * generated and then lost on the wire. Test hook for exercising
     * the subscriber's gap-detection / full-resync path. Returns
     * false when the subscription does not exist.
     */
    bool dropOneDelta(std::uint32_t sub_id);

  private:
    struct Subscription {
        std::string prefix;  ///< name filter ("" = everything)
        std::vector<ObsMapEntry> map;  ///< frozen map, full names
        std::uint64_t map_hash = 0;  ///< FNV-1a over map names+enc
        /** Last value sent per map index; entries in `sent` are
         *  false until the series has been transmitted once. */
        std::vector<std::uint64_t> shadow;
        std::vector<bool> sent;
        std::uint32_t epoch = 0;  ///< bumps when the map re-freezes
        std::uint32_t seq = 0;  ///< increments per produced delta
    };

    CommandResult
    profileSnapshot(const std::vector<std::uint32_t> &data);
    CommandResult profileReset();
    CommandResult sloStatus(const std::vector<std::uint32_t> &data);
    CommandResult
    alertSnapshot(const std::vector<std::uint32_t> &data);
    CommandResult flightDump();
    CommandResult obsSubscribe(const std::vector<std::uint32_t> &data);
    CommandResult obsDelta(const std::vector<std::uint32_t> &data);

    /** Freeze (or re-freeze) sub's map from the live registry. */
    void freezeMap(Subscription &sub);

    /** Encode one delta response for `sub` into `out`. */
    void produceDelta(Subscription &sub,
                      std::vector<std::uint32_t> &out);

    MetricsRegistry &registry_;
    Profiler *profiler_ = nullptr;
    SloEngine *slo_ = nullptr;
    FlightRecorder *recorder_ = nullptr;
    std::map<std::uint32_t, Subscription> subs_;
    std::uint32_t next_sub_id_ = 1;
};

} // namespace harmonia

#endif // HARMONIA_TELEMETRY_TELEMETRY_TARGET_H_
