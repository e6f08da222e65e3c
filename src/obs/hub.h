/**
 * @file
 * Fleet observability hub: the host-side federation point that owns
 * streaming telemetry subscriptions (kCmdObsSubscribe / kCmdObsDelta)
 * to N simulated cards and lands every pushed series in one
 * fleet-level TimeSeriesStore under its full registry name: map pages
 * carry names relative to the subscribed `unified_DeviceX/` prefix,
 * and the hub re-adds it as the device label. On top of that store the hub
 * computes fleet rollups (`fleet/<core>/sum`, `fleet/<core>/max`,
 * quantile-across-devices on demand) and evaluates fleet-scoped SLOs
 * with the existing burn-rate lifecycle, so "rack-wide error rate"
 * and "any-device p99" alert exactly like a single card's objectives.
 *
 * The subscription protocol (DESIGN.md §15) is delta-based: each poll
 * drains only series whose encoded value changed, against an index
 * map negotiated at subscribe time. The hub checks the per-response
 * sequence number; a gap (a produced-but-lost response) triggers an
 * explicit full resync, and deltas carry *cumulative* values, so a
 * resync can never lose or double-count a sample. An epoch flag from
 * the card signals that the flattened series set changed; the hub
 * re-reads the map pages and keeps going. The subscription stream is
 * the only way a host reads registry values (a one-shot read is
 * subscribe + poll). The hub also keeps an honest running total of
 * wire words moved versus what the retired full-snapshot polling pair
 * (a TelemetryList walk + one TelemetrySnapshot per metric, codes
 * 0x0030/0x0031) would have cost, so the streaming win is assertable
 * in tests rather than folklore.
 *
 * Liveness: a device whose polls fail repeatedly is marked dead and
 * skipped (its history stays queryable). Hosts running a real
 * watchdog can attach it as a probe via attachLiveness(); the hub
 * never reaches up into the ha layer itself.
 */

#ifndef HARMONIA_OBS_HUB_H_
#define HARMONIA_OBS_HUB_H_

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "host/cmd_driver.h"  // harmonia-lint: allow(LAYER-002) the hub polls cards via CmdDriver
#include "obs/slo.h"
#include "obs/timeseries.h"
#include "telemetry/telemetry_target.h"

namespace harmonia {

/** One federated card's live status, as the hub sees it. */
struct ObsDeviceStatus {
    std::string label;  ///< e.g. "DeviceA"
    std::string role;   ///< operator-facing role string
    std::string prefix; ///< series-name prefix = device label source
    bool subscribed = false;
    bool alive = true;
    std::uint32_t subId = 0;
    std::uint32_t epoch = 0;
    std::uint32_t lastSeq = 0;
    std::size_t mapSize = 0;
    std::uint64_t deltasApplied = 0;   ///< delta responses ingested
    std::uint64_t samplesIngested = 0; ///< delta records ingested
    std::uint64_t gapsDetected = 0;    ///< sequence jumps seen
    std::uint64_t resyncs = 0;         ///< full resyncs requested
    std::uint64_t mapReloads = 0;      ///< epoch bumps handled
    std::uint64_t pollFailures = 0;    ///< failed delta calls
    unsigned consecutiveFailures = 0;
};

class ObsHub {
  public:
    /** Consecutive poll failures before a device is declared dead. */
    static constexpr unsigned kDeadAfter = 3;

    /** Delta responses drained per device per poll (bounds a poll). */
    static constexpr unsigned kMaxDrainPerPoll = 16;

    explicit ObsHub(Engine &engine, TsConfig ts_config = {});

    /**
     * Register one card. The subscription prefix defaults to
     * `<shell name>/` — which is exactly the `unified_DeviceX/`
     * device label every exported series carries. Returns false on a
     * duplicate label.
     */
    bool addDevice(const std::string &label, const std::string &role,
                   Shell &shell);

    /**
     * Open the streaming subscription for @p label and read the full
     * index map. False when the label is unknown or the wire said no.
     */
    bool subscribe(const std::string &label);

    /** Subscribe every registered device; count that succeeded. */
    std::size_t subscribeAll();

    /**
     * One federation round at simulated time @p now: drain pending
     * deltas from every live subscribed device (handling gaps, map
     * changes, and resyncs), ingest the samples, refresh the fleet
     * rollup series, and evaluate the fleet SLOs.
     */
    void poll(Tick now);

    /**
     * External liveness verdict for @p label (e.g. a host watchdog's
     * !dead()). Checked before each poll; a false probe marks the
     * device dead without burning wire attempts. The hub's own
     * consecutive-failure tracking still applies on top.
     */
    void attachLiveness(const std::string &label,
                        std::function<bool()> probe);

    // --- Fleet rollups & SLOs ------------------------------------

    /**
     * Roll the per-device series `<prefix><core>` up into
     * `fleet/<core>/sum` and `fleet/<core>/max` on every poll
     * (latest value per live device).
     */
    void addRollup(const std::string &core);

    /**
     * Percentile of `<prefix><core>`'s latest value across devices
     * at @p now — "quantile across the fleet", computed on demand.
     */
    double fleetQuantile(const std::string &core, double pct) const;

    /** Register a fleet-scoped SLO over the hub's store. */
    std::size_t addFleetSlo(SloSpec spec);

    SloEngine &slo() { return slo_; }
    const SloEngine &slo() const { return slo_; }
    TimeSeriesStore &store() { return store_; }
    const TimeSeriesStore &store() const { return store_; }

    // --- Introspection -------------------------------------------

    std::size_t deviceCount() const { return devices_.size(); }

    /** Devices currently considered alive (probe + poll verdicts). */
    std::size_t aliveCount() const;

    /** Labels, name-sorted (deterministic iteration order). */
    std::vector<std::string> deviceLabels() const;

    /** Status of one device; fatal()-free, asserts on unknown. */
    const ObsDeviceStatus &device(const std::string &label) const;

    /** The device's frozen index map, full registry names (tests,
     *  cost accounting, one-shot reads). */
    const std::vector<ObsMapEntry> &
    deviceMap(const std::string &label) const;

    /** Poll rounds completed. */
    std::uint64_t polls() const { return polls_; }

    /** Wire words actually moved by the streaming protocol. */
    std::uint64_t streamedWireWords() const { return streamedWords_; }

    /**
     * Wire words the same coverage would have cost with the retired
     * snapshot polling pair: per poll round and live device, one
     * TelemetryList walk plus one TelemetrySnapshot per base metric.
     */
    std::uint64_t snapshotEquivalentWords() const
    {
        return snapshotWords_;
    }

    std::uint64_t gapsDetected() const;
    std::uint64_t resyncs() const;

    /** One-line-per-device state summary (examples, debugging). */
    std::string summary() const;

  private:
    struct Device {
        ObsDeviceStatus status;
        Shell *shell = nullptr;
        std::unique_ptr<CmdDriver> driver;
        std::vector<ObsMapEntry> map;
        std::function<bool()> probe;
    };

    /** callChecked + wire-word accounting; nullptr-safe decode. */
    CallOutcome call(Device &dev, std::uint16_t code,
                     const std::vector<std::uint32_t> &data);

    /** Re-read every map page for an (re)opened subscription. */
    bool loadMap(Device &dev);

    /** Drain deltas of one device; true when the device stayed ok. */
    bool drainDevice(Device &dev, Tick now);

    /** Apply one decoded delta response's records to the store. */
    void ingestRecords(Device &dev, Tick now,
                       const std::vector<std::uint32_t> &data,
                       std::uint32_t k);

    /** Snapshot-equivalent polling cost of one round of @p dev. */
    std::uint64_t snapshotCostWords(const Device &dev) const;

    void refreshRollups(Tick now);

    Engine &engine_;
    TimeSeriesStore store_;
    SloEngine slo_;
    std::map<std::string, Device> devices_;  ///< name-sorted
    std::vector<std::string> rollups_;
    std::uint64_t polls_ = 0;
    std::uint64_t streamedWords_ = 0;
    std::uint64_t snapshotWords_ = 0;
};

} // namespace harmonia

#endif // HARMONIA_OBS_HUB_H_
