/**
 * @file
 * Declarative SLOs and the alert lifecycle over the time-series
 * store — the "decide" half the autoscaler and fleet manager will
 * consume. An SloSpec names an objective (command availability,
 * latency percentile bound, occupancy ceiling); the engine evaluates
 * each spec's burn rate over the store's windows on a fixed simulated
 * -time cadence and drives a per-spec alert state machine:
 *
 *   inactive → pending (condition seen) → firing (held pendingFor)
 *            → resolved (cleared resolveFor, with hysteresis)
 *            → inactive
 *
 * Mirroring RecoveryManager's style, clearing needs the burn rate
 * comfortably below the trip threshold (clearRatio) for a sustained
 * interval, so a metric hovering at the objective cannot flap the
 * alert. Every transition is counted, recorded as a trace event, and
 * noted in the flight recorder; a firing interval completes as one
 * trace span when it resolves, so alerts render on the same Chrome-
 * trace timeline as the workload that caused them. Alert state is
 * queryable in-process, via MetricsRegistry gauges, and over the
 * command plane (kCmdSloStatus / kCmdAlertSnapshot).
 */

#ifndef HARMONIA_OBS_SLO_H_
#define HARMONIA_OBS_SLO_H_

#include <string>
#include <vector>

#include "obs/timeseries.h"
#include "sim/component.h"
#include "telemetry/metrics_registry.h"

namespace harmonia {

/** What an SloSpec measures. */
enum class SloKind : std::uint32_t {
    /** bad/total counter pair vs an availability objective. */
    ErrorRate = 0,
    /** Sliding percentile of a series vs a bound (ticks, bytes...). */
    LatencyP99 = 1,
    /** Windowed mean of a gauge must stay <= objective. */
    OccupancyAbove = 2,
    /** Windowed mean of a gauge must stay >= objective. */
    GaugeBelow = 3,
};

const char *toString(SloKind kind);

/** One declarative objective. */
struct SloSpec {
    std::string name;  ///< e.g. "cmd-availability"
    SloKind kind = SloKind::ErrorRate;

    /** ErrorRate: numerator/denominator counter series. */
    std::string badMetric;
    std::string totalMetric;
    /** Other kinds: the one series evaluated. */
    std::string metric;

    /**
     * ErrorRate: availability target in [0, 1) — 0.999 allows one bad
     * call per thousand. Other kinds: the bound the aggregate is
     * compared against (ticks for LatencyP99, the gauge's unit
     * otherwise).
     */
    double objective = 0.999;

    /** Evaluation window the burn rate is computed over. */
    Tick window = 50'000'000;

    /** Burn rate at or above this trips the condition. */
    double burnThreshold = 1.0;
    /** Clearing needs burn <= clearRatio * burnThreshold. */
    double clearRatio = 0.8;

    /** Condition must hold this long before pending → firing. */
    Tick pendingFor = 10'000'000;
    /** ...and stay cleared this long before firing → resolved. */
    Tick resolveFor = 20'000'000;
};

/** Alert lifecycle states. */
enum class AlertState : std::uint32_t {
    Inactive = 0,
    Pending = 1,
    Firing = 2,
    Resolved = 3,
};

const char *toString(AlertState state);

/** One spec's live alert status. */
struct AlertStatus {
    std::string name;
    AlertState state = AlertState::Inactive;
    Tick since = 0;          ///< when the current state was entered
    double burnRate = 0.0;   ///< most recent evaluation
    double budgetConsumed = 0.0;  ///< lifetime error-budget fraction
    std::uint64_t pendingEvents = 0;
    std::uint64_t fireEvents = 0;
    std::uint64_t resolveEvents = 0;
};

class FlightRecorder;

/**
 * Evaluates every registered SloSpec against one store on a fixed
 * simulated-time period. A Component like the Sampler: register it on
 * any clock; it is idle between due times so the engine's fast-forward
 * can skip it.
 */
class SloEngine : public Component {
  public:
    SloEngine(std::string name, TimeSeriesStore &store,
              Tick evalPeriod = 5'000'000);

    /** Register a spec; returns its stable index. */
    std::size_t addSpec(SloSpec spec);

    std::size_t specCount() const { return alerts_.size(); }
    const SloSpec &spec(std::size_t i) const;

    /** Live status of spec @p i (index from addSpec order). */
    const AlertStatus &status(std::size_t i) const;

    /** All statuses, addSpec order. */
    std::vector<AlertStatus> statuses() const;

    /** Any spec currently pending or firing. */
    bool anyActive() const;

    void tick() override;
    bool idle() const override { return now() < nextDue_; }
    Tick wakeTime() const override { return nextDue_; }

    /**
     * Evaluate every spec at @p now. tick() calls this on the eval
     * cadence; tests and host tooling may call it directly.
     */
    void evaluate(Tick now);

    /** Transitions noted here as alert events (and dump triggers). */
    void attachRecorder(FlightRecorder *recorder)
    {
        recorder_ = recorder;
    }

    /** Lifecycle counters: evaluations, transitions by edge. */
    StatGroup &stats() { return stats_; }

    /** Per-spec state/burn/budget gauges under @p prefix. */
    void registerTelemetry(MetricsRegistry &reg,
                           const std::string &prefix);

    /** Compute one spec's burn rate against @p store at @p now. */
    static double burnRate(const SloSpec &spec,
                           const TimeSeriesStore &store, Tick now);

  private:
    struct Alert {
        SloSpec spec;
        AlertStatus status;
        Tick clearSince = 0;   ///< burn first seen below clear level
        Tick firedAt = 0;      ///< firing-interval begin (span)
        std::uint64_t evals = 0;
        std::uint64_t breaches = 0;
    };

    void transition(Alert &a, AlertState to, Tick now);

    TimeSeriesStore &store_;
    Tick evalPeriod_;
    Tick nextDue_ = 0;
    std::vector<Alert> alerts_;
    FlightRecorder *recorder_ = nullptr;
    StatGroup stats_;
    CounterHandle evaluations_{stats_, "evaluations"};
    CounterHandle breaches_{stats_, "breaches"};
    CounterHandle toInactive_{stats_, "to_inactive"};
    CounterHandle toPending_{stats_, "to_pending"};
    CounterHandle toFiring_{stats_, "to_firing"};
    CounterHandle toResolved_{stats_, "to_resolved"};
    ScopedMetrics telemetry_;
};

} // namespace harmonia

#endif // HARMONIA_OBS_SLO_H_
