/**
 * @file
 * Degraded-mode orchestration: the piece of management software that
 * turns health alarms into load shedding instead of outages. When the
 * board trips its over-temperature alarm the manager down-shifts the
 * ingress planes (network RX shedding, host queue deactivation); once
 * the die has cooled past a hysteresis margin for several consecutive
 * checks it clears the latch and restores full service.
 *
 * Every transition is counted, so a fleet operator can tell a card
 * that ran degraded for an afternoon from one that flapped.
 */

#ifndef HARMONIA_FAULT_RECOVERY_H_
#define HARMONIA_FAULT_RECOVERY_H_

#include <vector>

#include "shell/unified_shell.h"  // harmonia-lint: allow(LAYER-002) recovery drives shell health state
#include "telemetry/metrics_registry.h"

namespace harmonia {

/** Degrade/restore thresholds and pacing. */
struct RecoveryConfig {
    /** Temperature must fall this far below the limit to restore. */
    std::uint32_t hysteresisMilliC = 5'000;
    /** Kernel-clock cycles between health checks. */
    std::uint64_t checkIntervalCycles = 64;
    /** Host queues kept active even in degraded mode. */
    std::uint16_t hostQueueFloor = 8;
    /** Consecutive cool checks required before restoring. */
    unsigned stableChecksToRestore = 4;
};

/**
 * Watches one shell's health monitor and drives its degraded modes.
 * Subscribes to the alarm irq for immediate notification and degrades
 * at the next check; restores with hysteresis so a card hovering at
 * the limit does not flap between modes.
 */
class RecoveryManager : public Component {
  public:
    RecoveryManager(Engine &engine, Shell &shell,
                    RecoveryConfig config = {});

    bool degraded() const { return degraded_; }
    const RecoveryConfig &config() const { return config_; }

    void tick() override;

    /** Quiescent (healthy, not degraded), or between check cycles. */
    bool idle() const override;

    /** The next check cycle, when a transition may be pending. */
    Tick wakeTime() const override;

    /** Transition counters: degrade/restore events, queues shed. */
    StatGroup &stats() { return stats_; }

    void registerTelemetry(MetricsRegistry &reg,
                           const std::string &prefix);

  private:
    void enterDegraded();
    void restore();

    Shell &shell_;
    RecoveryConfig config_;
    bool degraded_ = false;
    bool alarmPending_ = false;
    unsigned stableChecks_ = 0;
    std::vector<std::uint16_t> shedQueues_;
    StatGroup stats_;
    CounterHandle alarmEdges_{stats_, "alarm_edges"};
    CounterHandle degradeEvents_{stats_, "degrade_events"};
    CounterHandle queuesShed_{stats_, "queues_shed"};
    CounterHandle restoreEvents_{stats_, "restore_events"};
    CounterHandle queuesRestored_{stats_, "queues_restored"};
    ScopedMetrics telemetry_;
};

} // namespace harmonia

#endif // HARMONIA_FAULT_RECOVERY_H_
