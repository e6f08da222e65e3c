#include "fault/recovery.h"

#include "obs/flight_recorder.h"  // harmonia-lint: allow(LAYER-002) recovery edges feed the black box
#include "sim/trace.h"

namespace harmonia {

RecoveryManager::RecoveryManager(Engine &engine, Shell &shell,
                                 RecoveryConfig config)
    : Component(shell.name() + "_recovery"), shell_(shell),
      config_(config), stats_(this->name())
{
    engine.add(this, shell.kernelClock());
    // The alarm irq is the latency-critical signal: note it the
    // instant it fires so the next check degrades even if the sensor
    // has already drifted back under the limit.
    shell_.health().alarmLine().subscribe([this] {
        alarmPending_ = true;
        alarmEdges_.inc();
    });
}

bool
RecoveryManager::idle() const
{
    if (config_.checkIntervalCycles == 0)
        return false;  // checks every cycle
    // Healthy and at rest: a check would observe nothing and change
    // nothing, at this cycle or any later one — only an alarm edge
    // wakes us, and the monitor always ticks the conversion that
    // latches one (its wakeTime()), so the edge is never skipped.
    if (!degraded_ && !alarmPending_ &&
        (shell_.health().alarms() & kAlarmOverTemp) == 0)
        return true;
    return cycle() % config_.checkIntervalCycles != 0;
}

Tick
RecoveryManager::wakeTime() const
{
    if (config_.checkIntervalCycles == 0)
        return kTickMax;
    if (!degraded_ && !alarmPending_ &&
        (shell_.health().alarms() & kAlarmOverTemp) == 0)
        return kTickMax;
    const Cycles next = (cycle() / config_.checkIntervalCycles + 1) *
                        config_.checkIntervalCycles;
    return clock()->cyclesToTicks(next);
}

void
RecoveryManager::tick()
{
    if (config_.checkIntervalCycles != 0 &&
        cycle() % config_.checkIntervalCycles != 0)
        return;

    HealthMonitor &health = shell_.health();
    if (!degraded_) {
        if (alarmPending_ || (health.alarms() & kAlarmOverTemp) != 0)
            enterDegraded();
        return;
    }

    // Restoring needs the die comfortably below the limit — the
    // hysteresis margin — for several consecutive checks, so a card
    // hovering at the threshold does not flap.
    const bool cool = health.temperatureMilliC() +
                          config_.hysteresisMilliC <=
                      health.tempLimitMilliC();
    if (!cool) {
        stableChecks_ = 0;
        return;
    }
    if (++stableChecks_ >= config_.stableChecksToRestore)
        restore();
}

void
RecoveryManager::enterDegraded()
{
    degraded_ = true;
    alarmPending_ = false;
    stableChecks_ = 0;
    degradeEvents_.inc();
    trace(*this, "over-temp: entering degraded mode");
    if (FlightRecorder *fdr = FlightRecorder::active())
        fdr->noteRecovery(name(), "enter-degraded", now());

    for (std::size_t i = 0; i < shell_.networkCount(); ++i)
        shell_.network(i).setRxShed(true);

    if (shell_.hasHost()) {
        HostRbb &host = shell_.host();
        shedQueues_.clear();
        for (std::uint16_t q = config_.hostQueueFloor;
             q < host.numQueues(); ++q) {
            if (!host.queueActive(q))
                continue;
            host.setQueueActive(q, false);
            shedQueues_.push_back(q);
            queuesShed_.inc();
        }
    }
}

void
RecoveryManager::restore()
{
    degraded_ = false;
    alarmPending_ = false;
    stableChecks_ = 0;
    restoreEvents_.inc();
    trace(*this, "cooled past hysteresis: restoring full service");
    if (FlightRecorder *fdr = FlightRecorder::active())
        fdr->noteRecovery(name(), "restore", now());

    // Clear the latched alarm (and drop the irq line) the same way
    // management software does: a ModuleReset at the health target.
    shell_.health().executeCommand(kCmdModuleReset, {});

    for (std::size_t i = 0; i < shell_.networkCount(); ++i)
        shell_.network(i).setRxShed(false);

    if (shell_.hasHost()) {
        HostRbb &host = shell_.host();
        for (std::uint16_t q : shedQueues_) {
            host.setQueueActive(q, true);
            queuesRestored_.inc();
        }
        shedQueues_.clear();
    }
}

void
RecoveryManager::registerTelemetry(MetricsRegistry &reg,
                                   const std::string &prefix)
{
    telemetry_.reset(reg);
    telemetry_.addGroup(prefix, &stats_);
    telemetry_.addGauge(prefix + "/degraded",
                        [this] { return degraded_ ? 1.0 : 0.0; });
}

} // namespace harmonia
