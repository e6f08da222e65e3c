/**
 * @file
 * Board health monitoring — one of the production-shell
 * functionalities §2.1 enumerates. Models the sensors a cloud card
 * exposes (die temperature, rail voltages, per-RBB heartbeats),
 * alarm thresholds that raise an irq (the latency-critical signal
 * class of §3.2), and the SensorRead command the BMC and standalone
 * tools poll with.
 */

#ifndef HARMONIA_SHELL_HEALTH_H_
#define HARMONIA_SHELL_HEALTH_H_

#include <vector>

#include "cmd/command.h"
#include "common/stats.h"
#include "device/resource.h"
#include "sim/component.h"
#include "telemetry/metrics_registry.h"
#include "wrapper/reg_wrapper.h"

namespace harmonia {

/** Sensor indices in the SensorRead command's data[0]. */
enum HealthSensor : std::uint32_t {
    kSensorTempMilliC = 0,    ///< die temperature, milli-degC
    kSensorVccIntMilliV = 1,  ///< core rail, mV
    kSensorVccAuxMilliV = 2,  ///< aux rail, mV
    kSensorPowerMilliW = 3,   ///< estimated power draw, mW
    kSensorAlarms = 4,        ///< latched alarm bit mask
    kSensorCount = 5,
};

/** Alarm bits in kSensorAlarms. */
enum HealthAlarm : std::uint32_t {
    kAlarmOverTemp = 0x1,
    kAlarmVccIntLow = 0x2,
    kAlarmVccAuxLow = 0x4,
};

/**
 * The health monitor. Temperature and power follow a first-order
 * model of the design's utilization plus a deterministic activity
 * ripple; voltage rails droop slightly under power. Crossing a
 * threshold latches an alarm and raises the `health_alarm` irq line
 * immediately — management software clears it via ModuleReset.
 *
 * The ADCs convert every 16th kernel cycle, but under idle
 * fast-forward the monitor only ticks on a conversion that latches a
 * new alarm bit. Every other conversion is a pure function of its
 * cycle and the model parameters, so a reader (the accessors,
 * executeCommand, the gauges) computes the latest conversion it may
 * see without storing it: a read never changes the monitor, whichever
 * card's tick it comes from. The tick, the setters (before they
 * change a parameter) and ModuleReset store it. A reader that ticks
 * before the monitor in the serial order at a conversion edge sees
 * the previous conversion, exactly as tick by tick
 * (Component::edgePending).
 */
class HealthMonitor : public Component, public CommandTarget {
  public:
    /** Default over-temperature threshold (production cards: ~95C). */
    static constexpr std::uint32_t kDefaultTempLimitMilliC = 95'000;

    HealthMonitor(std::string name, IrqHub &irqs);

    /**
     * Tell the monitor how loaded the fabric is; utilization drives
     * the steady-state temperature and power. Typically called once
     * after the shell is composed.
     */
    void setUtilization(double fraction);

    /** Inject thermal stress (testing / failure injection). */
    void setAmbientMilliC(std::uint32_t milli_c);

    void setTempLimitMilliC(std::uint32_t limit);
    std::uint32_t tempLimitMilliC() const { return tempLimitMilliC_; }

    std::uint32_t temperatureMilliC() const;
    std::uint32_t vccIntMilliV() const;
    std::uint32_t vccAuxMilliV() const;
    std::uint32_t powerMilliW() const;

    /** Latched alarm bits. Only a latching conversion (always ticked)
     *  or ModuleReset changes them, so reading needs no conversion. */
    std::uint32_t alarms() const { return alarms_; }

    /** The raw alarm line (subscribe for immediate notification). */
    IrqLine &alarmLine() { return *alarm_; }

    /** Converts on every 16th cycle, so a tick-by-tick run makes
     *  every conversion itself. */
    void tick() override;

    /**
     * Idle unless this edge is the conversion that latches a new alarm
     * bit: the alarm irq must fire on its edge, while every other
     * conversion is recomputed when read.
     */
    bool idle() const override
    {
        visited_ = cycle();
        return visited_ != nextLatch();
    }

    /** The next latching conversion's edge; kTickMax when no alarm bit
     *  can latch under the current parameters. */
    Tick wakeTime() const override;

    /** SensorRead / StatsSnapshot / ModuleReset handling. */
    CommandResult
    executeCommand(std::uint16_t code,
                   const std::vector<std::uint32_t> &data) override;

    /** Sensor + alarm soft logic (SYSMON wrapper scale). */
    const ResourceVector &resources() const { return resources_; }

    /** Publish sensor gauges under @p prefix. */
    void registerTelemetry(MetricsRegistry &reg,
                           const std::string &prefix);

  private:
    /** Kernel cycles per ADC conversion. */
    static constexpr Cycles kConvertCycles = 16;
    /** nextLatch() when no alarm bit can latch. */
    static constexpr Cycles kNever = ~Cycles{0};

    /** One conversion's sensor values. */
    struct Sensors {
        std::uint32_t tempMilliC;
        std::uint32_t vccIntMilliV;
        std::uint32_t vccAuxMilliV;
        std::uint32_t powerMilliW;
    };

    /** Convert now (tick path): model, fault hook, alarm latch. */
    void refreshSensors();

    /** The model's sensor values at conversion cycle @p c, no fault
     *  hook (every conversion the monitor does not tick has none). */
    Sensors modelAt(Cycles c) const;

    /** Temperature the model gives at ripple step @p step (0-15). */
    std::uint32_t modelTempMilliC(std::uint32_t step) const;

    /** Power draw, the rails it droops and their alarm bits: a
     *  function of utilization alone. */
    struct Rails {
        std::uint32_t powerMilliW;
        std::uint32_t vccIntMilliV;
        std::uint32_t vccAuxMilliV;
        std::uint32_t alarms;
    };
    Rails modelRails() const;

    /** The latest conversion a reader may see now: converted_ or a
     *  later one the monitor did not tick. */
    Cycles visibleConversion() const;

    /** That conversion's values. Stores nothing. */
    Sensors read() const;

    /** Store read()'s conversion, before a parameter or the alarm
     *  latch changes: the values and nextLatch() count from it. */
    void catchUp();

    /** Cycle of the first conversion after converted_ that latches a
     *  new alarm bit, or kNever; cached until a setter, a latch or a
     *  ModuleReset changes it. */
    Cycles nextLatch() const;

    IrqLine *alarm_;
    double utilization_ = 0.1;
    std::uint32_t ambientMilliC_ = 35'000;
    std::uint32_t tempLimitMilliC_ = kDefaultTempLimitMilliC;
    /// The latest stored conversion's values and cycle.
    Sensors sensors_{35'000, 850, 1800, 0};
    Cycles converted_ = 0;
    /// Cycle of the last idle() question (edgePending).
    mutable Cycles visited_ = kNever;
    std::uint32_t alarms_ = 0;
    mutable Cycles latchCycle_ = 0;
    mutable bool latchKnown_ = false;
    ResourceVector resources_;
    ScopedMetrics telemetry_;
};

} // namespace harmonia

#endif // HARMONIA_SHELL_HEALTH_H_
