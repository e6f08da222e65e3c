#include "shell/health.h"

#include "cmd/command_codes.h"
#include "common/logging.h"
#include "fault/fault_plan.h"
#include "sim/clock.h"

namespace harmonia {

HealthMonitor::HealthMonitor(std::string name, IrqHub &irqs)
    : Component(std::move(name)),
      alarm_(&irqs.line("health_alarm"))
{
    resources_ = ResourceVector{900, 1200, 1, 0, 0};
    refreshSensors();
}

void
HealthMonitor::setUtilization(double fraction)
{
    if (fraction < 0.0 || fraction > 1.0)
        fatal("utilization %f outside [0,1]", fraction);
    noteMutation();
    catchUp();
    utilization_ = fraction;
    latchKnown_ = false;
}

void
HealthMonitor::setAmbientMilliC(std::uint32_t milli_c)
{
    noteMutation();
    catchUp();
    ambientMilliC_ = milli_c;
    latchKnown_ = false;
}

void
HealthMonitor::setTempLimitMilliC(std::uint32_t limit)
{
    noteMutation();
    catchUp();
    tempLimitMilliC_ = limit;
    latchKnown_ = false;
}

std::uint32_t
HealthMonitor::temperatureMilliC() const
{
    return read().tempMilliC;
}

std::uint32_t
HealthMonitor::vccIntMilliV() const
{
    return read().vccIntMilliV;
}

std::uint32_t
HealthMonitor::vccAuxMilliV() const
{
    return read().vccAuxMilliV;
}

std::uint32_t
HealthMonitor::powerMilliW() const
{
    return read().powerMilliW;
}

void
HealthMonitor::registerTelemetry(MetricsRegistry &reg,
                                 const std::string &prefix)
{
    telemetry_.reset(reg);
    telemetry_.addGauge(prefix + "/temp_milli_c", [this] {
        return static_cast<double>(temperatureMilliC());
    });
    telemetry_.addGauge(prefix + "/power_milli_w", [this] {
        return static_cast<double>(powerMilliW());
    });
    telemetry_.addGauge(prefix + "/alarms", [this] {
        return static_cast<double>(alarms());
    });
}

std::uint32_t
HealthMonitor::modelTempMilliC(std::uint32_t step) const
{
    // First-order thermal model: ambient + utilization-driven rise
    // plus a small deterministic ripple from switching activity.
    const std::uint32_t rise =
        static_cast<std::uint32_t>(45'000 * utilization_);
    return ambientMilliC_ + rise + step * 125;
}

HealthMonitor::Rails
HealthMonitor::modelRails() const
{
    Rails r;
    r.powerMilliW = static_cast<std::uint32_t>(
        18'000 + 120'000 * utilization_);
    // Rails droop ~1 mV per 4 W of draw.
    const std::uint32_t droop = r.powerMilliW / 4000;
    r.vccIntMilliV = 850 - std::min<std::uint32_t>(droop, 40);
    r.vccAuxMilliV = 1800 - std::min<std::uint32_t>(droop / 2, 40);
    r.alarms = (r.vccIntMilliV < 820 ? kAlarmVccIntLow : 0u) |
               (r.vccAuxMilliV < 1750 ? kAlarmVccAuxLow : 0u);
    return r;
}

HealthMonitor::Sensors
HealthMonitor::modelAt(Cycles c) const
{
    const Rails r = modelRails();
    return {modelTempMilliC(static_cast<std::uint32_t>((c / 64) % 16)),
            r.vccIntMilliV, r.vccAuxMilliV, r.powerMilliW};
}

void
HealthMonitor::refreshSensors()
{
    converted_ = cycle();
    sensors_ = modelAt(converted_);

    // Fault hook: a thermal excursion adds param milli-degC to this
    // conversion — enough (by default) to cross the alarm threshold.
    std::uint64_t excursion = 0;
    if (injectFault(FaultKind::ThermalExcursion, name(), now(),
                    &excursion)) {
        sensors_.tempMilliC += static_cast<std::uint32_t>(
            excursion != 0 ? excursion : 30'000);
    }

    std::uint32_t new_alarms = modelRails().alarms;
    if (sensors_.tempMilliC >= tempLimitMilliC_)
        new_alarms |= kAlarmOverTemp;

    if (new_alarms & ~alarms_) {
        alarms_ |= new_alarms;
        latchKnown_ = false;
        alarm_->raise();  // latency-critical: bypasses the reg plane
    }
}

void
HealthMonitor::tick()
{
    // Sensor ADCs convert at a fraction of the fabric clock.
    if (cycle() % kConvertCycles == 0)
        refreshSensors();
}

Cycles
HealthMonitor::visibleConversion() const
{
    if (clock() == nullptr)
        return converted_;
    const Tick period = clock()->period();
    const Tick t = now();
    Cycles c = t / period / kConvertCycles * kConvertCycles;
    // On a conversion edge, a reader ahead of the monitor in the serial
    // order runs before the monitor's own turn: it sees the previous
    // conversion. The monitor's turn is its tick (which converts) or,
    // on a fast-forward edge, the idle() question it answered; only a
    // reader in the monitor's own domain asks which.
    if (c * period == t &&
        edgePending([&] { return converted_ == c || visited_ == c; })) {
        if (c == 0)
            return converted_;
        c -= kConvertCycles;
    }
    // Only conversions after registration happened; every conversion
    // not ticked since converted_ latched nothing and queried no fault
    // (fast-forward runs only while no tick-queried rule is live).
    if (c > converted_ && clock()->cyclesToTicks(c) > registeredAt())
        return c;
    return converted_;
}

HealthMonitor::Sensors
HealthMonitor::read() const
{
    const Cycles c = visibleConversion();
    return c == converted_ ? sensors_ : modelAt(c);
}

void
HealthMonitor::catchUp()
{
    const Cycles c = visibleConversion();
    if (c != converted_) {
        sensors_ = modelAt(c);
        converted_ = c;
    }
}

Cycles
HealthMonitor::nextLatch() const
{
    if (clock() == nullptr)
        return kNever;
    if (latchKnown_)
        return latchCycle_;
    latchKnown_ = true;

    // The first conversion the monitor has not yet made that it ticks
    // on: after converted_, and on an edge after registration.
    const Cycles first_edge = clock()->ticksToCycles(registeredAt()) + 1;
    const Cycles first = std::max(
        converted_ + kConvertCycles,
        (first_edge + kConvertCycles - 1) / kConvertCycles *
            kConvertCycles);

    // Rail alarms depend on utilization alone: the next conversion
    // latches them or none ever does.
    latchCycle_ = first;
    if (modelRails().alarms & ~alarms_)
        return latchCycle_;

    // Over-temperature follows the ripple: 16 steps of 64 cycles, so
    // the first hot step within one 1024-cycle period decides.
    latchCycle_ = kNever;
    if (alarms_ & kAlarmOverTemp)
        return latchCycle_;
    const Cycles step = first / 64;
    for (Cycles k = 0; k < 16; ++k) {
        const auto ripple = static_cast<std::uint32_t>((step + k) % 16);
        if (modelTempMilliC(ripple) >= tempLimitMilliC_) {
            latchCycle_ = k == 0 ? first : (step + k) * 64;
            break;
        }
    }
    return latchCycle_;
}

Tick
HealthMonitor::wakeTime() const
{
    const Cycles c = nextLatch();
    return c == kNever ? kTickMax : clock()->cyclesToTicks(c);
}

CommandResult
HealthMonitor::executeCommand(std::uint16_t code,
                              const std::vector<std::uint32_t> &data)
{
    switch (code) {
      case kCmdSensorRead: {
        const Sensors s = read();
        if (data.empty()) {
            // No index: the full sensor block in one response.
            return {kCmdOk,
                    {s.tempMilliC, s.vccIntMilliV, s.vccAuxMilliV,
                     s.powerMilliW, alarms_}};
        }
        switch (data[0]) {
          case kSensorTempMilliC:
            return {kCmdOk, {s.tempMilliC}};
          case kSensorVccIntMilliV:
            return {kCmdOk, {s.vccIntMilliV}};
          case kSensorVccAuxMilliV:
            return {kCmdOk, {s.vccAuxMilliV}};
          case kSensorPowerMilliW:
            return {kCmdOk, {s.powerMilliW}};
          case kSensorAlarms:
            return {kCmdOk, {alarms_}};
          default:
            return {kCmdBadArgument, {}};
        }
      }
      case kCmdModuleStatusRead:
        return {kCmdOk, {alarms_ == 0 ? 1u : 0u}};
      case kCmdModuleReset:
        catchUp();
        alarms_ = 0;
        latchKnown_ = false;
        alarm_->clear();
        return {kCmdOk, {}};
      default:
        return {kCmdUnknownCode, {}};
    }
}

} // namespace harmonia
