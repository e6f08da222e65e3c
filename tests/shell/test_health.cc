#include <gtest/gtest.h>

#include "common/logging.h"
#include "host/cmd_driver.h"
#include "shell/unified_shell.h"

namespace harmonia {
namespace {

const FpgaDevice &
deviceA()
{
    return DeviceDatabase::instance().byName("DeviceA");
}

TEST(HealthMonitor, SensorsTrackUtilization)
{
    IrqHub irqs;
    HealthMonitor cool("cool", irqs);
    cool.setUtilization(0.1);
    IrqHub irqs2;
    HealthMonitor hot("hot", irqs2);
    hot.setUtilization(0.9);

    // Force a refresh outside an engine (cycle() == 0 path).
    Engine e1, e2;
    Clock *c1 = e1.addClock("c1", 250.0);
    Clock *c2 = e2.addClock("c2", 250.0);
    e1.add(&cool, c1);
    e2.add(&hot, c2);
    e1.runFor(1'000'000);
    e2.runFor(1'000'000);

    EXPECT_GT(hot.temperatureMilliC(), cool.temperatureMilliC());
    EXPECT_GT(hot.powerMilliW(), cool.powerMilliW());
    EXPECT_LT(hot.vccIntMilliV(), cool.vccIntMilliV());
    EXPECT_EQ(cool.alarms(), 0u);
}

TEST(HealthMonitor, OverTempLatchesAlarmAndRaisesIrq)
{
    IrqHub irqs;
    HealthMonitor mon("mon", irqs);
    bool fired = false;
    irqs.line("health_alarm").subscribe([&] { fired = true; });

    Engine engine;
    Clock *clk = engine.addClock("clk", 250.0);
    engine.add(&mon, clk);

    mon.setUtilization(0.5);
    mon.setAmbientMilliC(80'000);  // thermal stress injection
    engine.runFor(1'000'000);
    ASSERT_TRUE(fired);
    EXPECT_TRUE(mon.alarms() & kAlarmOverTemp);

    // Alarm stays latched after the stress goes away...
    mon.setAmbientMilliC(35'000);
    engine.runFor(1'000'000);
    EXPECT_TRUE(mon.alarms() & kAlarmOverTemp);

    // ...until management clears it.
    const auto res = mon.executeCommand(kCmdModuleReset, {});
    EXPECT_EQ(res.status, kCmdOk);
    EXPECT_EQ(mon.alarms(), 0u);
}

TEST(HealthMonitor, AlarmLifecycleRelatchesAfterClear)
{
    // Full latch lifecycle: stress latches the alarm and fires the
    // irq edge; ModuleReset clears the latch AND the line; crossing
    // the threshold again re-latches and fires a second edge — the
    // monitor does not stay wedged after its first alarm.
    IrqHub irqs;
    HealthMonitor mon("mon", irqs);
    Engine engine;
    Clock *clk = engine.addClock("clk", 250.0);
    engine.add(&mon, clk);

    mon.setUtilization(0.5);
    mon.setAmbientMilliC(80'000);
    engine.runFor(1'000'000);
    ASSERT_TRUE(mon.alarms() & kAlarmOverTemp);
    EXPECT_EQ(mon.alarmLine().edgeCount(), 1u);
    EXPECT_TRUE(mon.alarmLine().level());

    // Cool down, then clear: latch and irq line both drop.
    mon.setAmbientMilliC(35'000);
    engine.runFor(1'000'000);
    ASSERT_EQ(mon.executeCommand(kCmdModuleReset, {}).status, kCmdOk);
    EXPECT_EQ(mon.alarms(), 0u);
    EXPECT_FALSE(mon.alarmLine().level());
    engine.runFor(1'000'000);
    EXPECT_EQ(mon.alarms(), 0u);  // stays clear while cool

    // Second excursion: latches and edges again.
    mon.setAmbientMilliC(80'000);
    engine.runFor(1'000'000);
    EXPECT_TRUE(mon.alarms() & kAlarmOverTemp);
    EXPECT_EQ(mon.alarmLine().edgeCount(), 2u);
}

TEST(HealthMonitor, SensorReadCommand)
{
    IrqHub irqs;
    HealthMonitor mon("mon", irqs);
    const auto all = mon.executeCommand(kCmdSensorRead, {});
    ASSERT_EQ(all.status, kCmdOk);
    ASSERT_EQ(all.data.size(), 5u);
    EXPECT_EQ(all.data[0], mon.temperatureMilliC());
    EXPECT_EQ(all.data[4], mon.alarms());

    const auto temp =
        mon.executeCommand(kCmdSensorRead, {kSensorTempMilliC});
    ASSERT_EQ(temp.data.size(), 1u);
    EXPECT_EQ(temp.data[0], mon.temperatureMilliC());

    EXPECT_EQ(mon.executeCommand(kCmdSensorRead, {99}).status,
              kCmdBadArgument);
    EXPECT_EQ(mon.executeCommand(0x4444, {}).status,
              kCmdUnknownCode);
}

TEST(HealthMonitor, IntegratedIntoEveryShell)
{
    Engine engine;
    auto shell = Shell::makeUnified(engine, deviceA());
    engine.runFor(1'000'000);
    EXPECT_GT(shell->health().temperatureMilliC(), 35'000u);

    // Reachable through the command interface like any module (the
    // BMC's path).
    CmdDriver bmc(engine, *shell, kCtrlBmc);
    const CommandPacket resp =
        bmc.call(kRbbHealth, 0, kCmdSensorRead, {});
    EXPECT_EQ(resp.status, kCmdOk);
    ASSERT_EQ(resp.data.size(), 5u);
    EXPECT_GT(resp.data[3], 0u);  // power draw
}

TEST(HealthMonitor, UtilizationDerivedFromShellSize)
{
    Engine e1, e2;
    auto unified = Shell::makeUnified(e1, deviceA());
    ShellConfig tiny_cfg;
    Shell tiny(e2, deviceA(), tiny_cfg, "tiny");
    e1.runFor(1'000'000);
    e2.runFor(1'000'000);
    // A bigger shell runs hotter.
    EXPECT_GT(unified->health().temperatureMilliC(),
              tiny.health().temperatureMilliC());
}

TEST(HealthMonitor, RejectsBadUtilization)
{
    IrqHub irqs;
    HealthMonitor mon("mon", irqs);
    EXPECT_THROW(mon.setUtilization(-0.1), FatalError);
    EXPECT_THROW(mon.setUtilization(1.5), FatalError);
}

// --- Lazy conversions under idle fast-forward. ---

/** A standalone monitor on its own 250 MHz clock. */
struct MonitorRig {
    Engine engine;
    IrqHub irqs;
    HealthMonitor mon{"mon", irqs};
    Clock *clk = engine.addClock("clk", 250.0);

    explicit MonitorRig(bool fast_forward, double utilization = 0.5)
    {
        engine.setIdleFastForward(fast_forward);
        engine.add(&mon, clk);
        mon.setUtilization(utilization);
    }
};

TEST(HealthMonitor, KernelSensorReadOnConversionEdgeSeesPreviousOne)
{
    for (const bool ff : {false, true}) {
        const char *label = ff ? "ff" : "tick-by-tick";
        Engine engine;
        engine.setIdleFastForward(ff);
        auto shell = Shell::makeUnified(engine, deviceA());
        CmdDriver bmc(engine, *shell, kCtrlBmc);
        // A ripple step (the temperature moves there) long after the
        // last command: the soft core is idle when the edge comes.
        const Cycles edge = 64 * 40;
        const Tick period = shell->kernelClock()->period();
        engine.runUntil(edge * period - 1);
        const std::uint32_t before = shell->health().temperatureMilliC();

        // Submitted one tick before the edge, executed on it: the
        // kernel ticks ahead of the monitor in its domain.
        const CommandPacket resp = bmc.call(kRbbHealth, 0, kCmdSensorRead,
                                            {kSensorTempMilliC});
        ASSERT_EQ(resp.status, kCmdOk) << label;
        ASSERT_EQ(engine.now(), edge * period) << label;
        EXPECT_EQ(resp.data[0], before) << label;

        // A host read right after that edge sees the new conversion.
        EXPECT_EQ(shell->health().temperatureMilliC(), before + 125)
            << label;
    }
}

TEST(HealthMonitor, FastForwardAlarmIrqFiresOnTheTickByTickEdge)
{
    const auto fired_at = [](bool ff) {
        MonitorRig rig(ff);
        Tick fired = 0;
        rig.mon.alarmLine().subscribe(
            [&] { fired = rig.engine.now(); });
        // Reached only on ripple step 9 and up (rise 22.5C at 50%).
        rig.mon.setTempLimitMilliC(35'000 + 22'500 + 9 * 125);
        rig.engine.runFor(10'000'000);
        EXPECT_EQ(rig.mon.alarmLine().edgeCount(), 1u);
        return fired;
    };
    const Tick golden = fired_at(false);
    EXPECT_EQ(golden, 9 * 64 * periodFromMhz(250.0));
    EXPECT_EQ(fired_at(true), golden);
}

TEST(HealthMonitor, NoWakeWhileNoAlarmCanLatch)
{
    // 10% utilization peaks near 41C: nothing can latch.
    MonitorRig rig(true, 0.1);
    EXPECT_EQ(rig.mon.wakeTime(), kTickMax);
    EXPECT_TRUE(rig.mon.idle());

    // A limit within the ripple's reach: its first hot step wakes it.
    rig.mon.setTempLimitMilliC(35'000 + 4'500 + 3 * 125);
    EXPECT_EQ(rig.mon.wakeTime(), rig.clk->cyclesToTicks(3 * 64));

    // Latched, over-temperature cannot latch again until cleared.
    rig.engine.runFor(rig.clk->cyclesToTicks(3 * 64));
    ASSERT_TRUE(rig.mon.alarms() & kAlarmOverTemp);
    EXPECT_EQ(rig.mon.wakeTime(), kTickMax);
    ASSERT_EQ(rig.mon.executeCommand(kCmdModuleReset, {}).status, kCmdOk);
    EXPECT_NE(rig.mon.wakeTime(), kTickMax);
}

TEST(HealthMonitor, SetterAfterLongIdleStretchKeepsEarlierReads)
{
    // Land between conversions deep into the ripple's sixth period:
    // fast-forward skipped every conversion on the way.
    const auto run = [](bool ff, bool read_first) {
        MonitorRig rig(ff, 0.1);
        const Cycles at = 5 * 1024 + 7 * 64 + 5;
        rig.engine.runUntil(rig.clk->cyclesToTicks(at));
        const std::uint32_t before =
            read_first ? rig.mon.temperatureMilliC() : 0;
        rig.mon.setAmbientMilliC(60'000);
        // The setter changes the next conversion, not the last one.
        const std::uint32_t after = rig.mon.temperatureMilliC();
        if (read_first) {
            EXPECT_EQ(after, before);
        }
        rig.engine.runUntil(rig.clk->cyclesToTicks(at + 16));
        return std::make_pair(after, rig.mon.temperatureMilliC());
    };
    const auto golden = run(false, true);
    EXPECT_EQ(golden.first, 35'000u + 4'500 + 7 * 125);
    EXPECT_EQ(golden.second, 60'000u + 4'500 + 7 * 125);
    EXPECT_EQ(run(false, false), golden);
    EXPECT_EQ(run(true, true), golden);
    EXPECT_EQ(run(true, false), golden);
}

} // namespace
} // namespace harmonia
