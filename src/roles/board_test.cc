#include "roles/board_test.h"

#include "common/logging.h"
#include "common/strings.h"

namespace harmonia {

BoardTest::BoardTest()
    : Role("board_test", RoleArch::Infrastructure,
           standardRequirements())
{
}

RoleRequirements
BoardTest::standardRequirements()
{
    RoleRequirements r;
    r.name = "board_test";
    // The tester adapts to whatever the board has; requirements keep
    // only the host path mandatory so results can be collected.
    r.needsHost = true;
    r.hostQueues = 8;
    r.roleLogic = {30000, 40000, 64, 0, 16};
    r.roleLoc = 11370;
    return r;
}

bool
BoardTest::testNetwork(Engine &engine, BoardReport &report)
{
    if (shell().networkCount() == 0) {
        report.log.push_back("network: skipped (no network RBB)");
        return true;
    }
    NetworkRbb &net = shell().network();
    net.setLoopback(true);
    net.setFilterEnabled(false);

    const unsigned kPackets = 400;
    const std::uint32_t kBytes = 1024;
    unsigned sent = 0;
    unsigned received = 0;
    std::uint64_t expect_id = 0;
    bool ordered = true;
    const Tick started = engine.now();

    const bool done = engine.runUntilDone(
        [&] {
            while (sent < kPackets && net.txReady()) {
                PacketDesc pkt;
                pkt.id = sent;
                pkt.bytes = kBytes;
                pkt.injected = engine.now();
                net.txPush(pkt);
                ++sent;
            }
            while (net.rxAvailable()) {
                const PacketDesc pkt = net.rxPop();
                if (pkt.id != expect_id)
                    ordered = false;
                ++expect_id;
                ++received;
            }
            return received == kPackets;
        },
        100'000'000);

    const double seconds =
        static_cast<double>(engine.now() - started) / kTicksPerSecond;
    report.networkGbps =
        seconds > 0 ? received * kBytes * 8.0 / seconds / 1e9 : 0;
    net.setLoopback(false);

    if (!done || !ordered) {
        report.log.push_back(format(
            "network: FAIL (received %u/%u, ordered=%d)", received,
            kPackets, ordered ? 1 : 0));
        return false;
    }
    report.log.push_back(format("network: pass (%.1f Gbps loopback)",
                                report.networkGbps));
    return true;
}

bool
BoardTest::testMemory(Engine &engine, BoardReport &report)
{
    if (shell().memoryCount() == 0) {
        report.log.push_back("memory: skipped (no memory RBB)");
        return true;
    }
    MemoryRbb &mem = shell().memory();

    // Functional verification: walking pattern through the store.
    std::vector<std::uint8_t> pattern(256);
    for (std::size_t i = 0; i < pattern.size(); ++i)
        pattern[i] = static_cast<std::uint8_t>(i * 7 + 3);
    mem.storeWrite(0x1000, pattern);
    if (mem.storeRead(0x1000, pattern.size()) != pattern) {
        report.log.push_back("memory: FAIL (data mismatch)");
        return false;
    }

    // Timed sequential sweep.
    const unsigned kOps = 500;
    const std::uint32_t kBlock = 4096;
    unsigned issued = 0;
    unsigned completed = 0;
    const Tick started = engine.now();
    const bool done = engine.runUntilDone(
        [&] {
            while (issued < kOps &&
                   mem.read(static_cast<Addr>(issued) * kBlock, kBlock,
                            issued))
                ++issued;
            while (mem.hasCompletion()) {
                mem.popCompletion();
                ++completed;
            }
            return completed == kOps;
        },
        500'000'000);
    const double seconds =
        static_cast<double>(engine.now() - started) / kTicksPerSecond;
    report.memoryGBps =
        seconds > 0 ? completed * double(kBlock) / seconds / 1e9 : 0;

    if (!done) {
        report.log.push_back(format("memory: FAIL (%u/%u reads)",
                                    completed, kOps));
        return false;
    }
    report.log.push_back(format("memory: pass (%.1f GB/s sequential)",
                                report.memoryGBps));
    return true;
}

bool
BoardTest::testHost(Engine &engine, BoardReport &report)
{
    HostRbb &host = shell().host();
    host.setQueueActive(0, true);

    const unsigned kOps = 300;
    const std::uint32_t kBytes = 16384;
    unsigned issued = 0;
    unsigned completed = 0;
    const Tick started = engine.now();
    const bool done = engine.runUntilDone(
        [&] {
            while (issued < kOps &&
                   host.submit(issued % 2 ? DmaDir::C2H : DmaDir::H2C,
                               0, kBytes, issued))
                ++issued;
            while (host.hasCompletion()) {
                host.popCompletion();
                ++completed;
            }
            return completed == kOps;
        },
        500'000'000);
    const double seconds =
        static_cast<double>(engine.now() - started) / kTicksPerSecond;
    report.dmaGBps =
        seconds > 0 ? completed * double(kBytes) / seconds / 1e9 : 0;

    if (!done) {
        report.log.push_back(format("host: FAIL (%u/%u transfers)",
                                    completed, kOps));
        return false;
    }
    report.log.push_back(
        format("host: pass (%.1f GB/s DMA)", report.dmaGBps));
    return true;
}

bool
BoardTest::testKernel(Engine &engine, BoardReport &report)
{
    CommandPacket ping;
    ping.srcId = kCtrlStandaloneTool;
    ping.dstId = kRbbSystem;
    ping.rbbId = kRbbSystem;
    ping.commandCode = kCmdTimeCount;
    if (!shell().kernel().submit(ping)) {
        report.log.push_back("kernel: FAIL (buffer rejected ping)");
        return false;
    }
    const bool done = engine.runUntilDone(
        [&] { return shell().kernel().hasResponse(); }, 10'000'000);
    if (!done) {
        report.log.push_back("kernel: FAIL (no response)");
        return false;
    }
    const CommandPacket resp = shell().kernel().popResponse();
    if (resp.status != kCmdOk || resp.data.size() != 2) {
        report.log.push_back("kernel: FAIL (bad response)");
        return false;
    }
    report.log.push_back("kernel: pass (time-count responds)");
    return true;
}

bool
BoardTest::testHealth(Engine &engine, BoardReport &report)
{
    engine.runFor(1'000'000);  // let the sensor ADCs convert
    HealthMonitor &mon = shell().health();
    if (mon.temperatureMilliC() < 20'000 ||
        mon.temperatureMilliC() > 110'000) {
        report.log.push_back(format(
            "health: FAIL (implausible temperature %u mC)",
            mon.temperatureMilliC()));
        return false;
    }
    if (mon.alarms() != 0) {
        report.log.push_back(format("health: FAIL (alarms 0x%x)",
                                    mon.alarms()));
        return false;
    }
    report.log.push_back(format(
        "health: pass (%u.%03u C, %u mW)",
        mon.temperatureMilliC() / 1000,
        mon.temperatureMilliC() % 1000, mon.powerMilliW()));
    return true;
}

BoardReport
BoardTest::runAll(Engine &engine)
{
    BoardReport report;
    report.networkPass = testNetwork(engine, report);
    report.memoryPass = testMemory(engine, report);
    report.hostPass = testHost(engine, report);
    report.kernelPass = testKernel(engine, report);
    report.healthPass = testHealth(engine, report);
    runs_.inc();
    if (report.allPass())
        passes_.inc();
    return report;
}

} // namespace harmonia
