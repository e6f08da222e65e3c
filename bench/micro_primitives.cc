/**
 * @file
 * Micro-benchmarks (google-benchmark) on the hot primitives: command
 * codec, checksum/CRC, async FIFO and the byte repacker. These bound
 * the simulator's own overheads and document codec costs. The scale
 * probe (BM_StatsSnapshotAcrossCards) bounds what a card costs beside
 * others: one command to one card of an N-card rack, and the rack's
 * build time and memory per card.
 */

#include <benchmark/benchmark.h>

#ifdef __GLIBC__
#include <malloc.h>
#endif

#include <chrono>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "cmd/command.h"
#include "common/checksum.h"
#include "common/strings.h"
#include "host/cmd_driver.h"
#include "rtl/async_fifo.h"
#include "rtl/crc.h"
#include "rtl/width_converter.h"
#include "shell/tailoring.h"
#include "shell/unified_shell.h"

using namespace harmonia;

namespace {

void
BM_Checksum16(benchmark::State &state)
{
    std::vector<std::uint8_t> data(state.range(0));
    for (std::size_t i = 0; i < data.size(); ++i)
        data[i] = static_cast<std::uint8_t>(i);
    for (auto _ : state)
        benchmark::DoNotOptimize(checksum16(data));
    state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Checksum16)->Arg(64)->Arg(1500)->Arg(65536);

void
BM_Crc32(benchmark::State &state)
{
    std::vector<std::uint8_t> data(state.range(0));
    for (std::size_t i = 0; i < data.size(); ++i)
        data[i] = static_cast<std::uint8_t>(i * 7);
    for (auto _ : state)
        benchmark::DoNotOptimize(crc32(data));
    state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Crc32)->Arg(64)->Arg(1500)->Arg(65536);

void
BM_CommandEncode(benchmark::State &state)
{
    CommandPacket pkt;
    pkt.rbbId = kRbbNetwork;
    pkt.commandCode = kCmdTableWrite;
    pkt.data.assign(state.range(0), 0xabcd);
    for (auto _ : state)
        benchmark::DoNotOptimize(pkt.encode());
}
BENCHMARK(BM_CommandEncode)->Arg(0)->Arg(8)->Arg(64);

void
BM_CommandDecode(benchmark::State &state)
{
    CommandPacket pkt;
    pkt.data.assign(state.range(0), 0x1234);
    const auto bytes = pkt.encode();
    for (auto _ : state)
        benchmark::DoNotOptimize(decodeCommand(bytes));
}
BENCHMARK(BM_CommandDecode)->Arg(0)->Arg(8)->Arg(64);

void
BM_AsyncFifoPingPong(benchmark::State &state)
{
    AsyncFifo<std::uint64_t> fifo(64, 2);
    std::uint64_t v = 0;
    for (auto _ : state) {
        fifo.writeTick();
        if (fifo.canPush())
            fifo.push(v++);
        fifo.readTick();
        while (fifo.canPop())
            benchmark::DoNotOptimize(fifo.pop());
    }
}
BENCHMARK(BM_AsyncFifoPingPong);

void
BM_ByteRepacker(benchmark::State &state)
{
    Beat in;
    in.data.assign(64, 0x5a);
    in.last = false;
    ByteRepacker rp(static_cast<std::size_t>(state.range(0)));
    for (auto _ : state) {
        rp.feed(in);
        while (rp.hasOutput())
            benchmark::DoNotOptimize(rp.pop());
    }
    state.SetBytesProcessed(state.iterations() * 64);
}
BENCHMARK(BM_ByteRepacker)->Arg(16)->Arg(64)->Arg(256);

/** This process's resident set in MiB, from /proc/self/status (0
 *  where that file is absent). */
double
rssMb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line))
        if (line.rfind("VmRSS:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0;
    return 0.0;
}

/**
 * The scale probe: one StatsSnapshot round trip to card 0 of N unified
 * cards (devices A-D in rotation) in one fast-forwarding engine. Only
 * card 0 does any work, so the per-call cost should not grow with N.
 * The build of the rack is timed and its VmRSS growth measured
 * (build_ms_per_card, rss_mb_per_card): both should grow with the
 * cards' active work, not with their 1K DMA queue slots.
 */
void
BM_StatsSnapshotAcrossCards(benchmark::State &state)
{
    static const char *const kDevices[] = {"DeviceA", "DeviceB",
                                           "DeviceC", "DeviceD"};
    const auto n = static_cast<std::size_t>(state.range(0));
    for (const char *name : kDevices)
        DeviceDatabase::instance().byName(name);
#ifdef __GLIBC__
    malloc_trim(0);  // the previous run's rack back to the OS
#endif
    const double rss_before = rssMb();
    const auto built_from = std::chrono::steady_clock::now();
    Engine engine;
    engine.setIdleFastForward(true);
    std::vector<std::unique_ptr<Shell>> cards;
    for (std::size_t i = 0; i < n; ++i) {
        const FpgaDevice &dev =
            DeviceDatabase::instance().byName(kDevices[i % 4]);
        cards.push_back(std::make_unique<Shell>(
            engine, dev, unifiedConfigFor(dev),
            format("card%zu_%s", i, dev.name.c_str())));
    }
    const std::chrono::duration<double, std::milli> build_ms =
        std::chrono::steady_clock::now() - built_from;
    const double rss_mb = rssMb() - rss_before;

    CmdDriver driver(engine, *cards.front());
    for (auto _ : state) {
        const CommandPacket resp =
            driver.call(kRbbNetwork, 0, kCmdStatsSnapshot);
        benchmark::DoNotOptimize(resp.data.data());
        if (resp.status != kCmdOk) {
            state.SkipWithError("StatsSnapshot failed");
            break;
        }
    }
    state.counters["cards"] = static_cast<double>(n);
    state.counters["build_ms_per_card"] = build_ms.count() / n;
    state.counters["rss_mb_per_card"] = rss_mb / n;
}
BENCHMARK(BM_StatsSnapshotAcrossCards)
    ->Arg(1)
    ->Arg(64)
    ->Arg(256)
    ->Arg(1024)
    ->Unit(benchmark::kMicrosecond);

} // namespace

// main() is provided by benchmark::benchmark_main.
