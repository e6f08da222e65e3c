/**
 * @file
 * Seeded fuzz harness for the command-packet codec and the control
 * kernel's byte-stream parser. Two layers: pure encode/decode
 * round-trips over every command code, and a byte-mutation corpus fed
 * through a live kernel asserting that every malformed packet is
 * classified exactly once (the matching decode_* / unknown_code
 * counter) and NACKed — never crashing, never silently swallowed.
 */

#include <gtest/gtest.h>

#include <random>
#include <vector>

#include "cmd/command.h"
#include "cmd/control_kernel.h"
#include "sim/engine.h"

namespace harmonia {
namespace {

constexpr std::uint64_t kFuzzSeed = 0x48a7201e20260806ull;

/** All published + extension command codes (round-trip coverage). */
const std::vector<std::uint16_t> &
allCodes()
{
    static const std::vector<std::uint16_t> codes = {
        kCmdModuleStatusRead, kCmdModuleStatusWrite, kCmdModuleInit,
        kCmdModuleReset,      kCmdTableWrite,        kCmdTableRead,
        kCmdStatsSnapshot,    kCmdQueueConfig,       kCmdSensorRead,
        kCmdFlashErase,       kCmdTimeCount,         kCmdPrLoad,
        kCmdPrUnload,         kCmdPrStatus,          kCmdProfileSnapshot,
        kCmdProfileReset,     kCmdSloStatus,         kCmdAlertSnapshot,
        kCmdFlightDump,       kCmdCheckpoint,        kCmdRestore,
        kCmdObsSubscribe,     kCmdObsDelta,
    };
    return codes;
}

CommandPacket
randomPacket(std::mt19937_64 &rng, std::uint16_t code)
{
    CommandPacket pkt;
    pkt.srcId = static_cast<std::uint8_t>(rng());
    pkt.dstId = static_cast<std::uint8_t>(rng());
    pkt.rbbId = static_cast<std::uint8_t>(rng());
    pkt.instanceId = static_cast<std::uint8_t>(rng());
    pkt.commandCode = code;
    pkt.options = static_cast<std::uint32_t>(rng());
    pkt.data.resize(rng() % 32);
    for (auto &w : pkt.data)
        w = static_cast<std::uint32_t>(rng());
    return pkt;
}

void
expectEqual(const CommandPacket &a, const CommandPacket &b)
{
    EXPECT_EQ(a.version, b.version);
    EXPECT_EQ(a.srcId, b.srcId);
    EXPECT_EQ(a.dstId, b.dstId);
    EXPECT_EQ(a.rbbId, b.rbbId);
    EXPECT_EQ(a.instanceId, b.instanceId);
    EXPECT_EQ(a.commandCode, b.commandCode);
    EXPECT_EQ(a.options, b.options);
    EXPECT_EQ(a.status, b.status);
    EXPECT_EQ(a.data, b.data);
}

/** A live kernel on a fresh engine, one per fuzz case. */
struct KernelRig {
    Engine engine;
    Clock *clk;
    UnifiedControlKernel kernel{"fuzz.uck"};

    KernelRig() : clk(engine.addClock("kclk", 250.0))
    {
        engine.add(&kernel, clk);
    }

    /** Run long enough to chew through any single packet. */
    void settle() { engine.runCycles(clk, 256); }

    std::uint64_t count(const char *name)
    {
        return kernel.stats().value(name);
    }

    /** Sum of every malformed-classification counter. */
    std::uint64_t errorTotal()
    {
        return count("decode_truncated") +
               count("decode_bad_version") +
               count("decode_bad_header_len") +
               count("decode_length_mismatch") +
               count("decode_bad_checksum") + count("unknown_code");
    }
};

TEST(PacketFuzz, RoundTripEveryCommandCode)
{
    std::mt19937_64 rng(kFuzzSeed);
    for (const std::uint16_t code : allCodes()) {
        const CommandPacket pkt = randomPacket(rng, code);
        std::size_t consumed = 0;
        const std::vector<std::uint8_t> bytes = pkt.encode();
        const DecodeOutcome out = decodeCommand(bytes, &consumed);
        ASSERT_TRUE(out.ok())
            << "code 0x" << std::hex << code << ": "
            << toString(*out.error);
        EXPECT_EQ(consumed, bytes.size());
        expectEqual(pkt, *out.packet);
        // Re-encoding the decode reproduces the exact wire bytes.
        EXPECT_EQ(out.packet->encode(), bytes);
    }
}

TEST(PacketFuzz, RoundTripRandomStreams)
{
    std::mt19937_64 rng(kFuzzSeed ^ 1);
    // Back-to-back packets in one buffer, walked by consumed offsets
    // exactly as the kernel's parser does.
    for (int iter = 0; iter < 50; ++iter) {
        std::vector<CommandPacket> pkts;
        std::vector<std::uint8_t> stream;
        const std::size_t n = 1 + rng() % 5;
        for (std::size_t i = 0; i < n; ++i) {
            pkts.push_back(randomPacket(
                rng, allCodes()[rng() % allCodes().size()]));
            const auto bytes = pkts.back().encode();
            stream.insert(stream.end(), bytes.begin(), bytes.end());
        }
        std::size_t off = 0;
        for (const CommandPacket &expect : pkts) {
            std::vector<std::uint8_t> rest(stream.begin() +
                                               static_cast<long>(off),
                                           stream.end());
            std::size_t consumed = 0;
            const DecodeOutcome out = decodeCommand(rest, &consumed);
            ASSERT_TRUE(out.ok());
            expectEqual(expect, *out.packet);
            off += consumed;
        }
        EXPECT_EQ(off, stream.size());
    }
}

TEST(PacketFuzz, BodyBitFlipIsBadChecksumExactlyOnce)
{
    std::mt19937_64 rng(kFuzzSeed ^ 2);
    for (int iter = 0; iter < 40; ++iter) {
        KernelRig rig;
        CommandPacket pkt = randomPacket(rng, kCmdTimeCount);
        pkt.rbbId = kRbbSystem;
        std::vector<std::uint8_t> bytes = pkt.encode();
        // Flip one bit below the trailer but past word0, so framing
        // fields stay intact and the checksum must catch it.
        const std::size_t pos = 4 + rng() % (bytes.size() - 8);
        bytes[pos] ^= static_cast<std::uint8_t>(1u << (rng() % 8));

        ASSERT_TRUE(rig.kernel.submitBytes(bytes));
        rig.settle();
        EXPECT_EQ(rig.count("decode_bad_checksum"), 1u);
        EXPECT_EQ(rig.count("checksum_errors"), 1u);
        EXPECT_EQ(rig.errorTotal(), 1u);
        EXPECT_EQ(rig.count("commands_executed"), 0u);
        ASSERT_TRUE(rig.kernel.hasResponse());
        EXPECT_EQ(rig.kernel.popResponse().status, kCmdChecksumError);
        EXPECT_FALSE(rig.kernel.hasResponse());
    }
}

TEST(PacketFuzz, BadFramingIsNackedMalformedExactlyOnce)
{
    std::mt19937_64 rng(kFuzzSeed ^ 3);
    for (int iter = 0; iter < 40; ++iter) {
        KernelRig rig;
        CommandPacket pkt = randomPacket(rng, kCmdTimeCount);
        std::vector<std::uint8_t> bytes = pkt.encode();
        if (iter % 2 == 0) {
            // Unsupported version nibble (checked before checksum).
            const auto v =
                static_cast<std::uint8_t>(2 + rng() % 14);
            bytes[0] = static_cast<std::uint8_t>(
                (v << 4) | (bytes[0] & 0x0f));
        } else {
            // HdLen nibble that does not match the fixed layout.
            auto hd = static_cast<std::uint8_t>(rng() % 16);
            if (hd == CommandPacket::kHdLenWords)
                hd = 0;
            bytes[0] = static_cast<std::uint8_t>(
                (bytes[0] & 0xf0) | hd);
        }

        ASSERT_TRUE(rig.kernel.submitBytes(bytes));
        rig.settle();
        EXPECT_EQ(rig.errorTotal(), 1u);
        EXPECT_EQ(rig.count("parse_errors"), 1u);
        EXPECT_EQ(rig.count("nacks_sent"), 1u);
        ASSERT_TRUE(rig.kernel.hasResponse());
        EXPECT_EQ(rig.kernel.popResponse().status, kCmdMalformed);
        // The buffer was flushed: nothing left to misparse.
        EXPECT_FALSE(rig.kernel.hasResponse());
        EXPECT_EQ(rig.count("commands_executed"), 0u);
    }
}

TEST(PacketFuzz, TruncationCountsOnceThenCompletes)
{
    std::mt19937_64 rng(kFuzzSeed ^ 4);
    for (int iter = 0; iter < 40; ++iter) {
        KernelRig rig;
        CommandPacket pkt = randomPacket(rng, kCmdTimeCount);
        pkt.rbbId = kRbbSystem;
        const std::vector<std::uint8_t> bytes = pkt.encode();
        const std::size_t cut = 4 + rng() % (bytes.size() - 4);

        ASSERT_TRUE(rig.kernel.submitBytes(
            {bytes.begin(), bytes.begin() + static_cast<long>(cut)}));
        // However long the head sits there, the stall counts once.
        rig.settle();
        rig.settle();
        EXPECT_EQ(rig.count("decode_truncated"), 1u);
        EXPECT_EQ(rig.errorTotal(), 1u);
        EXPECT_FALSE(rig.kernel.hasResponse());

        // The tail arrives; the reassembled packet executes cleanly.
        ASSERT_TRUE(rig.kernel.submitBytes(
            {bytes.begin() + static_cast<long>(cut), bytes.end()}));
        rig.settle();
        EXPECT_EQ(rig.errorTotal(), 1u);
        EXPECT_EQ(rig.count("commands_executed"), 1u);
        ASSERT_TRUE(rig.kernel.hasResponse());
        EXPECT_EQ(rig.kernel.popResponse().status, kCmdOk);
    }
}

TEST(PacketFuzz, UnknownCodeCountedExactlyOnce)
{
    std::mt19937_64 rng(kFuzzSeed ^ 5);
    for (int iter = 0; iter < 20; ++iter) {
        KernelRig rig;
        CommandPacket pkt = randomPacket(
            rng, static_cast<std::uint16_t>(0x4000 + rng() % 0x1000));
        pkt.rbbId = kRbbSystem;  // reaches a real executor

        ASSERT_TRUE(rig.kernel.submit(pkt));
        rig.settle();
        EXPECT_EQ(rig.count("unknown_code"), 1u);
        EXPECT_EQ(rig.errorTotal(), 1u);
        EXPECT_EQ(rig.count("commands_executed"), 1u);
        ASSERT_TRUE(rig.kernel.hasResponse());
        EXPECT_EQ(rig.kernel.popResponse().status, kCmdUnknownCode);
    }
}

TEST(PacketFuzz, ArbitraryMutationNeverCrashesAndIsClassified)
{
    std::mt19937_64 rng(kFuzzSeed ^ 6);
    for (int iter = 0; iter < 120; ++iter) {
        KernelRig rig;
        CommandPacket pkt = randomPacket(
            rng, allCodes()[rng() % allCodes().size()]);
        pkt.rbbId = kRbbSystem;
        std::vector<std::uint8_t> bytes = pkt.encode();
        // Any byte, any bit — including the framing fields the other
        // families avoid. The kernel may resynchronize through the
        // damaged tail, but it must classify, answer or stall, and
        // never crash or loop.
        const std::size_t flips = 1 + rng() % 4;
        for (std::size_t f = 0; f < flips; ++f)
            bytes[rng() % bytes.size()] ^=
                static_cast<std::uint8_t>(1u << (rng() % 8));

        const DecodeOutcome direct = decodeCommand(bytes);
        ASSERT_TRUE(rig.kernel.submitBytes(bytes));
        rig.settle();

        if (direct.ok()) {
            // The damage was confined to unchecksummed trailer bits
            // (or cancelled out): the packet simply executes.
            EXPECT_EQ(rig.count("commands_executed"), 1u);
            EXPECT_TRUE(rig.kernel.hasResponse());
        } else if (*direct.error == DecodeError::Truncated) {
            // Stalls waiting for a tail that never comes, counted
            // exactly once no matter how long it waits.
            EXPECT_EQ(rig.count("decode_truncated"), 1u);
        } else {
            // Classified as malformed at least once, answered with a
            // NACK or checksum error.
            EXPECT_GE(rig.errorTotal(), 1u);
            EXPECT_TRUE(rig.kernel.hasResponse());
        }
    }
}

TEST(PacketFuzz, PureGarbageNeverCrashes)
{
    std::mt19937_64 rng(kFuzzSeed ^ 7);
    for (int iter = 0; iter < 60; ++iter) {
        KernelRig rig;
        std::vector<std::uint8_t> bytes(rng() % 120);
        for (auto &b : bytes)
            b = static_cast<std::uint8_t>(rng());
        ASSERT_TRUE(rig.kernel.submitBytes(bytes));
        rig.settle();
        if (bytes.size() >= 4) {
            EXPECT_GE(rig.errorTotal() +
                          rig.count("commands_executed"),
                      1u);
        }
    }
}

} // namespace
} // namespace harmonia
