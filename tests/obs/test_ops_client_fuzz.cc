/**
 * @file
 * Fuzz harness for OpsClient's reply decoders. The ops plane reads
 * replies that crossed a corruptible wire, so the decoders must treat
 * every length and enum field as hostile. Three layers here: seeded
 * garbage and mutations hammered straight through the static
 * decoders (asan proves no read ever escapes the payload), exhaustive
 * truncation sweeps asserting the typed classification, and a live
 * shell whose telemetry target is swapped for an adversarial one so
 * readAlerts() meets wedged and self-contradicting pagination over
 * the real command plane without looping forever.
 */

#include <gtest/gtest.h>

#include <random>
#include <vector>

#include "cmd/command_codes.h"
#include "host/host_app.h"
#include "obs/ops_client.h"
#include "telemetry/telemetry_target.h"

namespace harmonia {
namespace {

constexpr std::uint64_t kFuzzSeed = 0x0b5c11e4720260808ull;

constexpr std::size_t kSloFixedWords = 4 + 4 * 2 + 3;
constexpr std::size_t kSloReplyWords =
    kSloFixedWords + TelemetryTarget::kNameWords;
constexpr std::size_t kAlertRecordWords =
    6 + TelemetryTarget::kNameWords;

void
pushU64(std::vector<std::uint32_t> &out, std::uint64_t v)
{
    out.push_back(static_cast<std::uint32_t>(v >> 32));
    out.push_back(static_cast<std::uint32_t>(v));
}

CommandPacket
reply(std::vector<std::uint32_t> data, std::uint16_t status = kCmdOk)
{
    CommandPacket pkt;
    pkt.status = status;
    pkt.data = std::move(data);
    return pkt;
}

/** A well-formed single-spec SloStatus reply. */
std::vector<std::uint32_t>
goodSloWords()
{
    std::vector<std::uint32_t> d;
    d.push_back(3);  // total
    d.push_back(1);  // index echo
    d.push_back(static_cast<std::uint32_t>(SloKind::LatencyP99));
    d.push_back(static_cast<std::uint32_t>(AlertState::Firing));
    pushU64(d, 2'500);       // objective 2.5
    pushU64(d, 5'000'000);   // window
    pushU64(d, 1'250);       // burn 1.25
    pushU64(d, 40);          // budget 0.04
    d.push_back(2);          // pending events
    d.push_back(1);          // fire events
    d.push_back(0);          // resolve events
    TelemetryTarget::packNameTo(d, "uck/service_time_ps/p99");
    return d;
}

/** One well-formed AlertSnapshot page of @p k records. */
std::vector<std::uint32_t>
goodAlertWords(std::uint32_t total, std::uint32_t k,
               std::uint32_t start)
{
    std::vector<std::uint32_t> d;
    d.push_back(total);
    d.push_back(k);
    for (std::uint32_t r = 0; r < k; ++r) {
        d.push_back(start + r);  // index
        d.push_back(
            static_cast<std::uint32_t>(AlertState::Pending));
        pushU64(d, 1'000 + start + r);  // since
        pushU64(d, 1'100);              // burn 1.1
        TelemetryTarget::packNameTo(d,
                                    format("slo-%u", start + r));
    }
    return d;
}

TEST(OpsClientFuzz, GoodRepliesDecodeCleanly)
{
    std::uint32_t count = 0;
    EXPECT_EQ(OpsClient::decodeSloCount(reply({7}), &count),
              OpsDecodeError::Ok);
    EXPECT_EQ(count, 7u);

    WireSlo ws;
    ASSERT_EQ(OpsClient::decodeSlo(reply(goodSloWords()), &ws),
              OpsDecodeError::Ok);
    EXPECT_EQ(ws.index, 1u);
    EXPECT_EQ(ws.kind, SloKind::LatencyP99);
    EXPECT_EQ(ws.state, AlertState::Firing);
    EXPECT_NEAR(ws.objective, 2.5, 1e-9);
    EXPECT_EQ(ws.window, 5'000'000u);
    EXPECT_NEAR(ws.burnRate, 1.25, 1e-9);
    EXPECT_NEAR(ws.budgetConsumed, 0.04, 1e-9);
    EXPECT_EQ(ws.pendingEvents, 2u);
    EXPECT_EQ(ws.name, "uck/service_time_ps/p99");

    std::uint32_t total = 0;
    std::uint32_t k = 0;
    std::vector<WireAlert> alerts;
    ASSERT_EQ(OpsClient::decodeAlertPage(
                  reply(goodAlertWords(6, 4, 0)), &total, &k,
                  &alerts),
              OpsDecodeError::Ok);
    EXPECT_EQ(total, 6u);
    EXPECT_EQ(k, 4u);
    ASSERT_EQ(alerts.size(), 4u);
    EXPECT_EQ(alerts[2].index, 2u);
    EXPECT_EQ(alerts[2].name, "slo-2");
    EXPECT_EQ(alerts[2].since, 1'002u);
    EXPECT_NEAR(alerts[2].burnRate, 1.1, 1e-9);

    // The empty fleet: zero total, zero records, still a clean page.
    alerts.clear();
    EXPECT_EQ(OpsClient::decodeAlertPage(reply({0, 0}), &total, &k,
                                         &alerts),
              OpsDecodeError::Ok);
    EXPECT_EQ(total, 0u);
    EXPECT_TRUE(alerts.empty());
}

TEST(OpsClientFuzz, NonOkStatusIsTransportAndWritesNothing)
{
    const std::uint16_t statuses[] = {kCmdBadArgument,
                                      kCmdInternalError,
                                      kCmdUnknownCode,
                                      kCmdNoResponse};
    for (const std::uint16_t status : statuses) {
        std::uint32_t count = 99;
        EXPECT_EQ(OpsClient::decodeSloCount(reply({7}, status),
                                            &count),
                  OpsDecodeError::Transport);
        EXPECT_EQ(count, 99u);

        WireSlo ws;
        ws.name = "untouched";
        EXPECT_EQ(
            OpsClient::decodeSlo(reply(goodSloWords(), status), &ws),
            OpsDecodeError::Transport);
        EXPECT_EQ(ws.name, "untouched");

        std::uint32_t total = 0;
        std::uint32_t k = 0;
        std::vector<WireAlert> alerts;
        EXPECT_EQ(OpsClient::decodeAlertPage(
                      reply(goodAlertWords(2, 2, 0), status), &total,
                      &k, &alerts),
                  OpsDecodeError::Transport);
        EXPECT_TRUE(alerts.empty());
    }
}

TEST(OpsClientFuzz, EveryTruncationIsClassifiedNeverOverread)
{
    // Every strict prefix of a full SloStatus reply is Truncated —
    // there is no cut point that half-decodes.
    const std::vector<std::uint32_t> slo = goodSloWords();
    ASSERT_EQ(slo.size(), kSloReplyWords);
    for (std::size_t cut = 0; cut < slo.size(); ++cut) {
        WireSlo ws;
        EXPECT_EQ(OpsClient::decodeSlo(
                      reply({slo.begin(),
                             slo.begin() + static_cast<long>(cut)}),
                      &ws),
                  OpsDecodeError::Truncated)
            << "cut at " << cut;
    }

    EXPECT_EQ(OpsClient::decodeSloCount(reply({}), nullptr),
              OpsDecodeError::Truncated);

    // Alert pages: a cut inside the header or the advertised records
    // is Truncated; the intact page still decodes afterwards.
    const std::vector<std::uint32_t> page = goodAlertWords(3, 3, 0);
    for (std::size_t cut = 0; cut < page.size(); ++cut) {
        std::uint32_t total = 0;
        std::uint32_t k = 0;
        std::vector<WireAlert> alerts;
        const OpsDecodeError err = OpsClient::decodeAlertPage(
            reply({page.begin(),
                   page.begin() + static_cast<long>(cut)}),
            &total, &k, &alerts);
        EXPECT_EQ(err, OpsDecodeError::Truncated) << "cut at " << cut;
        EXPECT_TRUE(alerts.empty()) << "partial append at " << cut;
    }
}

TEST(OpsClientFuzz, OutOfRangeEnumsAreMalformed)
{
    for (std::uint32_t bad = 4; bad < 9; ++bad) {
        std::vector<std::uint32_t> d = goodSloWords();
        d[2] = bad;  // kind past GaugeBelow
        WireSlo ws;
        EXPECT_EQ(OpsClient::decodeSlo(reply(d), &ws),
                  OpsDecodeError::Malformed);

        d = goodSloWords();
        d[3] = bad;  // state past Resolved
        EXPECT_EQ(OpsClient::decodeSlo(reply(d), &ws),
                  OpsDecodeError::Malformed);
    }

    // A bad state in the *last* record rejects the whole page: no
    // half-decoded tail ever reaches the caller.
    std::vector<std::uint32_t> page = goodAlertWords(4, 4, 0);
    page[2 + 3 * kAlertRecordWords + 1] = 17;
    std::uint32_t total = 0;
    std::uint32_t k = 0;
    std::vector<WireAlert> alerts;
    EXPECT_EQ(OpsClient::decodeAlertPage(reply(page), &total, &k,
                                         &alerts),
              OpsDecodeError::Malformed);
    EXPECT_TRUE(alerts.empty());
}

TEST(OpsClientFuzz, CountLiesAreMalformed)
{
    std::uint32_t count = 0;
    EXPECT_EQ(OpsClient::decodeSloCount(
                  reply({OpsClient::kMaxWireRecords + 1}), &count),
              OpsDecodeError::Malformed);

    std::uint32_t total = 0;
    std::uint32_t k = 0;
    std::vector<WireAlert> alerts;
    // k beyond the producer's page bound — even when the payload is
    // absurdly short, the claim itself is rejected as malformed, not
    // trusted into a multiplication.
    EXPECT_EQ(OpsClient::decodeAlertPage(
                  reply({100, 0xffffffffu}), &total, &k, &alerts),
              OpsDecodeError::Malformed);
    // k exceeding its own total.
    EXPECT_EQ(OpsClient::decodeAlertPage(reply(goodAlertWords(1, 2,
                                                              0)),
                                         &total, &k, &alerts),
              OpsDecodeError::Malformed);
    // total beyond any real fleet.
    std::vector<std::uint32_t> page = goodAlertWords(4, 4, 0);
    page[0] = OpsClient::kMaxWireRecords + 1;
    EXPECT_EQ(OpsClient::decodeAlertPage(reply(page), &total, &k,
                                         &alerts),
              OpsDecodeError::Malformed);
    EXPECT_TRUE(alerts.empty());
}

TEST(OpsClientFuzz, RandomGarbageNeverEscapesThePayload)
{
    std::mt19937_64 rng(kFuzzSeed);
    for (int iter = 0; iter < 3000; ++iter) {
        CommandPacket pkt;
        pkt.status = (rng() % 4 == 0)
                         ? static_cast<std::uint16_t>(rng())
                         : static_cast<std::uint16_t>(kCmdOk);
        pkt.data.resize(rng() % 96);
        for (auto &w : pkt.data)
            w = static_cast<std::uint32_t>(rng());

        // Every decoder survives every packet (asan guards the
        // no-overread claim); Ok outputs obey the protocol bounds.
        std::uint32_t count = 0;
        if (OpsClient::decodeSloCount(pkt, &count) ==
            OpsDecodeError::Ok) {
            EXPECT_LE(count, OpsClient::kMaxWireRecords);
        }

        WireSlo ws;
        if (OpsClient::decodeSlo(pkt, &ws) == OpsDecodeError::Ok) {
            EXPECT_LE(static_cast<std::uint32_t>(ws.kind),
                      static_cast<std::uint32_t>(SloKind::GaugeBelow));
            EXPECT_LE(
                static_cast<std::uint32_t>(ws.state),
                static_cast<std::uint32_t>(AlertState::Resolved));
        }

        std::uint32_t total = 0;
        std::uint32_t k = 0;
        std::vector<WireAlert> alerts;
        if (OpsClient::decodeAlertPage(pkt, &total, &k, &alerts) ==
            OpsDecodeError::Ok) {
            EXPECT_LE(k, TelemetryTarget::kAlertBatch);
            EXPECT_EQ(alerts.size(), k);
        }
    }
}

TEST(OpsClientFuzz, MutatedGoodRepliesClassifyCleanly)
{
    std::mt19937_64 rng(kFuzzSeed ^ 1);
    for (int iter = 0; iter < 500; ++iter) {
        std::vector<std::uint32_t> d = iter % 2 == 0
                                           ? goodSloWords()
                                           : goodAlertWords(4, 4, 0);
        const std::size_t flips = 1 + rng() % 3;
        for (std::size_t f = 0; f < flips; ++f)
            d[rng() % d.size()] ^= 1u << (rng() % 32);

        if (iter % 2 == 0) {
            WireSlo ws;
            OpsClient::decodeSlo(reply(d), &ws);  // must not crash
        } else {
            std::uint32_t total = 0;
            std::uint32_t k = 0;
            std::vector<WireAlert> alerts;
            const OpsDecodeError err = OpsClient::decodeAlertPage(
                reply(d), &total, &k, &alerts);
            if (err != OpsDecodeError::Ok) {
                EXPECT_TRUE(alerts.empty());
            }
        }
    }
}

/**
 * A telemetry target that answers AlertSnapshot with scripted lies,
 * mounted over the real target on a live shell's kernel so the full
 * CmdDriver path carries the damage. Everything else (SloStatus with
 * garbage enums, truncated records) rides the same switch.
 */
class EvilTarget : public CommandTarget {
  public:
    enum class Mode {
        WedgedWalk,      ///< claims rows remain, delivers none
        ShrinkingTotal,  ///< total changes between pages
        GarbageEnum,     ///< SloStatus kind field past the enum
        ShortRecord,     ///< advertises more words than it sends
    };

    explicit EvilTarget(Mode mode) : mode_(mode) {}

    CommandResult
    executeCommand(std::uint16_t code,
                   const std::vector<std::uint32_t> &data) override
    {
        CommandResult r;
        r.status = kCmdOk;
        if (code == kCmdAlertSnapshot) {
            const std::uint32_t start =
                data.empty() ? 0 : data[0];
            switch (mode_) {
              case Mode::WedgedWalk:
                // "8 alerts exist" but every page is empty.
                r.data = {8, 0};
                break;
              case Mode::ShrinkingTotal:
                r.data = goodAlertWords(
                    start == 0 ? 8 : 6,
                    static_cast<std::uint32_t>(
                        TelemetryTarget::kAlertBatch),
                    start);
                break;
              case Mode::GarbageEnum: {
                r.data = goodAlertWords(2, 2, start);
                r.data[2 + 1] = 200;  // first record's state
                break;
              }
              case Mode::ShortRecord:
                r.data = {4, 4, 1, 1};  // 4 records, 2 words
                break;
            }
            return r;
        }
        if (code == kCmdSloStatus) {
            if (data.empty()) {
                r.data = {1};
                return r;
            }
            r.data = goodSloWords();
            if (mode_ == Mode::GarbageEnum)
                r.data[2] = 200;
            else if (mode_ == Mode::ShortRecord)
                r.data.resize(5);
            return r;
        }
        r.status = kCmdUnknownCode;
        return r;
    }

  private:
    Mode mode_;
};

/** A live card whose telemetry plane lies in a chosen way. */
struct EvilRig {
    Engine engine;
    std::unique_ptr<Shell> shell;
    EvilTarget evil;
    CmdDriver driver;
    OpsClient ops;

    explicit EvilRig(EvilTarget::Mode mode)
        : shell(Shell::makeUnified(
              engine, DeviceDatabase::instance().byName("DeviceA"))),
          evil(mode), driver(engine, *shell), ops(driver)
    {
        shell->kernel().unregisterTarget(kRbbTelemetry, 0);
        shell->kernel().registerTarget(kRbbTelemetry, 0, &evil);
    }
};

TEST(OpsClientFuzz, WedgedPaginationTerminatesAsMalformed)
{
    EvilRig rig(EvilTarget::Mode::WedgedWalk);
    EXPECT_TRUE(rig.ops.readAlerts().empty());
    EXPECT_EQ(rig.ops.lastError(), OpsDecodeError::Malformed);
}

TEST(OpsClientFuzz, MidWalkTotalChangeRejectsTheSnapshot)
{
    EvilRig rig(EvilTarget::Mode::ShrinkingTotal);
    EXPECT_TRUE(rig.ops.readAlerts().empty());
    EXPECT_EQ(rig.ops.lastError(), OpsDecodeError::Malformed);
}

TEST(OpsClientFuzz, GarbageEnumOverTheWireIsMalformed)
{
    EvilRig rig(EvilTarget::Mode::GarbageEnum);
    EXPECT_TRUE(rig.ops.readAlerts().empty());
    EXPECT_EQ(rig.ops.lastError(), OpsDecodeError::Malformed);

    WireSlo ws;
    EXPECT_FALSE(rig.ops.readSlo(0, &ws));
    EXPECT_EQ(rig.ops.lastError(), OpsDecodeError::Malformed);
    // The count header is still honest in this mode.
    EXPECT_EQ(rig.ops.sloCount(), 1u);
    EXPECT_EQ(rig.ops.lastError(), OpsDecodeError::Ok);
}

TEST(OpsClientFuzz, ShortRecordsOverTheWireAreTruncated)
{
    EvilRig rig(EvilTarget::Mode::ShortRecord);
    EXPECT_TRUE(rig.ops.readAlerts().empty());
    EXPECT_EQ(rig.ops.lastError(), OpsDecodeError::Truncated);

    WireSlo ws;
    EXPECT_FALSE(rig.ops.readSlo(0, &ws));
    EXPECT_EQ(rig.ops.lastError(), OpsDecodeError::Truncated);
}

TEST(OpsClientFuzz, ErrorNamesAreStable)
{
    EXPECT_STREQ(toString(OpsDecodeError::Ok), "ok");
    EXPECT_STREQ(toString(OpsDecodeError::Transport), "transport");
    EXPECT_STREQ(toString(OpsDecodeError::Truncated), "truncated");
    EXPECT_STREQ(toString(OpsDecodeError::Malformed), "malformed");
}

} // namespace
} // namespace harmonia
