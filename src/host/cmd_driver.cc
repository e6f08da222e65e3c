#include "host/cmd_driver.h"

#include <algorithm>

#include "common/logging.h"
#include "fault/fault_plan.h"
#include "obs/flight_recorder.h"
#include "sim/trace.h"

namespace harmonia {

namespace {
// Round trips span control-queue DMA both ways plus soft-core
// execution: 100 ns buckets out to 25.6 us (I2C overflows; its max
// still registers through the overflow bucket).
constexpr std::uint64_t kRoundTripBucketPs = 100'000;
constexpr std::size_t kRoundTripBuckets = 256;
} // namespace

const char *
toString(CallStatus status)
{
    switch (status) {
      case CallStatus::Ok:
        return "ok";
      case CallStatus::Timeout:
        return "timeout";
      case CallStatus::BadResponse:
        return "bad_response";
      case CallStatus::Nack:
        return "nack";
      case CallStatus::BufferFull:
        return "buffer_full";
    }
    return "?";
}

CmdDriver::CmdDriver(Engine &engine, Shell &shell, std::uint8_t src_id,
                     CmdTransport transport)
    : engine_(engine), shell_(shell), srcId_(src_id),
      transport_(transport),
      roundTrip_(kRoundTripBucketPs, kRoundTripBuckets),
      stats_(format("cmd%02x", src_id))
{
}

void
CmdDriver::registerTelemetry(MetricsRegistry &reg,
                             const std::string &prefix)
{
    telemetry_.reset(reg);
    telemetry_.addGroup(prefix, &stats_);
    telemetry_.addHistogram(prefix + "/roundtrip_ps", &roundTrip_);
    telemetry_.addGauge(prefix + "/commands", [this] {
        return static_cast<double>(commands_);
    });
}

CallStatus
CmdDriver::attemptOnce(const CommandPacket &pkt, Tick timeout,
                       CommandPacket *resp)
{
    // Fault rules target the driver by its stat group's name.
    const std::string &target = stats_.name();
    std::vector<std::uint8_t> bytes = pkt.encode();

    // Transfer: PCIe rides the isolated DMA control queue; the I2C
    // sideband bypasses PCIe entirely at ~400 kbit/s, so the BMC can
    // manage a card whose host link is down. Every attempt pays for
    // its own transfer.
    if (transport_ == CmdTransport::I2c) {
        ++commands_;
    } else if (shell_.hasHost()) {
        shell_.host().submitControl(
            static_cast<std::uint32_t>(bytes.size()), ++commands_);
    } else {
        ++commands_;
    }

    // Card-level failure domains key on the shell's name, not the
    // driver's: every driver talking to a dead card sees it dead. A
    // dead device swallows the command outright; a wedged kernel
    // still receives and may execute it, but its ack never escapes —
    // the classic two-generals window the failover path's
    // at-least-once replay is written for.
    std::uint64_t param = 0;
    const bool device_dead = injectFault(FaultKind::DeviceDeath,
                                         shell_.name(), engine_.now());
    if (device_dead)
        deviceDeadDrops_.inc();

    // Fault hooks on the downstream leg. A dropped command never
    // reaches the kernel; a truncated or corrupted one arrives and
    // exercises the kernel's decode error handling.
    if (device_dead) {
        // Fall through to the deadline wait so death looks like any
        // other timeout to the retry machinery.
    } else if (injectFault(FaultKind::CmdDrop, target, engine_.now())) {
        commandsDropped_.inc();
    } else {
        if (injectFault(FaultKind::CmdTruncate, target, engine_.now(),
                        &param)) {
            const std::size_t keep =
                param != 0 ? std::min<std::size_t>(param, bytes.size())
                           : bytes.size() / 2;
            bytes.resize(std::max<std::size_t>(keep, 1));
            commandsTruncated_.inc();
        }
        if (injectFault(FaultKind::CmdCorrupt, target, engine_.now(),
                        &param)) {
            bytes[param % bytes.size()] ^= 0x10;
            commandsCorrupted_.inc();
        }
        if (!shell_.kernel().submitBytes(bytes)) {
            bufferFull_.inc();
            return CallStatus::BufferFull;
        }
    }

    const Tick deadline = engine_.now() + timeout;
    while (true) {
        if (!shell_.kernel().hasResponse()) {
            if (engine_.now() >= deadline ||
                !engine_.runUntilDone(
                    [this] { return shell_.kernel().hasResponse(); },
                    deadline - engine_.now())) {
                timeouts_.inc();
                return CallStatus::Timeout;
            }
        }

        std::vector<std::uint8_t> rbytes =
            shell_.kernel().popResponseBytes();
        // A dead card or wedged kernel blackholes the upstream leg:
        // whatever the kernel produced never reaches the host.
        if (injectFault(FaultKind::DeviceDeath, shell_.name(),
                        engine_.now()) ||
            injectFault(FaultKind::KernelWedge, shell_.name(),
                        engine_.now())) {
            responsesBlackholed_.inc();
            continue;
        }
        // Fault hooks on the upstream leg.
        if (injectFault(FaultKind::RespDrop, target, engine_.now())) {
            responsesDropped_.inc();
            continue;  // keep waiting; likely times out and retries
        }
        if (injectFault(FaultKind::RespCorrupt, target, engine_.now(),
                        &param) &&
            !rbytes.empty()) {
            rbytes[param % rbytes.size()] ^= 0x10;
            responsesCorrupted_.inc();
        }

        const DecodeOutcome outcome = decodeCommand(rbytes);
        if (!outcome.ok()) {
            badResponses_.inc();
            return CallStatus::BadResponse;
        }
        const CommandPacket &r = *outcome.packet;
        // Kernel NACKs carry no echo of the request header, so they
        // must be recognized before the match check below.
        if (r.status == kCmdChecksumError ||
            r.status == kCmdMalformed) {
            nacks_.inc();
            *resp = r;
            return CallStatus::Nack;
        }
        if (r.commandCode != pkt.commandCode ||
            r.rbbId != pkt.rbbId) {
            // Answer to some earlier, timed-out attempt: discard.
            staleResponses_.inc();
            continue;
        }
        *resp = r;
        return CallStatus::Ok;
    }
}

CallOutcome
CmdDriver::callChecked(std::uint8_t rbb_id, std::uint8_t instance_id,
                       std::uint16_t code,
                       const std::vector<std::uint32_t> &data,
                       Tick timeout)
{
    CommandPacket pkt;
    pkt.srcId = srcId_;
    pkt.dstId = rbb_id;
    pkt.rbbId = rbb_id;
    pkt.instanceId = instance_id;
    pkt.commandCode = code;
    pkt.options = static_cast<std::uint32_t>(transport_);
    pkt.data = data;

    const Tick started = engine_.now();
    Tick transfer_latency = 0;
    if (transport_ == CmdTransport::I2c) {
        transfer_latency = static_cast<Tick>(
            pkt.encodedSize() * 8 / 400e3 * kTicksPerSecond);
    } else if (shell_.hasHost()) {
        transfer_latency = shell_.host().dma().baseLatency();
    }

    // Root of this call's span tree. The correlation context rides the
    // wire as a 16-bit tag in the Options high half so the kernel can
    // parent its decode span under this call. When tracing is off the
    // root id is 0 and the packet bytes are bit-identical to before.
    // An armed ambient correlation (a fleet sweep, a failover replay)
    // makes this call part of a larger request tree; otherwise the
    // call roots a tree of its own.
    Trace &tracer = Trace::instance();
    const std::uint64_t corr =
        !tracer.enabled()             ? 0
        : tracer.context().corr != 0 ? tracer.context().corr
                                      : tracer.newCorrelation();
    const std::string label =
        tracer.enabled()
            ? format("call:%s", toString(static_cast<CommandCode>(code)))
            : std::string();
    const SpanId root =
        tracer.beginSpan(started, stats_.name(), label, "command",
                         TraceContext{tracer.context().parent, corr});
    TraceContext ctx;
    std::uint16_t tag = 0;
    if (root != 0) {
        ctx = TraceContext{root, corr};
        tag = tracer.armTag(ctx);
        pkt.options |= static_cast<std::uint32_t>(tag) << 16;
    }

    CallOutcome out;
    Tick backoff = policy_.initialBackoff;
    for (unsigned attempt = 1; attempt <= policy_.maxAttempts;
         ++attempt) {
        out.attempts = attempt;
        out.status = attemptOnce(pkt, timeout, &out.response);
        if (out.ok()) {
            // Response upload shares the control queue's latency.
            lastLatency_ =
                (engine_.now() - started) + 2 * transfer_latency;
            roundTrip_.sample(lastLatency_);
            if (root != 0) {
                const Tick root_end = started + lastLatency_;
                // The transfer legs are added to the latency after the
                // kernel window ends, so modelling them as one tail
                // span keeps the root's children disjoint and the
                // per-hop self times summing to lastLatency_.
                if (transfer_latency != 0)
                    tracer.completeSpan(root_end - 2 * transfer_latency,
                                        root_end, stats_.name(),
                                        "transfer", "wire", ctx);
                tracer.endSpan(root, root_end);
                tracer.disarmTag(tag);
            }
            if (FlightRecorder *fdr = FlightRecorder::active())
                fdr->noteCommand(engine_.now(), stats_.name(), code,
                                 toString(out.status), true,
                                 out.attempts, corr);
            return out;
        }
        if (attempt == policy_.maxAttempts)
            break;
        retries_.inc();
        engine_.runFor(backoff);
        backoff = std::min(
            policy_.maxBackoff,
            static_cast<Tick>(static_cast<double>(backoff) *
                              policy_.multiplier));
    }
    exhausted_.inc();
    if (root != 0) {
        tracer.endSpan(root, engine_.now());
        tracer.disarmTag(tag);
    }
    if (FlightRecorder *fdr = FlightRecorder::active())
        fdr->noteCommand(engine_.now(), stats_.name(), code,
                         toString(out.status), false, out.attempts,
                         corr);
    return out;
}

CommandPacket
CmdDriver::call(std::uint8_t rbb_id, std::uint8_t instance_id,
                std::uint16_t code,
                const std::vector<std::uint32_t> &data, Tick timeout)
{
    const CallOutcome out =
        callChecked(rbb_id, instance_id, code, data, timeout);
    if (out.ok())
        return out.response;
    // Synthesize the failure as a response so legacy callers keep
    // working: transport failures degrade to a status, never abort.
    CommandPacket failed;
    failed.srcId = 0;
    failed.dstId = srcId_;
    failed.rbbId = rbb_id;
    failed.instanceId = instance_id;
    failed.commandCode = code;
    failed.status = kCmdNoResponse;
    return failed;
}

std::size_t
CmdDriver::initializeAll()
{
    const std::size_t before = commands_;
    for (Rbb *rbb : shell_.rbbs()) {
        call(rbb->rbbId(), rbb->instanceId(), kCmdModuleInit);
        switch (rbb->kind()) {
          case RbbKind::Network:
          case RbbKind::Memory:
            break;  // ModuleInit covers the Ex-function defaults
          case RbbKind::Host:
            // One ranged QueueConfig activates the tenant queues.
            call(rbb->rbbId(), rbb->instanceId(), kCmdQueueConfig,
                 {0, std::min<std::uint32_t>(
                         64, static_cast<HostRbb &>(*rbb).numQueues()),
                  1});
            break;
        }
    }
    return commands_ - before;
}

std::size_t
CmdDriver::collectAllStats()
{
    const std::size_t before = commands_;
    for (Rbb *rbb : shell_.rbbs())
        call(rbb->rbbId(), rbb->instanceId(), kCmdStatsSnapshot);
    return commands_ - before;
}

} // namespace harmonia
