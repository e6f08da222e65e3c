#include "cmd/control_kernel.h"

#include "common/logging.h"
#include "sim/clock.h"
#include "sim/trace.h"

namespace harmonia {

namespace {
// Command service time covers buffer queueing plus the soft core's
// 50-cycle execution: 50 ns buckets out to 6.4 us.
constexpr std::uint64_t kServiceBucketPs = 50'000;
constexpr std::size_t kServiceBuckets = 128;
} // namespace

UnifiedControlKernel::UnifiedControlKernel(std::string name,
                                           std::size_t buffer_bytes)
    : Component(std::move(name)), bufferBytes_(buffer_bytes),
      stats_(this->name()), serviceLat_(kServiceBucketPs,
                                        kServiceBuckets)
{
    if (buffer_bytes < 64)
        fatal("control kernel buffer of %zu bytes is too small",
              buffer_bytes);
    // Nios-class soft core, instruction memory and command buffer.
    resources_ = plannedResources();
}

ResourceVector
UnifiedControlKernel::plannedResources()
{
    return ResourceVector{5200, 6900, 6, 0, 0};
}

void
UnifiedControlKernel::registerTarget(std::uint8_t rbb_id,
                                     std::uint8_t instance_id,
                                     CommandTarget *target)
{
    if (target == nullptr)
        fatal("null command target for rbb=%02x inst=%02x", rbb_id,
              instance_id);
    const auto key = std::make_pair(rbb_id, instance_id);
    if (targets_.count(key))
        fatal("command target rbb=%02x inst=%02x already registered",
              rbb_id, instance_id);
    targets_[key] = target;
}

void
UnifiedControlKernel::unregisterTarget(std::uint8_t rbb_id,
                                       std::uint8_t instance_id)
{
    targets_.erase(std::make_pair(rbb_id, instance_id));
}

bool
UnifiedControlKernel::hasTarget(std::uint8_t rbb_id,
                                std::uint8_t instance_id) const
{
    return targets_.count(std::make_pair(rbb_id, instance_id)) != 0;
}

std::size_t
UnifiedControlKernel::bufferSpace() const
{
    return bufferBytes_ - buffer_.size();
}

bool
UnifiedControlKernel::submitBytes(const std::vector<std::uint8_t> &bytes)
{
    noteMutation();
    if (bytes.size() > bufferSpace()) {
        bufferOverflow_.inc();
        return false;
    }
    buffer_.insert(buffer_.end(), bytes.begin(), bytes.end());
    // One arrival stamp per submission; the command transport delivers
    // one packet per submit, so this approximates per-packet queueing
    // even when a burst of packets lands back to back.
    arrivals_.push_back(clock() != nullptr ? now() : 0);
    return true;
}

void
UnifiedControlKernel::registerTelemetry(MetricsRegistry &reg,
                                        const std::string &prefix)
{
    telemetry_.reset(reg);
    telemetry_.addGroup(prefix, &stats_);
    telemetry_.addHistogram(prefix + "/service_time_ps", &serviceLat_);
    telemetry_.addGauge(prefix + "/buffer_occupancy", [this] {
        return static_cast<double>(buffer_.size());
    });
}

bool
UnifiedControlKernel::submit(const CommandPacket &packet)
{
    return submitBytes(packet.encode());
}

std::vector<std::uint8_t>
UnifiedControlKernel::popResponseBytes()
{
    if (responses_.empty())
        fatal("control kernel '%s': no response pending",
              name().c_str());
    std::vector<std::uint8_t> bytes = std::move(responses_.front());
    responses_.pop_front();
    return bytes;
}

CommandPacket
UnifiedControlKernel::popResponse()
{
    const auto outcome = decodeCommand(popResponseBytes());
    if (!outcome.ok())
        panic("control kernel produced an undecodable response");
    return *outcome.packet;
}

CommandResult
UnifiedControlKernel::systemCommand(const CommandPacket &pkt)
{
    CommandResult res;
    switch (pkt.commandCode) {
      case kCmdFlashErase:
        // Sectors erase instantly in the model; report the sector.
        res.data = {pkt.data.empty() ? 0 : pkt.data[0], 1};
        flashErases_.inc();
        return res;
      case kCmdTimeCount:
        res.data = {
            static_cast<std::uint32_t>(cycle() >> 32),
            static_cast<std::uint32_t>(cycle()),
        };
        return res;
      case kCmdModuleStatusRead:
        res.data = {1};  // kernel alive
        return res;
      default:
        res.status = kCmdUnknownCode;
        return res;
    }
}

CommandResult
UnifiedControlKernel::execute(const CommandPacket &pkt)
{
    if (pkt.rbbId == kRbbSystem)
        return systemCommand(pkt);

    const auto key = std::make_pair(pkt.rbbId, pkt.instanceId);
    auto it = targets_.find(key);
    if (it == targets_.end()) {
        unknownTarget_.inc();
        return {kCmdUnknownTarget, {}};
    }
    return it->second->executeCommand(pkt.commandCode, pkt.data);
}

bool
UnifiedControlKernel::idle() const
{
    if (cycle() < busyUntilCycle_)
        return true;
    if (buffer_.size() < 4)
        return true;
    // A buffer whose size still equals the last Truncated decode is
    // byte-identical to that decode (growth changes the size, erases
    // reset the marker), so another attempt would change nothing.
    return buffer_.size() == lastTruncatedSize_;
}

Tick
UnifiedControlKernel::wakeTime() const
{
    // Only a busy window with decodable work behind it wakes on its
    // own; everything else waits for an external submit.
    if (cycle() < busyUntilCycle_ && buffer_.size() >= 4 &&
        buffer_.size() != lastTruncatedSize_)
        return clock()->cyclesToTicks(busyUntilCycle_);
    return kTickMax;
}

CounterHandle &
UnifiedControlKernel::decodeCounter(DecodeError error)
{
    switch (error) {
      case DecodeError::Truncated:
        return decodeTruncated_;
      case DecodeError::BadVersion:
        return decodeBadVersion_;
      case DecodeError::BadHeaderLen:
        return decodeBadHeaderLen_;
      case DecodeError::LengthMismatch:
        return decodeLengthMismatch_;
      case DecodeError::BadChecksum:
        return decodeBadChecksum_;
    }
    return decodeError_;
}

Counter &
UnifiedControlKernel::commandCounter(std::uint16_t code)
{
    Counter **cached = code < commandCounters_.size()
                           ? &commandCounters_[code]
                           : nullptr;
    if (cached != nullptr && *cached != nullptr)
        return **cached;
    Counter &c = stats_.counter(
        std::string("cmd_") + toString(static_cast<CommandCode>(code)));
    if (cached != nullptr)
        *cached = &c;
    return c;
}

void
UnifiedControlKernel::tick()
{
    // One command per kCyclesPerCommand soft-core cycles.
    if (cycle() < busyUntilCycle_)
        return;
    if (buffer_.size() < 4)
        return;

    std::size_t consumed = 0;
    const DecodeOutcome outcome = decodeCommand(buffer_, &consumed);
    if (!outcome.ok()) {
        if (*outcome.error == DecodeError::Truncated) {
            // Count the stall once per buffer state, not per tick.
            if (buffer_.size() != lastTruncatedSize_) {
                decodeCounter(*outcome.error).inc();
                lastTruncatedSize_ = buffer_.size();
            }
            return;  // wait for the rest of the packet
        }
        decodeCounter(*outcome.error).inc();
        lastTruncatedSize_ = 0;
        if (*outcome.error == DecodeError::BadChecksum) {
            // Boundary is known: drop the packet, answer with an error.
            const std::uint32_t word0 =
                (static_cast<std::uint32_t>(buffer_[0]) << 24) |
                (static_cast<std::uint32_t>(buffer_[1]) << 16) |
                (static_cast<std::uint32_t>(buffer_[2]) << 8) |
                buffer_[3];
            const std::size_t total =
                (((word0 >> 24) & 0xf) + ((word0 >> 16) & 0xff)) * 4;
            buffer_.erase(buffer_.begin(),
                          buffer_.begin() +
                              static_cast<long>(
                                  std::min(total, buffer_.size())));
            checksumErrors_.inc();
            CommandPacket err;
            err.srcId = 0;
            err.dstId = static_cast<std::uint8_t>(word0 >> 8);
            err.status = kCmdChecksumError;
            responses_.push_back(err.encode());
        } else {
            // No reliable boundary: flush and resynchronize — but
            // answer with an explicit NACK (best-effort routing from
            // the header's SrcID byte) so a well-behaved requester
            // retries immediately instead of waiting out its timeout.
            const std::uint8_t src = buffer_[2];
            buffer_.clear();
            parseErrors_.inc();
            CommandPacket err;
            err.srcId = 0;
            err.dstId = src;
            err.status = kCmdMalformed;
            responses_.push_back(err.encode());
            nacksSent_.inc();
        }
        // The dropped packet's arrival stamp goes with it.
        if (!arrivals_.empty())
            arrivals_.pop_front();
        busyUntilCycle_ = cycle() + kCyclesPerCommand;
        return;
    }

    const CommandPacket &pkt = *outcome.packet;
    buffer_.erase(buffer_.begin(),
                  buffer_.begin() + static_cast<long>(consumed));
    lastTruncatedSize_ = 0;

    // The driver propagates its trace context across the wire as a
    // tag in the Options high half; resolving it parents this span
    // (and, through the ambient scope, the target's execute span)
    // under the originating host call.
    Trace &tracer = Trace::instance();
    const TraceContext wire_ctx = tracer.taggedContext(
        static_cast<std::uint16_t>(pkt.options >> 16));
    const Tick arrived_at =
        !arrivals_.empty() ? arrivals_.front()
                           : (clock() != nullptr ? now() : 0);
    const SpanId kspan = tracer.beginSpan(
        arrived_at, name(),
        toString(static_cast<CommandCode>(pkt.commandCode)),
        "command", wire_ctx);

    CommandResult result;
    {
        ScopedTraceContext scope(
            TraceContext{kspan, wire_ctx.corr});
        result = execute(pkt);
    }
    trace(*this, "executed %s for src=%02x -> %s",
          toString(static_cast<CommandCode>(pkt.commandCode)),
          pkt.srcId,
          toString(static_cast<CommandStatus>(result.status)));
    responses_.push_back(makeResponse(pkt, result).encode());
    commandsExecuted_.inc();
    commandCounter(pkt.commandCode).inc();
    if (result.status != kCmdOk)
        commandsFailed_.inc();
    if (result.status == kCmdUnknownCode)
        unknownCode_.inc();
    busyUntilCycle_ = cycle() + kCyclesPerCommand;

    // Service time: buffer arrival through end of soft-core execution.
    const Tick done = clock()->cyclesToTicks(busyUntilCycle_);
    if (!arrivals_.empty()) {
        const Tick arrived = arrivals_.front();
        arrivals_.pop_front();
        serviceLat_.sample(done >= arrived ? done - arrived : 0);
    }
    // The span ends now, when the response is visible to the host —
    // not at `done`: the remaining soft-core busy tail models
    // throughput, and ending past the caller's observation point
    // would break the span tree's self-time telescoping.
    tracer.endSpan(kspan, now());
}

} // namespace harmonia
