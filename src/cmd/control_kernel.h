/**
 * @file
 * The unified control kernel (§3.3.3): software on a lightweight soft
 * core inside the FPGA that centralizes command execution for every
 * controller on the server (applications, BMC, standalone tools).
 * It parses command packets from its buffer, executes them against
 * registered targets, and encapsulates responses routed back by SrcID.
 */

#ifndef HARMONIA_CMD_CONTROL_KERNEL_H_
#define HARMONIA_CMD_CONTROL_KERNEL_H_

#include <array>
#include <deque>
#include <map>
#include <vector>

#include "cmd/command.h"
#include "common/stats.h"
#include "device/resource.h"
#include "sim/component.h"
#include "telemetry/metrics_registry.h"

namespace harmonia {

/**
 * The soft-core command executor. Commands arrive as a byte stream
 * (walkthrough step 2: via the DMA control queue into the kernel's
 * buffer), are parsed by HdLen/PayloadLen (step 3), executed
 * sequentially (step 4), distributed to module registers (step 5) and
 * answered with response packets (steps 6-7).
 */
class UnifiedControlKernel : public Component {
  public:
    /** Soft-core execution cost per command, in kernel clock cycles. */
    static constexpr Cycles kCyclesPerCommand = 50;

    /**
     * @param buffer_bytes Command buffer capacity (configurable depth
     *                     per the paper; default 4 KiB).
     */
    explicit UnifiedControlKernel(std::string name,
                                  std::size_t buffer_bytes = 4096);

    /** Route (RBB ID, Instance ID) to a target module. */
    void registerTarget(std::uint8_t rbb_id, std::uint8_t instance_id,
                        CommandTarget *target);

    /**
     * Drop a routing entry (idempotent). Partial reconfiguration uses
     * this to release a scrubbed or unloaded slot's command target so
     * the slot can be re-tenanted.
     */
    void unregisterTarget(std::uint8_t rbb_id,
                          std::uint8_t instance_id);

    /** Whether a routing entry exists for (rbb_id, instance_id). */
    bool hasTarget(std::uint8_t rbb_id,
                   std::uint8_t instance_id) const;

    /** Registered routing entries — the fleet soak suite asserts a
     *  churned kernel holds no stale role targets. */
    std::size_t targetCount() const { return targets_.size(); }

    /** Space left in the command buffer. */
    std::size_t bufferSpace() const;

    /**
     * Append raw command bytes (possibly several packets, possibly a
     * partial tail that completes later). Returns false when the
     * buffer cannot take the bytes.
     */
    bool submitBytes(const std::vector<std::uint8_t> &bytes);

    /** Convenience: submit one packet object. */
    bool submit(const CommandPacket &packet);

    bool hasResponse() const { return !responses_.empty(); }

    /** Pop the next encoded response (already addressed by SrcID). */
    std::vector<std::uint8_t> popResponseBytes();

    /** Pop and decode the next response. */
    CommandPacket popResponse();

    void tick() override;

    /** No decodable work, or soft core busy: tick is a no-op. */
    bool idle() const override;

    /** End of the soft-core busy window when work is queued behind it. */
    Tick wakeTime() const override;

    /** Soft core + buffer footprint (Fig 16: < 0.67%). */
    const ResourceVector &resources() const { return resources_; }

    /** The same footprint, available before construction (DRC). */
    static ResourceVector plannedResources();

    StatGroup &stats() { return stats_; }

    /** Queueing + execution time of completed commands. */
    const Histogram &serviceTime() const { return serviceLat_; }

    /**
     * Publish kernel stats (per-command-code counters, service-time
     * distribution, buffer occupancy) under @p prefix.
     */
    void registerTelemetry(MetricsRegistry &reg,
                           const std::string &prefix);

  private:
    CommandResult execute(const CommandPacket &pkt);
    CommandResult systemCommand(const CommandPacket &pkt);
    CounterHandle &decodeCounter(DecodeError error);
    Counter &commandCounter(std::uint16_t code);

    std::size_t bufferBytes_;
    std::vector<std::uint8_t> buffer_;
    std::deque<std::vector<std::uint8_t>> responses_;
    std::map<std::pair<std::uint8_t, std::uint8_t>, CommandTarget *>
        targets_;
    Cycles busyUntilCycle_ = 0;
    /// Buffer size at the last Truncated decode, so a packet waiting
    /// for its tail counts once, not once per tick.
    std::size_t lastTruncatedSize_ = 0;
    ResourceVector resources_;
    StatGroup stats_;
    CounterHandle bufferOverflow_{stats_, "buffer_overflow"};
    CounterHandle flashErases_{stats_, "flash_erases"};
    CounterHandle unknownTarget_{stats_, "unknown_target"};
    CounterHandle checksumErrors_{stats_, "checksum_errors"};
    CounterHandle parseErrors_{stats_, "parse_errors"};
    CounterHandle nacksSent_{stats_, "nacks_sent"};
    CounterHandle commandsExecuted_{stats_, "commands_executed"};
    CounterHandle commandsFailed_{stats_, "commands_failed"};
    CounterHandle unknownCode_{stats_, "unknown_code"};
    // One counter per decode failure, so malformed-input telemetry
    // distinguishes line noise (checksum) from framing bugs (the rest).
    CounterHandle decodeTruncated_{stats_, "decode_truncated"};
    CounterHandle decodeBadVersion_{stats_, "decode_bad_version"};
    CounterHandle decodeBadHeaderLen_{stats_, "decode_bad_header_len"};
    CounterHandle decodeLengthMismatch_{stats_, "decode_length_mismatch"};
    CounterHandle decodeBadChecksum_{stats_, "decode_bad_checksum"};
    CounterHandle decodeError_{stats_, "decode_error"};
    /// Per-code `cmd_<Code>` counters, resolved on a code's first
    /// execution; codes past the table resolve by name every time.
    std::array<Counter *, 64> commandCounters_{};
    Histogram serviceLat_;
    std::deque<Tick> arrivals_;
    ScopedMetrics telemetry_;
};

} // namespace harmonia

#endif // HARMONIA_CMD_CONTROL_KERNEL_H_
