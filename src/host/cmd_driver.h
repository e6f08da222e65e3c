/**
 * @file
 * The command-based host driver (§3.3.3): software issues cmd_read /
 * cmd_write with a command code and data; the driver packetizes them,
 * ships them over the DMA control queue and hands back the decoded
 * response. Control logic lives in the FPGA's unified control kernel,
 * so the same host code runs unchanged on every platform.
 *
 * The transport is assumed lossy: every call is made of attempts, and
 * an attempt that times out, decodes badly or is NACKed by the kernel
 * is retried with capped exponential backoff in simulated time. The
 * driver never fatal()s on transport failure — it reports a status.
 */

#ifndef HARMONIA_HOST_CMD_DRIVER_H_
#define HARMONIA_HOST_CMD_DRIVER_H_

#include <vector>

#include "shell/unified_shell.h"
#include "telemetry/metrics_registry.h"

namespace harmonia {

/**
 * Physical transport a controller reaches the FPGA over — what the
 * command packet's Options field records (Figure 9). Applications use
 * the PCIe control queue; the BMC typically rides the slower I2C
 * sideband, which works even before PCIe enumerates.
 */
enum class CmdTransport : std::uint32_t {
    Pcie = 0,
    I2c = 1,
};

/** How one call() ended, after all its attempts. */
enum class CallStatus {
    Ok,           ///< matching response with a kernel status
    Timeout,      ///< no response within the attempt deadline
    BadResponse,  ///< response bytes failed to decode
    Nack,         ///< kernel NACK (checksum error / malformed)
    BufferFull,   ///< kernel command buffer stayed full
};

const char *toString(CallStatus status);

/** Result of a checked call: transport verdict + response. */
struct CallOutcome {
    CallStatus status = CallStatus::Timeout;
    CommandPacket response;  ///< valid when ok()
    unsigned attempts = 0;   ///< attempts consumed (>= 1)

    bool ok() const { return status == CallStatus::Ok; }
};

/** Retry discipline: capped exponential backoff in simulated time. */
struct RetryPolicy {
    unsigned maxAttempts = 5;
    Tick initialBackoff = 2'000'000;  ///< 2 us before the first retry
    double multiplier = 2.0;
    Tick maxBackoff = 64'000'000;  ///< backoff cap (64 us)
};

/**
 * Command driver bound to one shell. call() advances the engine until
 * the kernel answers, modelling the full round trip: control-queue
 * transfer, soft-core execution, response upload — plus recovery when
 * any leg of that trip fails.
 */
class CmdDriver {
  public:
    CmdDriver(Engine &engine, Shell &shell,
              std::uint8_t src_id = kCtrlApplication,
              CmdTransport transport = CmdTransport::Pcie);

    CmdTransport transport() const { return transport_; }

    void setRetryPolicy(const RetryPolicy &policy) { policy_ = policy; }
    const RetryPolicy &retryPolicy() const { return policy_; }

    /**
     * The checked cmd_write/cmd_read interface: issue a command,
     * retry per the policy, and report how it went. Never fatal()s;
     * a transport that stays broken yields Timeout / Nack / ... with
     * the attempt count.
     */
    CallOutcome callChecked(std::uint8_t rbb_id,
                            std::uint8_t instance_id,
                            std::uint16_t code,
                            const std::vector<std::uint32_t> &data = {},
                            Tick timeout = 50'000'000);

    /**
     * Compatibility wrapper over callChecked(): returns the response
     * packet. When every attempt fails, the returned packet carries
     * the driver-synthesized kCmdNoResponse status instead of
     * aborting the process.
     */
    CommandPacket call(std::uint8_t rbb_id, std::uint8_t instance_id,
                       std::uint16_t code,
                       const std::vector<std::uint32_t> &data = {},
                       Tick timeout = 50'000'000);

    /** Initialize every module; returns the command count used. */
    std::size_t initializeAll();

    /** Collect all monitoring statistics; returns command count. */
    std::size_t collectAllStats();

    std::size_t commandCount() const { return commands_; }

    /** Round-trip latency of the most recent successful call(). */
    Tick lastLatency() const { return lastLatency_; }

    /** Distribution of every successful call()'s round-trip latency. */
    const Histogram &roundTrip() const { return roundTrip_; }

    /** Recovery counters: retries, timeouts, nacks, ... */
    StatGroup &stats() { return stats_; }

    /**
     * Publish the driver's round-trip histogram, command counter and
     * recovery counters under @p prefix (e.g. "host/cmd01").
     */
    void registerTelemetry(MetricsRegistry &reg,
                           const std::string &prefix);

  private:
    /** One transmission + wait; no retries. */
    CallStatus attemptOnce(const CommandPacket &pkt, Tick timeout,
                           CommandPacket *resp);

    Engine &engine_;
    Shell &shell_;
    std::uint8_t srcId_;
    CmdTransport transport_;
    RetryPolicy policy_;
    std::size_t commands_ = 0;
    Tick lastLatency_ = 0;
    Histogram roundTrip_;
    StatGroup stats_;
    CounterHandle deviceDeadDrops_{stats_, "device_dead_drops"};
    CounterHandle commandsDropped_{stats_, "commands_dropped"};
    CounterHandle commandsTruncated_{stats_, "commands_truncated"};
    CounterHandle commandsCorrupted_{stats_, "commands_corrupted"};
    CounterHandle bufferFull_{stats_, "buffer_full"};
    CounterHandle timeouts_{stats_, "timeouts"};
    CounterHandle responsesBlackholed_{stats_, "responses_blackholed"};
    CounterHandle responsesDropped_{stats_, "responses_dropped"};
    CounterHandle responsesCorrupted_{stats_, "responses_corrupted"};
    CounterHandle badResponses_{stats_, "bad_responses"};
    CounterHandle nacks_{stats_, "nacks"};
    CounterHandle staleResponses_{stats_, "stale_responses"};
    CounterHandle retries_{stats_, "retries"};
    CounterHandle exhausted_{stats_, "exhausted"};
    ScopedMetrics telemetry_;
};

} // namespace harmonia

#endif // HARMONIA_HOST_CMD_DRIVER_H_
