/**
 * @file
 * Command codes for the command-based interface (§3.3.3, Figure 9).
 * The low codes are the paper's published examples; higher codes are
 * the extension space each RBB populates for its operational needs.
 */

#ifndef HARMONIA_CMD_COMMAND_CODES_H_
#define HARMONIA_CMD_COMMAND_CODES_H_

#include <cstdint>

namespace harmonia {

/** Well-known command codes (Figure 9). */
enum CommandCode : std::uint16_t {
    kCmdModuleStatusRead = 0x0000,
    kCmdModuleStatusWrite = 0x0001,
    kCmdModuleInit = 0x0002,
    kCmdModuleReset = 0x0003,
    kCmdTableWrite = 0x0004,
    // Extension space used by Harmonia's RBBs and tooling.
    kCmdTableRead = 0x0005,
    kCmdStatsSnapshot = 0x0006,
    kCmdQueueConfig = 0x0007,
    kCmdSensorRead = 0x0008,
    kCmdFlashErase = 0x0010,
    kCmdTimeCount = 0x0011,
    // Partial-reconfiguration management (multi-tenancy, §6).
    kCmdPrLoad = 0x0020,
    kCmdPrUnload = 0x0021,
    kCmdPrStatus = 0x0022,
    // 0x0030-0x0031 are reserved: the retired TelemetryList /
    // TelemetrySnapshot polling pair. Registry values are read
    // through the ObsSubscribe / ObsDelta stream below.
    // Causal-profiling plane: read / reset the cycle-attribution
    // profile folded from the span trace.
    kCmdProfileSnapshot = 0x0032,
    kCmdProfileReset = 0x0033,
    // Operational-intelligence plane: SLO/alert state and the flight
    // recorder, queryable the same packetized way.
    kCmdSloStatus = 0x0034,
    kCmdAlertSnapshot = 0x0035,
    kCmdFlightDump = 0x0036,
    // High-availability plane: chunked state checkpoint/restore so a
    // drained module can be re-seeded on a standby device.
    kCmdCheckpoint = 0x0037,
    kCmdRestore = 0x0038,
    // Fleet-observability federation: streaming telemetry
    // subscriptions. Subscribe negotiates a frozen name-sorted index
    // map (optionally prefix-filtered); Delta moves only the series
    // whose encoded value changed since the last drained delta, with
    // sequence numbers for gap detection and an epoch that bumps when
    // the index map changes.
    kCmdObsSubscribe = 0x0039,
    kCmdObsDelta = 0x003a,
};

/** Command execution status in response packets. */
enum CommandStatus : std::uint16_t {
    kCmdOk = 0x0000,
    kCmdUnknownCode = 0x0001,
    kCmdBadArgument = 0x0002,
    kCmdUnknownTarget = 0x0003,
    kCmdChecksumError = 0x0004,
    kCmdInternalError = 0x0005,
    kCmdMalformed = 0x0006,  ///< undecodable request NACKed by kernel
    // Statuses >= 0x0100 are driver-synthesized: the transport (not
    // the kernel) failed and every recovery attempt was exhausted.
    kCmdNoResponse = 0x0100,
};

/** RBB identifiers used in the DstID/RBB ID routing fields. */
enum RbbId : std::uint8_t {
    kRbbNetwork = 0x01,
    kRbbMemory = 0x02,
    kRbbHost = 0x03,
    kRbbTelemetry = 0x7c,  ///< unified telemetry plane
    kRbbHealth = 0x7d,  ///< board health monitor
    kRbbPrCtrl = 0x7e,  ///< partial-reconfiguration controller
    kRbbSystem = 0x7f,  ///< kernel-local services (flash, time)
};

/** Well-known software controller ids (SrcID). */
enum ControllerId : std::uint8_t {
    kCtrlApplication = 0x01,
    kCtrlBmc = 0x02,
    kCtrlStandaloneTool = 0x03,
};

const char *toString(CommandCode code);
const char *toString(CommandStatus status);

} // namespace harmonia

#endif // HARMONIA_CMD_COMMAND_CODES_H_
