#include "cmd/command_codes.h"

namespace harmonia {

const char *
toString(CommandCode code)
{
    switch (code) {
      case kCmdModuleStatusRead:
        return "ModuleStatusRead";
      case kCmdModuleStatusWrite:
        return "ModuleStatusWrite";
      case kCmdModuleInit:
        return "ModuleInit";
      case kCmdModuleReset:
        return "ModuleReset";
      case kCmdTableWrite:
        return "TableWrite";
      case kCmdTableRead:
        return "TableRead";
      case kCmdStatsSnapshot:
        return "StatsSnapshot";
      case kCmdQueueConfig:
        return "QueueConfig";
      case kCmdSensorRead:
        return "SensorRead";
      case kCmdPrLoad:
        return "PrLoad";
      case kCmdPrUnload:
        return "PrUnload";
      case kCmdPrStatus:
        return "PrStatus";
      case kCmdFlashErase:
        return "FlashErase";
      case kCmdTimeCount:
        return "TimeCount";
      case kCmdProfileSnapshot:
        return "ProfileSnapshot";
      case kCmdProfileReset:
        return "ProfileReset";
      case kCmdSloStatus:
        return "SloStatus";
      case kCmdAlertSnapshot:
        return "AlertSnapshot";
      case kCmdFlightDump:
        return "FlightDump";
      case kCmdCheckpoint:
        return "Checkpoint";
      case kCmdRestore:
        return "Restore";
      case kCmdObsSubscribe:
        return "ObsSubscribe";
      case kCmdObsDelta:
        return "ObsDelta";
    }
    return "?";
}

const char *
toString(CommandStatus status)
{
    switch (status) {
      case kCmdOk:
        return "ok";
      case kCmdUnknownCode:
        return "unknown command code";
      case kCmdBadArgument:
        return "bad argument";
      case kCmdUnknownTarget:
        return "unknown target";
      case kCmdChecksumError:
        return "checksum error";
      case kCmdInternalError:
        return "internal error";
      case kCmdMalformed:
        return "malformed packet";
      case kCmdNoResponse:
        return "no response (transport gave up)";
    }
    return "?";
}

} // namespace harmonia
