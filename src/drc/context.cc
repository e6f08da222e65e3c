#include <algorithm>
#include <map>

#include "cmd/command_codes.h"
#include "cmd/control_kernel.h"
#include "common/logging.h"
#include "drc/rule.h"
#include "ip/dma_ip.h"
#include "ip/mac_ip.h"
#include "ip/memory_ip.h"
#include "shell/host_rbb.h"
#include "shell/memory_rbb.h"
#include "shell/network_rbb.h"

namespace harmonia {
namespace drc {

namespace {

/** PCIe generation for a host peripheral kind. */
unsigned
pcieGenOf(PeripheralKind kind)
{
    switch (kind) {
      case PeripheralKind::PcieGen3:
        return 3;
      case PeripheralKind::PcieGen4:
        return 4;
      case PeripheralKind::PcieGen5:
        return 5;
      default:
        return 0;
    }
}

bool
supportedRate(unsigned gbps)
{
    const auto rates = supportedMacRates();
    return std::find(rates.begin(), rates.end(), gbps) != rates.end();
}

} // namespace

DrcContext::DrcContext(const DrcInput &input)
    : input_(input),
      env_(input.environment
               ? *input.environment
               : (input.device != nullptr &&
                          !input.device->byClass(PeripheralClass::Host)
                               .empty()
                      ? VendorAdapter::standardFor(*input.device)
                      : VendorAdapter::standardFor(
                            input.device != nullptr
                                ? input.device->chip().vendor()
                                : Vendor::Xilinx)))
{
    if (input_.device == nullptr)
        fatal("DRC input has no target device");
    roleLogic_ = input_.role != nullptr ? input_.role->roleLogic
                                        : input_.roleLogic;
    deriveModulesAndLinks();
    deriveCommandPlane();
    if (input_.links)
        links_ = *input_.links;
    if (input_.targets)
        targets_ = *input_.targets;
    if (input_.commands)
        commands_ = *input_.commands;
}

void
DrcContext::deriveModulesAndLinks()
{
    const FpgaDevice &dev = device();
    const ShellConfig &cfg = config();
    const Vendor chip_vendor = dev.chip().vendor();

    auto place = [&](std::unique_ptr<IpBlock> mod,
                     const std::string &leaf) {
        PlannedLink link;
        link.path = path(leaf);
        link.source = mod->dataProtocol();
        link.sink = Protocol::Uniform;
        link.viaWrapper = true;
        link.sourceMhz = mod->clockMhz();
        link.sinkMhz = cfg.userClockMhz;
        link.sourceWidthBits = mod->dataWidthBits();
        link.sinkWidthBits = kUniformDataWidthBits;
        link.viaAsyncFifo = true;
        link.syncStages = kMinSyncStages;
        links_.push_back(std::move(link));
        moduleViews_.push_back(mod.get());
        ownedModules_.push_back(std::move(mod));
    };

    for (std::size_t i = 0; i < cfg.networks.size(); ++i) {
        if (!supportedRate(cfg.networks[i].gbps))
            continue;  // PeripheralAvailabilityRule reports this
        place(makeMac(chip_vendor, cfg.networks[i].gbps,
                      format("n%zu", i)),
              format("net%zu", i));
    }

    for (std::size_t i = 0; i < cfg.memories.size(); ++i) {
        const MemoryInstanceCfg &m = cfg.memories[i];
        if (classOf(m.kind) != PeripheralClass::Memory ||
            !dev.has(m.kind) || m.channels == 0 || m.channels > 64)
            continue;  // likewise diagnosed from the raw config
        place(makeMemory(chip_vendor, m.kind, m.channels,
                         format("m%zu", i)),
              format("mem%zu", i));
    }

    if (cfg.includeHost) {
        const auto hosts = dev.byClass(PeripheralClass::Host);
        if (!hosts.empty() && cfg.hostQueues >= 1 &&
            cfg.hostQueues <= 1024) {
            hostModules_ = 1;
            place(makeDma(chip_vendor, pcieGenOf(hosts[0].kind),
                          hosts[0].lanes, cfg.hostQueues, "h0",
                          cfg.dmaStyle == DmaStyle::Bdma
                              ? DmaEngineStyle::Bulk
                              : DmaEngineStyle::ScatterGather),
                  "host0");
        }
    }

    // The control kernel's reg plane crosses from the fixed 250 MHz
    // kernel domain into the user domain (no wrapper: both sides
    // already speak the uniform reg format).
    PlannedLink uck;
    uck.path = path("uck");
    uck.source = Protocol::Uniform;
    uck.sink = Protocol::Uniform;
    uck.viaWrapper = false;
    uck.sourceMhz = 250.0;
    uck.sinkMhz = cfg.userClockMhz;
    uck.sourceWidthBits = 32;
    uck.sinkWidthBits = 32;
    uck.viaAsyncFifo = true;
    uck.syncStages = kMinSyncStages;
    links_.push_back(std::move(uck));
}

void
DrcContext::deriveCommandPlane()
{
    const ShellConfig &cfg = config();

    auto target = [&](const std::string &leaf, std::uint8_t rbb,
                      std::uint8_t inst) {
        targets_.push_back({path(leaf), rbb, inst});
    };
    auto bind = [&](const std::string &leaf, std::uint8_t rbb,
                    std::uint8_t inst, std::uint16_t code,
                    unsigned words) {
        commands_.push_back({path(leaf), rbb, inst, code, words});
    };
    // The common command set every RBB answers (§3.3.3, Figure 9).
    auto common = [&](const std::string &leaf, std::uint8_t rbb,
                      std::uint8_t inst) {
        bind(leaf, rbb, inst, kCmdModuleInit, 0);
        bind(leaf, rbb, inst, kCmdModuleReset, 0);
        bind(leaf, rbb, inst, kCmdModuleStatusRead, 1);
        bind(leaf, rbb, inst, kCmdModuleStatusWrite, 2);
        bind(leaf, rbb, inst, kCmdStatsSnapshot, 1);
    };

    for (std::size_t i = 0; i < cfg.networks.size(); ++i) {
        const auto inst = static_cast<std::uint8_t>(i);
        const std::string leaf = format("net%zu", i);
        target(leaf, kRbbNetwork, inst);
        common(leaf, kRbbNetwork, inst);
        // Bulk flow-table write: table id + start + 10 entries fills
        // the 12-word slot exactly.
        bind(leaf, kRbbNetwork, inst, kCmdTableWrite, 12);
        bind(leaf, kRbbNetwork, inst, kCmdTableRead, 2);
    }
    for (std::size_t i = 0; i < cfg.memories.size(); ++i) {
        const auto inst = static_cast<std::uint8_t>(i);
        const std::string leaf = format("mem%zu", i);
        target(leaf, kRbbMemory, inst);
        common(leaf, kRbbMemory, inst);
    }
    if (cfg.includeHost) {
        target("host0", kRbbHost, 0);
        common("host0", kRbbHost, 0);
        bind("host0", kRbbHost, 0, kCmdQueueConfig, 2);
    }

    target("health", kRbbHealth, 0);
    bind("health", kRbbHealth, 0, kCmdSensorRead, 1);
    target("telemetry", kRbbTelemetry, 0);
    bind("telemetry", kRbbTelemetry, 0, kCmdObsDelta, 2);
    target("uck", kRbbSystem, 0);
    bind("uck", kRbbSystem, 0, kCmdFlashErase, 1);
    bind("uck", kRbbSystem, 0, kCmdTimeCount, 0);
}

ResourceVector
DrcContext::plannedShellLogic() const
{
    const ShellConfig &cfg = config();
    ResourceVector soft = UnifiedControlKernel::plannedResources();
    for (std::size_t i = 0; i < cfg.networks.size(); ++i)
        soft += NetworkRbb::plannedSoftLogic();
    for (std::size_t i = 0; i < cfg.memories.size(); ++i)
        soft += MemoryRbb::plannedSoftLogic();
    if (cfg.includeHost)
        soft += HostRbb::plannedSoftLogic();
    return soft;
}

ResourceVector
DrcContext::plannedTotal() const
{
    ResourceVector total = plannedShellLogic() + roleLogic_;
    for (const IpBlock *m : moduleViews_)
        total += m->resources();
    return total;
}

std::string
DrcContext::path(const std::string &leaf) const
{
    return input_.shellName + "/" + leaf;
}

} // namespace drc
} // namespace harmonia
