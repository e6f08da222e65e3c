#include "shell/rbb.h"

#include "cmd/command_codes.h"
#include "common/logging.h"
#include "sim/clock.h"
#include "sim/trace.h"

namespace harmonia {

const char *
toString(RbbKind kind)
{
    switch (kind) {
      case RbbKind::Network:
        return "Network";
      case RbbKind::Memory:
        return "Memory";
      case RbbKind::Host:
        return "Host";
    }
    return "?";
}

std::uint8_t
rbbIdFor(RbbKind kind)
{
    switch (kind) {
      case RbbKind::Network:
        return kRbbNetwork;
      case RbbKind::Memory:
        return kRbbMemory;
      case RbbKind::Host:
        return kRbbHost;
    }
    panic("unreachable RBB kind");
}

Rbb::Rbb(std::string name, RbbKind kind, std::uint8_t instance_id)
    : Component(std::move(name)), kind_(kind), instanceId_(instance_id),
      monitor_(this->name())
{
}

ResourceVector
Rbb::totalResources() const
{
    return instance().resources() + exRes_ + cmRes_;
}

DevWorkload
Rbb::devWorkload() const
{
    DevWorkload w;
    w.instanceLoc = instance().devWorkload().instanceLoc;
    w.reusableLoc = reusableLoc_;
    w.controlLoc = controlLoc_;
    w.monitorLoc = monitorLoc_;
    return w;
}

void
Rbb::registerTelemetry(MetricsRegistry &reg, const std::string &prefix)
{
    telemetry_.reset(reg);
    telemetry_.addGroup(prefix, &monitor_);
}

void
Rbb::setReusableWeights(std::uint32_t reusable, std::uint32_t ctrl,
                        std::uint32_t monitor)
{
    reusableLoc_ = reusable;
    controlLoc_ = ctrl;
    monitorLoc_ = monitor;
}

std::vector<ConfigItem>
Rbb::allConfigItems() const
{
    std::vector<ConfigItem> out = instance().configItems();
    // RBB-level items: instance selection is always role-oriented.
    out.push_back({std::string(toString(kind_)) + ".INSTANCE_SELECT",
                   ConfigScope::RoleOriented, "auto", ""});
    return out;
}

std::vector<ConfigItem>
Rbb::roleConfigItems() const
{
    std::vector<ConfigItem> out;
    for (const ConfigItem &c : allConfigItems())
        if (c.scope == ConfigScope::RoleOriented)
            out.push_back(c);
    return out;
}

std::size_t
Rbb::registerInitOpCount() const
{
    return instance().initSequence().size();
}

std::size_t
Rbb::monitoringRegCount() const
{
    // One register read per statistic the reusable monitor keeps plus
    // the instance's read-only status/counter registers.
    std::size_t n = monitor_.snapshot().size();
    for (const RegisterDesc &d : instance().regs().descriptors())
        if (d.readOnly)
            ++n;
    return n;
}

CommandResult
Rbb::statusRead(const std::vector<std::uint32_t> &data)
{
    if (data.empty())
        return {kCmdBadArgument, {}};
    const std::uint32_t bank = data[0] >> 16;
    const Addr offset = data[0] & 0xffff;
    RegisterFile &regs = bank == 0 ? ctrlRegs_ : instance().regs();
    if (!regs.contains(offset))
        return {kCmdBadArgument, {}};
    return {kCmdOk, {regs.read(offset)}};
}

CommandResult
Rbb::statusWrite(const std::vector<std::uint32_t> &data)
{
    if (data.size() < 2)
        return {kCmdBadArgument, {}};
    const std::uint32_t bank = data[0] >> 16;
    const Addr offset = data[0] & 0xffff;
    RegisterFile &regs = bank == 0 ? ctrlRegs_ : instance().regs();
    if (!regs.contains(offset))
        return {kCmdBadArgument, {}};
    regs.write(offset, data[1]);
    return {kCmdOk, {}};
}

CommandResult
Rbb::statsSnapshot(const std::vector<std::uint32_t> &data)
{
    const std::uint32_t start = data.empty() ? 0 : data[0];
    const auto snap = monitor_.snapshot();
    CommandResult res;
    res.data.push_back(static_cast<std::uint32_t>(snap.size()));
    for (std::size_t i = start; i < snap.size() && res.data.size() < 16;
         ++i)
        res.data.push_back(
            static_cast<std::uint32_t>(snap[i].second));
    return res;
}

CommandResult
Rbb::executeCommand(std::uint16_t code,
                    const std::vector<std::uint32_t> &data)
{
    // Child hop of the command's span tree: parents under the kernel
    // span through the ambient context the kernel arms around this
    // dispatch. Modeled as the two user-clock cycles ending at the
    // execution instant, clamped inside the parent's window so the
    // tree's self times telescope exactly. Unclocked RBBs (unit tests
    // poking executeCommand directly) record nothing.
    if (clock() != nullptr && Trace::instance().enabled()) {
        Trace &tracer = Trace::instance();
        const Tick two_cycles = 2 * clock()->period();
        Tick begin = now() >= two_cycles ? now() - two_cycles : 0;
        const Tick parent_begin =
            tracer.openSpanBegin(tracer.context().parent);
        if (begin < parent_begin)
            begin = parent_begin;
        const std::string what = format(
            "execute:%s", toString(static_cast<CommandCode>(code)));
        tracer.completeSpan(begin, now(), name(), what, "rbb");
    }
    switch (code) {
      case kCmdModuleStatusRead:
        return statusRead(data);
      case kCmdModuleStatusWrite:
        return statusWrite(data);
      case kCmdModuleInit: {
        const std::size_t ops = instance().applyInitSequence();
        onInit();
        return {kCmdOk, {static_cast<std::uint32_t>(ops)}};
      }
      case kCmdModuleReset:
        instance().reset();
        monitor_.resetAll();
        onReset();
        return {kCmdOk, {}};
      case kCmdTableWrite:
        return tableWrite(data);
      case kCmdTableRead:
        return tableRead(data);
      case kCmdQueueConfig:
        return queueConfig(data);
      case kCmdStatsSnapshot:
        return statsSnapshot(data);
      default:
        return {kCmdUnknownCode, {}};
    }
}

CommandResult
Rbb::tableWrite(const std::vector<std::uint32_t> &data)
{
    (void)data;
    return {kCmdUnknownCode, {}};
}

CommandResult
Rbb::tableRead(const std::vector<std::uint32_t> &data)
{
    (void)data;
    return {kCmdUnknownCode, {}};
}

CommandResult
Rbb::queueConfig(const std::vector<std::uint32_t> &data)
{
    (void)data;
    return {kCmdUnknownCode, {}};
}

} // namespace harmonia
