#include "roles/sec_gateway.h"

#include "common/logging.h"

namespace harmonia {

SecGateway::SecGateway()
    : Role("sec_gateway", RoleArch::BumpInTheWire,
           standardRequirements())
{
}

RoleRequirements
SecGateway::standardRequirements()
{
    RoleRequirements r;
    r.name = "sec_gateway";
    r.needsNetwork = true;
    r.networkGbps = 100;
    r.networkPorts = 1;
    r.needsHost = true;
    r.hostQueues = 16;
    r.roleLogic = {38000, 52000, 96, 0, 0};
    r.roleLoc = 3170;
    return r;
}

void
SecGateway::addPolicy(const GatewayPolicy &policy)
{
    policies_.push_back(policy);
}

bool
SecGateway::allows(std::uint64_t flow_hash) const
{
    for (const GatewayPolicy &p : policies_)
        if (p.matches(flow_hash))
            return p.allow;
    return defaultAllow_;
}

void
SecGateway::tick()
{
    if (!active())
        return;

    NetworkRbb &net = shell().network();
    while (net.rxAvailable() && net.txReady()) {
        PacketDesc pkt = net.rxPop();
        if (!allows(pkt.flowHash)) {
            deniedPackets_.inc();
            deniedBytes_.inc(pkt.bytes);
            continue;
        }
        forwardedPackets_.inc();
        forwardedBytes_.inc(pkt.bytes);
        net.txPush(pkt);
    }
}

std::vector<std::uint32_t>
SecGateway::snapshotPayload() const
{
    std::vector<std::uint32_t> out;
    out.push_back(static_cast<std::uint32_t>(policies_.size()));
    for (const GatewayPolicy &p : policies_) {
        out.push_back(static_cast<std::uint32_t>(p.mask));
        out.push_back(static_cast<std::uint32_t>(p.mask >> 32));
        out.push_back(static_cast<std::uint32_t>(p.value));
        out.push_back(static_cast<std::uint32_t>(p.value >> 32));
        out.push_back(p.allow ? 1 : 0);
    }
    out.push_back(defaultAllow_ ? 1 : 0);
    return out;
}

CheckpointError
SecGateway::restorePayload(const std::vector<std::uint32_t> &payload)
{
    if (payload.empty())
        return CheckpointError::BadPayload;
    const std::size_t count = payload[0];
    if (payload.size() != 2 + 5 * count)
        return CheckpointError::BadPayload;

    std::vector<GatewayPolicy> policies;
    for (std::size_t i = 0; i < count; ++i) {
        const std::size_t at = 1 + 5 * i;
        GatewayPolicy p;
        p.mask = (static_cast<std::uint64_t>(payload[at + 1]) << 32) |
                 payload[at];
        p.value =
            (static_cast<std::uint64_t>(payload[at + 3]) << 32) |
            payload[at + 2];
        p.allow = payload[at + 4] != 0;
        policies.push_back(p);
    }

    policies_ = std::move(policies);
    defaultAllow_ = payload.back() != 0;
    return CheckpointError::Ok;
}

CommandResult
SecGateway::executeCommand(std::uint16_t code,
                           const std::vector<std::uint32_t> &data)
{
    if (code == kCmdTableWrite) {
        // data: mask_lo, mask_hi, value_lo, value_hi, allow.
        if (data.size() < 5)
            return {kCmdBadArgument, {}};
        GatewayPolicy p;
        p.mask = (static_cast<std::uint64_t>(data[1]) << 32) | data[0];
        p.value =
            (static_cast<std::uint64_t>(data[3]) << 32) | data[2];
        p.allow = data[4] != 0;
        addPolicy(p);
        return {kCmdOk,
                {static_cast<std::uint32_t>(policies_.size())}};
    }
    return Role::executeCommand(code, data);
}

} // namespace harmonia
