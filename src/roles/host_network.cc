#include "roles/host_network.h"

#include "common/logging.h"

namespace harmonia {

HostNetwork::HostNetwork()
    : Role("host_network", RoleArch::BumpInTheWire,
           standardRequirements())
{
}

RoleRequirements
HostNetwork::standardRequirements()
{
    RoleRequirements r;
    r.name = "host_network";
    r.needsNetwork = true;
    r.networkGbps = 100;
    r.networkPorts = 2;
    r.needsMemory = true;
    r.memoryBandwidthGBps = 10.0;  // flow-state spillover
    r.memoryCapacityBytes = 1ULL << 30;
    r.needsHost = true;
    r.hostQueues = 64;
    r.roleLogic = {120000, 160000, 412, 0, 24};
    r.roleLoc = 17700;
    return r;
}

void
HostNetwork::installFlow(std::uint64_t flow_hash,
                         const FlowAction &action)
{
    flows_[flow_hash] = action;
}

bool
HostNetwork::hasFlow(std::uint64_t flow_hash) const
{
    return flows_.count(flow_hash) != 0;
}

void
HostNetwork::tick()
{
    if (!active())
        return;

    NetworkRbb &rx_port = shell().network(0);
    NetworkRbb &tx_port = shell().networkCount() > 1
                              ? shell().network(1)
                              : shell().network(0);
    HostRbb &host = shell().host();

    while (rx_port.rxAvailable()) {
        PacketDesc pkt = rx_port.rxPop();
        auto it = flows_.find(pkt.flowHash);

        if (it == flows_.end()) {
            // Slow path: punt to the host for rule installation.
            upcalls_.inc();
            host.submit(DmaDir::C2H, pkt.queue % host.numQueues(),
                        pkt.bytes, pkt.id);
            if (autoInstall_) {
                FlowAction action;
                action.kind = FlowAction::Kind::ToHostQueue;
                action.queue = static_cast<std::uint16_t>(
                    pkt.flowHash % host.numQueues());
                installFlow(pkt.flowHash, action);
            }
            continue;
        }

        const FlowAction &action = it->second;
        switch (action.kind) {
          case FlowAction::Kind::ToHostQueue:
            toHost_.inc();
            offloadedBytes_.inc(pkt.bytes);
            host.submit(DmaDir::C2H, action.queue, pkt.bytes, pkt.id);
            break;
          case FlowAction::Kind::ToWire:
            if (!tx_port.txReady()) {
                txDrops_.inc();
                break;
            }
            toWire_.inc();
            offloadedBytes_.inc(pkt.bytes);
            tx_port.txPush(pkt);
            break;
          case FlowAction::Kind::Drop:
            dropped_.inc();
            break;
        }
    }
}

CommandResult
HostNetwork::executeCommand(std::uint16_t code,
                            const std::vector<std::uint32_t> &data)
{
    if (code == kCmdTableWrite) {
        // data: hash_lo, hash_hi, kind, queue.
        if (data.size() < 4)
            return {kCmdBadArgument, {}};
        FlowAction action;
        if (data[2] > 2)
            return {kCmdBadArgument, {}};
        action.kind = static_cast<FlowAction::Kind>(data[2]);
        action.queue = static_cast<std::uint16_t>(data[3]);
        installFlow(
            (static_cast<std::uint64_t>(data[1]) << 32) | data[0],
            action);
        return {kCmdOk, {static_cast<std::uint32_t>(flows_.size())}};
    }
    return Role::executeCommand(code, data);
}

} // namespace harmonia
