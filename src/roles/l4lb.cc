#include "roles/l4lb.h"

#include <map>
#include <set>

#include "common/logging.h"

namespace harmonia {

namespace {
/** Mixes a flow hash with a server id for rendezvous hashing. */
std::uint64_t
rendezvousScore(std::uint64_t flow_hash, unsigned server)
{
    std::uint64_t z =
        flow_hash ^ (0x9e3779b97f4a7c15ULL * (server + 1));
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    return z ^ (z >> 27);
}
} // namespace

Layer4Lb::Layer4Lb(unsigned real_servers)
    : Role("layer4_lb", RoleArch::BumpInTheWire,
           standardRequirements()),
      numServers_(real_servers), healthy_(real_servers, true)
{
    if (real_servers == 0)
        fatal("load balancer needs at least one real server");
}

RoleRequirements
Layer4Lb::standardRequirements()
{
    RoleRequirements r;
    r.name = "layer4_lb";
    r.needsNetwork = true;
    r.networkGbps = 100;
    r.networkPorts = 2;  // uplink + downlink
    r.needsHost = true;
    r.hostQueues = 32;
    r.roleLogic = {65000, 88000, 226, 0, 0};
    r.roleLoc = 7010;
    return r;
}

void
Layer4Lb::setServerHealthy(unsigned server, bool healthy)
{
    if (server >= numServers_)
        fatal("server %u out of range (%u)", server, numServers_);
    healthy_[server] = healthy;
}

unsigned
Layer4Lb::pickServer(std::uint64_t flow_hash) const
{
    unsigned best = 0;
    std::uint64_t best_score = 0;
    bool found = false;
    for (unsigned s = 0; s < numServers_; ++s) {
        if (!healthy_[s])
            continue;
        const std::uint64_t score = rendezvousScore(flow_hash, s);
        if (!found || score > best_score) {
            best = s;
            best_score = score;
            found = true;
        }
    }
    if (!found)
        fatal("no healthy real servers");
    return best;
}

bool
Layer4Lb::isPinned(std::uint64_t flow_hash) const
{
    return connTable_.count(flow_hash) != 0;
}

unsigned
Layer4Lb::pinnedServer(std::uint64_t flow_hash) const
{
    auto it = connTable_.find(flow_hash);
    if (it == connTable_.end())
        fatal("flow %llx is not pinned",
              static_cast<unsigned long long>(flow_hash));
    return it->second;
}

unsigned
Layer4Lb::processFlowPacket(std::uint64_t flow_hash, FlowPhase phase)
{
    auto it = connTable_.find(flow_hash);
    if (it != connTable_.end()) {
        tableHits_.inc();
        const unsigned server = it->second;
        if (phase == FlowPhase::Fin) {
            connTable_.erase(it);
            flowsClosed_.inc();
        }
        return server;
    }

    tableMisses_.inc();
    const unsigned server = pickServer(flow_hash);
    if (phase != FlowPhase::Fin) {
        if (connTable_.size() >= kConnTableCapacity)
            evictOldest();
        connTable_.emplace(flow_hash, server);
        evictFifo_.push_back(flow_hash);
        // FIN-closed flows leave stale keys in the FIFO; compact once
        // they dominate so the queue stays O(capacity).
        if (evictFifo_.size() > 2 * kConnTableCapacity) {
            std::deque<std::uint64_t> live;
            for (const std::uint64_t key : evictFifo_)
                if (connTable_.count(key) != 0)
                    live.push_back(key);
            evictFifo_.swap(live);
        }
        flowsOpened_.inc();
    }
    return server;
}

void
Layer4Lb::evictOldest()
{
    // Bounded table: drop the oldest still-pinned flow, in insertion
    // order, so eviction is independent of hash-bucket layout.
    while (!evictFifo_.empty()) {
        const std::uint64_t victim = evictFifo_.front();
        evictFifo_.pop_front();
        if (connTable_.erase(victim) != 0) {
            evictions_.inc();
            return;
        }
    }
    fatal("connection table full but eviction FIFO empty");
}

std::vector<std::uint32_t>
Layer4Lb::snapshotPayload() const
{
    std::vector<std::uint32_t> out;
    out.push_back(numServers_);
    std::uint32_t bits = 0;
    for (unsigned s = 0; s < numServers_; ++s) {
        if (healthy_[s])
            bits |= 1u << (s % 32);
        if (s % 32 == 31 || s + 1 == numServers_) {
            out.push_back(bits);
            bits = 0;
        }
    }

    out.push_back(static_cast<std::uint32_t>(connTable_.size()));
    // Walk the FIFO, not the hash table: pin order is the state. A
    // live key's first FIFO occurrence is its effective eviction
    // position (re-opened flows inherit their oldest slot), so emit
    // exactly that one.
    std::set<std::uint64_t> emitted;
    for (const std::uint64_t key : evictFifo_) {
        const auto it = connTable_.find(key);
        if (it == connTable_.end() || !emitted.insert(key).second)
            continue;
        out.push_back(static_cast<std::uint32_t>(key));
        out.push_back(static_cast<std::uint32_t>(key >> 32));
        out.push_back(it->second);
    }
    return out;
}

CheckpointError
Layer4Lb::restorePayload(const std::vector<std::uint32_t> &payload)
{
    std::size_t at = 0;
    const auto next = [&](std::uint32_t *w) {
        if (at >= payload.size())
            return false;
        *w = payload[at++];
        return true;
    };

    std::uint32_t servers = 0;
    if (!next(&servers) || servers != numServers_)
        return CheckpointError::BadPayload;

    std::vector<bool> healthy(numServers_, false);
    std::uint32_t bits = 0;
    for (unsigned s = 0; s < numServers_; ++s) {
        if (s % 32 == 0 && !next(&bits))
            return CheckpointError::BadPayload;
        healthy[s] = (bits >> (s % 32)) & 1;
    }

    std::uint32_t conns = 0;
    if (!next(&conns) ||
        payload.size() - at != 3 * static_cast<std::size_t>(conns))
        return CheckpointError::BadPayload;

    std::map<std::uint64_t, unsigned> table;
    std::deque<std::uint64_t> fifo;
    for (std::uint32_t i = 0; i < conns; ++i) {
        std::uint32_t lo = 0, hi = 0, server = 0;
        next(&lo);
        next(&hi);
        next(&server);
        const std::uint64_t key =
            (static_cast<std::uint64_t>(hi) << 32) | lo;
        if (server >= numServers_ || table.count(key) != 0)
            return CheckpointError::BadPayload;
        table.emplace(key, server);
        fifo.push_back(key);
    }

    healthy_ = std::move(healthy);
    connTable_.clear();
    connTable_.insert(table.begin(), table.end());
    evictFifo_ = std::move(fifo);
    return CheckpointError::Ok;
}

void
Layer4Lb::tick()
{
    if (!active())
        return;

    NetworkRbb &uplink = shell().network(0);
    NetworkRbb &downlink = shell().networkCount() > 1
                               ? shell().network(1)
                               : shell().network(0);

    while (uplink.rxAvailable() && downlink.txReady()) {
        PacketDesc pkt = uplink.rxPop();
        FlowPhase phase = FlowPhase::Data;
        if (pkt.flags & kFlagSyn)
            phase = FlowPhase::Syn;
        else if (pkt.flags & kFlagFin)
            phase = FlowPhase::Fin;
        const unsigned server = processFlowPacket(pkt.flowHash, phase);
        pkt.queue = static_cast<std::uint16_t>(server % 1024);
        forwardedPackets_.inc();
        forwardedBytes_.inc(pkt.bytes);
        downlink.txPush(pkt);
    }
}

} // namespace harmonia
