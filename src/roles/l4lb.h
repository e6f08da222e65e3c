/**
 * @file
 * Layer-4 LB role (Table 2): a stateful SmartNIC load balancer in the
 * Tiara/Maglev mould. New flows pick a real server by rendezvous
 * hashing; established flows stay pinned through a bounded connection
 * table so server-set changes never break existing connections.
 */

#ifndef HARMONIA_ROLES_L4LB_H_
#define HARMONIA_ROLES_L4LB_H_

#include <deque>
#include <unordered_map>
#include <vector>

#include "roles/role.h"
#include "workload/flow_gen.h"  // harmonia-lint: allow(LAYER-002) FlowPhase comes from the generators

namespace harmonia {

/** The Layer-4 load balancer role. */
class Layer4Lb : public Role {
  public:
    /** @param real_servers Size of the backend pool. */
    explicit Layer4Lb(unsigned real_servers = 64);

    static RoleRequirements standardRequirements();

    /** Connection-table capacity before eviction. */
    static constexpr std::size_t kConnTableCapacity = 1 << 16;

    unsigned realServers() const { return numServers_; }

    /** Add/remove a backend (consistent behaviour for pinned flows). */
    void setServerHealthy(unsigned server, bool healthy);

    /** Rendezvous-hash choice among healthy servers. */
    unsigned pickServer(std::uint64_t flow_hash) const;

    /** Current pin for a flow, if any (exposed for tests). */
    bool isPinned(std::uint64_t flow_hash) const;
    unsigned pinnedServer(std::uint64_t flow_hash) const;

    std::size_t connectionCount() const { return connTable_.size(); }

    /**
     * Process one flow packet (SYN inserts, FIN removes). Returns the
     * chosen server. Exposed so tests and the datapath share logic.
     */
    unsigned processFlowPacket(std::uint64_t flow_hash,
                               FlowPhase phase);

    void tick() override;

  protected:
    /**
     * State words: [numServers, healthy bits packed 32/word, conn
     * count, per-conn key lo/hi + server in pin order]. Pin order is
     * part of the state — eviction on the restored twin must pick the
     * same victims the primary would have.
     */
    std::vector<std::uint32_t> snapshotPayload() const override;
    CheckpointError
    restorePayload(const std::vector<std::uint32_t> &payload) override;

  private:
    /** Evict the oldest still-pinned flow (FIFO order). */
    void evictOldest();

    unsigned numServers_;
    std::vector<bool> healthy_;
    // Lookup-only on the datapath; eviction traverses evictFifo_, so
    // bucket order is never observable.
    // harmonia-lint: allow(DET-003) iteration goes via evictFifo_
    std::unordered_map<std::uint64_t, unsigned> connTable_;
    /** Pin insertion order; stale entries (closed flows) are lazily
     *  skipped at eviction time and compacted when the queue grows
     *  past twice the table capacity. */
    std::deque<std::uint64_t> evictFifo_;
    CounterHandle tableHits_{stats(), "table_hits"};
    CounterHandle flowsClosed_{stats(), "flows_closed"};
    CounterHandle tableMisses_{stats(), "table_misses"};
    CounterHandle flowsOpened_{stats(), "flows_opened"};
    CounterHandle evictions_{stats(), "evictions"};
    CounterHandle forwardedPackets_{stats(), "forwarded_packets"};
    CounterHandle forwardedBytes_{stats(), "forwarded_bytes"};
};

} // namespace harmonia

#endif // HARMONIA_ROLES_L4LB_H_
