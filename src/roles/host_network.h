/**
 * @file
 * Host-Network role (Table 2): bump-in-the-wire network offloading —
 * an exact-match flow cache in the Open vSwitch mould. Cached flows
 * are forwarded in hardware (to a host queue or back to the wire);
 * misses are punted to the host over DMA, which installs a rule.
 */

#ifndef HARMONIA_ROLES_HOST_NETWORK_H_
#define HARMONIA_ROLES_HOST_NETWORK_H_

#include <map>

#include "roles/role.h"

namespace harmonia {

/** Forwarding actions for cached flows. */
struct FlowAction {
    enum class Kind { ToHostQueue, ToWire, Drop };
    Kind kind = Kind::ToHostQueue;
    std::uint16_t queue = 0;  ///< for ToHostQueue
};

/** The Host-Network offload role. */
class HostNetwork : public Role {
  public:
    HostNetwork();

    static RoleRequirements standardRequirements();

    /** Install an exact-match rule (normally done on a miss upcall). */
    void installFlow(std::uint64_t flow_hash, const FlowAction &action);
    bool hasFlow(std::uint64_t flow_hash) const;
    std::size_t flowCount() const { return flows_.size(); }

    /**
     * Auto-install behaviour: when true, a miss installs a default
     * ToHostQueue rule (hash-spread) after the upcall, so sustained
     * traffic converges to the fast path.
     */
    void setAutoInstall(bool on) { autoInstall_ = on; }

    void tick() override;

    CommandResult
    executeCommand(std::uint16_t code,
                   const std::vector<std::uint32_t> &data) override;

  private:
    // Ordered map: installs are cold-path (miss upcalls), and a
    // deterministic container keeps any future table walk stable.
    std::map<std::uint64_t, FlowAction> flows_;
    bool autoInstall_ = true;
    CounterHandle upcalls_{stats(), "upcalls"};
    CounterHandle toHost_{stats(), "to_host"};
    CounterHandle offloadedBytes_{stats(), "offloaded_bytes"};
    CounterHandle txDrops_{stats(), "tx_drops"};
    CounterHandle toWire_{stats(), "to_wire"};
    CounterHandle dropped_{stats(), "dropped"};
};

} // namespace harmonia

#endif // HARMONIA_ROLES_HOST_NETWORK_H_
