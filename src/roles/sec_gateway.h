/**
 * @file
 * Sec-Gateway role (Table 2): bump-in-the-wire DCI access control at
 * the cloud network boundary. Packets are matched against an ordered
 * policy table; denied traffic is dropped on-path, allowed traffic is
 * forwarded at line rate.
 */

#ifndef HARMONIA_ROLES_SEC_GATEWAY_H_
#define HARMONIA_ROLES_SEC_GATEWAY_H_

#include <vector>

#include "roles/role.h"

namespace harmonia {

/** One access-control rule over the flow-hash space. */
struct GatewayPolicy {
    std::uint64_t mask = ~0ULL;  ///< bits of the flow hash to match
    std::uint64_t value = 0;     ///< expected masked value
    bool allow = true;

    bool matches(std::uint64_t flow_hash) const
    {
        return (flow_hash & mask) == value;
    }
};

/** The Sec-Gateway role. */
class SecGateway : public Role {
  public:
    SecGateway();

    /** The role's tailoring requirements (one port + host control). */
    static RoleRequirements standardRequirements();

    /** Append a policy (first match wins). */
    void addPolicy(const GatewayPolicy &policy);
    std::size_t policyCount() const { return policies_.size(); }
    void setDefaultAllow(bool allow) { defaultAllow_ = allow; }

    /** Decision for a flow hash (exposed for tests). */
    bool allows(std::uint64_t flow_hash) const;

    void tick() override;

  protected:
    CommandResult
    executeCommand(std::uint16_t code,
                   const std::vector<std::uint32_t> &data) override;

    /** State words: [policy count, per-policy mask lo/hi + value
     *  lo/hi + allow (in match order), default allow]. */
    std::vector<std::uint32_t> snapshotPayload() const override;
    CheckpointError
    restorePayload(const std::vector<std::uint32_t> &payload) override;

  private:
    std::vector<GatewayPolicy> policies_;
    bool defaultAllow_ = true;
    CounterHandle deniedPackets_{stats(), "denied_packets"};
    CounterHandle deniedBytes_{stats(), "denied_bytes"};
    CounterHandle forwardedPackets_{stats(), "forwarded_packets"};
    CounterHandle forwardedBytes_{stats(), "forwarded_bytes"};
};

} // namespace harmonia

#endif // HARMONIA_ROLES_SEC_GATEWAY_H_
