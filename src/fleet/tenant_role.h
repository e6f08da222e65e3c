/**
 * @file
 * The fleet's stock tenant role: a small look-aside key/value table
 * whose writes arrive over the command plane (kCmdTableWrite) and
 * whose whole state rides the checkpoint envelope. It exists so the
 * scheduler drills can churn thousands of placements with a modest
 * per-slot bitstream, while still having real acked state to lose —
 * the zero-acknowledged-command-loss checks read the table back after
 * every migration and failover re-place.
 */

#ifndef HARMONIA_FLEET_TENANT_ROLE_H_
#define HARMONIA_FLEET_TENANT_ROLE_H_

#include <map>

#include "roles/role.h"

namespace harmonia {

/** The key/value tenant workload. */
class TenantRole : public Role {
  public:
    /**
     * @param kind Role-kind name; twins of one kind share it, so a
     *        blob snapshotted on one card restores on any card
     *        carrying the same kind (Role::checkpointKind()).
     * @param reqs The kind's requirements (logic budget, peripherals).
     */
    TenantRole(const std::string &kind, RoleRequirements reqs);

    /** A host-only kind with @p lut logic; the drills' bulk tenant. */
    static RoleRequirements lightRequirements(const std::string &kind,
                                              std::uint64_t lut = 2500);

    std::size_t entryCount() const { return table_.size(); }

    /** Value stored under @p key, or 0 when absent. */
    std::uint32_t valueOf(std::uint32_t key) const;

    /** Table writes executed (including overwrites), lifetime. */
    std::uint64_t writesExecuted() const { return writes_; }

    void tick() override;
    bool idle() const override { return true; }

  protected:
    /** kCmdTableWrite [key, value] upserts; kCmdTableRead [key]. */
    CommandResult
    executeCommand(std::uint16_t code,
                   const std::vector<std::uint32_t> &data) override;

    std::vector<std::uint32_t> snapshotPayload() const override;
    CheckpointError
    restorePayload(const std::vector<std::uint32_t> &payload) override;

  private:
    std::map<std::uint32_t, std::uint32_t> table_;
    std::uint64_t writes_ = 0;
    CounterHandle tableWrites_{stats(), "table_writes"};
};

} // namespace harmonia

#endif // HARMONIA_FLEET_TENANT_ROLE_H_
