/**
 * @file
 * The failover orchestrator: one primary and one standby shell —
 * possibly from different vendors — with twin roles bound to each.
 * Each managed pair has one Replica (ha/replica.h): application
 * commands go through the coordinator's journaled call() proxy, the
 * coordinator periodically drains checkpoint blobs off the primary
 * over the wire, and when its watchdog declares the primary dead it
 * re-seeds every standby role from its replica — last checkpoint,
 * then the journal tail, acked or not, in order. That is what makes
 * failover lose no acknowledged command (DESIGN.md §14).
 */

#ifndef HARMONIA_HA_FAILOVER_H_
#define HARMONIA_HA_FAILOVER_H_

#include <memory>

#include "ha/replica.h"
#include "ha/watchdog.h"
#include "roles/role.h"

namespace harmonia {

/** Failover pacing knobs (DESIGN.md §14). */
struct FailoverConfig {
    WatchdogConfig watchdog;
    Tick checkpointInterval = 50'000'000;  ///< 50 us between drains
};

/** Orchestrates checkpointing and failover across a shell pair. */
class FailoverCoordinator {
  public:
    FailoverCoordinator(Engine &engine, Shell &primary, Shell &standby,
                        FailoverConfig config = {});

    // The replicas count into stats_ by address.
    FailoverCoordinator(const FailoverCoordinator &) = delete;
    FailoverCoordinator &operator=(const FailoverCoordinator &) = delete;

    /**
     * Register a primary/standby role pair. Both must be bound (on
     * the primary and standby shell respectively), share one kind
     * (same role name) and occupy the same slot on their shell.
     */
    void manageRole(Role &primary_role, Role &standby_role);

    /**
     * Journaled command proxy: issue @p code to the managed role in
     * @p slot on the currently-active shell, recording the call so a
     * later failover can replay it. An unmanaged slot is fatal.
     */
    CallOutcome call(std::uint8_t slot, std::uint16_t code,
                     const std::vector<std::uint32_t> &data = {});

    /**
     * Drain a checkpoint blob from every managed role on the primary
     * over the wire. All-or-nothing: no replica commits until every
     * role's drain succeeds, so the retained cut is always
     * consistent. No-op (false) after failover.
     */
    bool checkpointNow();

    /**
     * The orchestration step hosts call from their event loop: pace
     * the watchdog, pace checkpoints, and fail over when the
     * watchdog declares the primary dead. Returns true when a
     * failover completed during this poll.
     */
    bool poll();

    /**
     * Promote the standby now: re-seed shell state, reseed every
     * standby role from its replica (last blob, then journal tail),
     * and point the watchdog at the standby. Returns success.
     */
    bool failover();

    bool failedOver() const { return failedOver_; }
    Shell &activeShell() { return failedOver_ ? standby_ : primary_; }
    Watchdog &watchdog() { return *watchdog_; }

    /** Calls whose kernel ack reached the host, lifetime total. */
    std::uint64_t ackedCalls() const { return stats_.value("acked_calls"); }

    /**
     * Downtime of the last failover: from the primary's last
     * successful heartbeat to the standby answering after promotion.
     */
    Tick downtimeTicks() const { return downtimeTicks_; }
    Cycles downtimeCycles() const;

    /**
     * FNV-1a over the active roles' state blobs (in manageRole
     * order) — the end-state identity the chaos suite compares
     * across reruns and thread counts.
     */
    std::uint64_t fingerprint() const;

    StatGroup &stats() { return stats_; }

  private:
    struct Pair {
        Role *primary;
        Role *standby;
        std::uint8_t slot;
        Replica replica;
    };

    Engine &engine_;
    Shell &primary_;
    Shell &standby_;
    FailoverConfig cfg_;
    CmdDriver primaryDriver_;
    CmdDriver standbyDriver_;
    std::unique_ptr<Watchdog> watchdog_;
    std::vector<Pair> pairs_;
    Tick lastCheckpointAt_ = 0;
    bool everCheckpointed_ = false;
    bool failedOver_ = false;
    Tick downtimeTicks_ = 0;
    StatGroup stats_;
};

} // namespace harmonia

#endif // HARMONIA_HA_FAILOVER_H_
