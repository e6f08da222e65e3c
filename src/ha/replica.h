/**
 * @file
 * Tenant replication (DESIGN.md §14): the host's copy of one role —
 * its last drained checkpoint blob plus the journal of every command
 * issued since — and the only code that moves role state between
 * cards. HA failover keeps one per managed pair, the fleet one per
 * tenant. Each job names the driver and slot it talks to, so an owner
 * can point one replica at whichever card holds the role now.
 * Outcomes count into the owner's StatGroup: acked_calls,
 * unacked_calls, checkpoints, checkpoint_failures, restore_failures,
 * replay_failures, replayed_commands.
 */

#ifndef HARMONIA_HA_REPLICA_H_
#define HARMONIA_HA_REPLICA_H_

#include <cstdint>
#include <vector>

#include "host/cmd_driver.h"

namespace harmonia {

/** Last checkpoint + journal tail of one role. */
class Replica {
  public:
    explicit Replica(StatGroup &stats) : stats_(&stats) {}

    /** Journal the command, then issue it to the role at @p slot.
     *  The entry stays whatever the outcome: an unacked call may
     *  still have executed. */
    CallOutcome call(CmdDriver &driver, std::uint8_t slot,
                     std::uint16_t code,
                     const std::vector<std::uint32_t> &data);

    /** Fetch the role's blob chunk by chunk into @p blob without
     *  adopting it; each request carries the words received so far,
     *  so a lost response resumes rather than restarts. */
    bool drain(CmdDriver &driver, std::uint8_t slot,
               std::vector<std::uint32_t> *blob);

    /** Adopt a drained blob. Everything journaled so far is inside
     *  it (or was rejected before the cut), so the journal empties. */
    void commit(std::vector<std::uint32_t> blob);

    /** Re-create the role at @p slot: push the blob if there is one
     *  (the final chunk must return a clean restore verdict), then
     *  replay every journal entry in issue order, acked or not. */
    bool reseed(CmdDriver &driver, std::uint8_t slot);

    /** Drop blob and journal: the role restarts from scratch. */
    void reset();

    bool hasBlob() const { return !blob_.empty(); }
    std::size_t journalDepth() const { return journal_.size(); }

  private:
    struct JournalEntry {
        std::uint16_t code = 0;
        std::vector<std::uint32_t> data;
    };

    /** Count a failure under @p counter; always false. */
    bool fail(const char *counter);

    StatGroup *stats_;
    std::vector<std::uint32_t> blob_;
    std::vector<JournalEntry> journal_;
};

} // namespace harmonia

#endif // HARMONIA_HA_REPLICA_H_
