#include "ha/replica.h"

#include <algorithm>

#include "cmd/checkpoint.h"
#include "roles/role.h"

namespace harmonia {

namespace {

bool
acked(const CallOutcome &out)
{
    return out.ok() && out.response.status == kCmdOk;
}

} // namespace

CallOutcome
Replica::call(CmdDriver &driver, std::uint8_t slot, std::uint16_t code,
              const std::vector<std::uint32_t> &data)
{
    journal_.push_back(JournalEntry{code, data});
    const CallOutcome out =
        driver.callChecked(kRoleRbbIdBase, slot, code, data);
    stats_->counter(acked(out) ? "acked_calls" : "unacked_calls").inc();
    return out;
}

bool
Replica::drain(CmdDriver &driver, std::uint8_t slot,
               std::vector<std::uint32_t> *blob)
{
    // kCmdCheckpoint [offset] -> [total, chunk...]
    blob->clear();
    std::size_t total = 0;
    do {
        const CallOutcome out = driver.callChecked(
            kRoleRbbIdBase, slot, kCmdCheckpoint,
            {static_cast<std::uint32_t>(blob->size())});
        const std::vector<std::uint32_t> &words = out.response.data;
        // A chunk with no words while words are still owed: the
        // stream stopped making progress.
        if (!acked(out) || words.empty() ||
            (words.size() == 1 && blob->size() < words[0]))
            return fail("checkpoint_failures");
        total = words[0];
        blob->insert(blob->end(), words.begin() + 1, words.end());
    } while (blob->size() < total);
    return blob->size() == total || fail("checkpoint_failures");
}

void
Replica::commit(std::vector<std::uint32_t> blob)
{
    blob_ = std::move(blob);
    journal_.clear();
    stats_->counter("checkpoints").inc();
}

bool
Replica::reseed(CmdDriver &driver, std::uint8_t slot)
{
    // kCmdRestore [total, offset, chunk...]; the final chunk's
    // response carries [1, CheckpointError] and must be clean.
    const std::uint32_t total = static_cast<std::uint32_t>(blob_.size());
    for (std::size_t offset = 0; offset < blob_.size();) {
        const std::size_t n =
            std::min(CheckpointStreamer::kChunkWords, total - offset);
        std::vector<std::uint32_t> req = {
            total, static_cast<std::uint32_t>(offset)};
        req.insert(req.end(), blob_.begin() + offset,
                   blob_.begin() + offset + n);
        const CallOutcome out = driver.callChecked(
            kRoleRbbIdBase, slot, kCmdRestore, req);
        offset += n;
        const std::vector<std::uint32_t> &words = out.response.data;
        if (!acked(out) ||
            (offset == total &&
             (words.size() < 2 || words[0] != 1 || words[1] != 0)))
            return fail("restore_failures");
    }
    // The journal tail in issue order, acked or not: at-least-once
    // delivery closes the two-generals window (DESIGN.md §14).
    for (const JournalEntry &e : journal_) {
        if (!acked(driver.callChecked(kRoleRbbIdBase, slot, e.code,
                                      e.data)))
            return fail("replay_failures");
        stats_->counter("replayed_commands").inc();
    }
    return true;
}

void
Replica::reset()
{
    blob_.clear();
    journal_.clear();
}

bool
Replica::fail(const char *counter)
{
    stats_->counter(counter).inc();
    return false;
}

} // namespace harmonia
