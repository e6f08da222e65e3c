#include "host/dma_engine.h"

#include <algorithm>

#include "common/logging.h"

namespace harmonia {

HostDma::HostDma(HostRbb &host)
    : host_(host), bins_(host.numQueues()),
      outstanding_(host.numQueues()), strikes_(host.numQueues(), 0),
      quarantined_(host.numQueues(), false), stats_("host_dma")
{
}

bool
HostDma::submit(DmaDir dir, std::uint16_t queue, std::uint32_t bytes,
                std::uint64_t id)
{
    if (queue >= bins_.size())
        fatal("queue %u out of range (%zu)", queue, bins_.size());
    if (quarantined_[queue]) {
        rejectedQuarantined_.inc();
        return false;
    }
    if (!host_.queueActive(queue)) {
        rejectedInactive_.inc();
        return false;
    }
    if (!host_.submit(dir, queue, bytes, id)) {
        rejectedBackpressure_.inc();
        return false;
    }
    // One span per tracked transfer, submit to retirement; requeues
    // extend the same span, so its duration is the user-visible
    // completion latency, not a single attempt's.
    const SpanId span = Trace::instance().beginSpan(
        host_.now(), "host_dma",
        dir == DmaDir::H2C ? "dma:h2c" : "dma:c2h", "dma");
    const Tick deadline = host_.now() + policy_.timeout;
    outstanding_[queue].push_back(
        Pending{dir, bytes, id, deadline, 1, span});
    // The timeout scan runs from host code, invisible to the engine's
    // idle fast-forward. Post the deadline as a next-event hint so a
    // quiescent simulation still wakes on the first edge where this
    // transfer becomes overdue (deadline < now).
    if (host_.engine() != nullptr)
        host_.engine()->scheduleEvent(deadline + 1);
    return true;
}

void
HostDma::poll()
{
    while (host_.hasCompletion()) {
        DmaCompletion c = host_.popCompletion();
        if (c.request.control) {
            ++transfers_;
            bytes_ += c.request.bytes;
            control_.push_back(c);
            continue;
        }
        // Retire the matching tracked submission. A completion with
        // no match answers a transfer already requeued or declared
        // lost — delivering it too would double-complete.
        auto &open = outstanding_[c.request.queue];
        const auto it = std::find_if(
            open.begin(), open.end(),
            [&c](const Pending &p) { return p.id == c.request.id; });
        if (it == open.end()) {
            duplicateCompletions_.inc();
            continue;
        }
        Trace::instance().endSpan(it->span, host_.now());
        open.erase(it);
        ++transfers_;
        bytes_ += c.request.bytes;
        bins_[c.request.queue].push_back(c);
    }
    timeoutScan();
}

void
HostDma::timeoutScan()
{
    const Tick t = host_.now();
    for (std::uint16_t q = 0; q < outstanding_.size(); ++q) {
        auto &open = outstanding_[q];
        // Deadlines are monotonic within a queue (same timeout for
        // every submission), so only the front can be overdue.
        while (!open.empty() && open.front().deadline < t) {
            Pending p = open.front();
            open.pop_front();
            timeouts_.inc();
            if (p.attempts >= policy_.maxAttempts) {
                Trace::instance().endSpan(p.span, t);
                lostTransfers_.inc();
                if (++strikes_[q] >= policy_.quarantineStrikes) {
                    quarantine(q);
                    break;
                }
                continue;
            }
            ++p.attempts;
            p.deadline = t + policy_.timeout;
            if (host_.engine() != nullptr)
                host_.engine()->scheduleEvent(p.deadline + 1);
            if (host_.submit(p.dir, q, p.bytes, p.id))
                requeues_.inc();
            else
                requeueRejected_.inc();
            // Tracked either way: a rejected requeue burns one of the
            // transfer's attempts and comes due again next deadline.
            open.push_back(p);
        }
    }
}

void
HostDma::quarantine(std::uint16_t queue)
{
    quarantined_[queue] = true;
    host_.setQueueActive(queue, false);
    quarantines_.inc();
    // Whatever was still in flight on the poisoned queue is lost.
    lostTransfers_.inc(outstanding_[queue].size());
    for (const Pending &p : outstanding_[queue])
        Trace::instance().endSpan(p.span, host_.now());
    outstanding_[queue].clear();
}

std::size_t
HostDma::outstanding(std::uint16_t queue) const
{
    if (queue >= outstanding_.size())
        fatal("queue %u out of range (%zu)", queue,
              outstanding_.size());
    return outstanding_[queue].size();
}

bool
HostDma::queueQuarantined(std::uint16_t queue) const
{
    if (queue >= quarantined_.size())
        fatal("queue %u out of range (%zu)", queue,
              quarantined_.size());
    return quarantined_[queue];
}

void
HostDma::releaseQuarantine(std::uint16_t queue)
{
    if (queue >= quarantined_.size())
        fatal("queue %u out of range (%zu)", queue,
              quarantined_.size());
    if (!quarantined_[queue])
        return;
    quarantined_[queue] = false;
    strikes_[queue] = 0;
    host_.setQueueActive(queue, true);
    quarantineReleased_.inc();
}

bool
HostDma::hasCompletion(std::uint16_t queue) const
{
    if (queue >= bins_.size())
        fatal("queue %u out of range (%zu)", queue, bins_.size());
    return !bins_[queue].empty();
}

DmaCompletion
HostDma::popCompletion(std::uint16_t queue)
{
    if (!hasCompletion(queue))
        fatal("no completion pending on queue %u", queue);
    DmaCompletion c = bins_[queue].front();
    bins_[queue].pop_front();
    return c;
}

DmaCompletion
HostDma::popControlCompletion()
{
    if (control_.empty())
        fatal("no control completion pending");
    DmaCompletion c = control_.front();
    control_.pop_front();
    return c;
}

void
HostDma::registerTelemetry(MetricsRegistry &reg,
                           const std::string &prefix)
{
    telemetry_.reset(reg);
    telemetry_.addGroup(prefix, &stats_);
    telemetry_.addGauge(prefix + "/completed_transfers", [this] {
        return static_cast<double>(transfers_);
    });
    telemetry_.addGauge(prefix + "/completed_bytes", [this] {
        return static_cast<double>(bytes_);
    });
}

} // namespace harmonia
