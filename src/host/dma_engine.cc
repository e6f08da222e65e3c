#include "host/dma_engine.h"

#include <algorithm>

#include "common/logging.h"

namespace harmonia {

HostDma::HostDma(HostRbb &host) : host_(host), stats_("host_dma")
{
}

const HostDma::Lane *
HostDma::lane(std::uint16_t queue) const
{
    if (queue >= host_.numQueues())
        fatal("queue %u out of range (%u)", queue, host_.numQueues());
    const auto it = lanes_.find(queue);
    return it == lanes_.end() ? nullptr : &it->second;
}

bool
HostDma::submit(DmaDir dir, std::uint16_t queue, std::uint32_t bytes,
                std::uint64_t id)
{
    if (const Lane *l = lane(queue); l != nullptr && l->quarantined) {
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
    lanes_[queue].open.push_back(
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
        const auto l = lanes_.find(c.request.queue);
        if (l == lanes_.end()) {
            duplicateCompletions_.inc();
            continue;
        }
        auto &open = l->second.open;
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
        l->second.done.push_back(c);
    }
    timeoutScan();
}

void
HostDma::timeoutScan()
{
    const Tick t = host_.now();
    for (auto &[q, lane] : lanes_) {
        auto &open = lane.open;
        // Deadlines are monotonic within a queue (same timeout for
        // every submission), so only the front can be overdue.
        while (!open.empty() && open.front().deadline < t) {
            Pending p = open.front();
            open.pop_front();
            timeouts_.inc();
            if (p.attempts >= policy_.maxAttempts) {
                Trace::instance().endSpan(p.span, t);
                lostTransfers_.inc();
                if (++lane.strikes >= policy_.quarantineStrikes) {
                    quarantine(q, lane);
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
HostDma::quarantine(std::uint16_t queue, Lane &lane)
{
    lane.quarantined = true;
    host_.setQueueActive(queue, false);
    quarantines_.inc();
    // Whatever was still in flight on the poisoned queue is lost.
    lostTransfers_.inc(lane.open.size());
    for (const Pending &p : lane.open)
        Trace::instance().endSpan(p.span, host_.now());
    lane.open.clear();
}

std::size_t
HostDma::outstanding(std::uint16_t queue) const
{
    const Lane *l = lane(queue);
    return l == nullptr ? 0 : l->open.size();
}

bool
HostDma::queueQuarantined(std::uint16_t queue) const
{
    const Lane *l = lane(queue);
    return l != nullptr && l->quarantined;
}

void
HostDma::releaseQuarantine(std::uint16_t queue)
{
    if (!queueQuarantined(queue))
        return;
    Lane &l = lanes_.at(queue);
    l.quarantined = false;
    l.strikes = 0;
    host_.setQueueActive(queue, true);
    quarantineReleased_.inc();
}

bool
HostDma::hasCompletion(std::uint16_t queue) const
{
    const Lane *l = lane(queue);
    return l != nullptr && !l->done.empty();
}

DmaCompletion
HostDma::popCompletion(std::uint16_t queue)
{
    if (!hasCompletion(queue))
        fatal("no completion pending on queue %u", queue);
    auto &done = lanes_.at(queue).done;
    DmaCompletion c = done.front();
    done.pop_front();
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
