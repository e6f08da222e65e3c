/**
 * @file
 * Host-side DMA access: a thin multiplexer over the Host RBB that
 * routes completions back to per-queue owners, as the user-space DMA
 * library does over the real driver.
 *
 * The library layer also owns end-to-end recovery: every data-plane
 * submission is tracked until its completion arrives, and one that
 * times out is requeued. A queue that keeps losing transfers is
 * quarantined (deactivated) so a wedged consumer cannot absorb the
 * host's DMA bandwidth forever.
 */

#ifndef HARMONIA_HOST_DMA_ENGINE_H_
#define HARMONIA_HOST_DMA_ENGINE_H_

#include <deque>
#include <vector>

#include "shell/host_rbb.h"
#include "sim/trace.h"
#include "telemetry/metrics_registry.h"

namespace harmonia {

/** Knobs for the DMA timeout/requeue/quarantine machinery. */
struct DmaRecoveryPolicy {
    Tick timeout = 50'000'000;       ///< per-transfer deadline (50 us)
    unsigned maxAttempts = 3;        ///< submissions before declaring loss
    unsigned quarantineStrikes = 4;  ///< lost transfers before quarantine
};

/**
 * Per-queue completion routing over one Host RBB. Data-plane users
 * submit on their own queue and pop their own completions; control-
 * channel completions are kept separate for the command driver.
 */
class HostDma {
  public:
    explicit HostDma(HostRbb &host);

    HostRbb &host() { return host_; }

    void setRecoveryPolicy(const DmaRecoveryPolicy &policy)
    {
        policy_ = policy;
    }
    const DmaRecoveryPolicy &recoveryPolicy() const { return policy_; }

    /**
     * Submit a transfer; false when the queue is quarantined or
     * inactive, or the staging FIFO pushed back (each cause has its
     * own counter). Accepted transfers are tracked until completion.
     */
    bool submit(DmaDir dir, std::uint16_t queue, std::uint32_t bytes,
                std::uint64_t id = 0);

    /**
     * Drain the RBB's completion queue into per-queue bins, then run
     * timeout detection: overdue transfers are requeued, repeatedly
     * lost ones are declared lost, and a queue that accumulates
     * losses is quarantined.
     */
    void poll();

    bool hasCompletion(std::uint16_t queue) const;
    DmaCompletion popCompletion(std::uint16_t queue);

    bool hasControlCompletion() const { return !control_.empty(); }
    DmaCompletion popControlCompletion();

    /** Transfers still awaiting their completion on @p queue. */
    std::size_t outstanding(std::uint16_t queue) const;

    bool queueQuarantined(std::uint16_t queue) const;

    /** Lift a quarantine: reactivate the queue and forgive strikes. */
    void releaseQuarantine(std::uint16_t queue);

    /** Aggregate counters for throughput accounting. */
    std::uint64_t completedTransfers() const { return transfers_; }
    std::uint64_t completedBytes() const { return bytes_; }

    /** Recovery counters: timeouts, requeues, losses, quarantines. */
    StatGroup &stats() { return stats_; }

    /** Publish completion gauges and recovery counters. */
    void registerTelemetry(MetricsRegistry &reg,
                           const std::string &prefix);

  private:
    /** One accepted submission awaiting its completion. */
    struct Pending {
        DmaDir dir;
        std::uint32_t bytes;
        std::uint64_t id;
        Tick deadline;
        unsigned attempts;
        SpanId span = 0;  ///< open trace span (submit -> completion)
    };

    void timeoutScan();
    void quarantine(std::uint16_t queue);

    HostRbb &host_;
    DmaRecoveryPolicy policy_;
    std::vector<std::deque<DmaCompletion>> bins_;
    std::vector<std::deque<Pending>> outstanding_;
    std::vector<unsigned> strikes_;
    std::vector<bool> quarantined_;
    std::deque<DmaCompletion> control_;
    std::uint64_t transfers_ = 0;
    std::uint64_t bytes_ = 0;
    StatGroup stats_;
    CounterHandle rejectedQuarantined_{stats_, "rejected_quarantined"};
    CounterHandle rejectedInactive_{stats_, "rejected_inactive"};
    CounterHandle rejectedBackpressure_{stats_, "rejected_backpressure"};
    CounterHandle duplicateCompletions_{stats_, "duplicate_completions"};
    CounterHandle timeouts_{stats_, "timeouts"};
    CounterHandle lostTransfers_{stats_, "lost_transfers"};
    CounterHandle requeues_{stats_, "requeues"};
    CounterHandle requeueRejected_{stats_, "requeue_rejected"};
    CounterHandle quarantines_{stats_, "quarantines"};
    CounterHandle quarantineReleased_{stats_, "quarantine_released"};
    ScopedMetrics telemetry_;
};

} // namespace harmonia

#endif // HARMONIA_HOST_DMA_ENGINE_H_
