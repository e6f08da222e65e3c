/**
 * @file
 * The fault-injection plane: a deterministic, seedable schedule of
 * failures a cloud card actually sees — corrupted beats, flapping
 * links, stuck DMA queues, mangled command packets, thermal
 * excursions, failed partial-bitstream loads. Hook points across the
 * wrapper/cmd/host/shell layers query the armed plan and inject the
 * faults it schedules; the recovery machinery (driver retries,
 * degraded modes, quarantine) is what the chaos suite then proves out.
 *
 * Determinism contract: a plan is driven by its seed and its schedule
 * alone. Hook sites query in simulated-time order (the engine is
 * single-threaded), every rate draw comes from a per-rule counter-based
 * generator, and `fingerprint()` hashes the injected-event log — so
 * identical seed + schedule + workload ⇒ identical faults and an
 * identical fingerprint across runs.
 */

#ifndef HARMONIA_FAULT_FAULT_PLAN_H_
#define HARMONIA_FAULT_FAULT_PLAN_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/fnv.h"
#include "common/stats.h"
#include "common/types.h"
#include "telemetry/metrics_registry.h"

namespace harmonia {

/** Every fault class the plane can inject. */
enum class FaultKind : std::uint8_t {
    // sim/rtl/wrapper layer: stream + CDC links.
    StreamBitFlip = 0,  ///< corrupt a packet on a stream link (bad FCS)
    StreamBeatDrop,     ///< lose a packet at a stream wrapper port
    CdcBeatDrop,        ///< lose a beat crossing an async-FIFO CDC
    // Command plane: the control queue.
    CmdCorrupt,   ///< flip a bit in an encoded command packet
    CmdTruncate,  ///< cut the tail off a command packet
    CmdDrop,      ///< lose a command packet outright
    RespCorrupt,  ///< flip a bit in a response packet
    RespDrop,     ///< lose a response packet
    // Host plane: DMA.
    DmaStall,           ///< wedge the DMA data path (level-triggered)
    DmaCompletionLoss,  ///< drop a finished transfer's completion
    // Shell plane.
    ThermalExcursion,  ///< add param milli-degC to the die temperature
    PrLoadFail,        ///< a partial-bitstream load comes back corrupt
    LinkFlap,          ///< network link down (level-triggered)
    // Card-level failure domains (HA plane).
    DeviceDeath,    ///< card gone: commands lost, responses too
    KernelWedge,    ///< control kernel wedged: acks never escape
    PrSlotCorrupt,  ///< an Active PR slot loses its configuration
    kCount,
};

const char *toString(FaultKind kind);

/**
 * The host-plane kinds: queried only from host-thread code, never from
 * a component tick(). Their one hook site is CmdDriver::attemptOnce —
 * CmdCorrupt, CmdTruncate and CmdDrop on the downstream leg, RespCorrupt
 * and RespDrop on the upstream leg, DeviceDeath and KernelWedge on both
 * (keyed on the shell's name). Every other kind is queried from a
 * tick(): stream wrappers, the CDC, MAC, DMA IP, health monitor and PR
 * controller. The engine keeps idle fast-forward on while only
 * host-plane rules are live (FaultPlan::tickRuleLive), so a hook site
 * that queries one of these kinds from a tick() must move it out of
 * this set.
 */
constexpr bool
isHostPlane(FaultKind kind)
{
    switch (kind) {
      case FaultKind::CmdCorrupt:
      case FaultKind::CmdTruncate:
      case FaultKind::CmdDrop:
      case FaultKind::RespCorrupt:
      case FaultKind::RespDrop:
      case FaultKind::DeviceDeath:
      case FaultKind::KernelWedge:
        return true;
      default:
        return false;
    }
}

/**
 * A fault schedule. Rules are rate windows (inject with probability
 * `rate` per hook-site query inside [from, until)) or one-shots (fire
 * at the first matching query at or after `at`). An optional target
 * filter restricts a rule to hook sites whose name contains the
 * filter substring. Arm a plan to make the hook points live; at most
 * one plan is armed per process, and an unarmed plane costs one null
 * check per hook site.
 */
class FaultPlan {
  public:
    /** Injected-event log bound; counters keep counting past it. */
    static constexpr std::size_t kMaxLogEntries = 4096;

    explicit FaultPlan(std::uint64_t seed = 1);
    ~FaultPlan();

    FaultPlan(const FaultPlan &) = delete;
    FaultPlan &operator=(const FaultPlan &) = delete;

    std::uint64_t seed() const { return seed_; }

    /**
     * Schedule @p kind over [@p from, @p until) ticks: each matching
     * hook-site query injects with probability @p rate (>= 1.0 means
     * every query — how level faults like LinkFlap model "down").
     * @p param rides along to the hook site (e.g. milli-degC for
     * ThermalExcursion).
     */
    void addWindow(FaultKind kind, Tick from, Tick until, double rate,
                   std::string target_filter = "",
                   std::uint64_t param = 0);

    /** Schedule one injection at the first matching query >= @p at. */
    void addOneShot(FaultKind kind, Tick at,
                    std::string target_filter = "",
                    std::uint64_t param = 0);

    /**
     * Hook-site query: should @p kind fire at @p target now? On true
     * the event is logged/counted and @p param (when non-null) gets
     * the matching rule's parameter.
     */
    bool shouldInject(FaultKind kind, const std::string &target,
                      Tick now, std::uint64_t *param = nullptr);

    /**
     * Can a rule of a tick-queried (not isHostPlane) kind still fire at
     * or after @p now: a window with @p now < until, or an unfired
     * one-shot? While false, no tick() query can match, and a
     * non-matching query neither draws nor records, so skipping idle
     * ticks leaves the injected stream unchanged.
     */
    bool tickRuleLive(Tick now) const;

    /** One injected fault. */
    struct Event {
        FaultKind kind = FaultKind::kCount;
        Tick at = 0;
        std::string target;
    };

    /** The (bounded) injected-event log, in injection order. */
    const std::vector<Event> &log() const { return log_; }

    std::uint64_t injected(FaultKind kind) const;
    std::uint64_t injectedTotal() const { return total_; }

    /**
     * Order-sensitive hash of every injected event (beyond-the-log
     * events included). Equal seeds + schedules + workloads produce
     * equal fingerprints; the chaos suite asserts exactly that.
     */
    std::uint64_t fingerprint() const { return fingerprint_.value(); }

    /** Per-kind injection counters ("injected_<kind>"). */
    StatGroup &stats() { return stats_; }

    /** Publish the injection counters under @p prefix. */
    void registerTelemetry(MetricsRegistry &reg,
                           const std::string &prefix);

    /** Make this the process-armed plan (replaces any previous). */
    void arm();

    /** Disarm if this plan is the armed one. */
    void disarm();

    /** The armed plan, or nullptr. Inline: every fast-forward edge and
     *  every fault hook asks. */
    static FaultPlan *active() { return armed_; }

  private:
    inline static FaultPlan *armed_ = nullptr;

    struct Rule {
        FaultKind kind = FaultKind::kCount;
        Tick from = 0;
        Tick until = 0;
        double rate = 0.0;
        std::string filter;
        std::uint64_t param = 0;
        bool oneShot = false;
        bool fired = false;
        std::uint64_t rng = 0;  ///< per-rule generator state
    };

    void record(FaultKind kind, const std::string &target, Tick now);

    std::uint64_t seed_;
    std::uint64_t seedSequence_;  ///< stream allocator for rule RNGs
    std::vector<Rule> rules_;
    std::vector<Event> log_;
    std::uint64_t counts_[static_cast<std::size_t>(FaultKind::kCount)] =
        {};
    std::uint64_t total_ = 0;
    Fnv1a64 fingerprint_;
    StatGroup stats_;
    ScopedMetrics telemetry_;
};

/**
 * The hook-point helper every instrumented layer calls: false (and
 * nearly free) when no plan is armed.
 */
inline bool
injectFault(FaultKind kind, const std::string &target, Tick now,
            std::uint64_t *param = nullptr)
{
    FaultPlan *plan = FaultPlan::active();
    return plan != nullptr &&
           plan->shouldInject(kind, target, now, param);
}

} // namespace harmonia

#endif // HARMONIA_FAULT_FAULT_PLAN_H_
