/**
 * @file
 * The lightweight streaming interface wrapper as a timed component.
 * Fully pipelined sequential translation logic: every packet crossing
 * the wrapper gains a small fixed number of clock cycles of latency
 * and nothing else — no bubbles, so native throughput is preserved
 * (the property Figure 10 measures).
 */

#ifndef HARMONIA_WRAPPER_STREAM_WRAPPER_H_
#define HARMONIA_WRAPPER_STREAM_WRAPPER_H_

#include <algorithm>
#include <deque>

#include "common/packet.h"
#include "common/stats.h"
#include "device/resource.h"
#include "rtl/pipeline.h"
#include "sim/component.h"
#include "sim/trace.h"
#include "telemetry/metrics_registry.h"

namespace harmonia {

/**
 * Bidirectional stream wrapper between a vendor IP (ingress source /
 * egress sink) and role logic. Both directions are independent
 * pipelines of kPipelineDepth stages at the wrapper's clock.
 */
class StreamWrapper : public Component {
  public:
    /** Fixed translation-pipeline depth in cycles (§3.2: "a few"). */
    static constexpr unsigned kPipelineDepth = 3;

    explicit StreamWrapper(std::string name);

    /** IP-to-role direction. */
    void ingressPush(const PacketDesc &pkt);
    bool ingressAvailable() const;
    PacketDesc ingressPop();

    /** Role-to-IP direction. */
    void egressPush(const PacketDesc &pkt);
    bool egressAvailable() const;
    PacketDesc egressPop();

    void tick() override {}

    /** The pipelines are time-stamped, not shifted: tick is a no-op. */
    bool idle() const override { return true; }

    /** A head packet maturing flips available() — an observable change
     *  fast-forward must land on even when no owning RBB relays the
     *  hint (e.g. a bare wrapper under test). */
    Tick wakeTime() const override { return nextReadyAt(); }

    /** Both directions empty (for the owning RBB's idle report). */
    bool quiescent() const { return ingress_.empty() && egress_.empty(); }

    /** Earliest time either direction's head packet matures (for the
     *  owning RBB's wake hint); kTickMax when drained. */
    Tick nextReadyAt() const
    {
        return std::min(ingress_.frontReadyAt(), egress_.frontReadyAt());
    }

    /** Added latency at the component's clock. */
    Tick addedLatency() const;

    /** Wrapper soft-logic footprint (Fig 16: well under 0.37%). */
    const ResourceVector &resources() const { return resources_; }

    /** Footprint one instance will occupy, for static planning. */
    static ResourceVector plannedResources();

    StatGroup &stats() { return stats_; }

    /** Per-packet residence time through each direction, in ps. */
    const Histogram &ingressLatency() const { return ingressLat_; }
    const Histogram &egressLatency() const { return egressLat_; }

    /** Export counters and latency histograms under @p prefix. */
    void registerTelemetry(MetricsRegistry &reg,
                           const std::string &prefix);

  private:
    /** Push-side bookkeeping for the packet currently in flight. */
    struct InFlight {
        Tick pushed = 0;
        SpanId span = 0;
    };

    DelayLine<PacketDesc> ingress_;
    DelayLine<PacketDesc> egress_;
    std::deque<InFlight> ingressFlight_;
    std::deque<InFlight> egressFlight_;
    Histogram ingressLat_;
    Histogram egressLat_;
    ResourceVector resources_;
    StatGroup stats_;
    CounterHandle faultDrops_{stats_, "fault_drops"};
    CounterHandle faultCorruptions_{stats_, "fault_corruptions"};
    CounterHandle ingressPackets_{stats_, "ingress_packets"};
    CounterHandle ingressBytes_{stats_, "ingress_bytes"};
    CounterHandle egressPackets_{stats_, "egress_packets"};
    CounterHandle egressBytes_{stats_, "egress_bytes"};
    ScopedMetrics telemetry_;
};

} // namespace harmonia

#endif // HARMONIA_WRAPPER_STREAM_WRAPPER_H_
