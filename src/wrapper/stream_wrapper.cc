#include "wrapper/stream_wrapper.h"

#include "common/logging.h"
#include "fault/fault_plan.h"
#include "sim/clock.h"

namespace harmonia {

namespace {
// Latency buckets: 1 ns per bucket, 64 buckets. Wrapper transit is a
// few cycles, so this resolves any plausible wrapper clock; slower
// paths land in the overflow bucket and still count toward max().
constexpr std::uint64_t kLatBucketPs = 1000;
constexpr std::size_t kLatBuckets = 64;
} // namespace

StreamWrapper::StreamWrapper(std::string name)
    : Component(std::move(name)), ingressLat_(kLatBucketPs, kLatBuckets),
      egressLat_(kLatBucketPs, kLatBuckets), stats_(this->name())
{
    // Translation pipeline + sideband FIFO soft logic.
    resources_ = plannedResources();
}

ResourceVector
StreamWrapper::plannedResources()
{
    return ResourceVector{1750, 2400, 4, 0, 0};
}

void
StreamWrapper::registerTelemetry(MetricsRegistry &reg,
                                 const std::string &prefix)
{
    telemetry_.reset(reg);
    telemetry_.addGroup(prefix, &stats_);
    telemetry_.addHistogram(prefix + "/ingress_latency_ps",
                            &ingressLat_);
    telemetry_.addHistogram(prefix + "/egress_latency_ps", &egressLat_);
}

Tick
StreamWrapper::addedLatency() const
{
    if (clock() == nullptr)
        panic("StreamWrapper '%s' used before engine registration",
              name().c_str());
    return kPipelineDepth * clock()->period();
}

void
StreamWrapper::ingressPush(const PacketDesc &pkt)
{
    // Fault hooks: a dropped packet must not enter the delay line or
    // the flight-record deque (they are matched 1:1 on pop).
    if (injectFault(FaultKind::StreamBeatDrop, name(), now())) {
        faultDrops_.inc();
        return;
    }
    PacketDesc p = pkt;
    if (injectFault(FaultKind::StreamBitFlip, name(), now())) {
        p.fcsError = true;
        faultCorruptions_.inc();
    }
    ingress_.push(p, now() + addedLatency());
    ingressFlight_.push_back(
        {now(), Trace::instance().beginSpan(now(), name(), "ingress",
                                            "wrapper")});
    ingressPackets_.inc();
    ingressBytes_.inc(p.bytes);
}

bool
StreamWrapper::ingressAvailable() const
{
    return ingress_.ready(now());
}

PacketDesc
StreamWrapper::ingressPop()
{
    PacketDesc pkt = ingress_.pop(now());
    // The DelayLine preserves FIFO order, so the oldest in-flight
    // record is the packet that just emerged.
    const InFlight f = ingressFlight_.front();
    ingressFlight_.pop_front();
    ingressLat_.sample(now() - f.pushed);
    Trace::instance().endSpan(f.span, now());
    return pkt;
}

void
StreamWrapper::egressPush(const PacketDesc &pkt)
{
    if (injectFault(FaultKind::StreamBeatDrop, name(), now())) {
        faultDrops_.inc();
        return;
    }
    PacketDesc p = pkt;
    if (injectFault(FaultKind::StreamBitFlip, name(), now())) {
        p.fcsError = true;
        faultCorruptions_.inc();
    }
    egress_.push(p, now() + addedLatency());
    egressFlight_.push_back(
        {now(), Trace::instance().beginSpan(now(), name(), "egress",
                                            "wrapper")});
    egressPackets_.inc();
    egressBytes_.inc(p.bytes);
}

bool
StreamWrapper::egressAvailable() const
{
    return egress_.ready(now());
}

PacketDesc
StreamWrapper::egressPop()
{
    PacketDesc pkt = egress_.pop(now());
    const InFlight f = egressFlight_.front();
    egressFlight_.pop_front();
    egressLat_.sample(now() - f.pushed);
    Trace::instance().endSpan(f.span, now());
    return pkt;
}

} // namespace harmonia
