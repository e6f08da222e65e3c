#include "wrapper/memmap_wrapper.h"

#include "common/logging.h"
#include "sim/clock.h"
#include "sim/trace.h"

namespace harmonia {

namespace {
// Memory accesses span controller queueing + DRAM + wrapper transit:
// 20 ns buckets out to ~2.5 us, overflow beyond.
constexpr std::uint64_t kLatBucketPs = 20'000;
constexpr std::size_t kLatBuckets = 128;
} // namespace

MemMapWrapper::MemMapWrapper(std::string name, MemoryIp &memory)
    : Component(std::move(name)), memory_(memory),
      accessLat_(kLatBucketPs, kLatBuckets), stats_(this->name())
{
    // Command/response reorder + burst alignment soft logic.
    resources_ = plannedResources();
}

ResourceVector
MemMapWrapper::plannedResources()
{
    return ResourceVector{2100, 2900, 4, 0, 0};
}

void
MemMapWrapper::registerTelemetry(MetricsRegistry &reg,
                                 const std::string &prefix)
{
    telemetry_.reset(reg);
    telemetry_.addGroup(prefix, &stats_);
    telemetry_.addHistogram(prefix + "/access_latency_ps", &accessLat_);
}

Tick
MemMapWrapper::addedLatency() const
{
    if (clock() == nullptr)
        panic("MemMapWrapper '%s' used before engine registration",
              name().c_str());
    return kPipelineDepth * clock()->period();
}

bool
MemMapWrapper::post(unsigned channel, const UniformMemCommand &cmd,
                    std::uint64_t id)
{
    MemRequest req;
    req.write = cmd.write;
    req.addr = cmd.addr;
    req.bytes = cmd.size;
    req.issued = now();
    req.id = id;
    if (!memory_.post(channel, req))
        return false;
    (cmd.write ? writes_ : reads_).inc();
    bytes_.inc(cmd.size);
    return true;
}

void
MemMapWrapper::tick()
{
    // Completions leave the controller, then traverse the wrapper's
    // return pipeline: one ingress + one egress crossing in total.
    while (memory_.hasCompletion()) {
        MemCompletion c = memory_.popCompletion();
        c.completed += 2 * addedLatency();
        accessLat_.sample(c.latency());
        Trace::instance().completeSpan(c.request.issued, c.completed,
                                       name(),
                                       c.request.write ? "mem_write"
                                                       : "mem_read",
                                       "wrapper");
        out_.push_back(c);
    }
}

bool
MemMapWrapper::hasCompletion() const
{
    return !out_.empty() && out_.front().completed <= now();
}

MemCompletion
MemMapWrapper::popCompletion()
{
    if (!hasCompletion())
        fatal("MemMapWrapper '%s': popCompletion with none ready",
              name().c_str());
    MemCompletion c = out_.front();
    out_.pop_front();
    return c;
}

std::vector<AxiMmCommand>
MemMapWrapper::toAxiBursts(const UniformMemCommand &cmd) const
{
    return axiBurstsFor(cmd.addr, cmd.size,
                        memory_.dataWidthBits() / 8, cmd.write);
}

std::vector<AvalonMmCommand>
MemMapWrapper::toAvalonBursts(const UniformMemCommand &cmd) const
{
    return avalonBurstsFor(cmd.addr, cmd.size,
                           memory_.dataWidthBits() / 8, cmd.write);
}

} // namespace harmonia
