/**
 * @file
 * Memory-mapped interface wrapper: presents the uniform mem map
 * interface (address + size) over a vendor memory controller, issuing
 * the vendor's native burst encoding (AXI arlen/arsize vs Avalon
 * burstcount) underneath and adding only its fixed pipeline latency.
 */

#ifndef HARMONIA_WRAPPER_MEMMAP_WRAPPER_H_
#define HARMONIA_WRAPPER_MEMMAP_WRAPPER_H_

#include <deque>

#include "common/stats.h"
#include "ip/memory_ip.h"
#include "protocol/avalon_mm.h"
#include "protocol/axi_mm.h"
#include "sim/component.h"
#include "telemetry/metrics_registry.h"
#include "wrapper/uniform.h"

namespace harmonia {

/**
 * Wraps one MemoryIp. Requests enter in uniform form; completions
 * surface through the wrapper with kPipelineDepth extra cycles each
 * way. The wrapper also exposes the exact vendor burst commands it
 * would drive, so tests can assert translation correctness.
 */
class MemMapWrapper : public Component {
  public:
    static constexpr unsigned kPipelineDepth = 3;

    MemMapWrapper(std::string name, MemoryIp &memory);

    MemoryIp &memory() { return memory_; }

    /**
     * Issue a uniform command on @p channel.
     * @return false when the controller queue back-pressures.
     */
    bool post(unsigned channel, const UniformMemCommand &cmd,
              std::uint64_t id = 0);

    bool hasCompletion() const;

    /** When the oldest returning completion becomes visible
     *  (hasCompletion); kTickMax when none is in the return path. */
    Tick nextReadyAt() const
    {
        return out_.empty() ? kTickMax : out_.front().completed;
    }
    MemCompletion popCompletion();

    void tick() override;

    /** Nothing to drain from the controller: tick is a no-op. The
     *  controller's own wake hint covers the completion schedule. */
    bool idle() const override { return !memory_.hasCompletion(); }

    Tick addedLatency() const;

    /**
     * The native burst commands the wrapper drives for a uniform
     * command on this vendor's controller (pure translation).
     */
    std::vector<AxiMmCommand>
    toAxiBursts(const UniformMemCommand &cmd) const;
    std::vector<AvalonMmCommand>
    toAvalonBursts(const UniformMemCommand &cmd) const;

    const ResourceVector &resources() const { return resources_; }

    /** Footprint one instance will occupy, for static planning. */
    static ResourceVector plannedResources();
    StatGroup &stats() { return stats_; }

    /** Issue-to-completion latency through controller + wrapper. */
    const Histogram &accessLatency() const { return accessLat_; }

    /** Export counters and the access-latency histogram. */
    void registerTelemetry(MetricsRegistry &reg,
                           const std::string &prefix);

  private:
    MemoryIp &memory_;
    std::deque<MemCompletion> out_;
    Histogram accessLat_;
    ResourceVector resources_;
    StatGroup stats_;
    CounterHandle reads_{stats_, "reads"};
    CounterHandle writes_{stats_, "writes"};
    CounterHandle bytes_{stats_, "bytes"};
    ScopedMetrics telemetry_;
};

} // namespace harmonia

#endif // HARMONIA_WRAPPER_MEMMAP_WRAPPER_H_
