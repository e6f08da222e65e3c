/**
 * @file
 * Memory RBB (§3.3.1): a vendor DDR/HBM controller instance behind the
 * uniform mem map interface, plus reusable Ex-functions — address
 * interleaving across bank groups/channels and a hot cache holding
 * consecutively accessed data on chip — with access monitoring.
 */

#ifndef HARMONIA_SHELL_MEMORY_RBB_H_
#define HARMONIA_SHELL_MEMORY_RBB_H_

#include <algorithm>
#include <deque>
#include <memory>

#include "ip/memory_ip.h"
#include "rtl/pipeline.h"
#include "shell/rbb.h"
#include "sim/engine.h"
#include "wrapper/memmap_wrapper.h"

namespace harmonia {

/**
 * The Memory RBB. 512-bit mem map data interface, 32-bit reg control
 * interface; channel count follows the device (2-ish for DDR, 32 for
 * HBM). Roles pick the DDR or HBM instance by bandwidth demand.
 */
class MemoryRbb : public Rbb {
  public:
    /** Hot-cache geometry: direct-mapped, 64B lines. */
    static constexpr std::size_t kCacheLines = 4096;
    static constexpr std::uint32_t kCacheLineBytes = 64;

    /** Interleave stripe across channels. */
    static constexpr std::uint32_t kStripeBytes = 256;

    /** Ex-function + control/monitor + wrapper soft logic one
     *  instance adds, available before construction (DRC). */
    static ResourceVector plannedSoftLogic();

    MemoryRbb(Engine &engine, Clock *rbb_clk, Vendor chip_vendor,
              PeripheralKind kind, unsigned channels,
              std::uint8_t instance_id = 0);

    MemoryIp &controller() { return *controller_; }
    MemMapWrapper &wrapper() { return wrapper_; }
    IpBlock &instance() override { return *controller_; }
    using Rbb::instance;

    /** Issue a timed read; false on controller back-pressure. */
    bool read(Addr addr, std::uint32_t bytes, std::uint64_t id = 0);

    /** Issue a timed write; false on controller back-pressure. */
    bool write(Addr addr, std::uint32_t bytes, std::uint64_t id = 0);

    bool hasCompletion() const { return !out_.empty(); }
    MemCompletion popCompletion();

    /** Functional store (byte-addressed, independent of timing). */
    void storeWrite(Addr addr, const std::vector<std::uint8_t> &data);
    std::vector<std::uint8_t> storeRead(Addr addr, std::size_t len);

    // --- Ex-function controls. ---
    void setInterleaveEnabled(bool on);
    bool interleaveEnabled() const { return interleave_; }
    void setHotCacheEnabled(bool on);
    bool hotCacheEnabled() const { return hotCache_; }

    /** Channel selection under the current interleave policy. */
    unsigned channelFor(Addr addr) const;

    void tick() override;

    /** No wrapper completion to collect and no cache hit matured. */
    bool idle() const override
    {
        return !wrapper_.hasCompletion() && !cacheHits_.ready(now());
    }

    /** Next hot-cache hit or wrapper return-path maturation. */
    Tick wakeTime() const override
    {
        return std::min(cacheHits_.frontReadyAt(), wrapper_.nextReadyAt());
    }

    void registerTelemetry(MetricsRegistry &reg,
                           const std::string &prefix) override;

    std::size_t registerInitOpCount() const override;
    std::size_t commandInitCount() const override { return 2; }

    ResourceVector wrapperResources() const override
    {
        return wrapper_.resources();
    }

  protected:
    void onReset() override;

  private:
    struct CacheLine {
        bool valid = false;
        std::uint64_t tag = 0;
    };

    void defineCtrlRegs();
    bool cacheLookup(Addr addr);
    void cacheFill(Addr addr);
    void cacheInvalidate(Addr addr);

    std::unique_ptr<MemoryIp> controller_;
    MemMapWrapper wrapper_;
    std::deque<MemCompletion> out_;
    DelayLine<MemCompletion> cacheHits_;
    std::vector<CacheLine> lines_;
    bool interleave_ = true;
    bool hotCache_ = true;
    CounterHandle reads_{monitor(), "reads"};
    CounterHandle bytes_{monitor(), "bytes"};
    CounterHandle cacheHitCount_{monitor(), "cache_hits"};
    CounterHandle cacheMissCount_{monitor(), "cache_misses"};
    CounterHandle writes_{monitor(), "writes"};
};

} // namespace harmonia

#endif // HARMONIA_SHELL_MEMORY_RBB_H_
