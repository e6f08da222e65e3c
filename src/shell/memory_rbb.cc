#include "shell/memory_rbb.h"

#include "common/logging.h"
#include "sim/clock.h"

namespace harmonia {

namespace {
// Address interleaver + hot cache (BRAM-heavy) soft logic.
const ResourceVector kExResources{5200, 6400, 64, 0, 0};
// Reusable control + monitoring logic.
const ResourceVector kCmResources{1900, 2600, 2, 0, 0};
} // namespace

ResourceVector
MemoryRbb::plannedSoftLogic()
{
    return kExResources + kCmResources +
           MemMapWrapper::plannedResources();
}

MemoryRbb::MemoryRbb(Engine &engine, Clock *rbb_clk, Vendor chip_vendor,
                     PeripheralKind kind, unsigned channels,
                     std::uint8_t instance_id)
    : Rbb(format("mem_rbb%u", instance_id), RbbKind::Memory,
          instance_id),
      controller_(makeMemory(chip_vendor, kind, channels,
                             format("m%u", instance_id))),
      wrapper_(name() + ".wrap", *controller_),
      lines_(kCacheLines)
{
    defineCtrlRegs();

    setExResources(kExResources);
    setCmResources(kCmResources);
    setReusableWeights(6240, 750, 450);

    engine.add(this, rbb_clk);
    engine.add(&wrapper_, rbb_clk);
    engine.add(controller_.get(), rbb_clk);
}

void
MemoryRbb::defineCtrlRegs()
{
    Addr a = 0;
    auto def = [&](const char *n, bool ro = false) {
        ctrlRegs().define({n, a, ro, ""});
        a += 4;
    };
    def("INTERLEAVE_EN");
    def("HOTCACHE_EN");
    def("STRIPE_BYTES");
    def("MON_READS", true);
    def("MON_WRITES", true);
    def("MON_BYTES", true);
    def("MON_CACHE_HITS", true);
    def("MON_CACHE_MISSES", true);

    ctrlRegs().poke(ctrlRegs().addrOf("INTERLEAVE_EN"), 1);
    ctrlRegs().poke(ctrlRegs().addrOf("HOTCACHE_EN"), 1);
    ctrlRegs().poke(ctrlRegs().addrOf("STRIPE_BYTES"), kStripeBytes);

    ctrlRegs().onWrite(ctrlRegs().addrOf("INTERLEAVE_EN"),
                       [this](std::uint32_t v) {
                           interleave_ = v & 1;
                       });
    ctrlRegs().onWrite(ctrlRegs().addrOf("HOTCACHE_EN"),
                       [this](std::uint32_t v) { hotCache_ = v & 1; });

    auto bind = [&](const char *reg, const char *stat) {
        ctrlRegs().onRead(ctrlRegs().addrOf(reg),
                          [this, stat](std::uint32_t) {
                              return static_cast<std::uint32_t>(
                                  monitor().value(stat));
                          });
    };
    bind("MON_READS", "reads");
    bind("MON_WRITES", "writes");
    bind("MON_BYTES", "bytes");
    bind("MON_CACHE_HITS", "cache_hits");
    bind("MON_CACHE_MISSES", "cache_misses");
}

unsigned
MemoryRbb::channelFor(Addr addr) const
{
    const unsigned n = controller_->channels();
    if (n == 1)
        return 0;
    if (interleave_)
        return static_cast<unsigned>((addr / kStripeBytes) % n);
    // Without interleaving, channels carve out large linear regions.
    return static_cast<unsigned>((addr >> 30) % n);
}

bool
MemoryRbb::cacheLookup(Addr addr)
{
    const std::uint64_t line = addr / kCacheLineBytes;
    const std::size_t idx = line % kCacheLines;
    return lines_[idx].valid && lines_[idx].tag == line / kCacheLines;
}

void
MemoryRbb::cacheFill(Addr addr)
{
    const std::uint64_t line = addr / kCacheLineBytes;
    const std::size_t idx = line % kCacheLines;
    lines_[idx].valid = true;
    lines_[idx].tag = line / kCacheLines;
}

void
MemoryRbb::cacheInvalidate(Addr addr)
{
    const std::uint64_t line = addr / kCacheLineBytes;
    const std::size_t idx = line % kCacheLines;
    if (lines_[idx].valid && lines_[idx].tag == line / kCacheLines)
        lines_[idx].valid = false;
}

bool
MemoryRbb::read(Addr addr, std::uint32_t bytes, std::uint64_t id)
{
    noteMutation();
    reads_.inc();
    bytes_.inc(bytes);

    if (hotCache_ && bytes <= kCacheLineBytes && cacheLookup(addr)) {
        cacheHitCount_.inc();
        MemCompletion c;
        c.request = {false, addr, bytes, now(), id};
        const Tick hit_latency =
            clock() ? 4 * clock()->period() : 4000;
        c.completed = now() + hit_latency;
        cacheHits_.push(c, c.completed);
        return true;
    }
    if (hotCache_)
        cacheMissCount_.inc();

    UniformMemCommand cmd{addr, bytes, false};
    return wrapper_.post(channelFor(addr), cmd, id);
}

bool
MemoryRbb::write(Addr addr, std::uint32_t bytes, std::uint64_t id)
{
    noteMutation();
    writes_.inc();
    bytes_.inc(bytes);
    cacheInvalidate(addr);
    UniformMemCommand cmd{addr, bytes, true};
    return wrapper_.post(channelFor(addr), cmd, id);
}

MemCompletion
MemoryRbb::popCompletion()
{
    if (out_.empty())
        fatal("MemoryRbb '%s': popCompletion with none pending",
              name().c_str());
    MemCompletion c = out_.front();
    out_.pop_front();
    return c;
}

void
MemoryRbb::storeWrite(Addr addr, const std::vector<std::uint8_t> &data)
{
    noteMutation();
    controller_->storeWrite(addr, data);
}

std::vector<std::uint8_t>
MemoryRbb::storeRead(Addr addr, std::size_t len)
{
    return controller_->storeRead(addr, len);
}

void
MemoryRbb::setInterleaveEnabled(bool on)
{
    ctrlRegs().write(ctrlRegs().addrOf("INTERLEAVE_EN"), on ? 1 : 0);
}

void
MemoryRbb::setHotCacheEnabled(bool on)
{
    ctrlRegs().write(ctrlRegs().addrOf("HOTCACHE_EN"), on ? 1 : 0);
}

void
MemoryRbb::tick()
{
    while (wrapper_.hasCompletion()) {
        MemCompletion c = wrapper_.popCompletion();
        if (!c.request.write && hotCache_)
            cacheFill(c.request.addr);
        out_.push_back(c);
    }
    while (cacheHits_.ready(now()))
        out_.push_back(cacheHits_.pop(now()));
}

void
MemoryRbb::registerTelemetry(MetricsRegistry &reg,
                             const std::string &prefix)
{
    Rbb::registerTelemetry(reg, prefix);
    wrapper_.registerTelemetry(reg, prefix + "/wrapper");
    telemetryHandle().addGauge(prefix + "/completions_pending",
                               [this] {
        return static_cast<double>(out_.size());
    });
}

std::size_t
MemoryRbb::registerInitOpCount() const
{
    // Instance recipe + per-channel enablement + Ex-function regs.
    return instance().initSequence().size() +
           3 * controller_->channels() + 3;
}

void
MemoryRbb::onReset()
{
    for (CacheLine &l : lines_)
        l.valid = false;
    out_.clear();
    interleave_ = true;
    hotCache_ = true;
}

} // namespace harmonia
