#include "shell/host_rbb.h"

#include "common/logging.h"

namespace harmonia {

namespace {
// Multi-queue isolation state + scheduler soft logic.
const ResourceVector kExResources{6800, 8200, 52, 0, 0};
// Reusable control + monitoring logic.
const ResourceVector kCmResources{2400, 3300, 4, 0, 0};
} // namespace

ResourceVector
HostRbb::plannedSoftLogic()
{
    return kExResources + kCmResources +
           StreamWrapper::plannedResources();
}

HostRbb::HostRbb(Engine &engine, Clock *rbb_clk, Vendor chip_vendor,
                 unsigned pcie_gen, unsigned lanes, unsigned num_queues,
                 std::uint8_t instance_id, DmaEngineStyle style)
    : Rbb(format("host_rbb%u", instance_id), RbbKind::Host,
          instance_id),
      dma_(makeDma(chip_vendor, pcie_gen, lanes, num_queues,
                   format("h%u", instance_id), style)),
      wrapper_(name() + ".wrap"), numQueues_(num_queues),
      staging_(num_queues, 16), arbiter_(num_queues)
{
    defineCtrlRegs();

    setExResources(kExResources);
    setCmResources(kCmResources);
    setReusableWeights(12240, 1500, 920);

    engine.add(this, rbb_clk);
    engine.add(&wrapper_, rbb_clk);
    engine.add(dma_.get(), rbb_clk);
}

void
HostRbb::defineCtrlRegs()
{
    Addr a = 0;
    auto def = [&](const char *n, bool ro = false) {
        ctrlRegs().define({n, a, ro, ""});
        a += 4;
    };
    def("QUEUE_SEL");
    def("QUEUE_RING_LO");
    def("QUEUE_RING_HI");
    def("QUEUE_CTRL");
    def("MON_ACTIVE_QUEUES", true);
    def("MON_SUBMITTED", true);
    def("MON_REJECTED", true);
    def("MON_COMPLETED", true);
    def("MON_BYTES", true);
    def("MON_QUEUE_DEPTH", true);

    ctrlRegs().onWrite(
        ctrlRegs().addrOf("QUEUE_CTRL"), [this](std::uint32_t v) {
            const std::uint32_t q =
                ctrlRegs().peek(ctrlRegs().addrOf("QUEUE_SEL"));
            if (q < numQueues_)
                setQueueActive(static_cast<std::uint16_t>(q), v & 1);
        });

    ctrlRegs().onRead(ctrlRegs().addrOf("MON_ACTIVE_QUEUES"),
                      [this](std::uint32_t) {
                          return static_cast<std::uint32_t>(
                              arbiter_.activeCount());
                      });
    auto bind = [&](const char *reg, const char *stat) {
        ctrlRegs().onRead(ctrlRegs().addrOf(reg),
                          [this, stat](std::uint32_t) {
                              return static_cast<std::uint32_t>(
                                  monitor().value(stat));
                          });
    };
    bind("MON_SUBMITTED", "submitted");
    bind("MON_REJECTED", "rejected");
    bind("MON_COMPLETED", "completed");
    bind("MON_BYTES", "bytes");
    ctrlRegs().onRead(
        ctrlRegs().addrOf("MON_QUEUE_DEPTH"), [this](std::uint32_t) {
            const std::uint32_t q =
                ctrlRegs().peek(ctrlRegs().addrOf("QUEUE_SEL"));
            return q < numQueues_
                       ? static_cast<std::uint32_t>(queueDepth(
                             static_cast<std::uint16_t>(q)))
                       : 0u;
        });
}

void
HostRbb::setQueueActive(std::uint16_t queue, bool active)
{
    if (queue >= numQueues_)
        fatal("queue %u out of range (%u)", queue, numQueues_);
    if (active) {
        if (!arbiter_.isActive(queue))
            ++queuesConfigured_;
        arbiter_.activate(queue);
    } else {
        arbiter_.deactivate(queue);
    }
}

bool
HostRbb::queueActive(std::uint16_t queue) const
{
    return arbiter_.isActive(queue);
}

bool
HostRbb::submit(DmaDir dir, std::uint16_t queue, std::uint32_t bytes,
                std::uint64_t id)
{
    noteMutation();
    if (queue >= numQueues_)
        fatal("queue %u out of range (%u)", queue, numQueues_);
    // Per-cause reject counters: an inactive queue is a tenant
    // configuration problem, a full staging FIFO is back-pressure —
    // they call for different fixes, so they are counted apart (the
    // aggregate feeds the MON_REJECTED register).
    if (!arbiter_.isActive(queue)) {
        rejected_.inc();
        rejectedInactive_.inc();
        return false;
    }
    if (!staging_.canPush(queue)) {
        rejected_.inc();
        rejectedBackpressure_.inc();
        return false;
    }
    DmaRequest req;
    req.dir = dir;
    req.queue = queue;
    req.bytes = bytes;
    req.issued = now();
    req.id = id;
    staging_.push(queue, req);
    ++staged_;
    submitted_.inc();
    return true;
}

bool
HostRbb::submitControl(std::uint32_t bytes, std::uint64_t id)
{
    noteMutation();
    DmaRequest req;
    req.dir = DmaDir::H2C;
    req.bytes = bytes;
    req.issued = now();
    req.id = id;
    req.control = true;
    return dma_->post(req);
}

DmaCompletion
HostRbb::popCompletion()
{
    if (out_.empty())
        fatal("HostRbb '%s': popCompletion with none pending",
              name().c_str());
    DmaCompletion c = out_.front();
    out_.pop_front();
    return c;
}

std::size_t
HostRbb::queueDepth(std::uint16_t queue) const
{
    if (queue >= numQueues_)
        fatal("queue %u out of range (%u)", queue, numQueues_);
    return staging_.size(queue) + dma_->queueDepth(queue);
}

void
HostRbb::tick()
{
    // Schedule active queues into the DMA engine. Several grants per
    // cycle model the scheduler's multi-dequeue datapath. With nothing
    // staged no queue requests, and a grant without a requester leaves
    // the round-robin cursor where it was.
    for (int grants = 0; grants < 4 && staged_ != 0; ++grants) {
        auto slot = arbiter_.grant([this](std::size_t q) {
            return staging_.canPop(q);
        });
        if (!slot.has_value())
            break;
        const std::size_t q = *slot;
        if (!dma_->post(staging_.front(q)))
            break;  // engine back-pressure; retry next cycle
        staging_.pop(q);
        --staged_;
    }

    // Collect completions (control-channel completions surface too).
    while (dma_->hasCompletion()) {
        DmaCompletion c = dma_->popCompletion();
        completed_.inc();
        bytes_.inc(c.request.bytes);
        out_.push_back(c);
    }
}

void
HostRbb::registerTelemetry(MetricsRegistry &reg,
                           const std::string &prefix)
{
    Rbb::registerTelemetry(reg, prefix);
    wrapper_.registerTelemetry(reg, prefix + "/wrapper");
    telemetryHandle().addGauge(prefix + "/active_queues", [this] {
        return static_cast<double>(activeQueueCount());
    });
    telemetryHandle().addGauge(prefix + "/completions_pending",
                               [this] {
        return static_cast<double>(out_.size());
    });
}

std::size_t
HostRbb::registerInitOpCount() const
{
    // Instance recipe + per-configured-queue context programming
    // (select, control, ring base, producer index).
    return instance().initSequence().size() + 4 * queuesConfigured_;
}

std::size_t
HostRbb::commandInitCount() const
{
    // ModuleInit + bulk QueueConfig commands (ranges of queues).
    return 1 + std::max<std::size_t>(1, queuesConfigured_ / 256);
}

CommandResult
HostRbb::queueConfig(const std::vector<std::uint32_t> &data)
{
    // data[0]=first queue, data[1]=count, data[2]=active flag.
    if (data.size() < 3)
        return {kCmdBadArgument, {}};
    const std::uint32_t first = data[0];
    const std::uint32_t count = data[1];
    if (first + count > numQueues_)
        return {kCmdBadArgument, {}};
    for (std::uint32_t q = first; q < first + count; ++q)
        setQueueActive(static_cast<std::uint16_t>(q), data[2] & 1);
    return {kCmdOk, {}};
}

void
HostRbb::onReset()
{
    staging_.clear();
    for (unsigned q = 0; q < numQueues_; ++q)
        arbiter_.deactivate(q);
    staged_ = 0;
    out_.clear();
    queuesConfigured_ = 0;
}

} // namespace harmonia
