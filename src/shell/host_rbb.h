/**
 * @file
 * Host RBB (§3.3.1): a vendor PCIe DMA instance plus the multi-queue
 * isolation Ex-function — 1K DMA queues with per-queue active/inactive
 * state, where only active queues are scheduled (raising the
 * scheduling rate) — and per-queue monitoring (depth, packets, speed).
 * A queue's staging FIFO, like its engine FIFO, exists only once it
 * has held a request.
 */

#ifndef HARMONIA_SHELL_HOST_RBB_H_
#define HARMONIA_SHELL_HOST_RBB_H_

#include <deque>
#include <memory>

#include "ip/dma_ip.h"
#include "rtl/arbiter.h"
#include "rtl/fifo_array.h"
#include "shell/rbb.h"
#include "sim/engine.h"
#include "wrapper/stream_wrapper.h"

namespace harmonia {

/**
 * The Host RBB. mem map and stream data interfaces toward roles, a
 * 32-bit reg control interface, and the command transport's control
 * queue pass-through.
 */
class HostRbb : public Rbb {
  public:
    /** Paper: "1K DMA queues to isolate transmitted data". */
    static constexpr unsigned kDefaultQueues = 1024;

    /** Ex-function + control/monitor + wrapper soft logic one
     *  instance adds, available before construction (DRC). */
    static ResourceVector plannedSoftLogic();

    HostRbb(Engine &engine, Clock *rbb_clk, Vendor chip_vendor,
            unsigned pcie_gen, unsigned lanes,
            unsigned num_queues = kDefaultQueues,
            std::uint8_t instance_id = 0,
            DmaEngineStyle style = DmaEngineStyle::ScatterGather);

    DmaIp &dma() { return *dma_; }
    IpBlock &instance() override { return *dma_; }
    using Rbb::instance;

    unsigned numQueues() const { return numQueues_; }

    // --- Multi-queue isolation Ex-function. ---
    void setQueueActive(std::uint16_t queue, bool active);
    bool queueActive(std::uint16_t queue) const;
    std::size_t activeQueueCount() const
    {
        return arbiter_.activeCount();
    }

    /**
     * Submit a transfer on a tenant queue. Rejected (false) when the
     * queue is inactive or its staging FIFO is full.
     */
    bool submit(DmaDir dir, std::uint16_t queue, std::uint32_t bytes,
                std::uint64_t id = 0);

    bool hasCompletion() const { return !out_.empty(); }
    DmaCompletion popCompletion();

    /** Pending work on a queue (staging + engine). */
    std::size_t queueDepth(std::uint16_t queue) const;

    /** Inject control-channel traffic (the command transport). */
    bool submitControl(std::uint32_t bytes, std::uint64_t id);

    void tick() override;

    /** Nothing staged for the scheduler (on any queue, active or
     *  not) and no engine completion to collect. The DMA model's own
     *  wake covers in-flight transfers. */
    bool idle() const override
    {
        return staged_ == 0 && !dma_->hasCompletion();
    }

    void registerTelemetry(MetricsRegistry &reg,
                           const std::string &prefix) override;

    std::size_t registerInitOpCount() const override;
    std::size_t commandInitCount() const override;

    ResourceVector wrapperResources() const override
    {
        return wrapper_.resources();
    }

  protected:
    CommandResult
    queueConfig(const std::vector<std::uint32_t> &data) override;
    void onReset() override;

  private:
    void defineCtrlRegs();

    std::unique_ptr<DmaIp> dma_;
    StreamWrapper wrapper_;
    unsigned numQueues_;
    FifoArray<DmaRequest> staging_;
    std::size_t staged_ = 0;  ///< requests across all staging_ FIFOs
    ActiveListArbiter arbiter_;
    std::deque<DmaCompletion> out_;
    std::size_t queuesConfigured_ = 0;
    CounterHandle rejected_{monitor(), "rejected"};
    CounterHandle rejectedInactive_{monitor(), "rejected_inactive"};
    CounterHandle rejectedBackpressure_{monitor(), "rejected_backpressure"};
    CounterHandle submitted_{monitor(), "submitted"};
    CounterHandle completed_{monitor(), "completed"};
    CounterHandle bytes_{monitor(), "bytes"};
};

} // namespace harmonia

#endif // HARMONIA_SHELL_HOST_RBB_H_
