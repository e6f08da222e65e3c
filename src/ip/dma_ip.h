/**
 * @file
 * PCIe DMA engine IP models: the Xilinx QDMA-style engine (AXI,
 * descriptor-context init, up to 2K queues) and the Intel MCDMA-style
 * engine (Avalon, channel-based init). Both move buffers between host
 * and FPGA at the PCIe link rate with TLP framing efficiency, and both
 * expose a dedicated control channel used by Harmonia's command
 * transport (§3.3.3).
 */

#ifndef HARMONIA_IP_DMA_IP_H_
#define HARMONIA_IP_DMA_IP_H_

#include <deque>
#include <memory>

#include "common/packet.h"
#include "common/stats.h"
#include "ip/ip_block.h"
#include "rtl/fifo.h"

namespace harmonia {

/**
 * DMA engine instance styles (§3.3.2): a BDMA-style bulk engine
 * batches descriptors and moves big buffers with large payloads; an
 * SGDMA-style engine handles discrete scatter/gather transfers with
 * standard payloads but lower setup latency.
 */
enum class DmaEngineStyle {
    Bulk,           ///< BDMA: large payloads, batched descriptors
    ScatterGather,  ///< SGDMA: discrete transfers
};

const char *toString(DmaEngineStyle style);

/** Direction of a DMA transfer. */
enum class DmaDir {
    H2C,  ///< host to card
    C2H,  ///< card to host
};

/** One DMA transfer request. */
struct DmaRequest {
    DmaDir dir = DmaDir::H2C;
    std::uint16_t queue = 0;
    std::uint32_t bytes = 0;
    Tick issued = 0;
    std::uint64_t id = 0;
    bool control = false;  ///< command-channel traffic (isolated)
};

/** A finished DMA transfer. */
struct DmaCompletion {
    DmaRequest request;
    Tick completed = 0;

    Tick latency() const { return completed - request.issued; }
};

/**
 * Base DMA model: per-queue request FIFOs, round-robin service at
 * link bandwidth x TLP efficiency, and a strictly prioritized control
 * channel so command traffic never queues behind bulk data.
 */
class DmaIp : public IpBlock {
  public:
    DmaIp(std::string name, Vendor vendor, Protocol protocol,
          unsigned pcie_gen, unsigned lanes, unsigned num_queues,
          DmaEngineStyle style = DmaEngineStyle::ScatterGather);

    DmaEngineStyle style() const { return style_; }

    /** Payload bytes per TLP-equivalent burst for this instance. */
    std::uint32_t maxPayload() const { return maxPayload_; }

    /** Instance-aware payload efficiency (style-dependent). */
    double payloadEfficiency(std::uint32_t bytes) const;

    unsigned pcieGen() const { return gen_; }
    unsigned lanes() const { return lanes_; }
    unsigned numQueues() const { return numQueues_; }

    /** Link bandwidth in bytes/second (all lanes, after encoding). */
    double linkBandwidth() const;

    /** Payload efficiency of a transfer given TLP framing. */
    static double tlpEfficiency(std::uint32_t bytes);

    /** Base request-to-completion latency added by the link + engine. */
    Tick baseLatency() const;

    /** Post a request; false when the target queue is full. */
    bool post(const DmaRequest &req);

    bool hasCompletion() const { return !completions_.empty(); }
    DmaCompletion popCompletion();

    /** Occupancy of one queue (monitoring). */
    std::size_t queueDepth(std::uint16_t queue) const;

    void tick() override;
    void reset() override;

    /** No queued work and nothing on the link due yet. */
    bool idle() const override
    {
        return controlQueue_.empty() && pendingData_ == 0 &&
               (inFlight_.empty() || inFlight_.front().first > now());
    }

    /** Earliest in-flight transfer completion. */
    Tick wakeTime() const override
    {
        return inFlight_.empty() ? kTickMax : inFlight_.front().first;
    }

    StatGroup &stats() { return stats_; }

    /** PCIe data width in bits for a generation (doubles per gen). */
    static unsigned widthBitsFor(unsigned gen);

    /** User-clock MHz for a generation. */
    static double clockMhzFor(unsigned gen);

  protected:
    void bindStatReg(const std::string &reg_name,
                     const std::string &stat_name);

  private:
    void finish(const DmaRequest &req, Tick when);

    unsigned gen_;
    unsigned lanes_;
    unsigned numQueues_;
    DmaEngineStyle style_;
    std::uint32_t maxPayload_ = 256;
    Tick styleLatency_ = 0;
    std::vector<Fifo<DmaRequest>> queues_;
    Fifo<DmaRequest> controlQueue_{32};
    std::deque<std::pair<Tick, DmaCompletion>> inFlight_;
    Fifo<DmaCompletion> completions_{4096};
    Tick busBusyUntil_ = 0;
    std::size_t rrNext_ = 0;
    std::size_t pendingData_ = 0;  ///< requests staged in queues_
    StatGroup stats_;
    CounterHandle ctrlRejected_{stats_, "ctrl_rejected"};
    CounterHandle dataRejected_{stats_, "data_rejected"};
    CounterHandle ctrlTransfers_{stats_, "ctrl_transfers"};
    CounterHandle stallTicks_{stats_, "stall_ticks"};
    CounterHandle dataTransfers_{stats_, "data_transfers"};
    CounterHandle dataBytes_{stats_, "data_bytes"};
    CounterHandle completionsLost_{stats_, "completions_lost"};
};

/** Xilinx QDMA-style engine. */
class XilinxQdma : public DmaIp {
  public:
    XilinxQdma(unsigned pcie_gen, unsigned lanes, unsigned num_queues,
               const std::string &inst = "qdma0",
               DmaEngineStyle style = DmaEngineStyle::ScatterGather);
};

/** Intel MCDMA-style engine. */
class IntelMcdma : public DmaIp {
  public:
    IntelMcdma(unsigned pcie_gen, unsigned lanes, unsigned num_queues,
               const std::string &inst = "mcdma0",
               DmaEngineStyle style = DmaEngineStyle::ScatterGather);
};

/** Build the right DMA model for a chip vendor. */
std::unique_ptr<DmaIp>
makeDma(Vendor chip_vendor, unsigned pcie_gen, unsigned lanes,
        unsigned num_queues, const std::string &inst = "dma0",
        DmaEngineStyle style = DmaEngineStyle::ScatterGather);

} // namespace harmonia

#endif // HARMONIA_IP_DMA_IP_H_
