/**
 * @file
 * External-memory controller IP models: Xilinx MIG-style DDR4 (AXI-MM),
 * Intel EMIF-style DDR4 (Avalon-MM) and an HBM stack controller with 32
 * pseudo-channels. Timing follows an open-row model (activate/precharge
 * penalties, burst-granular transfers) so sequential, fixed and random
 * access patterns separate the way the paper's Figs 10c and 18c show.
 * A sparse backing store provides functional read/write for workloads.
 */

#ifndef HARMONIA_IP_MEMORY_IP_H_
#define HARMONIA_IP_MEMORY_IP_H_

#include <deque>
#include <memory>
#include <unordered_map>

#include "common/stats.h"
#include "device/peripheral.h"
#include "ip/ip_block.h"
#include "rtl/fifo.h"

namespace harmonia {

/** One memory access request. */
struct MemRequest {
    bool write = false;
    Addr addr = 0;
    std::uint32_t bytes = 0;
    Tick issued = 0;
    std::uint64_t id = 0;
};

/** A finished memory access. */
struct MemCompletion {
    MemRequest request;
    Tick completed = 0;

    Tick latency() const { return completed - request.issued; }
};

/**
 * Base memory controller model with per-channel open-row timing and a
 * page-sparse functional store.
 */
class MemoryIp : public IpBlock {
  public:
    MemoryIp(std::string name, Vendor vendor, Protocol protocol,
             PeripheralKind kind, unsigned channels);

    PeripheralKind memoryKind() const { return kind_; }
    unsigned channels() const { return numChannels_; }

    /** Peak bytes/second of one channel. */
    double channelBandwidth() const;

    /** Bytes moved per DRAM burst (transfer granularity floor). */
    std::uint32_t burstBytes() const;

    /** Row (page) size in bytes. */
    std::uint32_t rowBytes() const;

    /** Post a request to a channel; false when its queue is full. */
    bool post(unsigned channel, const MemRequest &req);

    bool hasCompletion() const { return !completions_.empty(); }
    MemCompletion popCompletion();

    std::size_t queueDepth(unsigned channel) const;

    void tick() override;
    void reset() override;

    /** All channel queues drained and nothing in flight due yet. */
    bool idle() const override
    {
        for (const Channel &ch : channels_)
            if (!ch.queue.empty())
                return false;
        return inFlight_.empty() || inFlight_.front().first > now();
    }

    /** Earliest in-flight access completion. */
    Tick wakeTime() const override
    {
        return inFlight_.empty() ? kTickMax : inFlight_.front().first;
    }

    StatGroup &stats() { return stats_; }

    /** Functional store access (byte-addressed, sparse pages). */
    void storeWrite(Addr addr, const std::vector<std::uint8_t> &data);
    std::vector<std::uint8_t> storeRead(Addr addr, std::size_t len);

  protected:
    void bindStatReg(const std::string &reg_name,
                     const std::string &stat_name);

  private:
    struct Channel {
        Fifo<MemRequest> queue{64};
        Tick busBusyUntil = 0;
        std::vector<std::int64_t> openRow;  ///< per bank, -1 = closed
    };

    static constexpr unsigned kBanks = 16;
    static constexpr std::size_t kPageSize = 4096;

    PeripheralKind kind_;
    unsigned numChannels_;
    std::vector<Channel> channels_;
    std::deque<std::pair<Tick, MemCompletion>> inFlight_;
    Fifo<MemCompletion> completions_{8192};
    StatGroup stats_;
    CounterHandle rejected_{stats_, "rejected"};
    CounterHandle rowMisses_{stats_, "row_misses"};
    CounterHandle rowHits_{stats_, "row_hits"};
    CounterHandle bytes_{stats_, "bytes"};
    CounterHandle reads_{stats_, "reads"};
    CounterHandle writes_{stats_, "writes"};
    // Sparse backing store: strictly point lookups, never iterated.
    // harmonia-lint: allow(DET-003) lookup-only page table
    std::unordered_map<Addr, std::vector<std::uint8_t>> pages_;
};

/** Xilinx MIG-style DDR4 controller (AXI4-MM). */
class XilinxMigDdr4 : public MemoryIp {
  public:
    explicit XilinxMigDdr4(unsigned channels,
                           const std::string &inst = "mig0");
};

/** Intel EMIF-style DDR4 controller (Avalon-MM). */
class IntelEmifDdr4 : public MemoryIp {
  public:
    explicit IntelEmifDdr4(unsigned channels,
                           const std::string &inst = "emif0");
};

/** Xilinx HBM stack controller: 32 pseudo-channels (AXI4-MM). */
class XilinxHbm : public MemoryIp {
  public:
    explicit XilinxHbm(const std::string &inst = "hbm0");
};

/** Build the right memory model for a chip vendor and memory kind. */
std::unique_ptr<MemoryIp> makeMemory(Vendor chip_vendor,
                                     PeripheralKind kind,
                                     unsigned channels,
                                     const std::string &inst = "mem0");

} // namespace harmonia

#endif // HARMONIA_IP_MEMORY_IP_H_
