#include "ip/dma_ip.h"

#include <algorithm>

#include "common/logging.h"
#include "fault/fault_plan.h"  // harmonia-lint: allow(LAYER-002) fault-injection hooks in vendor IP
#include "sim/clock.h"

namespace harmonia {

namespace {
/** PCIe TLP framing constants for the efficiency model. */
constexpr std::uint32_t kMaxPayload = 256;  ///< bytes per TLP
constexpr std::uint32_t kTlpOverhead = 24;  ///< header + DLLP share
} // namespace

const char *
toString(DmaEngineStyle style)
{
    switch (style) {
      case DmaEngineStyle::Bulk:
        return "BDMA";
      case DmaEngineStyle::ScatterGather:
        return "SGDMA";
    }
    return "?";
}

DmaIp::DmaIp(std::string name, Vendor vendor, Protocol protocol,
             unsigned pcie_gen, unsigned lanes, unsigned num_queues,
             DmaEngineStyle style)
    : IpBlock(std::move(name), vendor, protocol,
              widthBitsFor(pcie_gen), clockMhzFor(pcie_gen)),
      gen_(pcie_gen), lanes_(lanes), numQueues_(num_queues),
      style_(style), stats_(this->name())
{
    if (style == DmaEngineStyle::Bulk) {
        // Bulk engines batch descriptors into long bursts: better
        // payload efficiency, more setup latency per transfer.
        maxPayload_ = 4096;
        styleLatency_ = 200'000;  // 200 ns descriptor batching
    } else {
        maxPayload_ = kMaxPayload;
        styleLatency_ = 0;
    }
    if (pcie_gen < 3 || pcie_gen > 5)
        fatal("PCIe generation %u not supported (3..5)", pcie_gen);
    if (lanes != 8 && lanes != 16)
        fatal("PCIe lane count %u not supported (x8/x16)", lanes);
    if (num_queues == 0 || num_queues > 2048)
        fatal("DMA queue count %u out of range (1..2048)", num_queues);
    queues_.reserve(num_queues);
    for (unsigned q = 0; q < num_queues; ++q)
        queues_.emplace_back(64);
}

unsigned
DmaIp::widthBitsFor(unsigned gen)
{
    // The paper: width and clock double with each PCIe generation.
    switch (gen) {
      case 3:
        return 256;
      case 4:
        return 512;
      case 5:
        return 1024;
      default:
        return 512;
    }
}

double
DmaIp::clockMhzFor(unsigned gen)
{
    switch (gen) {
      case 3:
        return 250.0;
      case 4:
        return 250.0;
      case 5:
        return 500.0;
      default:
        return 250.0;
    }
}

double
DmaIp::linkBandwidth() const
{
    double per_lane = 0;
    switch (gen_) {
      case 3:
        per_lane = 0.985e9;
        break;
      case 4:
        per_lane = 1.969e9;
        break;
      case 5:
        per_lane = 3.938e9;
        break;
    }
    return per_lane * lanes_;
}

double
DmaIp::tlpEfficiency(std::uint32_t bytes)
{
    if (bytes == 0)
        return 1.0;
    const std::uint32_t chunk = std::min(bytes, kMaxPayload);
    return static_cast<double>(chunk) / (chunk + kTlpOverhead);
}

Tick
DmaIp::baseLatency() const
{
    Tick base = 900'000;
    switch (gen_) {
      case 3:
        base = 900'000;  // 900 ns
        break;
      case 4:
        base = 750'000;
        break;
      case 5:
        base = 600'000;
        break;
    }
    return base + styleLatency_;
}

double
DmaIp::payloadEfficiency(std::uint32_t bytes) const
{
    if (bytes == 0)
        return 1.0;
    const std::uint32_t chunk = std::min(bytes, maxPayload_);
    return static_cast<double>(chunk) / (chunk + kTlpOverhead);
}

bool
DmaIp::post(const DmaRequest &req)
{
    if (req.control) {
        if (!controlQueue_.canPush()) {
            ctrlRejected_.inc();
            return false;
        }
        controlQueue_.push(req);
        return true;
    }
    if (req.queue >= numQueues_)
        fatal("DMA '%s': queue %u out of range (%u)", name().c_str(),
              req.queue, numQueues_);
    if (!queues_[req.queue].canPush()) {
        dataRejected_.inc();
        return false;
    }
    queues_[req.queue].push(req);
    ++pendingData_;
    return true;
}

DmaCompletion
DmaIp::popCompletion()
{
    if (completions_.empty())
        fatal("DMA '%s': popCompletion with none pending",
              name().c_str());
    return completions_.pop();
}

std::size_t
DmaIp::queueDepth(std::uint16_t queue) const
{
    if (queue >= numQueues_)
        fatal("queueDepth: queue %u out of range", queue);
    return queues_[queue].size();
}

void
DmaIp::finish(const DmaRequest &req, Tick when)
{
    DmaCompletion c{req, when};
    auto it = std::upper_bound(
        inFlight_.begin(), inFlight_.end(), when,
        [](Tick t, const auto &e) { return t < e.first; });
    inFlight_.insert(it, {when, c});
}

void
DmaIp::tick()
{
    const Tick t = now();

    // Control channel: strict priority, negligible payload — served
    // without occupying the data bus (dedicated flow-control credits).
    while (controlQueue_.canPop()) {
        DmaRequest req = controlQueue_.pop();
        finish(req, t + baseLatency());
        ctrlTransfers_.inc();
    }

    // Fault hook: a stalled engine (level-triggered) stops scheduling
    // data transfers; the isolated control channel above and transfers
    // already on the link are unaffected.
    const bool stalled = injectFault(FaultKind::DmaStall, name(), t);
    if (stalled)
        stallTicks_.inc();

    // Data path: round-robin over queues onto the shared link. The
    // engine works ahead within the current cycle so link pacing is
    // not quantized to clock edges.
    const Tick window = t + (clock() ? clock()->period() : 1);
    if (busBusyUntil_ < t)
        busBusyUntil_ = t;
    while (!stalled && pendingData_ > 0 && busBusyUntil_ < window) {
        bool found = false;
        for (std::size_t i = 0; i < queues_.size(); ++i) {
            const std::size_t q = (rrNext_ + i) % queues_.size();
            if (!queues_[q].canPop())
                continue;
            DmaRequest req = queues_[q].pop();
            --pendingData_;
            rrNext_ = (q + 1) % queues_.size();
            const double eff = payloadEfficiency(req.bytes);
            const double seconds =
                req.bytes / (linkBandwidth() * eff);
            const Tick xfer =
                static_cast<Tick>(seconds * kTicksPerSecond);
            busBusyUntil_ += xfer;
            finish(req, busBusyUntil_ + baseLatency());
            dataTransfers_.inc();
            dataBytes_.inc(req.bytes);
            found = true;
            break;
        }
        if (!found)
            break;
    }

    // Deliver finished transfers. Fault hook: a lost completion means
    // the transfer happened but its writeback never lands — the
    // classic cause of host-side timeouts (control completions are
    // exempt; that plane is exercised by the Cmd* fault kinds).
    while (!inFlight_.empty() && inFlight_.front().first <= t) {
        if (!completions_.canPush())
            break;
        const DmaCompletion &c = inFlight_.front().second;
        if (!c.request.control &&
            injectFault(FaultKind::DmaCompletionLoss, name(), t)) {
            completionsLost_.inc();
            inFlight_.pop_front();
            continue;
        }
        completions_.push(c);
        inFlight_.pop_front();
    }
}

void
DmaIp::reset()
{
    IpBlock::reset();
    for (auto &q : queues_)
        q.clear();
    controlQueue_.clear();
    inFlight_.clear();
    completions_.clear();
    busBusyUntil_ = 0;
    rrNext_ = 0;
    pendingData_ = 0;
    stats_.resetAll();
}

void
DmaIp::bindStatReg(const std::string &reg_name,
                   const std::string &stat_name)
{
    regs().onRead(regs().addrOf(reg_name),
                  [this, stat_name](std::uint32_t) {
                      return static_cast<std::uint32_t>(
                          stats_.value(stat_name));
                  });
}

XilinxQdma::XilinxQdma(unsigned pcie_gen, unsigned lanes,
                       unsigned num_queues, const std::string &inst,
                       DmaEngineStyle style)
    : DmaIp("xqdma_" + inst, Vendor::Xilinx, Protocol::Axi4MemoryMapped,
            pcie_gen, lanes, num_queues, style)
{
    Addr a = 0;
    auto def = [&](const char *n, bool ro = false) {
        regs().define({n, a, ro, ""});
        a += 4;
    };
    def("QDMA_GLBL_RNG_SZ");
    def("QDMA_GLBL_SCRATCH");
    def("QDMA_GLBL_ERR_MASK");
    def("QDMA_IND_CTXT_CMD");
    def("QDMA_IND_CTXT_DATA_0");
    def("QDMA_IND_CTXT_DATA_1");
    def("QDMA_IND_CTXT_MASK");
    def("QDMA_PF_QMAX");
    def("QDMA_FMAP_CTXT");
    def("QDMA_C2H_TIMER_CNT");
    def("QDMA_C2H_CNT_TH");
    def("QDMA_C2H_BUF_SZ");
    def("QDMA_H2C_REQ_THROT");
    def("QDMA_DMAP_SEL_INT_SZ");
    def("QDMA_GLBL_ERR_STAT", true);
    def("QDMA_GLBL_STATUS", true);
    def("QDMA_STAT_H2C_PKTS", true);
    def("QDMA_STAT_C2H_PKTS", true);
    def("QDMA_STAT_DATA_BYTES", true);
    def("QDMA_STAT_CTRL_PKTS", true);
    def("QDMA_TRQ_SEL_FMAP", true);

    regs().onWrite(regs().addrOf("QDMA_IND_CTXT_CMD"),
                   [this](std::uint32_t) {
                       regs().poke(regs().addrOf("QDMA_GLBL_STATUS"), 1);
                   });
    bindStatReg("QDMA_STAT_DATA_BYTES", "data_bytes");
    bindStatReg("QDMA_STAT_CTRL_PKTS", "ctrl_transfers");

    // QDMA init: global rings, then an indirect-context programming
    // dance — exactly the multi-step, order-sensitive recipe the
    // command interface hides.
    addInitOp({RegOp::Kind::Write, "QDMA_GLBL_RNG_SZ", 2048});
    addInitOp({RegOp::Kind::Write, "QDMA_GLBL_ERR_MASK", 0xffffffff});
    addInitOp({RegOp::Kind::Write, "QDMA_PF_QMAX", num_queues});
    addInitOp({RegOp::Kind::Write, "QDMA_FMAP_CTXT", 0x1});
    addInitOp({RegOp::Kind::Write, "QDMA_IND_CTXT_DATA_0", 0x10});
    addInitOp({RegOp::Kind::Write, "QDMA_IND_CTXT_DATA_1", 0x0});
    addInitOp({RegOp::Kind::Write, "QDMA_IND_CTXT_MASK", 0xffffffff});
    addInitOp({RegOp::Kind::Write, "QDMA_IND_CTXT_CMD", 0x3});
    addInitOp({RegOp::Kind::WaitBit, "QDMA_GLBL_STATUS", 1});
    addInitOp({RegOp::Kind::Write, "QDMA_C2H_TIMER_CNT", 16});
    addInitOp({RegOp::Kind::Write, "QDMA_C2H_CNT_TH", 64});
    addInitOp({RegOp::Kind::Write, "QDMA_C2H_BUF_SZ", 4096});
    addInitOp({RegOp::Kind::Write, "QDMA_H2C_REQ_THROT", 0x4000});
    addInitOp({RegOp::Kind::Read, "QDMA_GLBL_ERR_STAT", 0});

    const unsigned w = dataWidthBits();
    auto port = [&](const char *n, Protocol p, unsigned bits, bool out) {
        addPort({n, p, bits, out});
    };
    port("m_axis_h2c_tdata", Protocol::Axi4Stream, w, true);
    port("m_axis_h2c_tkeep", Protocol::Axi4Stream, w / 8, true);
    port("m_axis_h2c_tvalid", Protocol::Axi4Stream, 1, true);
    port("m_axis_h2c_tlast", Protocol::Axi4Stream, 1, true);
    port("s_axis_c2h_tdata", Protocol::Axi4Stream, w, false);
    port("s_axis_c2h_tkeep", Protocol::Axi4Stream, w / 8, false);
    port("s_axis_c2h_tvalid", Protocol::Axi4Stream, 1, false);
    port("s_axis_c2h_tready", Protocol::Axi4Stream, 1, true);
    port("s_axis_c2h_tlast", Protocol::Axi4Stream, 1, false);
    port("m_axi_awaddr", Protocol::Axi4MemoryMapped, 64, true);
    port("m_axi_wdata", Protocol::Axi4MemoryMapped, w, true);
    port("m_axi_araddr", Protocol::Axi4MemoryMapped, 64, true);
    port("m_axi_rdata", Protocol::Axi4MemoryMapped, w, false);
    port("s_axil_awaddr", Protocol::Axi4Lite, 32, false);
    port("s_axil_wdata", Protocol::Axi4Lite, 32, false);
    port("s_axil_araddr", Protocol::Axi4Lite, 32, false);
    port("s_axil_rdata", Protocol::Axi4Lite, 32, true);
    port("pcie_txp", Protocol::Axi4MemoryMapped, lanes, true);
    port("pcie_rxp", Protocol::Axi4MemoryMapped, lanes, false);
    port("usr_irq_req", Protocol::Axi4Lite, 16, false);
    port("usr_irq_ack", Protocol::Axi4Lite, 16, true);

    auto cfg = [&](const char *n, ConfigScope s, const char *d) {
        addConfig({n, s, d, ""});
    };
    cfg("NUM_QUEUES", ConfigScope::RoleOriented,
        std::to_string(num_queues).c_str());
    cfg("DMA_MODE", ConfigScope::RoleOriented, "ST");
    cfg("MAX_PAYLOAD_BYTES", ConfigScope::ShellOriented, "256");
    cfg("PCIE_GEN", ConfigScope::ShellOriented,
        std::to_string(pcie_gen).c_str());
    cfg("PCIE_LANES", ConfigScope::ShellOriented,
        std::to_string(lanes).c_str());
    cfg("PF_COUNT", ConfigScope::ShellOriented, "1");
    cfg("VF_COUNT", ConfigScope::ShellOriented, "0");
    cfg("BAR0_SIZE", ConfigScope::ShellOriented, "64K");
    cfg("MSIX_VECTORS", ConfigScope::ShellOriented, "32");
    cfg("COMPLETION_RING_SZ", ConfigScope::ShellOriented, "2048");
    cfg("PREFETCH_ENABLE", ConfigScope::ShellOriented, "1");
    cfg("WRB_COALESCE", ConfigScope::ShellOriented, "16");
    cfg("DESC_BYPASS", ConfigScope::ShellOriented, "0");
    cfg("AXI_ID_WIDTH", ConfigScope::ShellOriented, "4");
    cfg("SRIOV_ENABLE", ConfigScope::ShellOriented, "0");
    cfg("TANDEM_BOOT", ConfigScope::ShellOriented, "0");
    cfg("BAR2_SIZE", ConfigScope::ShellOriented, "4K");
    cfg("BAR4_SIZE", ConfigScope::ShellOriented, "0");
    cfg("EXPANSION_ROM", ConfigScope::ShellOriented, "0");
    cfg("MSI_ENABLE", ConfigScope::ShellOriented, "0");
    cfg("LEGACY_INT", ConfigScope::ShellOriented, "0");
    cfg("EXT_TAG", ConfigScope::ShellOriented, "1");
    cfg("RELAXED_ORDERING", ConfigScope::ShellOriented, "1");
    cfg("MAX_READ_REQ", ConfigScope::ShellOriented, "512");
    cfg("FLR_ENABLE", ConfigScope::ShellOriented, "1");
    cfg("ATS_ENABLE", ConfigScope::ShellOriented, "0");
    cfg("PASID_ENABLE", ConfigScope::ShellOriented, "0");
    cfg("DSC_BYPASS_C2H", ConfigScope::ShellOriented, "0");
    cfg("DSC_BYPASS_H2C", ConfigScope::ShellOriented, "0");
    cfg("C2H_STREAM_MODE", ConfigScope::ShellOriented, "simple");
    cfg("PFETCH_CACHE_DEPTH", ConfigScope::ShellOriented, "16");
    cfg("TIMER_TICK_NS", ConfigScope::ShellOriented, "4");
    cfg("RAM_RETRY_COUNT", ConfigScope::ShellOriented, "2");
    cfg("AXI_PROT", ConfigScope::ShellOriented, "unprivileged");

    addDependency("cad_tool", "vivado-2023.2");
    addDependency("ip:qdma", "5.0");
    addDependency("pcie_hard_ip",
                  format("pcie4_uscale_plus:gen%u_x%u", pcie_gen,
                         lanes));

    setResources(ResourceVector{36500, 51200, 120, 8, 0});
    setWorkload({1450, 0, 0, 0});
}

IntelMcdma::IntelMcdma(unsigned pcie_gen, unsigned lanes,
                       unsigned num_queues, const std::string &inst,
                       DmaEngineStyle style)
    : DmaIp("imcdma_" + inst, Vendor::Intel,
            Protocol::AvalonMemoryMapped, pcie_gen, lanes, num_queues,
            style)
{
    Addr a = 0;
    auto def = [&](const char *n, bool ro = false) {
        regs().define({n, a, ro, ""});
        a += 4;
    };
    def("mcdma_ctrl");
    def("mcdma_d2h_queue_ctrl");
    def("mcdma_h2d_queue_ctrl");
    def("mcdma_queue_base_lo");
    def("mcdma_queue_base_hi");
    def("mcdma_queue_count");
    def("mcdma_wb_interval");
    def("mcdma_int_moderation");
    def("mcdma_status", true);
    def("mcdma_link_status", true);
    def("mcdma_cntr_h2d", true);
    def("mcdma_cntr_d2h", true);
    def("mcdma_cntr_bytes", true);
    def("mcdma_cntr_ctrl", true);
    def("mcdma_err_status", true);

    regs().onWrite(regs().addrOf("mcdma_ctrl"),
                   [this](std::uint32_t v) {
                       regs().poke(regs().addrOf("mcdma_status"), v & 1);
                       regs().poke(regs().addrOf("mcdma_link_status"),
                                   v & 1);
                   });
    bindStatReg("mcdma_cntr_bytes", "data_bytes");
    bindStatReg("mcdma_cntr_ctrl", "ctrl_transfers");

    addInitOp({RegOp::Kind::Write, "mcdma_queue_count", num_queues});
    addInitOp({RegOp::Kind::Write, "mcdma_queue_base_lo", 0x1000});
    addInitOp({RegOp::Kind::Write, "mcdma_queue_base_hi", 0x0});
    addInitOp({RegOp::Kind::Write, "mcdma_wb_interval", 8});
    addInitOp({RegOp::Kind::Write, "mcdma_int_moderation", 64});
    addInitOp({RegOp::Kind::Write, "mcdma_ctrl", 1});
    addInitOp({RegOp::Kind::WaitBit, "mcdma_link_status", 1});
    addInitOp({RegOp::Kind::Read, "mcdma_err_status", 0});

    const unsigned w = dataWidthBits();
    auto port = [&](const char *n, Protocol p, unsigned bits, bool out) {
        addPort({n, p, bits, out});
    };
    port("h2d_st_data", Protocol::AvalonStream, w, true);
    port("h2d_st_valid", Protocol::AvalonStream, 1, true);
    port("h2d_st_sop", Protocol::AvalonStream, 1, true);
    port("h2d_st_eop", Protocol::AvalonStream, 1, true);
    port("h2d_st_empty", Protocol::AvalonStream, 6, true);
    port("d2h_st_data", Protocol::AvalonStream, w, false);
    port("d2h_st_valid", Protocol::AvalonStream, 1, false);
    port("d2h_st_ready", Protocol::AvalonStream, 1, true);
    port("d2h_st_sop", Protocol::AvalonStream, 1, false);
    port("d2h_st_eop", Protocol::AvalonStream, 1, false);
    port("wr_master_address", Protocol::AvalonMemoryMapped, 64, true);
    port("wr_master_writedata", Protocol::AvalonMemoryMapped, w, true);
    port("wr_master_burstcount", Protocol::AvalonMemoryMapped, 12,
         true);
    port("rd_master_address", Protocol::AvalonMemoryMapped, 64, true);
    port("rd_master_readdata", Protocol::AvalonMemoryMapped, w, false);
    port("csr_address", Protocol::AvalonMemoryMapped, 14, false);
    port("csr_readdata", Protocol::AvalonMemoryMapped, 32, true);
    port("csr_writedata", Protocol::AvalonMemoryMapped, 32, false);
    port("pcie_tx", Protocol::AvalonMemoryMapped, lanes, true);
    port("pcie_rx", Protocol::AvalonMemoryMapped, lanes, false);
    port("msi_intfc", Protocol::AvalonMemoryMapped, 1, true);

    auto cfg = [&](const char *n, ConfigScope s, const char *d) {
        addConfig({n, s, d, ""});
    };
    cfg("num_dma_channels", ConfigScope::RoleOriented,
        std::to_string(num_queues).c_str());
    cfg("interface_type", ConfigScope::RoleOriented, "AVST");
    cfg("max_payload_size", ConfigScope::ShellOriented, "256");
    cfg("pcie_generation", ConfigScope::ShellOriented,
        std::to_string(pcie_gen).c_str());
    cfg("pcie_lane_width", ConfigScope::ShellOriented,
        std::to_string(lanes).c_str());
    cfg("user_mode", ConfigScope::ShellOriented, "multichannel");
    cfg("descriptor_format", ConfigScope::ShellOriented, "compact");
    cfg("metadata_enable", ConfigScope::ShellOriented, "0");
    cfg("wb_policy", ConfigScope::ShellOriented, "interval");
    cfg("bam_bas_enable", ConfigScope::ShellOriented, "0");
    cfg("ptile_location", ConfigScope::ShellOriented, "P0");
    cfg("vf_per_pf", ConfigScope::ShellOriented, "0");
    cfg("msi_x_tables", ConfigScope::ShellOriented, "1");
    cfg("data_mover_mode", ConfigScope::ShellOriented, "full");
    cfg("bar0_address_width", ConfigScope::ShellOriented, "16");
    cfg("expansion_rom_enable", ConfigScope::ShellOriented, "0");
    cfg("msi_enable", ConfigScope::ShellOriented, "0");
    cfg("extended_tag", ConfigScope::ShellOriented, "1");
    cfg("relaxed_order", ConfigScope::ShellOriented, "1");
    cfg("max_read_request", ConfigScope::ShellOriented, "512");
    cfg("flr_support", ConfigScope::ShellOriented, "1");
    cfg("completion_timeout", ConfigScope::ShellOriented, "range_b");
    cfg("aspm_support", ConfigScope::ShellOriented, "l1");
    cfg("d2h_prefetch_depth", ConfigScope::ShellOriented, "16");
    cfg("h2d_fifo_mode", ConfigScope::ShellOriented, "store_forward");
    cfg("user_msix_table", ConfigScope::ShellOriented, "internal");
    cfg("avst_ready_latency", ConfigScope::ShellOriented, "3");
    cfg("port_type", ConfigScope::ShellOriented, "native_endpoint");
    cfg("retimer_config", ConfigScope::ShellOriented, "none");
    cfg("error_reporting", ConfigScope::ShellOriented, "aer");

    addDependency("cad_tool", "quartus-23.4");
    addDependency("ip:mcdma", "22.3");
    addDependency("pcie_hard_ip",
                  format("ptile:gen%u_x%u", pcie_gen, lanes));

    setResources(ResourceVector{33800, 47600, 132, 0, 0});
    setWorkload({1520, 0, 0, 0});
}

std::unique_ptr<DmaIp>
makeDma(Vendor chip_vendor, unsigned pcie_gen, unsigned lanes,
        unsigned num_queues, const std::string &inst,
        DmaEngineStyle style)
{
    switch (chip_vendor) {
      case Vendor::Xilinx:
      case Vendor::InHouse:
        return std::make_unique<XilinxQdma>(pcie_gen, lanes,
                                            num_queues, inst, style);
      case Vendor::Intel:
        return std::make_unique<IntelMcdma>(pcie_gen, lanes,
                                            num_queues, inst, style);
    }
    panic("unreachable vendor");
}

} // namespace harmonia
