#include "ip/mac_ip.h"

#include <algorithm>

#include "common/logging.h"
#include "fault/fault_plan.h"  // harmonia-lint: allow(LAYER-002) fault-injection hooks in vendor IP
#include "sim/clock.h"
#include "sim/engine.h"

namespace harmonia {

MacIp::MacIp(std::string name, Vendor vendor, Protocol protocol,
             unsigned gbps)
    : IpBlock(std::move(name), vendor, protocol, widthBitsFor(gbps),
              clockMhzFor(gbps)),
      gbps_(gbps), stats_(this->name())
{
}

unsigned
MacIp::widthBitsFor(unsigned gbps)
{
    // The paper: data width scales 128/512/2048 bits with 25/100/400G.
    switch (gbps) {
      case 25:
        return 128;
      case 100:
        return 512;
      case 400:
        return 2048;
      default:
        fatal("unsupported MAC line rate %uG (25/100/400 only)", gbps);
    }
}

double
MacIp::clockMhzFor(unsigned gbps)
{
    (void)gbps;
    return 322.265625;  // CMAC-class core clock; capacity > line rate
}

void
MacIp::txPush(const PacketDesc &pkt)
{
    if (!tx_.canPush())
        fatal("MAC '%s': txPush without txReady", name().c_str());
    tx_.push(pkt);
}

PacketDesc
MacIp::rxPop()
{
    if (rx_.empty())
        fatal("MAC '%s': rxPop with empty RX queue", name().c_str());
    return rx_.pop();
}

void
MacIp::connectPeer(MacIp *peer)
{
    peer_ = peer;
    Engine *e = engine();
    if (peer != nullptr && e != nullptr && peer->engine() == e &&
        peer->clock() != clock())
        e->fuseClocks(clock(), peer->clock());
}

void
MacIp::injectRx(const PacketDesc &pkt, Tick when)
{
    arrive(pkt, when);
}

void
MacIp::arrive(const PacketDesc &pkt, Tick when)
{
    noteMutation();
    auto it = std::upper_bound(
        inFlight_.begin(), inFlight_.end(), when,
        [](Tick t, const auto &e) { return t < e.first; });
    inFlight_.insert(it, {when, pkt});
}

void
MacIp::tick()
{
    const Tick t = now();

    // Fault hook: a flapped link (level-triggered while the fault
    // window is open) stops the TX serializer and loses everything
    // arriving on the line side.
    const bool link_down =
        injectFault(FaultKind::LinkFlap, name(), t);
    if (link_down) {
        linkDownTicks_.inc();
        while (!inFlight_.empty() && inFlight_.front().first <= t) {
            linkDownDrops_.inc();
            inFlight_.pop_front();
        }
        return;
    }

    // TX serialization at exactly line rate: the serializer may work
    // ahead within the current cycle so pacing is not quantized to
    // clock edges.
    const Tick window = t + (clock() ? clock()->period() : 1);
    if (txBusyUntil_ < t)
        txBusyUntil_ = t;
    while (tx_.canPop() && txBusyUntil_ < window) {
        PacketDesc pkt = tx_.pop();
        const Tick wt = wireTime(pkt.bytes, lineRateBps());
        txBusyUntil_ += wt;
        txPackets_.inc();
        txBytes_.inc(pkt.bytes);
        if (loopback_)
            arrive(pkt, txBusyUntil_);
        else if (peer_)
            peer_->arrive(pkt, txBusyUntil_);
        // Unconnected line side: packet leaves the model.
    }

    // RX: packets whose last bit has arrived enter the RX queue. The
    // MAC checks the FCS: wire-corrupted packets (injected here or
    // upstream) are dropped and counted, exactly like hardware.
    while (!inFlight_.empty() && inFlight_.front().first <= t) {
        PacketDesc pkt = inFlight_.front().second;
        inFlight_.pop_front();
        if (injectFault(FaultKind::StreamBitFlip, name(), t))
            pkt.fcsError = true;
        if (pkt.fcsError) {
            rxBadFcs_.inc();
            continue;
        }
        if (!rx_.canPush()) {
            rxDropped_.inc();
            continue;
        }
        rx_.push(pkt);
        rxPackets_.inc();
        rxBytes_.inc(pkt.bytes);
    }
}

void
MacIp::reset()
{
    IpBlock::reset();
    tx_.clear();
    rx_.clear();
    inFlight_.clear();
    txBusyUntil_ = 0;
    stats_.resetAll();
}

void
MacIp::bindStatReg(const std::string &reg_name,
                   const std::string &stat_name)
{
    regs().onRead(regs().addrOf(reg_name),
                  [this, stat_name](std::uint32_t) {
                      return static_cast<std::uint32_t>(
                          stats_.value(stat_name));
                  });
}

XilinxCmac::XilinxCmac(unsigned gbps, const std::string &inst)
    : MacIp("xcmac_" + inst, Vendor::Xilinx, Protocol::Axi4Stream, gbps)
{
    // --- Register map (CMAC-style names, 32-bit space). ---
    Addr a = 0;
    auto def = [&](const char *n, bool ro = false) {
        regs().define({n, a, ro, ""});
        a += 4;
    };
    def("GT_RESET_REG");
    def("RESET_REG");
    def("CONFIGURATION_TX_REG1");
    def("CONFIGURATION_RX_REG1");
    def("CONFIGURATION_TX_FLOW_CONTROL_REG1");
    def("CONFIGURATION_RX_FLOW_CONTROL_REG1");
    def("CONFIGURATION_RSFEC_REG");
    def("CONFIGURATION_AN_CONTROL_REG1");
    def("GT_LOOPBACK_REG");
    def("TICK_REG");
    def("STAT_TX_STATUS", true);
    def("STAT_RX_STATUS", true);
    def("STAT_STATUS_REG1", true);
    def("STAT_TX_TOTAL_PACKETS", true);
    def("STAT_TX_TOTAL_BYTES", true);
    def("STAT_RX_TOTAL_PACKETS", true);
    def("STAT_RX_TOTAL_BYTES", true);
    def("STAT_RX_BAD_FCS", true);
    def("STAT_RX_DROPPED", true);
    def("STAT_AN_STATUS", true);

    // Enabling a direction brings its status lanes up (aligned).
    regs().onWrite(regs().addrOf("CONFIGURATION_RX_REG1"),
                   [this](std::uint32_t v) {
                       regs().poke(regs().addrOf("STAT_RX_STATUS"),
                                   v & 1);
                   });
    regs().onWrite(regs().addrOf("CONFIGURATION_TX_REG1"),
                   [this](std::uint32_t v) {
                       regs().poke(regs().addrOf("STAT_TX_STATUS"),
                                   v & 1);
                   });
    bindStatReg("STAT_TX_TOTAL_PACKETS", "tx_packets");
    bindStatReg("STAT_TX_TOTAL_BYTES", "tx_bytes");
    bindStatReg("STAT_RX_TOTAL_PACKETS", "rx_packets");
    bindStatReg("STAT_RX_TOTAL_BYTES", "rx_bytes");
    bindStatReg("STAT_RX_DROPPED", "rx_dropped");

    // --- Init recipe: reset, enable RX, wait for alignment, enable
    // TX, then flow control — the Figure 3d "shell A" pattern. ---
    addInitOp({RegOp::Kind::Write, "GT_RESET_REG", 1});
    addInitOp({RegOp::Kind::Write, "RESET_REG", 0});
    addInitOp({RegOp::Kind::Write, "CONFIGURATION_RX_REG1", 1});
    addInitOp({RegOp::Kind::WaitBit, "STAT_RX_STATUS", 1});
    addInitOp({RegOp::Kind::Write, "CONFIGURATION_TX_REG1", 1});
    addInitOp({RegOp::Kind::WaitBit, "STAT_TX_STATUS", 1});
    addInitOp(
        {RegOp::Kind::Write, "CONFIGURATION_TX_FLOW_CONTROL_REG1",
         0x3fff});
    addInitOp(
        {RegOp::Kind::Write, "CONFIGURATION_RX_FLOW_CONTROL_REG1", 0x3});
    addInitOp({RegOp::Kind::Read, "STAT_STATUS_REG1", 0});

    // --- Ports (AXI4-Stream + GT pins + DRP). ---
    const unsigned w = dataWidthBits();
    auto port = [&](const char *n, Protocol p, unsigned bits, bool out) {
        addPort({n, p, bits, out});
    };
    port("rx_axis_tdata", Protocol::Axi4Stream, w, true);
    port("rx_axis_tkeep", Protocol::Axi4Stream, w / 8, true);
    port("rx_axis_tvalid", Protocol::Axi4Stream, 1, true);
    port("rx_axis_tlast", Protocol::Axi4Stream, 1, true);
    port("rx_axis_tuser", Protocol::Axi4Stream, 1, true);
    port("tx_axis_tdata", Protocol::Axi4Stream, w, false);
    port("tx_axis_tkeep", Protocol::Axi4Stream, w / 8, false);
    port("tx_axis_tvalid", Protocol::Axi4Stream, 1, false);
    port("tx_axis_tready", Protocol::Axi4Stream, 1, true);
    port("tx_axis_tlast", Protocol::Axi4Stream, 1, false);
    port("tx_axis_tuser", Protocol::Axi4Stream, 1, false);
    port("gt_txp_out", Protocol::Axi4Stream, 4, true);
    port("gt_rxp_in", Protocol::Axi4Stream, 4, false);
    port("gt_ref_clk", Protocol::Axi4Stream, 1, false);
    port("init_clk", Protocol::Axi4Stream, 1, false);
    port("usr_rx_reset", Protocol::Axi4Stream, 1, true);
    port("usr_tx_reset", Protocol::Axi4Stream, 1, true);
    port("stat_rx_aligned", Protocol::Axi4Stream, 1, true);
    port("pm_tick", Protocol::Axi4Stream, 1, false);
    port("drp_addr", Protocol::Axi4Lite, 10, false);
    port("drp_di", Protocol::Axi4Lite, 16, false);
    port("drp_do", Protocol::Axi4Lite, 16, true);
    port("drp_en", Protocol::Axi4Lite, 1, false);

    // --- Configuration items. Role-oriented: the few a role actually
    // selects; the rest are shell-oriented deployment detail. ---
    auto cfg = [&](const char *n, ConfigScope s, const char *d) {
        addConfig({n, s, d, ""});
    };
    cfg("INSTANCE_RATE_GBPS", ConfigScope::RoleOriented,
        std::to_string(gbps).c_str());
    cfg("TDATA_WIDTH", ConfigScope::RoleOriented,
        std::to_string(w).c_str());
    cfg("RX_MAX_FRAME_SIZE", ConfigScope::ShellOriented, "9600");
    cfg("CAUI_MODE", ConfigScope::ShellOriented, "CAUI4");
    cfg("RSFEC_ENABLE", ConfigScope::ShellOriented, "1");
    cfg("TX_FLOW_CTRL_ENABLE", ConfigScope::ShellOriented, "0");
    cfg("RX_FLOW_CTRL_ENABLE", ConfigScope::ShellOriented, "0");
    cfg("AUTONEG_ENABLE", ConfigScope::ShellOriented, "0");
    cfg("GT_REF_CLK_MHZ", ConfigScope::ShellOriented, "161.13");
    cfg("GT_LOCATION", ConfigScope::ShellOriented, "X0Y4");
    cfg("GT_DRP_CLK_MHZ", ConfigScope::ShellOriented, "100");
    cfg("TX_IPG_VALUE", ConfigScope::ShellOriented, "12");
    cfg("PREAMBLE_MODE", ConfigScope::ShellOriented, "standard");
    cfg("LANE_COUNT", ConfigScope::ShellOriented, "4");
    cfg("PIPELINE_STAGES", ConfigScope::ShellOriented, "2");
    cfg("RUNT_FILTER_ENABLE", ConfigScope::ShellOriented, "1");
    cfg("PTP_ENABLE", ConfigScope::ShellOriented, "0");
    cfg("VLAN_DETECT_MODE", ConfigScope::ShellOriented, "none");
    cfg("GT_DIFFCTRL", ConfigScope::ShellOriented, "12");
    cfg("GT_POSTCURSOR", ConfigScope::ShellOriented, "10");
    cfg("GT_PRECURSOR", ConfigScope::ShellOriented, "0");
    cfg("GT_RXOUTCLK_SEL", ConfigScope::ShellOriented, "RXOUTCLKPMA");
    cfg("GT_TXOUTCLK_SEL", ConfigScope::ShellOriented, "TXOUTCLKPMA");
    cfg("RX_EQ_MODE", ConfigScope::ShellOriented, "AUTO");
    cfg("TX_DIFF_SWING", ConfigScope::ShellOriented, "800mV");
    cfg("STAT_HIST_ENABLE", ConfigScope::ShellOriented, "0");
    cfg("TS_CLK_PERIOD", ConfigScope::ShellOriented, "3103");
    cfg("OTN_INTERFACE", ConfigScope::ShellOriented, "0");
    cfg("RX_GT_BUFFER", ConfigScope::ShellOriented, "1");
    cfg("TX_GT_BUFFER", ConfigScope::ShellOriented, "1");
    cfg("SIM_SPEEDUP", ConfigScope::ShellOriented, "0");
    cfg("AXIS_PIPELINE_REG", ConfigScope::ShellOriented, "1");
    cfg("ULTRASCALE_PLUS_ONLY", ConfigScope::ShellOriented, "1");
    cfg("ENABLE_PIPELINE_REG", ConfigScope::ShellOriented, "1");

    addDependency("cad_tool", "vivado-2023.2");
    addDependency("ip:cmac_usplus", "3.1");
    addDependency("gt_type", "GTY");

    // Resource footprint grows with the datapath width.
    const double scale = w / 512.0;
    setResources(ResourceVector{11200, 19400, 24, 0, 0}.scaled(
        0.5 + 0.5 * scale));
    setWorkload({820, 0, 0, 0});
}

IntelEtileMac::IntelEtileMac(unsigned gbps, const std::string &inst)
    : MacIp("ietile_" + inst, Vendor::Intel, Protocol::AvalonStream,
            gbps)
{
    Addr a = 0;
    auto def = [&](const char *n, bool ro = false) {
        regs().define({n, a, ro, ""});
        a += 4;
    };
    def("phy_config");
    def("tx_mac_control");
    def("rx_mac_control");
    def("tx_mac_frame_size");
    def("rx_mac_frame_size");
    def("pause_quanta");
    def("fec_mode");
    def("loopback_mode");
    def("phy_status", true);
    def("mac_status", true);
    def("cntr_tx_frames", true);
    def("cntr_tx_bytes", true);
    def("cntr_rx_frames", true);
    def("cntr_rx_bytes", true);
    def("cntr_rx_fcs_err", true);
    def("cntr_rx_discard", true);

    // The E-tile hard IP self-initializes: enabling the MAC brings the
    // PHY up without a software wait loop (Figure 3d "shell B").
    regs().onWrite(regs().addrOf("phy_config"),
                   [this](std::uint32_t v) {
                       regs().poke(regs().addrOf("phy_status"), v & 1);
                       regs().poke(regs().addrOf("mac_status"), v & 1);
                   });
    bindStatReg("cntr_tx_frames", "tx_packets");
    bindStatReg("cntr_tx_bytes", "tx_bytes");
    bindStatReg("cntr_rx_frames", "rx_packets");
    bindStatReg("cntr_rx_bytes", "rx_bytes");
    bindStatReg("cntr_rx_discard", "rx_dropped");

    addInitOp({RegOp::Kind::Write, "phy_config", 1});
    addInitOp({RegOp::Kind::Write, "tx_mac_control", 1});
    addInitOp({RegOp::Kind::Write, "rx_mac_control", 1});

    const unsigned w = dataWidthBits();
    auto port = [&](const char *n, Protocol p, unsigned bits, bool out) {
        addPort({n, p, bits, out});
    };
    port("rx_data", Protocol::AvalonStream, w, true);
    port("rx_valid", Protocol::AvalonStream, 1, true);
    port("rx_startofpacket", Protocol::AvalonStream, 1, true);
    port("rx_endofpacket", Protocol::AvalonStream, 1, true);
    port("rx_empty", Protocol::AvalonStream, 6, true);
    port("rx_error", Protocol::AvalonStream, 6, true);
    port("tx_data", Protocol::AvalonStream, w, false);
    port("tx_valid", Protocol::AvalonStream, 1, false);
    port("tx_ready", Protocol::AvalonStream, 1, true);
    port("tx_startofpacket", Protocol::AvalonStream, 1, false);
    port("tx_endofpacket", Protocol::AvalonStream, 1, false);
    port("tx_empty", Protocol::AvalonStream, 6, false);
    port("tx_error", Protocol::AvalonStream, 1, false);
    port("tx_serial", Protocol::AvalonStream, 4, true);
    port("rx_serial", Protocol::AvalonStream, 4, false);
    port("clk_ref", Protocol::AvalonStream, 1, false);
    port("csr_clk", Protocol::AvalonMemoryMapped, 1, false);
    port("reconfig_address", Protocol::AvalonMemoryMapped, 21, false);
    port("reconfig_read", Protocol::AvalonMemoryMapped, 1, false);
    port("reconfig_write", Protocol::AvalonMemoryMapped, 1, false);
    port("reconfig_readdata", Protocol::AvalonMemoryMapped, 32, true);
    port("reconfig_writedata", Protocol::AvalonMemoryMapped, 32, false);

    auto cfg = [&](const char *n, ConfigScope s, const char *d) {
        addConfig({n, s, d, ""});
    };
    cfg("line_rate_gbps", ConfigScope::RoleOriented,
        std::to_string(gbps).c_str());
    cfg("data_bus_width", ConfigScope::RoleOriented,
        std::to_string(w).c_str());
    cfg("max_frame_size", ConfigScope::ShellOriented, "9600");
    cfg("ehip_mode", ConfigScope::ShellOriented, "MAC+PCS");
    cfg("etile_fec_mode", ConfigScope::ShellOriented, "RS528");
    cfg("pma_adaptation_mode", ConfigScope::ShellOriented, "full");
    cfg("flow_control_mode", ConfigScope::ShellOriented, "none");
    cfg("ready_latency", ConfigScope::ShellOriented, "0");
    cfg("ptp_accuracy_mode", ConfigScope::ShellOriented, "off");
    cfg("dr_mode_enable", ConfigScope::ShellOriented, "0");
    cfg("rx_vlan_detect", ConfigScope::ShellOriented, "0");
    cfg("clk_ref_mhz", ConfigScope::ShellOriented, "156.25");
    cfg("reconfig_if_enable", ConfigScope::ShellOriented, "1");
    cfg("stats_clear_on_read", ConfigScope::ShellOriented, "0");
    cfg("pma_output_swing", ConfigScope::ShellOriented, "80");
    cfg("pma_pre_emphasis", ConfigScope::ShellOriented, "0");
    cfg("rsfec_clocking_mode", ConfigScope::ShellOriented, "internal");
    cfg("am_interval", ConfigScope::ShellOriented, "16383");
    cfg("tx_pld_fifo_depth", ConfigScope::ShellOriented, "256");
    cfg("rx_pld_fifo_depth", ConfigScope::ShellOriented, "256");
    cfg("txmac_saddr_ins", ConfigScope::ShellOriented, "0");
    cfg("rx_pause_daddr_check", ConfigScope::ShellOriented, "1");
    cfg("uniform_holdoff", ConfigScope::ShellOriented, "8");
    cfg("ipg_removed_per_am", ConfigScope::ShellOriented, "20");
    cfg("enforce_max_frame", ConfigScope::ShellOriented, "1");
    cfg("link_fault_mode", ConfigScope::ShellOriented, "bidirectional");
    cfg("tx_vlan_detection", ConfigScope::ShellOriented, "0");
    cfg("pfc_priorities", ConfigScope::ShellOriented, "8");
    cfg("ehip_rate_adapter", ConfigScope::ShellOriented, "fifo");

    addDependency("cad_tool", "quartus-23.4");
    addDependency("ip:etile_hip", "22.3");
    addDependency("tile_type", "E-tile");

    const double scale = w / 512.0;
    setResources(ResourceVector{9800, 17600, 28, 0, 0}.scaled(
        0.5 + 0.5 * scale));
    setWorkload({860, 0, 0, 0});
}

std::unique_ptr<MacIp>
makeMac(Vendor vendor, unsigned gbps, const std::string &inst)
{
    switch (vendor) {
      case Vendor::Xilinx:
      case Vendor::InHouse:  // in-house boards reuse the AXI family
        return std::make_unique<XilinxCmac>(gbps, inst);
      case Vendor::Intel:
        return std::make_unique<IntelEtileMac>(gbps, inst);
    }
    panic("unreachable vendor");
}

} // namespace harmonia
