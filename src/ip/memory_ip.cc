#include "ip/memory_ip.h"

#include <algorithm>

#include "common/logging.h"
#include "sim/clock.h"

namespace harmonia {

namespace {
// Open-row timing (DDR4-2400-class): precharge + activate on a row
// miss, CAS latency pipelined behind the data bus on hits.
constexpr Tick kRowMissPenalty = 30'000;  // tRP + tRCD, 30 ns
constexpr Tick kCasLatency = 15'000;      // tCL, 15 ns
} // namespace

MemoryIp::MemoryIp(std::string name, Vendor vendor, Protocol protocol,
                   PeripheralKind kind, unsigned channels)
    : IpBlock(std::move(name), vendor, protocol,
              kind == PeripheralKind::Hbm ? 256 : 512,
              kind == PeripheralKind::Hbm ? 450.0 : 300.0),
      kind_(kind), numChannels_(channels), stats_(this->name())
{
    if (classOf(kind) != PeripheralClass::Memory)
        fatal("MemoryIp built with non-memory peripheral kind");
    if (channels == 0 || channels > 64)
        fatal("memory channel count %u out of range (1..64)", channels);
    channels_.resize(channels);
    for (auto &ch : channels_)
        ch.openRow.assign(kBanks, -1);
}

double
MemoryIp::channelBandwidth() const
{
    if (kind_ == PeripheralKind::Hbm)
        return unitBandwidth(kind_) / 32.0;  // per pseudo-channel
    return unitBandwidth(kind_);
}

std::uint32_t
MemoryIp::burstBytes() const
{
    return kind_ == PeripheralKind::Hbm ? 32 : 64;
}

std::uint32_t
MemoryIp::rowBytes() const
{
    return kind_ == PeripheralKind::Hbm ? 2048 : 8192;
}

bool
MemoryIp::post(unsigned channel, const MemRequest &req)
{
    if (channel >= numChannels_)
        fatal("memory '%s': channel %u out of range (%u)",
              name().c_str(), channel, numChannels_);
    if (req.bytes == 0)
        fatal("memory request of zero bytes");
    if (!channels_[channel].queue.canPush()) {
        rejected_.inc();
        return false;
    }
    channels_[channel].queue.push(req);
    return true;
}

MemCompletion
MemoryIp::popCompletion()
{
    if (completions_.empty())
        fatal("memory '%s': popCompletion with none pending",
              name().c_str());
    return completions_.pop();
}

std::size_t
MemoryIp::queueDepth(unsigned channel) const
{
    if (channel >= numChannels_)
        fatal("queueDepth: channel %u out of range", channel);
    return channels_[channel].queue.size();
}

void
MemoryIp::tick()
{
    const Tick t = now();

    // Channels work ahead within the current cycle so service is not
    // quantized to clock edges.
    const Tick window = t + (clock() ? clock()->period() : 1);
    for (auto &ch : channels_) {
        if (ch.busBusyUntil < t)
            ch.busBusyUntil = t;
        while (ch.queue.canPop() && ch.busBusyUntil < window) {
            MemRequest req = ch.queue.pop();

            const std::uint64_t row_index = req.addr / rowBytes();
            const unsigned bank =
                static_cast<unsigned>(row_index % kBanks);
            const auto row =
                static_cast<std::int64_t>(row_index / kBanks);

            Tick occupancy = 0;
            if (ch.openRow[bank] != row) {
                occupancy += kRowMissPenalty;
                ch.openRow[bank] = row;
                rowMisses_.inc();
            } else {
                rowHits_.inc();
            }
            const std::uint32_t moved =
                std::max(req.bytes, burstBytes());
            occupancy += static_cast<Tick>(
                moved / channelBandwidth() * kTicksPerSecond);
            ch.busBusyUntil += occupancy;

            MemCompletion c{req, ch.busBusyUntil + kCasLatency};
            auto it = std::upper_bound(
                inFlight_.begin(), inFlight_.end(), c.completed,
                [](Tick x, const auto &e) { return x < e.first; });
            inFlight_.insert(it, {c.completed, c});

            (req.write ? writes_ : reads_).inc();
            bytes_.inc(req.bytes);
        }
    }

    while (!inFlight_.empty() && inFlight_.front().first <= t) {
        if (!completions_.canPush())
            break;
        completions_.push(inFlight_.front().second);
        inFlight_.pop_front();
    }
}

void
MemoryIp::reset()
{
    IpBlock::reset();
    for (auto &ch : channels_) {
        ch.queue.clear();
        ch.busBusyUntil = 0;
        ch.openRow.assign(kBanks, -1);
    }
    inFlight_.clear();
    completions_.clear();
    stats_.resetAll();
}

void
MemoryIp::storeWrite(Addr addr, const std::vector<std::uint8_t> &data)
{
    for (std::size_t i = 0; i < data.size(); ++i) {
        const Addr byte = addr + i;
        const Addr page = byte / kPageSize;
        auto &store = pages_[page];
        if (store.empty())
            store.assign(kPageSize, 0);
        store[byte % kPageSize] = data[i];
    }
}

std::vector<std::uint8_t>
MemoryIp::storeRead(Addr addr, std::size_t len)
{
    std::vector<std::uint8_t> out(len, 0);
    for (std::size_t i = 0; i < len; ++i) {
        const Addr byte = addr + i;
        auto it = pages_.find(byte / kPageSize);
        if (it != pages_.end())
            out[i] = it->second[byte % kPageSize];
    }
    return out;
}

void
MemoryIp::bindStatReg(const std::string &reg_name,
                      const std::string &stat_name)
{
    regs().onRead(regs().addrOf(reg_name),
                  [this, stat_name](std::uint32_t) {
                      return static_cast<std::uint32_t>(
                          stats_.value(stat_name));
                  });
}

XilinxMigDdr4::XilinxMigDdr4(unsigned channels, const std::string &inst)
    : MemoryIp("xmig_" + inst, Vendor::Xilinx,
               Protocol::Axi4MemoryMapped, PeripheralKind::Ddr4,
               channels)
{
    Addr a = 0;
    auto def = [&](const char *n, bool ro = false) {
        regs().define({n, a, ro, ""});
        a += 4;
    };
    def("MIG_CTRL");
    def("ECC_EN");
    def("REF_INTERVAL");
    def("ADDR_MODE");
    def("ZQ_CAL_CTRL");
    def("INIT_CALIB_COMPLETE", true);
    def("ECC_STATUS", true);
    def("STAT_RD_OPS", true);
    def("STAT_WR_OPS", true);
    def("STAT_RD_BYTES", true);
    def("STAT_ROW_HITS", true);
    def("STAT_ROW_MISSES", true);
    def("TEMP_MON", true);

    // Calibration auto-completes in the model.
    regs().poke(regs().addrOf("INIT_CALIB_COMPLETE"), 1);
    bindStatReg("STAT_RD_OPS", "reads");
    bindStatReg("STAT_WR_OPS", "writes");
    bindStatReg("STAT_RD_BYTES", "bytes");
    bindStatReg("STAT_ROW_HITS", "row_hits");
    bindStatReg("STAT_ROW_MISSES", "row_misses");

    addInitOp({RegOp::Kind::WaitBit, "INIT_CALIB_COMPLETE", 1});
    addInitOp({RegOp::Kind::Write, "ECC_EN", 1});
    addInitOp({RegOp::Kind::Write, "REF_INTERVAL", 7800});
    addInitOp({RegOp::Kind::Write, "ADDR_MODE", 0x2});
    addInitOp({RegOp::Kind::Write, "MIG_CTRL", 1});
    addInitOp({RegOp::Kind::Read, "ECC_STATUS", 0});

    const unsigned w = dataWidthBits();
    auto port = [&](const char *n, Protocol p, unsigned bits, bool out) {
        addPort({n, p, bits, out});
    };
    port("s_axi_awaddr", Protocol::Axi4MemoryMapped, 33, false);
    port("s_axi_awlen", Protocol::Axi4MemoryMapped, 8, false);
    port("s_axi_wdata", Protocol::Axi4MemoryMapped, w, false);
    port("s_axi_wstrb", Protocol::Axi4MemoryMapped, w / 8, false);
    port("s_axi_bresp", Protocol::Axi4MemoryMapped, 2, true);
    port("s_axi_araddr", Protocol::Axi4MemoryMapped, 33, false);
    port("s_axi_arlen", Protocol::Axi4MemoryMapped, 8, false);
    port("s_axi_rdata", Protocol::Axi4MemoryMapped, w, true);
    port("s_axi_rresp", Protocol::Axi4MemoryMapped, 2, true);
    port("ddr4_adr", Protocol::Axi4MemoryMapped, 17, true);
    port("ddr4_ba", Protocol::Axi4MemoryMapped, 2, true);
    port("ddr4_bg", Protocol::Axi4MemoryMapped, 2, true);
    port("ddr4_dq", Protocol::Axi4MemoryMapped, 64, true);
    port("ddr4_dqs", Protocol::Axi4MemoryMapped, 8, true);
    port("sys_clk_p", Protocol::Axi4MemoryMapped, 1, false);
    port("c0_init_calib_complete", Protocol::Axi4MemoryMapped, 1, true);

    auto cfg = [&](const char *n, ConfigScope s, const char *d) {
        addConfig({n, s, d, ""});
    };
    cfg("CHANNEL_COUNT", ConfigScope::RoleOriented,
        std::to_string(channels).c_str());
    cfg("DATA_WIDTH", ConfigScope::RoleOriented, "512");
    cfg("MEMORY_SIZE_GB", ConfigScope::ShellOriented, "16");
    cfg("SPEED_BIN", ConfigScope::ShellOriented, "DDR4-2400");
    cfg("CAS_LATENCY", ConfigScope::ShellOriented, "17");
    cfg("ECC_MODE", ConfigScope::ShellOriented, "sideband");
    cfg("ADDR_MAPPING", ConfigScope::ShellOriented, "ROW_BANK_COL");
    cfg("REFRESH_MODE", ConfigScope::ShellOriented, "1x");
    cfg("SELF_REFRESH", ConfigScope::ShellOriented, "0");
    cfg("DQ_WIDTH", ConfigScope::ShellOriented, "72");
    cfg("CLAMSHELL", ConfigScope::ShellOriented, "0");
    cfg("DM_DBI", ConfigScope::ShellOriented, "DM_NO_DBI");
    cfg("CLKFBOUT_MULT", ConfigScope::ShellOriented, "8");
    cfg("DIVCLK_DIVIDE", ConfigScope::ShellOriented, "1");
    cfg("CLKOUT0_DIVIDE", ConfigScope::ShellOriented, "4");
    cfg("SLOT_CONFIG", ConfigScope::ShellOriented, "single");
    cfg("ODT_CONFIG", ConfigScope::ShellOriented, "RZQ6");
    cfg("OUTPUT_DRV", ConfigScope::ShellOriented, "RZQ7");
    cfg("RTT_NOM", ConfigScope::ShellOriented, "RZQ6");
    cfg("RTT_WR", ConfigScope::ShellOriented, "dynamic_off");
    cfg("CHIP_SELECT", ConfigScope::ShellOriented, "1");
    cfg("TEMP_MONITOR", ConfigScope::ShellOriented, "1");
    cfg("RESTORE_CRC", ConfigScope::ShellOriented, "0");
    cfg("SAVE_RESTORE", ConfigScope::ShellOriented, "0");
    cfg("PHY_RATIO", ConfigScope::ShellOriented, "4to1");
    cfg("AUTO_PRECHARGE", ConfigScope::ShellOriented, "0");
    cfg("USER_REFRESH", ConfigScope::ShellOriented, "0");
    cfg("MIGRATION_MODE", ConfigScope::ShellOriented, "0");

    addDependency("cad_tool", "vivado-2023.2");
    addDependency("ip:ddr4", "2.2");

    setResources(ResourceVector{18200, 24100, 25, 0, 3}.scaled(
        static_cast<double>(channels)));
    setWorkload({560, 0, 0, 0});
}

IntelEmifDdr4::IntelEmifDdr4(unsigned channels, const std::string &inst)
    : MemoryIp("iemif_" + inst, Vendor::Intel,
               Protocol::AvalonMemoryMapped, PeripheralKind::Ddr4,
               channels)
{
    Addr a = 0;
    auto def = [&](const char *n, bool ro = false) {
        regs().define({n, a, ro, ""});
        a += 4;
    };
    def("emif_ctrl");
    def("ecc_enable");
    def("refresh_rate");
    def("addr_order");
    def("cal_control");
    def("afi_cal_success", true);
    def("ecc_status", true);
    def("cntr_reads", true);
    def("cntr_writes", true);
    def("cntr_bytes", true);
    def("cntr_page_hits", true);
    def("emif_status", true);

    regs().onWrite(regs().addrOf("cal_control"),
                   [this](std::uint32_t v) {
                       regs().poke(regs().addrOf("afi_cal_success"),
                                   v & 1);
                   });
    bindStatReg("cntr_reads", "reads");
    bindStatReg("cntr_writes", "writes");
    bindStatReg("cntr_bytes", "bytes");
    bindStatReg("cntr_page_hits", "row_hits");

    addInitOp({RegOp::Kind::Write, "cal_control", 1});
    addInitOp({RegOp::Kind::WaitBit, "afi_cal_success", 1});
    addInitOp({RegOp::Kind::Write, "ecc_enable", 1});
    addInitOp({RegOp::Kind::Write, "addr_order", 0x1});
    addInitOp({RegOp::Kind::Write, "emif_ctrl", 1});

    const unsigned w = dataWidthBits();
    auto port = [&](const char *n, Protocol p, unsigned bits, bool out) {
        addPort({n, p, bits, out});
    };
    port("amm_address", Protocol::AvalonMemoryMapped, 27, false);
    port("amm_burstcount", Protocol::AvalonMemoryMapped, 7, false);
    port("amm_writedata", Protocol::AvalonMemoryMapped, w, false);
    port("amm_byteenable", Protocol::AvalonMemoryMapped, w / 8, false);
    port("amm_readdata", Protocol::AvalonMemoryMapped, w, true);
    port("amm_readdatavalid", Protocol::AvalonMemoryMapped, 1, true);
    port("amm_waitrequest", Protocol::AvalonMemoryMapped, 1, true);
    port("mem_ck", Protocol::AvalonMemoryMapped, 1, true);
    port("mem_a", Protocol::AvalonMemoryMapped, 17, true);
    port("mem_ba", Protocol::AvalonMemoryMapped, 2, true);
    port("mem_dq", Protocol::AvalonMemoryMapped, 64, true);
    port("pll_ref_clk", Protocol::AvalonMemoryMapped, 1, false);
    port("local_cal_success", Protocol::AvalonMemoryMapped, 1, true);

    auto cfg = [&](const char *n, ConfigScope s, const char *d) {
        addConfig({n, s, d, ""});
    };
    cfg("channel_count", ConfigScope::RoleOriented,
        std::to_string(channels).c_str());
    cfg("avmm_data_width", ConfigScope::RoleOriented, "512");
    cfg("mem_capacity_gb", ConfigScope::ShellOriented, "16");
    cfg("memory_protocol", ConfigScope::ShellOriented, "DDR4");
    cfg("speed_grade", ConfigScope::ShellOriented, "2400");
    cfg("ecc_policy", ConfigScope::ShellOriented, "inline");
    cfg("bank_interleave", ConfigScope::ShellOriented, "enabled");
    cfg("refresh_policy", ConfigScope::ShellOriented, "auto");
    cfg("io_standard", ConfigScope::ShellOriented, "SSTL-12");
    cfg("ck_width", ConfigScope::ShellOriented, "1");
    cfg("pll_ref_clk_mhz", ConfigScope::ShellOriented, "133.33");
    cfg("mem_clk_mhz", ConfigScope::ShellOriented, "1200");
    cfg("rank_count", ConfigScope::ShellOriented, "1");
    cfg("dqs_tracking", ConfigScope::ShellOriented, "1");
    cfg("periodic_recal", ConfigScope::ShellOriented, "1");
    cfg("cal_address_mode", ConfigScope::ShellOriented, "skip");
    cfg("ac_parity", ConfigScope::ShellOriented, "0");
    cfg("alert_n_use", ConfigScope::ShellOriented, "1");
    cfg("mem_odt", ConfigScope::ShellOriented, "RZQ6");
    cfg("output_drive", ConfigScope::ShellOriented, "RZQ7");
    cfg("rd_preamble", ConfigScope::ShellOriented, "1tCK");
    cfg("wr_preamble", ConfigScope::ShellOriented, "1tCK");
    cfg("fine_refresh", ConfigScope::ShellOriented, "fixed_1x");
    cfg("addr_mirroring", ConfigScope::ShellOriented, "0");
    cfg("hmc_mode", ConfigScope::ShellOriented, "hard");

    addDependency("cad_tool", "quartus-23.4");
    addDependency("ip:emif", "22.3");

    setResources(ResourceVector{16900, 22300, 28, 0, 2}.scaled(
        static_cast<double>(channels)));
    setWorkload({580, 0, 0, 0});
}

XilinxHbm::XilinxHbm(const std::string &inst)
    : MemoryIp("xhbm_" + inst, Vendor::Xilinx,
               Protocol::Axi4MemoryMapped, PeripheralKind::Hbm, 32)
{
    Addr a = 0;
    auto def = [&](const char *n, bool ro = false) {
        regs().define({n, a, ro, ""});
        a += 4;
    };
    def("HBM_CTRL");
    def("APB_CTRL");
    def("ADDR_INTERLEAVE");
    def("ECC_CTRL");
    def("REF_MODE");
    def("APB_COMPLETE", true);
    def("HBM_TEMP", true);
    def("STAT_RD_OPS", true);
    def("STAT_WR_OPS", true);
    def("STAT_BYTES", true);
    def("STAT_BANK_CONFLICTS", true);
    def("CATTRIP_STATUS", true);

    regs().onWrite(regs().addrOf("APB_CTRL"),
                   [this](std::uint32_t v) {
                       regs().poke(regs().addrOf("APB_COMPLETE"), v & 1);
                   });
    bindStatReg("STAT_RD_OPS", "reads");
    bindStatReg("STAT_WR_OPS", "writes");
    bindStatReg("STAT_BYTES", "bytes");
    bindStatReg("STAT_BANK_CONFLICTS", "row_misses");

    addInitOp({RegOp::Kind::Write, "APB_CTRL", 1});
    addInitOp({RegOp::Kind::WaitBit, "APB_COMPLETE", 1});
    addInitOp({RegOp::Kind::Write, "ADDR_INTERLEAVE", 1});
    addInitOp({RegOp::Kind::Write, "ECC_CTRL", 1});
    addInitOp({RegOp::Kind::Write, "HBM_CTRL", 1});
    addInitOp({RegOp::Kind::Read, "CATTRIP_STATUS", 0});

    const unsigned w = dataWidthBits();
    auto port = [&](const char *n, Protocol p, unsigned bits, bool out) {
        addPort({n, p, bits, out});
    };
    // One AXI port per pseudo-channel in hardware; the inventory
    // records the port template plus the APB management port.
    port("saxi_pc_awaddr", Protocol::Axi4MemoryMapped, 33, false);
    port("saxi_pc_awlen", Protocol::Axi4MemoryMapped, 4, false);
    port("saxi_pc_wdata", Protocol::Axi4MemoryMapped, w, false);
    port("saxi_pc_wstrb", Protocol::Axi4MemoryMapped, w / 8, false);
    port("saxi_pc_araddr", Protocol::Axi4MemoryMapped, 33, false);
    port("saxi_pc_rdata", Protocol::Axi4MemoryMapped, w, true);
    port("apb_paddr", Protocol::Axi4Lite, 22, false);
    port("apb_pwdata", Protocol::Axi4Lite, 32, false);
    port("apb_prdata", Protocol::Axi4Lite, 32, true);
    port("hbm_ref_clk", Protocol::Axi4MemoryMapped, 1, false);
    port("cattrip_pin", Protocol::Axi4MemoryMapped, 1, true);

    auto cfg = [&](const char *n, ConfigScope s, const char *d) {
        addConfig({n, s, d, ""});
    };
    cfg("PC_COUNT", ConfigScope::RoleOriented, "32");
    cfg("STACK_SIZE_GB", ConfigScope::RoleOriented, "8");
    cfg("AXI_DATA_WIDTH", ConfigScope::ShellOriented, "256");
    cfg("INTERLEAVE_MODE", ConfigScope::ShellOriented, "enabled");
    cfg("ECC_SCRUB", ConfigScope::ShellOriented, "1");
    cfg("TEMP_THROTTLE", ConfigScope::ShellOriented, "1");
    cfg("CLOCK_MHZ", ConfigScope::ShellOriented, "450");
    cfg("REORDER_EN", ConfigScope::ShellOriented, "1");
    cfg("STACK_COUNT", ConfigScope::ShellOriented, "2");
    cfg("SWITCH_ENABLE", ConfigScope::ShellOriented, "1");
    cfg("AXI_CLK_SEL", ConfigScope::ShellOriented, "independent");
    cfg("TRAFFIC_PATTERN", ConfigScope::ShellOriented, "linear");
    cfg("PAGEHIT_PCT", ConfigScope::ShellOriented, "75");
    cfg("WRITE_PCT", ConfigScope::ShellOriented, "50");
    cfg("PHY_PCLK", ConfigScope::ShellOriented, "100");
    cfg("MC_ENABLE", ConfigScope::ShellOriented, "ALL");
    cfg("REFRESH_MODE", ConfigScope::ShellOriented, "single");
    cfg("HOLDOFF_TIME", ConfigScope::ShellOriented, "auto");
    cfg("LOOKAHEAD_PCH", ConfigScope::ShellOriented, "1");
    cfg("LOOKAHEAD_ACT", ConfigScope::ShellOriented, "1");
    cfg("XSDB_MONITOR", ConfigScope::ShellOriented, "0");

    addDependency("cad_tool", "vivado-2023.2");
    addDependency("ip:hbm", "1.0");

    setResources(ResourceVector{28400, 39200, 64, 0, 0});
    setWorkload({640, 0, 0, 0});
}

std::unique_ptr<MemoryIp>
makeMemory(Vendor chip_vendor, PeripheralKind kind, unsigned channels,
           const std::string &inst)
{
    if (kind == PeripheralKind::Hbm) {
        if (chip_vendor == Vendor::Intel)
            fatal("no HBM controller model for Intel chips");
        return std::make_unique<XilinxHbm>(inst);
    }
    switch (chip_vendor) {
      case Vendor::Xilinx:
      case Vendor::InHouse:
        return std::make_unique<XilinxMigDdr4>(channels, inst);
      case Vendor::Intel:
        return std::make_unique<IntelEmifDdr4>(channels, inst);
    }
    panic("unreachable vendor");
}

} // namespace harmonia
