#include "shell/network_rbb.h"

#include "common/bits.h"
#include "common/logging.h"

namespace harmonia {

namespace {
// Packet filter + flow director soft logic.
const ResourceVector kExResources{4200, 5600, 12, 0, 0};
// Reusable control + monitoring logic.
const ResourceVector kCmResources{2100, 3000, 2, 0, 0};
} // namespace

ResourceVector
NetworkRbb::plannedSoftLogic()
{
    return kExResources + kCmResources +
           StreamWrapper::plannedResources();
}

NetworkRbb::NetworkRbb(Engine &engine, Clock *rbb_clk,
                       Vendor chip_vendor, unsigned gbps,
                       std::uint8_t instance_id)
    : Rbb(format("net_rbb%u", instance_id), RbbKind::Network,
          instance_id),
      mac_(makeMac(chip_vendor, gbps,
                   format("n%u", instance_id))),
      wrapper_(name() + ".wrap"),
      flowTable_(kFlowTableSize, 0)
{
    defineCtrlRegs();

    setExResources(kExResources);
    setCmResources(kCmResources);
    // Workload calibration: see shell/workload_model.cc.
    setReusableWeights(3540, 470, 300);

    // Registration order: RBB (consumer) before MAC (producer).
    engine.add(this, rbb_clk);
    engine.add(&wrapper_, rbb_clk);
    engine.add(mac_.get(), rbb_clk);
}

void
NetworkRbb::defineCtrlRegs()
{
    Addr a = 0;
    auto def = [&](const char *n, bool ro = false) {
        ctrlRegs().define({n, a, ro, ""});
        a += 4;
    };
    def("FILTER_ENABLE");
    def("LOCAL_MAC_LO");
    def("LOCAL_MAC_HI");
    def("DIRECTOR_MODE");
    def("DIRECTOR_QUEUES");
    def("FLOW_TBL_IDX");
    def("FLOW_TBL_DATA");
    def("MON_RX_PACKETS", true);
    def("MON_RX_BYTES", true);
    def("MON_TX_PACKETS", true);
    def("MON_TX_BYTES", true);
    def("MON_FILTERED", true);
    def("MON_RX_DROPS", true);
    def("MON_QUEUE_USAGE", true);

    ctrlRegs().onWrite(ctrlRegs().addrOf("FILTER_ENABLE"),
                       [this](std::uint32_t v) {
                           filterEnabled_ = v & 1;
                       });
    ctrlRegs().onWrite(ctrlRegs().addrOf("LOCAL_MAC_LO"),
                       [this](std::uint32_t v) {
                           localMac_ = (localMac_ & ~0xffffffffULL) | v;
                       });
    ctrlRegs().onWrite(ctrlRegs().addrOf("LOCAL_MAC_HI"),
                       [this](std::uint32_t v) {
                           localMac_ =
                               (localMac_ & 0xffffffffULL) |
                               (static_cast<std::uint64_t>(v) << 32);
                       });
    ctrlRegs().onWrite(ctrlRegs().addrOf("DIRECTOR_MODE"),
                       [this](std::uint32_t v) {
                           directorMode_ = v == 0 ? DirectorMode::Hash
                                                  : DirectorMode::Table;
                       });
    ctrlRegs().onWrite(ctrlRegs().addrOf("DIRECTOR_QUEUES"),
                       [this](std::uint32_t v) {
                           setDirectorQueues(
                               static_cast<std::uint16_t>(v));
                       });
    ctrlRegs().onWrite(
        ctrlRegs().addrOf("FLOW_TBL_DATA"), [this](std::uint32_t v) {
            const std::uint32_t idx =
                ctrlRegs().peek(ctrlRegs().addrOf("FLOW_TBL_IDX"));
            setFlowTableEntry(idx, static_cast<std::uint16_t>(v));
        });

    auto bind = [&](const char *reg, const char *stat) {
        ctrlRegs().onRead(ctrlRegs().addrOf(reg),
                          [this, stat](std::uint32_t) {
                              return static_cast<std::uint32_t>(
                                  monitor().value(stat));
                          });
    };
    bind("MON_RX_PACKETS", "rx_packets");
    bind("MON_RX_BYTES", "rx_bytes");
    bind("MON_TX_PACKETS", "tx_packets");
    bind("MON_TX_BYTES", "tx_bytes");
    bind("MON_FILTERED", "filtered_packets");
    bind("MON_RX_DROPS", "rx_drops");
    ctrlRegs().onRead(ctrlRegs().addrOf("MON_QUEUE_USAGE"),
                      [this](std::uint32_t) {
                          return static_cast<std::uint32_t>(
                              rxOut_.size());
                      });
}

PacketDesc
NetworkRbb::rxPop()
{
    noteMutation();
    if (rxOut_.empty())
        fatal("NetworkRbb '%s': rxPop with nothing available",
              name().c_str());
    return rxOut_.pop();
}

void
NetworkRbb::txPush(const PacketDesc &pkt)
{
    noteMutation();
    if (!txIn_.canPush())
        fatal("NetworkRbb '%s': txPush without txReady",
              name().c_str());
    txIn_.push(pkt);
}

void
NetworkRbb::setLocalMac(std::uint64_t mac)
{
    ctrlRegs().write(ctrlRegs().addrOf("LOCAL_MAC_LO"),
                     static_cast<std::uint32_t>(mac));
    ctrlRegs().write(ctrlRegs().addrOf("LOCAL_MAC_HI"),
                     static_cast<std::uint32_t>(mac >> 32));
}

void
NetworkRbb::setFilterEnabled(bool on)
{
    ctrlRegs().write(ctrlRegs().addrOf("FILTER_ENABLE"), on ? 1 : 0);
}

void
NetworkRbb::addMulticastGroup(std::uint64_t mac)
{
    multicastGroups_.insert(mac);
}

bool
NetworkRbb::inMulticastGroup(std::uint64_t mac) const
{
    return multicastGroups_.count(mac) != 0;
}

void
NetworkRbb::setDirectorMode(DirectorMode mode)
{
    ctrlRegs().write(ctrlRegs().addrOf("DIRECTOR_MODE"),
                     mode == DirectorMode::Hash ? 0 : 1);
}

void
NetworkRbb::setDirectorQueues(std::uint16_t n)
{
    if (n == 0)
        fatal("flow director needs at least one queue");
    directorQueues_ = n;
}

void
NetworkRbb::setFlowTableEntry(std::uint32_t index, std::uint16_t queue)
{
    if (index >= flowTable_.size())
        fatal("flow table index %u out of range (%zu)", index,
              flowTable_.size());
    if (flowTable_[index] == 0 && queue != 0)
        ++flowEntriesProgrammed_;
    flowTable_[index] = queue;
}

std::uint16_t
NetworkRbb::flowTableEntry(std::uint32_t index) const
{
    if (index >= flowTable_.size())
        fatal("flow table index %u out of range (%zu)", index,
              flowTable_.size());
    return flowTable_[index];
}

void
NetworkRbb::setRxShed(bool on)
{
    if (rxShed_ != on)
        (on ? shedEnters_ : shedExits_).inc();
    rxShed_ = on;
    rxShedPhase_ = 0;
}

double
NetworkRbb::rxBitsPerSecond() const
{
    return rxBytesMeter_.ratePerSecond() * 8;
}

double
NetworkRbb::rxPacketsPerSecond() const
{
    return rxPacketsMeter_.ratePerSecond();
}

void
NetworkRbb::registerTelemetry(MetricsRegistry &reg,
                              const std::string &prefix)
{
    Rbb::registerTelemetry(reg, prefix);
    wrapper_.registerTelemetry(reg, prefix + "/wrapper");
    telemetryHandle().addRate(prefix + "/rx_pps", &rxPacketsMeter_);
    telemetryHandle().addRate(prefix + "/rx_Bps", &rxBytesMeter_);
    telemetryHandle().addGauge(prefix + "/rx_queue_usage", [this] {
        return static_cast<double>(rxOut_.size());
    });
}

std::uint16_t
NetworkRbb::directQueue(std::uint64_t flow_hash) const
{
    if (directorMode_ == DirectorMode::Hash)
        return static_cast<std::uint16_t>(flow_hash % directorQueues_);
    return flowTable_[flow_hash % flowTable_.size()];
}

bool
NetworkRbb::filterPass(const PacketDesc &pkt)
{
    if (!filterEnabled_)
        return true;
    if (pkt.dstMac == localMac_)
        return true;
    if (pkt.multicast && inMulticastGroup(pkt.dstMac))
        return true;
    filteredPackets_.inc();
    return false;
}

void
NetworkRbb::tick()
{
    // RX: MAC -> wrapper (translation latency).
    while (mac_->rxAvailable())
        wrapper_.ingressPush(mac_->rxPop());

    // Wrapper -> filter -> director -> role queue.
    while (wrapper_.ingressAvailable()) {
        if (!rxOut_.canPush()) {
            rxDrops_.inc();
            wrapper_.ingressPop();
            continue;
        }
        PacketDesc pkt = wrapper_.ingressPop();
        if (pkt.fcsError) {
            // Corrupted on a shell-internal link (injected fault);
            // the filter stage drops it like the MAC drops bad FCS.
            rxBadFcs_.inc();
            continue;
        }
        if (rxShed_ && (rxShedPhase_++ & 1)) {
            rxShedDrops_.inc();
            continue;
        }
        if (!filterPass(pkt))
            continue;
        pkt.queue = directQueue(pkt.flowHash);
        rxPackets_.inc();
        rxBytes_.inc(pkt.bytes);
        rxBytesMeter_.record(now(), pkt.bytes);
        rxPacketsMeter_.record(now());
        rxOut_.push(pkt);
    }

    // TX: role -> wrapper -> MAC.
    while (txIn_.canPop())
        wrapper_.egressPush(txIn_.pop());
    while (wrapper_.egressAvailable() && mac_->txReady()) {
        PacketDesc pkt = wrapper_.egressPop();
        txPackets_.inc();
        txBytes_.inc(pkt.bytes);
        mac_->txPush(pkt);
    }
}

std::size_t
NetworkRbb::registerInitOpCount() const
{
    // Instance recipe + filter programming (enable, MAC lo/hi) +
    // director setup + per-entry table programming (index + data
    // registers per entry).
    std::size_t n = instance().initSequence().size() + 3 + 2;
    n += 2 * flowEntriesProgrammed_;
    return n;
}

std::size_t
NetworkRbb::commandInitCount() const
{
    // ModuleInit + one StatusWrite batch for filter/director config;
    // bulk TableWrite commands cover 12 entries each.
    return 2 + ceilDiv(flowEntriesProgrammed_, 12);
}

CommandResult
NetworkRbb::tableWrite(const std::vector<std::uint32_t> &data)
{
    if (data.size() < 2)
        return {kCmdBadArgument, {}};
    const std::uint32_t table = data[0];
    if (table == 0) {
        // Flow table bulk write: data[1]=start, data[2..]=queues.
        const std::uint32_t start = data[1];
        for (std::size_t i = 2; i < data.size(); ++i) {
            const std::uint32_t idx =
                start + static_cast<std::uint32_t>(i - 2);
            if (idx >= flowTable_.size())
                return {kCmdBadArgument, {}};
            setFlowTableEntry(idx,
                              static_cast<std::uint16_t>(data[i]));
        }
        return {kCmdOk, {}};
    }
    if (table == 1) {
        // Multicast group: data[1]=mac lo, data[2]=mac hi.
        if (data.size() < 3)
            return {kCmdBadArgument, {}};
        addMulticastGroup(
            (static_cast<std::uint64_t>(data[2]) << 32) | data[1]);
        return {kCmdOk, {}};
    }
    return {kCmdBadArgument, {}};
}

CommandResult
NetworkRbb::tableRead(const std::vector<std::uint32_t> &data)
{
    if (data.size() < 2 || data[0] != 0)
        return {kCmdBadArgument, {}};
    const std::uint32_t idx = data[1];
    if (idx >= flowTable_.size())
        return {kCmdBadArgument, {}};
    return {kCmdOk, {flowTable_[idx]}};
}

void
NetworkRbb::onReset()
{
    filterEnabled_ = false;
    localMac_ = 0;
    multicastGroups_.clear();
    directorMode_ = DirectorMode::Hash;
    rxShed_ = false;
    rxShedPhase_ = 0;
    flowTable_.assign(kFlowTableSize, 0);
    flowEntriesProgrammed_ = 0;
    rxOut_.clear();
    txIn_.clear();
    rxBytesMeter_.reset();
    rxPacketsMeter_.reset();
}

} // namespace harmonia
