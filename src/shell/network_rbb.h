/**
 * @file
 * Network RBB (§3.3.1): a vendor MAC instance wrapped by the uniform
 * stream interface, plus reusable Ex-functions — a packet filter for
 * multicast scenarios and a flow director for multi-tenant isolation —
 * and real-time monitoring (throughput, packet loss, queue usage).
 */

#ifndef HARMONIA_SHELL_NETWORK_RBB_H_
#define HARMONIA_SHELL_NETWORK_RBB_H_

#include <memory>
#include <set>
#include <vector>

#include "ip/mac_ip.h"
#include "rtl/fifo.h"
#include "shell/rbb.h"
#include "sim/engine.h"
#include "wrapper/stream_wrapper.h"

namespace harmonia {

/** Flow-director operating modes. */
enum class DirectorMode {
    Hash,   ///< queue = flowHash % active queues (default)
    Table,  ///< queue from the programmable flow table
};

/**
 * The Network RBB. RX path: MAC -> wrapper -> packet filter -> flow
 * director -> role; TX path: role -> wrapper -> MAC. Stream data
 * interface, 32-bit reg control interface.
 */
class NetworkRbb : public Rbb {
  public:
    /** Programmable flow-table entries. */
    static constexpr std::size_t kFlowTableSize = 256;

    /** Ex-function + control/monitor + wrapper soft logic one
     *  instance adds, available before construction (DRC). */
    static ResourceVector plannedSoftLogic();

    NetworkRbb(Engine &engine, Clock *rbb_clk, Vendor chip_vendor,
               unsigned gbps, std::uint8_t instance_id = 0);

    MacIp &mac() { return *mac_; }
    StreamWrapper &wrapper() { return wrapper_; }
    IpBlock &instance() override { return *mac_; }
    using Rbb::instance;

    /** Role-facing RX (post filter + director). */
    bool rxAvailable() const { return !rxOut_.empty(); }
    PacketDesc rxPop();

    /** Role-facing TX. */
    bool txReady() const { return txIn_.canPush(); }
    void txPush(const PacketDesc &pkt);

    // --- Ex-function configuration (mirrored in ctrl registers). ---
    void setLocalMac(std::uint64_t mac);
    std::uint64_t localMac() const { return localMac_; }
    void setFilterEnabled(bool on);
    bool filterEnabled() const { return filterEnabled_; }
    void addMulticastGroup(std::uint64_t mac);
    bool inMulticastGroup(std::uint64_t mac) const;
    void setDirectorMode(DirectorMode mode);
    DirectorMode directorMode() const { return directorMode_; }
    void setDirectorQueues(std::uint16_t n);
    void setFlowTableEntry(std::uint32_t index, std::uint16_t queue);
    std::uint16_t flowTableEntry(std::uint32_t index) const;

    /** Queue the director would pick for a flow hash. */
    std::uint16_t directQueue(std::uint64_t flow_hash) const;

    /** Real-time RX throughput in bits/second (monitoring logic). */
    double rxBitsPerSecond() const;

    /** Real-time RX packet rate in packets/second. */
    double rxPacketsPerSecond() const;

    /** Loop the MAC line side back (Fig 10a test). */
    void setLoopback(bool on) { mac_->setLoopback(on); }

    /**
     * Degraded mode (driven by RecoveryManager on over-temp): shed
     * every other role-bound RX packet to halve the ingress rate.
     * Shed packets are counted in the `rx_shed` monitor stat — the
     * degradation is declared, never silent.
     */
    void setRxShed(bool on);
    bool rxShedding() const { return rxShed_; }

    void tick() override;

    /** No packet movable on either path this cycle. (rxOut_ waits for
     *  the role to pop; no tick needed for that.) */
    bool idle() const override
    {
        return !mac_->rxAvailable() && !wrapper_.ingressAvailable() &&
               !txIn_.canPop() &&
               !(wrapper_.egressAvailable() && mac_->txReady());
    }

    /** Next maturation inside the wrapper pipelines. */
    Tick wakeTime() const override { return wrapper_.nextReadyAt(); }

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
    tableWrite(const std::vector<std::uint32_t> &data) override;
    CommandResult
    tableRead(const std::vector<std::uint32_t> &data) override;
    void onReset() override;

  private:
    void defineCtrlRegs();
    bool filterPass(const PacketDesc &pkt);

    std::unique_ptr<MacIp> mac_;
    StreamWrapper wrapper_;
    Fifo<PacketDesc> rxOut_{64};
    Fifo<PacketDesc> txIn_{64};

    std::uint64_t localMac_ = 0;
    bool filterEnabled_ = false;
    std::set<std::uint64_t> multicastGroups_;
    DirectorMode directorMode_ = DirectorMode::Hash;
    std::uint16_t directorQueues_ = 16;
    bool rxShed_ = false;
    std::uint64_t rxShedPhase_ = 0;
    std::vector<std::uint16_t> flowTable_;
    std::size_t flowEntriesProgrammed_ = 0;
    RateMeter rxBytesMeter_;
    RateMeter rxPacketsMeter_;
    CounterHandle filteredPackets_{monitor(), "filtered_packets"};
    CounterHandle rxDrops_{monitor(), "rx_drops"};
    CounterHandle rxBadFcs_{monitor(), "rx_bad_fcs"};
    CounterHandle rxShedDrops_{monitor(), "rx_shed"};
    CounterHandle rxPackets_{monitor(), "rx_packets"};
    CounterHandle rxBytes_{monitor(), "rx_bytes"};
    CounterHandle txPackets_{monitor(), "tx_packets"};
    CounterHandle txBytes_{monitor(), "tx_bytes"};
    CounterHandle shedEnters_{monitor(), "shed_enters"};
    CounterHandle shedExits_{monitor(), "shed_exits"};
};

} // namespace harmonia

#endif // HARMONIA_SHELL_NETWORK_RBB_H_
