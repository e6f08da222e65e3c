/**
 * @file
 * Ethernet MAC IP models. Two vendor families with genuinely different
 * interfaces, register maps, configuration inventories and init
 * recipes: the Xilinx CMAC-style core (AXI4-Stream, reset + align-wait
 * init) and the Intel E-tile-style core (Avalon-ST, self-initializing
 * — the Figure 3d "shell B" behaviour). Both serialize packets at
 * line rate with Ethernet framing overhead.
 */

#ifndef HARMONIA_IP_MAC_IP_H_
#define HARMONIA_IP_MAC_IP_H_

#include <deque>
#include <memory>

#include "common/packet.h"
#include "common/stats.h"
#include "ip/ip_block.h"
#include "rtl/fifo.h"

namespace harmonia {

/**
 * Base MAC model: a TX serializer and an RX queue at a configurable
 * line rate (25/100/400G). The link side either loops back (the
 * paper's QSFP RX-TX loop test) or connects to a peer MAC.
 */
class MacIp : public IpBlock {
  public:
    MacIp(std::string name, Vendor vendor, Protocol protocol,
          unsigned gbps);

    unsigned gbps() const { return gbps_; }
    double lineRateBps() const { return gbps_ * 1e9; }

    /** Shell-side TX: is the MAC accepting another packet? */
    bool txReady() const { return tx_.canPush(); }
    void txPush(const PacketDesc &pkt);

    /** Shell-side RX. */
    bool rxAvailable() const { return !rx_.empty(); }
    PacketDesc rxPop();

    /** Loop TX back into local RX (QSFP loopback test). */
    void setLoopback(bool on) { loopback_ = on; }

    /**
     * Connect the line side to a peer MAC (two-server setup). TX hands
     * each packet to the peer by a direct call, so when both ends are
     * registered on one engine on different clocks their clocks are
     * fused into one concurrency group: register both ends first.
     */
    void connectPeer(MacIp *peer);

    /**
     * Line-side packet arrival: what a switch port would deliver.
     * Traffic generators and testbenches source RX traffic with this;
     * from a runUntilDone predicate too (it notes the mutation).
     */
    void injectRx(const PacketDesc &pkt, Tick when);

    void tick() override;
    void reset() override;

    /** Nothing to serialize and nothing arriving yet. (When a fault
     *  plan is armed the engine never skips ticks, so the per-tick
     *  LinkFlap hook still fires on schedule.) */
    bool idle() const override
    {
        return tx_.empty() &&
               (inFlight_.empty() || inFlight_.front().first > now());
    }

    /** Next line-side arrival. */
    Tick wakeTime() const override
    {
        return inFlight_.empty() ? kTickMax : inFlight_.front().first;
    }

    StatGroup &stats() { return stats_; }

    /** Data width in bits for a given line rate (paper §3.3.1). */
    static unsigned widthBitsFor(unsigned gbps);

    /** Core clock in MHz for a given line rate. */
    static double clockMhzFor(unsigned gbps);

  protected:
    /** Populate the stats registers common to both vendors' models. */
    void bindStatReg(const std::string &reg_name,
                     const std::string &stat_name);

  private:
    void arrive(const PacketDesc &pkt, Tick when);

    unsigned gbps_;
    Fifo<PacketDesc> tx_{64};
    Fifo<PacketDesc> rx_{64};
    std::deque<std::pair<Tick, PacketDesc>> inFlight_;
    Tick txBusyUntil_ = 0;
    bool loopback_ = false;
    MacIp *peer_ = nullptr;
    StatGroup stats_;
    CounterHandle linkDownTicks_{stats_, "link_down_ticks"};
    CounterHandle linkDownDrops_{stats_, "link_down_drops"};
    CounterHandle txPackets_{stats_, "tx_packets"};
    CounterHandle txBytes_{stats_, "tx_bytes"};
    CounterHandle rxBadFcs_{stats_, "rx_bad_fcs"};
    CounterHandle rxDropped_{stats_, "rx_dropped"};
    CounterHandle rxPackets_{stats_, "rx_packets"};
    CounterHandle rxBytes_{stats_, "rx_bytes"};
};

/** Xilinx CMAC-style MAC: AXI4-Stream, explicit align-wait init. */
class XilinxCmac : public MacIp {
  public:
    explicit XilinxCmac(unsigned gbps, const std::string &inst = "cmac0");
};

/** Intel E-tile-style MAC: Avalon-ST, self-initializing datapath. */
class IntelEtileMac : public MacIp {
  public:
    explicit IntelEtileMac(unsigned gbps,
                           const std::string &inst = "etile0");
};

/** Build the right MAC model for a vendor (in-house boards use the
 *  Xilinx-interface family, as the paper's devices B/C do for their
 *  respective chips). */
std::unique_ptr<MacIp> makeMac(Vendor vendor, unsigned gbps,
                               const std::string &inst = "mac0");

} // namespace harmonia

#endif // HARMONIA_IP_MAC_IP_H_
