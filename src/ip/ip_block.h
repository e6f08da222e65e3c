/**
 * @file
 * Base machinery for vendor-specific IP models: register files,
 * port/configuration inventories, init sequences and development-
 * workload weights. The heterogeneity experiments (Figs 3b, 12, 13,
 * 14, Tab 4) are computed from these inventories, not hard-coded.
 */

#ifndef HARMONIA_IP_IP_BLOCK_H_
#define HARMONIA_IP_IP_BLOCK_H_

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "common/types.h"
#include "device/resource.h"
#include "sim/component.h"

namespace harmonia {

/** One register in an IP's control space. */
struct RegisterDesc {
    std::string name;
    Addr addr = 0;
    bool readOnly = false;
    std::string description;
};

/**
 * A 32-bit register file with optional read/write side effects.
 * Shell-specific register control logic lives here; the command-based
 * interface drives it through the unified control kernel.
 */
class RegisterFile {
  public:
    using ReadHandler = std::function<std::uint32_t(std::uint32_t)>;
    using WriteHandler = std::function<void(std::uint32_t)>;

    /** @p owner is the component the write side effects reach:
     *  every write() is host input to it (noteMutation). */
    explicit RegisterFile(const Component &owner) : owner_(&owner) {}

    /** Define a register; fatal() on address or name collision. */
    void define(const RegisterDesc &desc, std::uint32_t init = 0);

    std::uint32_t read(Addr addr) const;
    void write(Addr addr, std::uint32_t value);

    /** Read/write by register name (host tooling convenience). */
    std::uint32_t readByName(const std::string &name) const;
    void writeByName(const std::string &name, std::uint32_t value);

    /** Attach side effects to a register. */
    void onRead(Addr addr, ReadHandler fn);
    void onWrite(Addr addr, WriteHandler fn);

    /** Raw store access for hardware-internal updates (no handlers). */
    void poke(Addr addr, std::uint32_t value);
    std::uint32_t peek(Addr addr) const;

    bool contains(Addr addr) const;
    Addr addrOf(const std::string &name) const;
    std::size_t count() const { return regs_.size(); }
    std::vector<RegisterDesc> descriptors() const;

  private:
    struct Slot {
        RegisterDesc desc;
        std::uint32_t value = 0;
        ReadHandler readFn;
        WriteHandler writeFn;
    };
    const Slot &slotAt(Addr addr) const;
    Slot &slotAt(Addr addr);

    const Component *owner_;
    std::map<Addr, Slot> regs_;
    std::map<std::string, Addr> byName_;
};

/** Scope of a configuration item under property-level tailoring. */
enum class ConfigScope {
    ShellOriented,  ///< handled by the provider's shell; hidden from roles
    RoleOriented,   ///< must be set by the role/application
};

/** One configuration item exposed by an IP (generics, params). */
struct ConfigItem {
    std::string name;
    ConfigScope scope = ConfigScope::ShellOriented;
    std::string defaultValue;
    std::string description;
};

/** One hardware port on an IP's boundary. */
struct PortDesc {
    std::string name;
    Protocol protocol;
    unsigned widthBits = 0;
    bool output = false;
};

/** One step of a module's register-level initialization recipe. */
struct RegOp {
    enum class Kind { Read, Write, WaitBit };
    Kind kind = Kind::Write;
    std::string regName;      ///< register this op touches
    std::uint32_t value = 0;  ///< write value / expected bit mask

    bool operator==(const RegOp &) const = default;
};

/**
 * Development-workload weights in handcrafted-LoC equivalents,
 * calibrated per module class (documented in shell/workload_model.cc).
 * The reuse-ratio experiments (Figs 3a, 14, 15) aggregate these.
 */
struct DevWorkload {
    std::uint32_t instanceLoc = 0;  ///< vendor-instance integration
    std::uint32_t reusableLoc = 0;  ///< common (Ex-function/datapath)
    std::uint32_t controlLoc = 0;   ///< control logic (HW-detail bound)
    std::uint32_t monitorLoc = 0;   ///< monitor logic (HW-detail bound)

    std::uint32_t total() const
    {
        return instanceLoc + reusableLoc + controlLoc + monitorLoc;
    }
};

/**
 * Base class of all vendor IP models. An IpBlock is a clocked
 * component with a register file, a port/config inventory, an init
 * recipe and a resource footprint.
 */
class IpBlock : public Component {
  public:
    IpBlock(std::string name, Vendor vendor, Protocol data_protocol,
            unsigned data_width_bits, double clock_mhz);

    Vendor vendor() const { return vendor_; }
    Protocol dataProtocol() const { return dataProtocol_; }
    unsigned dataWidthBits() const { return dataWidthBits_; }
    double clockMhz() const { return clockMhz_; }

    RegisterFile &regs() { return regs_; }
    const RegisterFile &regs() const { return regs_; }

    const std::vector<ConfigItem> &configItems() const { return configs_; }
    const std::vector<PortDesc> &ports() const { return ports_; }
    const std::vector<RegOp> &initSequence() const { return initSeq_; }
    const ResourceVector &resources() const { return resources_; }
    const DevWorkload &devWorkload() const { return workload_; }

    /**
     * Vendor-deployment dependencies as key-value pairs (§3.2): CAD
     * tool, IP catalogue entry, hard-IP requirements — each value a
     * version string. The vendor adapter inspects these rigidly.
     */
    const std::map<std::string, std::string> &dependencies() const
    {
        return deps_;
    }

    /** Names of role-oriented configuration items only. */
    std::vector<std::string> roleOrientedConfigs() const;

    /**
     * Execute this IP's init recipe against its own register file —
     * what the host software must do step by step on the register
     * interface, or what one Module Initiation command triggers.
     * @return number of register operations performed.
     */
    std::size_t applyInitSequence();

    /** Has the init recipe completed since reset? */
    bool initialized() const { return initialized_; }

    /** Return to the pre-init state. */
    virtual void reset();

  protected:
    void addConfig(ConfigItem item);
    void addPort(PortDesc port);
    void addInitOp(RegOp op);
    void addDependency(const std::string &key, const std::string &value);
    void setResources(ResourceVector r) { resources_ = r; }
    void setWorkload(DevWorkload w) { workload_ = w; }
    void markInitialized() { initialized_ = true; }

  private:
    Vendor vendor_;
    Protocol dataProtocol_;
    unsigned dataWidthBits_;
    double clockMhz_;
    RegisterFile regs_{*this};
    std::vector<ConfigItem> configs_;
    std::vector<PortDesc> ports_;
    std::vector<RegOp> initSeq_;
    std::map<std::string, std::string> deps_;
    ResourceVector resources_;
    DevWorkload workload_;
    bool initialized_ = false;
};

/**
 * Property disparity between two IPs of the same function from
 * different vendors (Fig 3b): symmetric difference of port names and
 * configuration-item names.
 */
struct PropertyDiff {
    std::size_t interfaceDiff = 0;
    std::size_t configDiff = 0;
};
PropertyDiff propertyDiff(const IpBlock &a, const IpBlock &b);

/**
 * Register-level software-modification count when migrating host code
 * from driving @p from to driving @p to (Fig 13): init-sequence ops
 * that must be removed, added, or changed.
 */
std::size_t migrationRegOps(const IpBlock &from, const IpBlock &to);

} // namespace harmonia

#endif // HARMONIA_IP_IP_BLOCK_H_
