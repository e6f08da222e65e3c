/**
 * @file
 * Partial-reconfiguration multi-tenancy (§6): the role region is
 * divided into slots; tenants' roles are loaded and unloaded at
 * runtime through the ICAP-style configuration port while the shell
 * and the other tenants keep running. Managed over the command
 * interface like every other module.
 */

#ifndef HARMONIA_SHELL_PARTIAL_RECONFIG_H_
#define HARMONIA_SHELL_PARTIAL_RECONFIG_H_

#include <vector>

#include "roles/role.h"  // harmonia-lint: allow(LAYER-002) PR slots re-tenant Roles

namespace harmonia {

/** Lifecycle of one role slot. */
enum class PrSlotState {
    Empty,          ///< no role configured
    Reconfiguring,  ///< partial bitstream streaming in
    Active,         ///< role running
};

const char *toString(PrSlotState state);

/**
 * The PR controller. Owns the slot table and the (modelled) ICAP
 * port: loading a slot streams a partial bitstream whose size scales
 * with the slot's logic capacity, during which the incoming role is
 * inactive; the shell and other slots are unaffected.
 */
class PrController : public Component, public CommandTarget {
  public:
    /** Modelled ICAP bandwidth (bytes/second). */
    static constexpr double kIcapBandwidth = 800e6;

    /** Partial-bitstream bits per LUT of slot capacity. */
    static constexpr double kBitsPerLut = 96.0;

    /**
     * Bitstream-load attempts (initial + retries) before the
     * controller gives up and scrubs the slot back to Empty. A load
     * whose readback CRC fails (the PrLoadFail fault) is re-streamed
     * through the ICAP; a slot never wedges in Reconfiguring.
     */
    static constexpr unsigned kMaxLoadAttempts = 3;

    /**
     * @param slot_capacities Logic capacity of each slot; together
     *        they partition the role region.
     */
    PrController(std::string name, Engine &engine, Shell &shell,
                 std::vector<ResourceVector> slot_capacities);

    std::size_t slotCount() const { return slots_.size(); }
    PrSlotState slotState(std::size_t slot) const;
    Role *occupant(std::size_t slot) const;

    /** Time to stream a slot's partial bitstream. */
    Tick reconfigTime(std::size_t slot) const;

    /**
     * Begin loading @p role into @p slot. The role must fit the
     * slot's capacity and the slot must be empty. The role is bound
     * to the shell (on the slot's command instance id) but stays
     * inactive until reconfiguration completes.
     * @return false when the slot is busy or the role does not fit
     *         (a tenant-level error, not fatal).
     */
    bool load(std::size_t slot, Role &role);

    /** Unload a slot's role (immediate deactivation + scrub). */
    bool unload(std::size_t slot);

    void tick() override;

    /** No slot mid-reconfiguration, or none done streaming yet. */
    bool idle() const override;

    /** Earliest pending bitstream completion. */
    Tick wakeTime() const override;

    /** PrLoad/PrUnload/PrStatus over the command interface operate
     *  on slots whose roles were registered by prior load() calls. */
    CommandResult
    executeCommand(std::uint16_t code,
                   const std::vector<std::uint32_t> &data) override;

    /** ICAP controller + decoupling logic footprint. */
    const ResourceVector &resources() const { return resources_; }

    StatGroup &stats() { return stats_; }

  private:
    struct Slot {
        ResourceVector capacity;
        PrSlotState state = PrSlotState::Empty;
        Role *role = nullptr;
        Tick doneAt = 0;
        unsigned attempts = 0;  ///< bitstream loads this occupancy
        /// Fault-plan target ("<ctrl>/slotN"), cached at construction
        /// so the per-tick fault hook never formats a string.
        std::string faultTarget;
    };

    Engine &engine_;
    Shell &shell_;
    std::vector<Slot> slots_;
    ResourceVector resources_;
    StatGroup stats_;
    CounterHandle loadRejected_{stats_, "load_rejected"};
    CounterHandle loadTooBig_{stats_, "load_too_big"};
    CounterHandle loads_{stats_, "loads"};
    CounterHandle unloadRejected_{stats_, "unload_rejected"};
    CounterHandle unloads_{stats_, "unloads"};
    CounterHandle slotsCorrupted_{stats_, "slots_corrupted"};
    CounterHandle loadRetries_{stats_, "load_retries"};
    CounterHandle loadAborted_{stats_, "load_aborted"};
    CounterHandle activations_{stats_, "activations"};
};

} // namespace harmonia

#endif // HARMONIA_SHELL_PARTIAL_RECONFIG_H_
