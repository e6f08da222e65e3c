#include "shell/partial_reconfig.h"

#include "cmd/command_codes.h"
#include "common/logging.h"
#include "fault/fault_plan.h"
#include "sim/trace.h"

namespace harmonia {

const char *
toString(PrSlotState state)
{
    switch (state) {
      case PrSlotState::Empty:
        return "empty";
      case PrSlotState::Reconfiguring:
        return "reconfiguring";
      case PrSlotState::Active:
        return "active";
    }
    return "?";
}

PrController::PrController(std::string name, Engine &engine,
                           Shell &shell,
                           std::vector<ResourceVector> slot_capacities)
    : Component(std::move(name)), engine_(engine), shell_(shell),
      stats_(this->name())
{
    if (slot_capacities.empty())
        fatal("PR controller needs at least one slot");
    for (std::size_t i = 0; i < slot_capacities.size(); ++i)
        slots_.push_back(Slot{slot_capacities[i], PrSlotState::Empty,
                              nullptr, 0, 0,
                              format("%s/slot%zu",
                                     this->name().c_str(), i)});

    // ICAP wrapper, per-slot decoupling and scrub logic.
    resources_ = ResourceVector{
        2400 + 600 * static_cast<std::uint64_t>(slots_.size()),
        3100 + 800 * static_cast<std::uint64_t>(slots_.size()),
        4, 0, 0};

    engine.add(this, shell.kernelClock());
    shell.kernel().registerTarget(kRbbPrCtrl, 0, this);
}

PrSlotState
PrController::slotState(std::size_t slot) const
{
    if (slot >= slots_.size())
        fatal("PR slot %zu out of range (%zu)", slot, slots_.size());
    return slots_[slot].state;
}

Role *
PrController::occupant(std::size_t slot) const
{
    if (slot >= slots_.size())
        fatal("PR slot %zu out of range (%zu)", slot, slots_.size());
    return slots_[slot].role;
}

Tick
PrController::reconfigTime(std::size_t slot) const
{
    if (slot >= slots_.size())
        fatal("PR slot %zu out of range (%zu)", slot, slots_.size());
    const double bits =
        static_cast<double>(slots_[slot].capacity.lut) * kBitsPerLut;
    return static_cast<Tick>(bits / 8 / kIcapBandwidth *
                             kTicksPerSecond);
}

bool
PrController::load(std::size_t slot, Role &role)
{
    if (slot >= slots_.size())
        fatal("PR slot %zu out of range (%zu)", slot, slots_.size());
    Slot &s = slots_[slot];
    if (s.state != PrSlotState::Empty) {
        loadRejected_.inc();
        return false;
    }
    if (!role.requirements().roleLogic.fitsIn(s.capacity)) {
        loadTooBig_.inc();
        return false;
    }

    if (!role.bound()) {
        role.bind(engine_, shell_, static_cast<std::uint8_t>(slot));
    } else if (role.slot() != static_cast<std::uint8_t>(slot)) {
        // A bound role keeps its clock registration and slot id for
        // life; it may only be reloaded into its original slot.
        loadRejected_.inc();
        return false;
    } else {
        // Reload after unload/scrub: re-attach the command target the
        // unload released.
        shell_.kernel().registerTarget(kRoleRbbIdBase,
                                       static_cast<std::uint8_t>(slot),
                                       &role);
    }
    role.setActive(false);  // decoupled while the slot is rewritten
    s.role = &role;
    s.state = PrSlotState::Reconfiguring;
    s.doneAt = now() + reconfigTime(slot);
    s.attempts = 1;
    loads_.inc();
    return true;
}

bool
PrController::unload(std::size_t slot)
{
    if (slot >= slots_.size())
        fatal("PR slot %zu out of range (%zu)", slot, slots_.size());
    Slot &s = slots_[slot];
    if (s.state == PrSlotState::Empty) {
        unloadRejected_.inc();
        return false;
    }
    if (s.role != nullptr) {
        s.role->setActive(false);
        shell_.kernel().unregisterTarget(
            kRoleRbbIdBase, static_cast<std::uint8_t>(slot));
    }
    s.role = nullptr;
    s.state = PrSlotState::Empty;
    s.doneAt = 0;
    s.attempts = 0;
    unloads_.inc();
    return true;
}

bool
PrController::idle() const
{
    for (const Slot &s : slots_)
        if (s.state == PrSlotState::Reconfiguring && now() >= s.doneAt)
            return false;
    return true;
}

Tick
PrController::wakeTime() const
{
    Tick wake = kTickMax;
    for (const Slot &s : slots_)
        if (s.state == PrSlotState::Reconfiguring)
            wake = std::min(wake, s.doneAt);
    return wake;
}

void
PrController::tick()
{
    for (std::size_t i = 0; i < slots_.size(); ++i) {
        Slot &s = slots_[i];
        // Fault hook: a single-event upset wipes an Active slot's
        // configuration. The occupant is deactivated and its command
        // target released — exactly the scrub path — so the tenant
        // must be re-loaded (and re-seeded from a checkpoint) to
        // come back.
        if (s.state == PrSlotState::Active &&
            injectFault(FaultKind::PrSlotCorrupt, s.faultTarget,
                        now())) {
            if (s.role != nullptr) {
                s.role->setActive(false);
                shell_.kernel().unregisterTarget(
                    kRoleRbbIdBase, static_cast<std::uint8_t>(i));
            }
            s.role = nullptr;
            s.state = PrSlotState::Empty;
            s.doneAt = 0;
            s.attempts = 0;
            slotsCorrupted_.inc();
            trace(*this, "slot %zu configuration corrupted; scrubbed",
                  i);
            continue;
        }
        if (s.state != PrSlotState::Reconfiguring || now() < s.doneAt)
            continue;
        // Fault hook: the post-load readback CRC failed. Re-stream
        // the partial bitstream; after kMaxLoadAttempts scrub the
        // slot back to Empty rather than wedging in Reconfiguring.
        if (injectFault(FaultKind::PrLoadFail, name(), now())) {
            if (s.attempts < kMaxLoadAttempts) {
                ++s.attempts;
                s.doneAt = now() + reconfigTime(i);
                loadRetries_.inc();
                trace(*this, "slot %zu load failed; retry %u/%u", i,
                      s.attempts, kMaxLoadAttempts);
                continue;
            }
            // Scrub releases the command target so the slot can be
            // re-tenanted; the failed role never activates.
            if (s.role != nullptr) {
                s.role->setActive(false);
                shell_.kernel().unregisterTarget(
                    kRoleRbbIdBase, static_cast<std::uint8_t>(i));
            }
            s.role = nullptr;
            s.state = PrSlotState::Empty;
            s.doneAt = 0;
            s.attempts = 0;
            loadAborted_.inc();
            trace(*this, "slot %zu scrubbed after failed loads", i);
            continue;
        }
        s.state = PrSlotState::Active;
        s.attempts = 0;
        if (s.role != nullptr) {
            s.role->setActive(true);
            trace(*this, "slot activated with role '%s'",
                  s.role->name().c_str());
        }
        activations_.inc();
    }
}

CommandResult
PrController::executeCommand(std::uint16_t code,
                             const std::vector<std::uint32_t> &data)
{
    switch (code) {
      case kCmdPrStatus: {
        if (data.empty() || data[0] >= slots_.size())
            return {kCmdBadArgument, {}};
        const Slot &s = slots_[data[0]];
        return {kCmdOk,
                {static_cast<std::uint32_t>(s.state),
                 static_cast<std::uint32_t>(
                     s.state == PrSlotState::Reconfiguring
                         ? (s.doneAt - now()) / 1000
                         : 0)}};
      }
      case kCmdPrUnload: {
        if (data.empty() || data[0] >= slots_.size())
            return {kCmdBadArgument, {}};
        return unload(data[0]) ? CommandResult{kCmdOk, {}}
                               : CommandResult{kCmdBadArgument, {}};
      }
      case kCmdPrLoad:
        // Loading needs a host-resident bitstream handle; the
        // software API is load(). The command reports the modelled
        // reconfiguration cost for the requested slot instead.
        if (data.empty() || data[0] >= slots_.size())
            return {kCmdBadArgument, {}};
        return {kCmdOk,
                {static_cast<std::uint32_t>(
                    reconfigTime(data[0]) / 1000)}};
      case kCmdModuleStatusRead: {
        std::uint32_t active = 0;
        for (const Slot &s : slots_)
            if (s.state == PrSlotState::Active)
                ++active;
        return {kCmdOk,
                {static_cast<std::uint32_t>(slots_.size()), active}};
      }
      default:
        return {kCmdUnknownCode, {}};
    }
}

} // namespace harmonia
