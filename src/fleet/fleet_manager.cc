#include "fleet/fleet_manager.h"

#include "common/fnv.h"
#include "common/logging.h"
#include "common/strings.h"
#include "obs/flight_recorder.h"
#include "sim/clock.h"

namespace harmonia {

const char *
toString(FleetManager::TenantState state)
{
    switch (state) {
      case FleetManager::TenantState::Placed:
        return "placed";
      case FleetManager::TenantState::Degraded:
        return "degraded";
      case FleetManager::TenantState::Evicted:
        return "evicted";
    }
    return "?";
}

FleetManager::FleetManager(Engine &engine,
                           std::vector<FleetCardSpec> card_specs,
                           FleetConfig config)
    : engine_(engine), cfg_(config), placer_(config.weights),
      stats_("fleet")
{
    if (card_specs.empty())
        fatal("a fleet needs at least one card");
    const DeviceDatabase &db = DeviceDatabase::instance();
    for (std::size_t i = 0; i < card_specs.size(); ++i) {
        const FleetCardSpec &spec = card_specs[i];
        if (spec.prSlots == 0)
            fatal("card %zu: need at least one PR slot", i);
        const FpgaDevice &dev = db.byName(spec.device);
        ResourceVector total;
        for (std::size_t s = 0; s < spec.prSlots; ++s)
            total += spec.slotCapacity;
        if (!total.fitsIn(roleRegionBudget(dev)))
            fatal("card %zu: %zu slots of %s exceed %s's role region",
                  i, spec.prSlots,
                  spec.slotCapacity.toString().c_str(),
                  dev.name.c_str());

        Card card;
        card.name = format("card%zu_%s", i, dev.name.c_str());
        card.device = &dev;
        card.shell = std::make_unique<Shell>(
            engine, dev, unifiedConfigFor(dev), card.name);
        card.pr = std::make_unique<PrController>(
            card.name + "_pr", engine, *card.shell,
            std::vector<ResourceVector>(spec.prSlots,
                                        spec.slotCapacity));
        card.driver = std::make_unique<CmdDriver>(engine, *card.shell);
        card.dog = std::make_unique<Watchdog>(engine, *card.shell,
                                              cfg_.watchdog);
        card.slotCaps.assign(spec.prSlots, spec.slotCapacity);
        card.slotTenant.assign(spec.prSlots, "");
        cards_.push_back(std::move(card));
    }
}

FleetManager::~FleetManager() = default;

const std::string &
FleetManager::cardName(std::size_t i) const
{
    return cards_.at(i).name;
}

Shell &
FleetManager::cardShell(std::size_t i)
{
    return *cards_.at(i).shell;
}

PrController &
FleetManager::cardPr(std::size_t i)
{
    return *cards_.at(i).pr;
}

Watchdog &
FleetManager::cardWatchdog(std::size_t i)
{
    return *cards_.at(i).dog;
}

std::size_t
FleetManager::cardIndex(const std::string &name) const
{
    for (std::size_t i = 0; i < cards_.size(); ++i)
        if (cards_[i].name == name)
            return i;
    fatal("unknown card '%s'", name.c_str());
}

std::size_t
FleetManager::aliveCards() const
{
    std::size_t n = 0;
    for (const Card &card : cards_)
        if (!card.dog->dead())
            ++n;
    return n;
}

std::size_t
FleetManager::freeSlots() const
{
    std::size_t n = 0;
    for (const Card &card : cards_) {
        if (card.dog->dead())
            continue;
        for (std::size_t s = 0; s < card.pr->slotCount(); ++s)
            if (card.pr->slotState(s) == PrSlotState::Empty)
                ++n;
    }
    return n;
}

void
FleetManager::attachHub(ObsHub *hub)
{
    hub_ = hub;
    if (hub_ == nullptr)
        return;
    for (Card &card : cards_) {
        const Watchdog *dog = card.dog.get();
        hub_->attachLiveness(card.name,
                             [dog] { return !dog->dead(); });
    }
}

void
FleetManager::registerRoleKind(const std::string &kind,
                               RoleRequirements reqs,
                               RoleFactory factory)
{
    if (kinds_.count(kind) != 0)
        fatal("role kind '%s' already registered", kind.c_str());
    if (!factory)
        fatal("role kind '%s' needs a factory", kind.c_str());
    kinds_.emplace(kind, std::make_pair(std::move(reqs),
                                        std::move(factory)));
}

const RoleRequirements &
FleetManager::kindRequirements(const std::string &kind) const
{
    const auto it = kinds_.find(kind);
    if (it == kinds_.end())
        fatal("unknown role kind '%s'", kind.c_str());
    return it->second.first;
}

std::vector<PlacementCardView>
FleetManager::buildViews(const std::string &exclude_card,
                         const std::string &only_card) const
{
    std::vector<PlacementCardView> views;
    for (const Card &card : cards_) {
        if (card.name == exclude_card)
            continue;
        if (!only_card.empty() && card.name != only_card)
            continue;
        PlacementCardView view;
        view.card = card.name;
        view.device = card.device;
        view.alive = !card.dog->dead();
        // Scheduler feedback: when the obs hub is attached, the
        // latency term comes from its store (the series this manager
        // lands on every placement); otherwise from the local mean.
        if (hub_ != nullptr)
            view.placementLatencyCycles = hub_->store().latest(
                format("fleet/%s/placement_latency_cycles",
                       card.name.c_str()));
        else if (card.placementsDone != 0)
            view.placementLatencyCycles =
                card.placementCyclesTotal /
                static_cast<double>(card.placementsDone);
        for (std::size_t s = 0; s < card.pr->slotCount(); ++s) {
            PlacementSlotView slot;
            slot.capacity = card.slotCaps[s];
            slot.free = card.pr->slotState(s) == PrSlotState::Empty;
            if (!slot.free) {
                slot.occupantTenant = card.slotTenant[s];
                const auto it = tenants_.find(card.slotTenant[s]);
                if (it != tenants_.end()) {
                    slot.occupantPriority = it->second.spec.priority;
                    if (!it->second.spec.antiAffinity.empty())
                        view.groups.push_back(
                            it->second.spec.antiAffinity);
                }
            }
            view.slots.push_back(std::move(slot));
        }
        views.push_back(std::move(view));
    }
    return views;
}

bool
FleetManager::placeAt(Tenant &tenant, std::size_t card_idx,
                      std::size_t slot)
{
    Card &card = cards_[card_idx];
    const Tick start = engine_.now();
    std::unique_ptr<Role> role =
        kinds_.at(tenant.spec.kind).second();
    if (role == nullptr || role->name() != tenant.spec.kind)
        fatal("factory for kind '%s' produced a mismatched role",
              tenant.spec.kind.c_str());

    if (!card.pr->load(slot, *role)) {
        stats_.counter("load_refused").inc();
        return false;
    }
    // Settle the bitstream (the controller retries PrLoadFail loads
    // internally and scrubs to Empty when it gives up).
    PrController *pr = card.pr.get();
    const bool settled = engine_.runUntilDone(
        [pr, slot] {
            return pr->slotState(slot) != PrSlotState::Reconfiguring;
        },
        cfg_.settleTimeout);
    if (!settled || card.pr->slotState(slot) != PrSlotState::Active) {
        if (card.pr->slotState(slot) != PrSlotState::Empty)
            card.pr->unload(slot);
        role->unbind();
        stats_.counter("load_failed").inc();
        return false;
    }

    // Re-seed a displaced/migrating tenant: last checkpoint blob
    // first, then the journal tail in issue order (at-least-once).
    if (!tenant.replica.reseed(*card.driver,
                               static_cast<std::uint8_t>(slot))) {
        card.pr->unload(slot);
        role->unbind();
        return false;
    }

    tenant.role = std::move(role);
    tenant.state = TenantState::Placed;
    tenant.card = card_idx;
    tenant.slot = slot;
    card.slotTenant[slot] = tenant.spec.tenant;

    const Tick ticks = engine_.now() - start;
    const Clock *clk = card.shell->kernelClock();
    lastPlacementCycles_ =
        clk != nullptr ? clk->ticksToCycles(ticks) : 0;
    ++card.placementsDone;
    card.placementCyclesTotal +=
        static_cast<double>(lastPlacementCycles_);
    ++placements_;
    stats_.counter("placements").inc();
    stats_.counter("placement_ticks").inc(ticks);
    if (hub_ != nullptr) {
        hub_->store().ingestPoint(
            engine_.now(), "fleet/placement_latency_cycles",
            static_cast<double>(lastPlacementCycles_));
        hub_->store().ingestPoint(
            engine_.now(),
            format("fleet/%s/placement_latency_cycles",
                   card.name.c_str()),
            static_cast<double>(lastPlacementCycles_));
    }
    return true;
}

void
FleetManager::tearOut(Tenant &tenant)
{
    Card &card = cards_[tenant.card];
    if (card.pr->slotState(tenant.slot) != PrSlotState::Empty)
        card.pr->unload(tenant.slot);
    if (tenant.role != nullptr) {
        tenant.role->unbind();
        tenant.role.reset();
    }
    card.slotTenant[tenant.slot] = "";
}

PlacementDecision
FleetManager::admit(FleetRoleSpec spec)
{
    const auto kit = kinds_.find(spec.kind);
    if (kit == kinds_.end())
        fatal("admit('%s'): unknown role kind '%s'",
              spec.tenant.c_str(), spec.kind.c_str());
    spec.reqs = kit->second.first;
    const auto tit = tenants_.find(spec.tenant);
    if (tit != tenants_.end() &&
        tit->second.state == TenantState::Placed)
        fatal("tenant '%s' is already placed", spec.tenant.c_str());

    PlacementDecision decision = placer_.decide(spec, buildViews("", ""));
    if (!decision.placed) {
        stats_.counter(format("reject_%s",
                              toString(decision.reject))).inc();
        return decision;
    }
    if (!decision.evictTenant.empty()) {
        evict(decision.evictTenant);
        stats_.counter("priority_evictions").inc();
    }

    Tenant &tenant =
        tenants_.try_emplace(spec.tenant, stats_).first->second;
    tenant.spec = std::move(spec);
    tenant.replica.reset();
    if (!placeAt(tenant, cardIndex(decision.card), decision.slot)) {
        tenant.state = TenantState::Degraded;
        stats_.counter("tenants_degraded").inc();
        decision.placed = false;
        decision.reject = PlacementReject::NoCapacity;
        return decision;
    }
    return decision;
}

bool
FleetManager::evict(const std::string &tenant_name)
{
    Tenant &tenant = tenantRef(tenant_name);
    if (tenant.state != TenantState::Placed)
        return false;
    tearOut(tenant);
    tenant.state = TenantState::Evicted;
    tenant.replica.reset();
    stats_.counter("evictions").inc();
    return true;
}

PlacementDecision
FleetManager::migrate(const std::string &tenant_name,
                      const std::string &target_card)
{
    Tenant &tenant = tenantRef(tenant_name);
    PlacementDecision decision;
    if (tenant.state != TenantState::Placed) {
        stats_.counter("migrate_refused").inc();
        return decision;
    }

    const Tick drain_start = engine_.now();
    const std::string source = cards_[tenant.card].name;
    // Drain a fresh blob off the live card; when the drain fails
    // (the card died under us) the last periodic checkpoint plus the
    // journal tail still covers every acked call.
    checkpointTenant(tenant_name);
    if (!tenant.replica.hasBlob()) {
        stats_.counter("migrate_refused").inc();
        return decision;
    }

    decision = placer_.decide(tenant.spec,
                              buildViews(source, target_card));
    if (!decision.placed) {
        stats_.counter("migrate_rejected").inc();
        return decision;
    }
    if (!decision.evictTenant.empty()) {
        evict(decision.evictTenant);
        stats_.counter("priority_evictions").inc();
    }

    tearOut(tenant);
    if (!placeAt(tenant, cardIndex(decision.card), decision.slot)) {
        tenant.state = TenantState::Degraded;
        stats_.counter("tenants_degraded").inc();
        decision.placed = false;
        return decision;
    }

    const Tick downtime = engine_.now() - drain_start;
    const Clock *clk = cards_[tenant.card].shell->kernelClock();
    lastMigrationCycles_ =
        clk != nullptr ? clk->ticksToCycles(downtime) : 0;
    ++migrations_;
    stats_.counter("migrations").inc();
    stats_.counter("migration_downtime_ticks").inc(downtime);
    if (hub_ != nullptr)
        hub_->store().ingestPoint(
            engine_.now(), "fleet/migration_downtime_cycles",
            static_cast<double>(lastMigrationCycles_));
    if (FlightRecorder *fdr = FlightRecorder::active())
        fdr->noteRecovery(stats_.name(),
                          format("migrated_%s", tenant_name.c_str()),
                          engine_.now());
    return decision;
}

CallOutcome
FleetManager::call(const std::string &tenant_name, std::uint16_t code,
                   const std::vector<std::uint32_t> &data)
{
    Tenant &tenant = tenantRef(tenant_name);
    if (tenant.state != TenantState::Placed) {
        stats_.counter("calls_refused").inc();
        return CallOutcome{};
    }
    const CallOutcome out = tenant.replica.call(
        *cards_[tenant.card].driver,
        static_cast<std::uint8_t>(tenant.slot), code, data);
    journalHighWater_ =
        std::max(journalHighWater_, tenant.replica.journalDepth());
    return out;
}

bool
FleetManager::checkpointTenant(const std::string &tenant_name)
{
    Tenant &tenant = tenantRef(tenant_name);
    if (tenant.state != TenantState::Placed)
        return false;
    Card &card = cards_[tenant.card];
    if (card.dog->dead())
        return false;
    std::vector<std::uint32_t> blob;
    if (!tenant.replica.drain(*card.driver,
                              static_cast<std::uint8_t>(tenant.slot),
                              &blob))
        return false;
    tenant.replica.commit(std::move(blob));
    return true;
}

std::size_t
FleetManager::checkpointAll()
{
    std::size_t ok = 0;
    for (auto &[name, tenant] : tenants_) {
        if (tenant.state != TenantState::Placed)
            continue;
        if (cards_[tenant.card].dog->consecutiveMisses() != 0)
            continue;  // suspect card: don't burn retry ladders
        if (checkpointTenant(name))
            ++ok;
    }
    lastCheckpointAt_ = engine_.now();
    everCheckpointed_ = true;
    return ok;
}

bool
FleetManager::tryReplace(Tenant &tenant)
{
    PlacementDecision decision =
        placer_.decide(tenant.spec, buildViews("", ""));
    if (!decision.placed)
        return false;
    if (!decision.evictTenant.empty()) {
        evict(decision.evictTenant);
        stats_.counter("priority_evictions").inc();
    }
    return placeAt(tenant, cardIndex(decision.card), decision.slot);
}

void
FleetManager::handleCardDeath(std::size_t card_idx)
{
    Card &card = cards_[card_idx];
    stats_.counter("card_deaths").inc();
    if (FlightRecorder *fdr = FlightRecorder::active())
        fdr->noteRecovery(stats_.name(),
                          format("card_dead_%s", card.name.c_str()),
                          engine_.now());
    for (auto &[name, tenant] : tenants_) {
        if (tenant.state != TenantState::Placed ||
            tenant.card != card_idx)
            continue;
        // Host-side displacement: scrub the dead card's slot model
        // and re-place from the last blob + journal tail. A tenant
        // the fleet cannot re-place right now is explicitly
        // Degraded, never silently dropped.
        tearOut(tenant);
        if (tryReplace(tenant)) {
            stats_.counter("replaced_after_death").inc();
        } else {
            tenant.state = TenantState::Degraded;
            stats_.counter("tenants_degraded").inc();
        }
    }
}

void
FleetManager::handleCardRevival(std::size_t card_idx)
{
    Card &card = cards_[card_idx];
    stats_.counter("card_revivals").inc();
    // Re-admit the card like a freshly provisioned one, then give
    // degraded tenants the returned capacity.
    card.driver->initializeAll();
    for (auto &[name, tenant] : tenants_) {
        if (tenant.state != TenantState::Degraded)
            continue;
        if (tryReplace(tenant))
            stats_.counter("replaced_after_revival").inc();
    }
}

void
FleetManager::poll()
{
    for (Card &card : cards_)
        card.dog->poll();
    for (std::size_t i = 0; i < cards_.size(); ++i) {
        Card &card = cards_[i];
        if (card.dog->dead() && !card.deadHandled) {
            card.deadHandled = true;
            handleCardDeath(i);
        } else if (!card.dog->dead() && card.deadHandled) {
            card.deadHandled = false;
            handleCardRevival(i);
        }
    }
    if (!everCheckpointed_ ||
        engine_.now() >= lastCheckpointAt_ + cfg_.checkpointInterval)
        checkpointAll();
    if (hub_ != nullptr)
        hub_->store().ingestPoint(
            engine_.now(), "fleet/cards_alive",
            static_cast<double>(aliveCards()));
}

bool
FleetManager::hasTenant(const std::string &tenant) const
{
    return tenants_.count(tenant) != 0;
}

FleetManager::TenantState
FleetManager::tenantState(const std::string &tenant) const
{
    return tenantRef(tenant).state;
}

const std::string &
FleetManager::tenantCard(const std::string &tenant) const
{
    const Tenant &t = tenantRef(tenant);
    if (t.state != TenantState::Placed)
        fatal("tenant '%s' is not placed", tenant.c_str());
    return cards_[t.card].name;
}

std::size_t
FleetManager::tenantSlot(const std::string &tenant) const
{
    const Tenant &t = tenantRef(tenant);
    if (t.state != TenantState::Placed)
        fatal("tenant '%s' is not placed", tenant.c_str());
    return t.slot;
}

Role *
FleetManager::tenantRole(const std::string &tenant)
{
    return tenantRef(tenant).role.get();
}

std::size_t
FleetManager::placedCount() const
{
    std::size_t n = 0;
    for (const auto &kv : tenants_)
        if (kv.second.state == TenantState::Placed)
            ++n;
    return n;
}

std::size_t
FleetManager::degradedCount() const
{
    std::size_t n = 0;
    for (const auto &kv : tenants_)
        if (kv.second.state == TenantState::Degraded)
            ++n;
    return n;
}

std::size_t
FleetManager::journalDepth(const std::string &tenant) const
{
    return tenantRef(tenant).replica.journalDepth();
}

std::uint64_t
FleetManager::fingerprint() const
{
    Fnv1a64 hash;
    for (const auto &[name, tenant] : tenants_) {
        hash.str(name).str(toString(tenant.state));
        if (tenant.state == TenantState::Placed) {
            hash.str(cards_[tenant.card].name)
                .u32(static_cast<std::uint32_t>(tenant.slot));
            if (tenant.role != nullptr)
                for (const std::uint32_t w : tenant.role->snapshot())
                    hash.u32(w);
        }
    }
    for (const Card &card : cards_) {
        hash.str(card.name).byte(card.dog->dead() ? 1 : 0);
        for (std::size_t s = 0; s < card.pr->slotCount(); ++s)
            hash.str(toString(card.pr->slotState(s)));
    }
    return hash.value();
}

FleetManager::Tenant &
FleetManager::tenantRef(const std::string &name)
{
    const auto it = tenants_.find(name);
    if (it == tenants_.end())
        fatal("unknown tenant '%s'", name.c_str());
    return it->second;
}

const FleetManager::Tenant &
FleetManager::tenantRef(const std::string &name) const
{
    return const_cast<FleetManager *>(this)->tenantRef(name);
}

} // namespace harmonia
