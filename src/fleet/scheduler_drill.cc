#include "fleet/scheduler_drill.h"

#include <cstdio>

#include "common/logging.h"
#include "fleet/tenant_role.h"

namespace harmonia {

namespace {

/** The 8-card rack: two of each evaluation device, A through D. */
std::vector<FleetCardSpec>
rackSpecs()
{
    std::vector<FleetCardSpec> specs;
    const char *devices[] = {"DeviceA", "DeviceA", "DeviceB",
                             "DeviceB", "DeviceC", "DeviceC",
                             "DeviceD", "DeviceD"};
    for (const char *dev : devices) {
        FleetCardSpec spec;
        spec.device = dev;
        spec.prSlots = 3;
        specs.push_back(spec);
    }
    return specs;
}

/** Cards 0-3 carry Xilinx dies, 4-7 Intel dies (chip vendor). */
bool
intelCard(std::size_t card_idx)
{
    return card_idx >= 4;
}

RoleRequirements
memCacheRequirements()
{
    RoleRequirements reqs =
        TenantRole::lightRequirements("mem_cache", 2800);
    reqs.needsMemory = true;
    reqs.memoryBandwidthGBps = 24;
    reqs.memoryCapacityBytes = 1ULL << 30;
    return reqs;
}

RoleRequirements
edgeFwRequirements()
{
    RoleRequirements reqs =
        TenantRole::lightRequirements("edge_fw", 2000);
    reqs.needsNetwork = true;
    reqs.networkGbps = 100;
    reqs.networkPorts = 1;
    return reqs;
}

} // namespace

SchedulerDrill::SchedulerDrill(SchedulerDrillConfig config)
    : cfg_(config), plan_(config.seed)
{
    if (cfg_.victimCard >= 8)
        fatal("victim card %zu out of range", cfg_.victimCard);
    fleet_ = std::make_unique<FleetManager>(engine_, rackSpecs());
    hub_ = std::make_unique<ObsHub>(engine_);
    for (std::size_t i = 0; i < fleet_->cardCount(); ++i)
        hub_->addDevice(fleet_->cardName(i), "tenant-host",
                        fleet_->cardShell(i));
    fleet_->attachHub(hub_.get());

    // The four role kinds tenants request. mem_cache needs a memory
    // peripheral (DeviceC has none); edge_fw needs a network cage and
    // carries anti-affinity groups from the request mixer.
    const auto registerKind = [this](const char *kind,
                                     RoleRequirements reqs) {
        fleet_->registerRoleKind(
            kind, reqs, [kind, reqs] {
                return std::make_unique<TenantRole>(kind, reqs);
            });
    };
    registerKind("kv_cache",
                 TenantRole::lightRequirements("kv_cache", 2400));
    registerKind("kv_index",
                 TenantRole::lightRequirements("kv_index", 3600));
    registerKind("mem_cache", memCacheRequirements());
    registerKind("edge_fw", edgeFwRequirements());
}

SchedulerDrill::~SchedulerDrill() = default;

std::uint64_t
SchedulerDrill::mixed(std::uint64_t counter) const
{
    std::uint64_t z = cfg_.seed + counter * 0x9e3779b97f4a7c15ULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

std::string
SchedulerDrill::pickPlaced(std::uint64_t pick) const
{
    if (everAdmitted_.empty())
        return "";
    const std::size_t n = everAdmitted_.size();
    for (std::size_t i = 0; i < n; ++i) {
        const std::string &name = everAdmitted_[(pick + i) % n];
        if (fleet_->tenantState(name) ==
            FleetManager::TenantState::Placed)
            return name;
    }
    return "";
}

void
SchedulerDrill::admitNext(std::uint64_t r,
                          SchedulerDrillReport &report)
{
    static const char *kKinds[] = {"kv_cache", "kv_index",
                                   "mem_cache", "edge_fw"};
    FleetRoleSpec spec;
    spec.tenant = format("t%05llu",
                         static_cast<unsigned long long>(
                             nextTenantId_++));
    spec.kind = kKinds[r % 4];
    spec.priority = static_cast<unsigned>((r >> 8) % 4);
    if (spec.kind == "edge_fw")
        spec.antiAffinity = format(
            "fwgrp%llu",
            static_cast<unsigned long long>((r >> 12) % 3));

    const PlacementDecision decision = fleet_->admit(spec);
    if (!decision.evictTenant.empty()) {
        ledger_.erase(decision.evictTenant);
        ++report.evictions;
    }
    if (decision.placed) {
        ++report.admitted;
        everAdmitted_.push_back(spec.tenant);
        const Cycles c = fleet_->lastPlacementCycles();
        ++placementSamples_;
        placementCyclesTotal_ += static_cast<double>(c);
        placementCyclesMax_ = std::max(placementCyclesMax_, c);
        if (cfg_.verbose)
            std::printf("t=%llu admit %s (%s, prio %u) -> %s/%zu\n",
                        static_cast<unsigned long long>(
                            engine_.now()),
                        spec.tenant.c_str(), spec.kind.c_str(),
                        spec.priority, decision.card.c_str(),
                        decision.slot);
    } else {
        ++report.rejected;
        if (fleet_->hasTenant(spec.tenant))
            everAdmitted_.push_back(spec.tenant);  // degraded admit
        if (cfg_.verbose)
            std::printf("t=%llu admit %s rejected (%s)\n",
                        static_cast<unsigned long long>(
                            engine_.now()),
                        spec.tenant.c_str(),
                        toString(decision.reject));
    }
}

void
SchedulerDrill::writeTraffic(const std::string &tenant,
                             std::uint64_t r,
                             SchedulerDrillReport &report)
{
    if (tenant.empty())
        return;
    const std::uint32_t key = static_cast<std::uint32_t>(r % 48);
    const std::uint32_t value =
        static_cast<std::uint32_t>(r >> 5) | 1u;
    const CallOutcome out =
        fleet_->call(tenant, kCmdTableWrite, {key, value});
    if (out.ok() && out.response.status == kCmdOk) {
        ledger_[tenant][key] = value;
        ++report.ackedWrites;
    }
}

void
SchedulerDrill::recordMigration(const PlacementDecision &d,
                                const std::string &tenant,
                                std::size_t src,
                                SchedulerDrillReport &report)
{
    if (!d.evictTenant.empty()) {
        ledger_.erase(d.evictTenant);
        ++report.evictions;
    }
    if (!d.placed)
        return;
    ++report.migrations;
    if (intelCard(fleet_->cardIndex(d.card)) != intelCard(src))
        ++report.crossVendorMigrations;
    const Cycles c = fleet_->lastMigrationDowntimeCycles();
    ++migrationSamples_;
    migrationCyclesTotal_ += static_cast<double>(c);
    migrationCyclesMax_ = std::max(migrationCyclesMax_, c);
    // The strongest loss check happens here, right after the blob +
    // journal-tail replay landed on the new card: every acked write
    // the host remembers must already be in the migrated table.
    verifyTenant(tenant, report);
}

void
SchedulerDrill::verifyTenant(const std::string &tenant,
                             SchedulerDrillReport &report)
{
    const auto lit = ledger_.find(tenant);
    if (lit == ledger_.end())
        return;
    const auto *role =
        static_cast<const TenantRole *>(fleet_->tenantRole(tenant));
    for (const auto &[key, value] : lit->second) {
        if (role != nullptr && role->valueOf(key) == value)
            ++report.verifiedWrites;
        else
            ++report.lostWrites;
    }
}

SchedulerDrillReport
SchedulerDrill::run()
{
    SchedulerDrillReport report;
    report.requests = cfg_.requests;
    const std::size_t kill_step = cfg_.requests * 2 / 5;
    const std::string victim = fleet_->cardName(cfg_.victimCard);
    Tick window_end = 0;

    for (std::size_t step = 0; step < cfg_.requests; ++step) {
        const std::uint64_t r = mixed(step);

        if (cfg_.injectFault && step == kill_step) {
            window_end = engine_.now() + cfg_.deathSpan;
            plan_.addWindow(FaultKind::DeviceDeath, engine_.now(),
                            window_end, 1.0, victim);
            plan_.arm();
            if (cfg_.verbose)
                std::printf("t=%llu killing %s until t=%llu\n",
                            static_cast<unsigned long long>(
                                engine_.now()),
                            victim.c_str(),
                            static_cast<unsigned long long>(
                                window_end));
        }

        // Every step is one tenant role request. A full fleet gets
        // one make-room eviction first, so the churn keeps placing
        // (the admission may still displace a different victim via
        // priority eviction, or reject on a missing peripheral).
        if (fleet_->freeSlots() == 0) {
            const std::string out = pickPlaced(r >> 40);
            if (!out.empty() && fleet_->evict(out)) {
                ledger_.erase(out);
                ++report.evictions;
            }
        }
        admitNext(r >> 8, report);

        // Satellite churn rides along: live migrations on a fixed
        // cadence, with every 211th step a pinned cross-vendor move
        // dragging a Xilinx-resident tenant onto the Intel cards.
        if (step % 211 == 140) {
            const std::string t = pickPlaced(r >> 32);
            if (!t.empty() &&
                !intelCard(fleet_->cardIndex(fleet_->tenantCard(t)))) {
                const std::size_t src =
                    fleet_->cardIndex(fleet_->tenantCard(t));
                const std::string target =
                    fleet_->cardName(6 + ((r >> 40) % 2));
                // Load the table up first, so the migration moves
                // real acked state worth losing.
                for (unsigned w = 0; w < 3; ++w)
                    writeTraffic(t, mixed(r + w), report);
                recordMigration(fleet_->migrate(t, target), t, src,
                                report);
            }
        } else if (step % 7 == 3) {
            const std::string t = pickPlaced(r >> 32);
            if (!t.empty()) {
                const std::size_t src =
                    fleet_->cardIndex(fleet_->tenantCard(t));
                for (unsigned w = 0; w < 3; ++w)
                    writeTraffic(t, mixed(r + w), report);
                recordMigration(fleet_->migrate(t), t, src, report);
            }
        }

        // Background table-write traffic rides every step.
        writeTraffic(pickPlaced(r >> 24), r >> 33, report);

        fleet_->poll();
        if (fleet_->cardWatchdog(cfg_.victimCard).dead())
            report.cardDied = true;
        if (step % 50 == 17)
            hub_->poll(engine_.now());
        engine_.runFor(500'000);
    }

    // Settle: outlive the death window so the victim revives, then
    // give the manager polls to re-place degraded tenants.
    if (cfg_.injectFault && window_end != 0) {
        while (engine_.now() < window_end + 100'000'000) {
            fleet_->poll();
            engine_.runFor(20'000'000);
        }
    }
    for (int i = 0; i < 100 && fleet_->degradedCount() != 0; ++i) {
        fleet_->poll();
        engine_.runFor(5'000'000);
    }
    report.cardRevived =
        report.cardDied &&
        !fleet_->cardWatchdog(cfg_.victimCard).dead();

    // --- Final ledger verification: every acked write of every
    // surviving tenant must be readable from its live table (on top
    // of the per-migration checks above). Evicted tenants dropped
    // their state deliberately; Degraded tenants (none expected
    // after the settle) are counted, not verified.
    for (const auto &kv : ledger_) {
        if (fleet_->tenantState(kv.first) ==
            FleetManager::TenantState::Placed)
            verifyTenant(kv.first, report);
    }

    report.placements = fleet_->placements();
    report.placedEnd = fleet_->placedCount();
    report.degradedEnd = fleet_->degradedCount();
    report.zeroLoss = report.lostWrites == 0;
    report.fingerprint = fleet_->fingerprint();
    if (placementSamples_ != 0)
        report.meanPlacementCycles =
            placementCyclesTotal_ /
            static_cast<double>(placementSamples_);
    report.maxPlacementCycles = placementCyclesMax_;
    if (migrationSamples_ != 0)
        report.meanMigrationCycles =
            migrationCyclesTotal_ /
            static_cast<double>(migrationSamples_);
    report.maxMigrationCycles = migrationCyclesMax_;
    return report;
}

} // namespace harmonia
