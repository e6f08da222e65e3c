/**
 * @file
 * The fleet-scale control plane (DESIGN.md §16): one FleetManager
 * owns a rack of heterogeneous simulated cards — each a unified
 * shell, a PR controller partitioning its role region, a command
 * driver and a watchdog — and schedules tenant roles onto them.
 * Placement decisions come from the stateless PlacementEngine over a
 * snapshot of live card state; role swaps ride the existing PR
 * controller under live traffic; live cross-vendor migration and
 * death displacement re-seed the new card from the tenant's Replica
 * (ha/replica.h: last drained blob + journal tail), so an
 * acknowledged command is never lost (DESIGN.md §14).
 *
 * Determinism: cards are visited in creation order and tenants in
 * name order (std::map); every latency is simulated time; the only
 * randomness lives in the caller's seeded FaultPlan. The manager is
 * host-side orchestration, not a Component — its methods advance the
 * engine the way CmdDriver calls do.
 */

#ifndef HARMONIA_FLEET_FLEET_MANAGER_H_
#define HARMONIA_FLEET_FLEET_MANAGER_H_

#include <functional>
#include <map>
#include <memory>

#include "fleet/placement.h"
#include "ha/replica.h"
#include "ha/watchdog.h"
#include "obs/hub.h"
#include "shell/partial_reconfig.h"

namespace harmonia {

/** One card to instantiate: device type + role-region partitioning. */
struct FleetCardSpec {
    std::string device = "DeviceA";
    std::size_t prSlots = 4;
    /** Per-slot logic capacity; must sum within roleRegionBudget(). */
    ResourceVector slotCapacity = {4000, 9000, 16, 0, 8};
};

/** Fleet pacing knobs. */
struct FleetConfig {
    WatchdogConfig watchdog;
    /** Periodic all-tenant checkpoint drain cadence. Journal-tail
     *  replay covers everything acked after the last drain, so the
     *  cadence trades journal length against drain traffic, never
     *  correctness. */
    Tick checkpointInterval = 500'000'000;
    /** Bound on one PR load settling (includes PrLoadFail retries). */
    Tick settleTimeout = 2'000'000'000;
    PlacementWeights weights;
};

/** The rack-level resource manager. */
class FleetManager {
  public:
    using RoleFactory = std::function<std::unique_ptr<Role>()>;

    /** Tenant lifecycle the introspection API reports. */
    enum class TenantState {
        Placed,    ///< running in a slot
        Degraded,  ///< displaced and not re-placeable — explicit, never
                   ///< silent (re-tried when a dead card revives)
        Evicted,   ///< displaced by priority or operator; state dropped
    };

    FleetManager(Engine &engine, std::vector<FleetCardSpec> cards,
                 FleetConfig config = {});
    ~FleetManager();

    FleetManager(const FleetManager &) = delete;
    FleetManager &operator=(const FleetManager &) = delete;

    // --- Fleet shape ---------------------------------------------

    std::size_t cardCount() const { return cards_.size(); }
    const std::string &cardName(std::size_t i) const;
    Shell &cardShell(std::size_t i);
    PrController &cardPr(std::size_t i);
    Watchdog &cardWatchdog(std::size_t i);
    std::size_t cardIndex(const std::string &name) const;

    /** Cards whose watchdog has not declared them dead. */
    std::size_t aliveCards() const;

    /** PR slots currently Empty across alive cards. */
    std::size_t freeSlots() const;

    /**
     * Attach the obs hub: every card gains a liveness probe wired to
     * its watchdog, and the manager lands its scheduler series
     * (fleet/placement_latency_cycles, fleet/migration_downtime_cycles,
     * fleet/cards_alive) in the hub's store — which in turn feeds the
     * next placement decision's latency term.
     */
    void attachHub(ObsHub *hub);

    // --- Role kinds ----------------------------------------------

    /** Register a role kind tenants can request. The factory must
     *  produce roles whose name equals @p kind (checkpoint twins). */
    void registerRoleKind(const std::string &kind,
                          RoleRequirements reqs, RoleFactory factory);
    const RoleRequirements &
    kindRequirements(const std::string &kind) const;

    // --- Scheduling ----------------------------------------------

    /**
     * Place a tenant role. The spec's kind must be registered; its
     * requirements are taken from the registry. A refusal is explicit
     * in the decision's reject reason. Re-admitting an Evicted or
     * Degraded tenant starts it from scratch.
     */
    PlacementDecision admit(FleetRoleSpec spec);

    /** Unload a tenant and drop its state. */
    bool evict(const std::string &tenant);

    /**
     * Live migration: drain a fresh checkpoint, tear the role out of
     * its slot, re-place it (optionally pinned to @p target_card),
     * restore the blob and replay the journal tail. On a refused
     * placement the tenant keeps running at the source — migration
     * never destroys state it cannot re-create.
     */
    PlacementDecision migrate(const std::string &tenant,
                              const std::string &target_card = "");

    /** Journaled command proxy to a placed tenant's role. */
    CallOutcome call(const std::string &tenant, std::uint16_t code,
                     const std::vector<std::uint32_t> &data = {});

    /** Drain one tenant's checkpoint blob; trims its journal. */
    bool checkpointTenant(const std::string &tenant);

    /** Drain every placed tenant on alive cards; count succeeded. */
    std::size_t checkpointAll();

    /**
     * The host orchestration step: pace every watchdog, displace and
     * re-place (or explicitly degrade) tenants of newly-dead cards,
     * re-admit revived cards and retry degraded tenants then (and
     * only then), run the periodic checkpoint drain, and refresh the
     * hub series.
     */
    void poll();

    // --- Introspection -------------------------------------------

    std::size_t tenantCount() const { return tenants_.size(); }
    bool hasTenant(const std::string &tenant) const;
    TenantState tenantState(const std::string &tenant) const;
    const std::string &tenantCard(const std::string &tenant) const;
    std::size_t tenantSlot(const std::string &tenant) const;

    /** The live role object (tests/drills); null unless Placed. */
    Role *tenantRole(const std::string &tenant);

    std::size_t placedCount() const;
    std::size_t degradedCount() const;

    /** Journal entries pending replay for one tenant. */
    std::size_t journalDepth(const std::string &tenant) const;

    /** Largest journal any tenant ever held — the soak suite's
     *  bounded-growth gate. */
    std::size_t journalHighWater() const { return journalHighWater_; }

    /** Acked journaled calls, lifetime. */
    std::uint64_t ackedCalls() const { return stats_.value("acked_calls"); }

    std::uint64_t placements() const { return placements_; }
    std::uint64_t migrations() const { return migrations_; }

    /** Latency of the most recent successful placement. */
    Cycles lastPlacementCycles() const { return lastPlacementCycles_; }

    /** Blackout of the most recent migration (drain → cutover). */
    Cycles lastMigrationDowntimeCycles() const
    {
        return lastMigrationCycles_;
    }

    /**
     * FNV-1a over tenant states, slot tables and role snapshots in
     * name order — the end-state identity the chaos suite compares
     * across reruns and thread counts.
     */
    std::uint64_t fingerprint() const;

    StatGroup &stats() { return stats_; }

  private:
    struct Card {
        std::string name;
        const FpgaDevice *device = nullptr;
        std::unique_ptr<Shell> shell;
        std::unique_ptr<PrController> pr;
        std::unique_ptr<CmdDriver> driver;
        std::unique_ptr<Watchdog> dog;
        std::vector<ResourceVector> slotCaps;
        std::vector<std::string> slotTenant;  ///< "" = free
        bool deadHandled = false;
        std::uint64_t placementsDone = 0;
        double placementCyclesTotal = 0.0;
    };

    struct Tenant {
        explicit Tenant(StatGroup &stats) : replica(stats) {}

        FleetRoleSpec spec;
        TenantState state = TenantState::Evicted;
        std::size_t card = 0;
        std::size_t slot = 0;
        std::unique_ptr<Role> role;
        Replica replica;
    };

    std::vector<PlacementCardView>
    buildViews(const std::string &exclude_card,
               const std::string &only_card) const;

    /** Load + settle + restore + replay onto (card, slot). */
    bool placeAt(Tenant &tenant, std::size_t card_idx,
                 std::size_t slot);

    /** Tear a placed tenant out of its slot (state kept). */
    void tearOut(Tenant &tenant);

    /** Decide + place a displaced tenant from its replica. */
    bool tryReplace(Tenant &tenant);

    void handleCardDeath(std::size_t card_idx);
    void handleCardRevival(std::size_t card_idx);

    Tenant &tenantRef(const std::string &name);
    const Tenant &tenantRef(const std::string &name) const;

    Engine &engine_;
    FleetConfig cfg_;
    PlacementEngine placer_;
    std::vector<Card> cards_;
    std::map<std::string, Tenant> tenants_;  ///< name-sorted
    std::map<std::string, std::pair<RoleRequirements, RoleFactory>>
        kinds_;
    ObsHub *hub_ = nullptr;
    Tick lastCheckpointAt_ = 0;
    bool everCheckpointed_ = false;
    std::uint64_t placements_ = 0;
    std::uint64_t migrations_ = 0;
    Cycles lastPlacementCycles_ = 0;
    Cycles lastMigrationCycles_ = 0;
    std::size_t journalHighWater_ = 0;
    StatGroup stats_;
};

const char *toString(FleetManager::TenantState state);

} // namespace harmonia

#endif // HARMONIA_FLEET_FLEET_MANAGER_H_
