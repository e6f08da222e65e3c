/**
 * @file
 * Fleet chaos suite: cards die mid-placement under a FaultPlan
 * DeviceDeath window; every displaced role must be re-placed or
 * explicitly declared degraded, acknowledged table writes survive
 * displacement and migration, and the end-state FNV-1a fingerprint
 * is bit-identical across reruns and HARMONIA_SIM_THREADS settings.
 */

#include <gtest/gtest.h>

#include <cstdlib>

#include "fleet/scheduler_drill.h"
#include "fleet/tenant_role.h"

namespace harmonia {
namespace {

SchedulerDrillConfig
chaosConfig(std::uint64_t seed)
{
    SchedulerDrillConfig cfg;
    cfg.seed = seed;
    cfg.requests = 120;
    return cfg;
}

TEST(FleetChaos, DeathDisplacesAndRevivalRestores)
{
    SchedulerDrill drill(chaosConfig(20260809));
    const SchedulerDrillReport rep = drill.run();

    // The victim died mid-churn and came back.
    EXPECT_TRUE(rep.cardDied);
    EXPECT_TRUE(rep.cardRevived);
    EXPECT_GE(drill.fleet().stats().value("card_deaths"), 1u);
    EXPECT_GE(drill.fleet().stats().value("card_revivals"), 1u);

    // Every acked write on a surviving tenant is still readable.
    EXPECT_TRUE(rep.zeroLoss);
    EXPECT_EQ(rep.lostWrites, 0u);
    EXPECT_GT(rep.verifiedWrites, 0u);

    // Displacement is explicit: dead-card tenants were re-placed or
    // degraded (and after the revival settled, none stay degraded).
    const std::uint64_t displaced =
        drill.fleet().stats().value("replaced_after_death") +
        drill.fleet().stats().value("tenants_degraded");
    EXPECT_GT(displaced, 0u)
        << "the dead card held no tenants; churn too thin";
    EXPECT_EQ(rep.degradedEnd, 0u);

    // The churn exercised the advertised machinery.
    EXPECT_GT(rep.migrations, 0u);
    EXPECT_GT(rep.crossVendorMigrations, 0u);
    EXPECT_GT(rep.placements, 0u);
}

TEST(FleetChaos, RerunsProduceIdenticalFingerprint)
{
    SchedulerDrillReport first;
    {
        SchedulerDrill drill(chaosConfig(42));
        first = drill.run();
    }
    SchedulerDrill again(chaosConfig(42));
    const SchedulerDrillReport second = again.run();

    EXPECT_EQ(first.fingerprint, second.fingerprint);
    EXPECT_EQ(first.ackedWrites, second.ackedWrites);
    EXPECT_EQ(first.placements, second.placements);
    EXPECT_EQ(first.migrations, second.migrations);
    EXPECT_EQ(first.evictions, second.evictions);
}

TEST(FleetChaos, FingerprintInvariantAcrossThreadCounts)
{
    const char *saved = std::getenv("HARMONIA_SIM_THREADS");
    const std::string restore = saved != nullptr ? saved : "";

    setenv("HARMONIA_SIM_THREADS", "1", 1);
    SchedulerDrillReport serial;
    {
        SchedulerDrill drill(chaosConfig(7));
        serial = drill.run();
    }

    setenv("HARMONIA_SIM_THREADS", "4", 1);
    SchedulerDrillReport parallel;
    {
        SchedulerDrill drill(chaosConfig(7));
        parallel = drill.run();
    }

    if (saved != nullptr)
        setenv("HARMONIA_SIM_THREADS", restore.c_str(), 1);
    else
        unsetenv("HARMONIA_SIM_THREADS");

    EXPECT_EQ(serial.fingerprint, parallel.fingerprint);
    EXPECT_EQ(serial.ackedWrites, parallel.ackedWrites);
    EXPECT_EQ(serial.placements, parallel.placements);
    EXPECT_TRUE(serial.zeroLoss);
    EXPECT_TRUE(parallel.zeroLoss);
}

TEST(FleetChaos, DifferentSeedsDiverge)
{
    // Sanity that the fingerprint actually depends on the schedule —
    // a constant hash would pass every invariance check above.
    SchedulerDrillConfig a = chaosConfig(1);
    SchedulerDrillConfig b = chaosConfig(2);
    a.requests = b.requests = 60;
    a.injectFault = b.injectFault = false;
    SchedulerDrillReport ra, rb;
    {
        SchedulerDrill drill(a);
        ra = drill.run();
    }
    SchedulerDrill drill(b);
    rb = drill.run();
    EXPECT_NE(ra.fingerprint, rb.fingerprint);
}

TEST(FleetChaos, DeathMidReconfigurationDegradesExplicitly)
{
    // A focused kill: one tenant on card0, the only other card is
    // killed too, so re-placement is impossible — the manager must
    // declare the tenant Degraded, never drop it silently.
    Engine engine;
    engine.setIdleFastForward(true);
    std::vector<FleetCardSpec> specs(2);
    specs[0].device = "DeviceA";
    specs[1].device = "DeviceD";
    FleetManager fleet(engine, specs);
    const RoleRequirements reqs =
        TenantRole::lightRequirements("kv", 1500);
    fleet.registerRoleKind("kv", reqs, [reqs] {
        return std::make_unique<TenantRole>("kv", reqs);
    });

    FleetRoleSpec spec;
    spec.tenant = "only";
    spec.kind = "kv";
    ASSERT_TRUE(fleet.admit(spec).placed);
    ASSERT_TRUE(
        fleet.call("only", kCmdTableWrite, {5, 99}).ok());
    ASSERT_TRUE(
        fleet.call("only", kCmdTableWrite, {7, 77}).ok());

    FaultPlan plan(11);
    plan.addWindow(FaultKind::DeviceDeath, engine.now(),
                   engine.now() + 400'000'000, 1.0, "card0");
    plan.addWindow(FaultKind::DeviceDeath, engine.now(),
                   engine.now() + 400'000'000, 1.0, "card1");
    plan.arm();

    // A write the dying card never acks stays in the journal tail.
    // Replay is at-least-once (DESIGN.md §14), so after revival it
    // overwrites key 5's acked value — the same effect a host sees
    // when the card executed it but the ack was lost.
    const CallOutcome doomed =
        fleet.call("only", kCmdTableWrite, {5, 123});
    EXPECT_FALSE(doomed.ok() && doomed.response.status == kCmdOk);

    for (int i = 0; i < 20 && fleet.aliveCards() != 0; ++i) {
        fleet.poll();
        engine.runFor(20'000'000);
    }
    ASSERT_EQ(fleet.aliveCards(), 0u);
    EXPECT_EQ(fleet.tenantState("only"),
              FleetManager::TenantState::Degraded);
    EXPECT_EQ(fleet.degradedCount(), 1u);

    // Both cards return: the degraded tenant is re-placed from its
    // replica (blob + journal-tail replay). The acked-only key keeps
    // its value; the unacked write to key 5 wins.
    plan.disarm();
    for (int i = 0; i < 50 &&
                    fleet.tenantState("only") !=
                        FleetManager::TenantState::Placed;
         ++i) {
        fleet.poll();
        engine.runFor(20'000'000);
    }
    ASSERT_EQ(fleet.tenantState("only"),
              FleetManager::TenantState::Placed);
    const auto *role =
        static_cast<const TenantRole *>(fleet.tenantRole("only"));
    ASSERT_NE(role, nullptr);
    EXPECT_EQ(role->valueOf(5), 123u);
    EXPECT_EQ(role->valueOf(7), 77u);
}

} // namespace
} // namespace harmonia
