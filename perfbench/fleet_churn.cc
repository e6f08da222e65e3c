/**
 * @file
 * fleet_churn: the scheduler drill's 8-card A-D rack under a seeded
 * churn, driven step by step through the public FleetManager / ObsHub
 * / Engine API so every call can be timed. Each step is one tenant
 * request: a make-room eviction when the rack is full, an admission
 * (priorities, anti-affinity), on a cadence a live migration or a
 * pinned Xilinx -> Intel move preceded by journaled table writes, one
 * background journaled write, FleetManager::poll, on a cadence an
 * ObsHub::poll, and Engine::runFor. At 2/5 of the episode a DeviceDeath
 * window kills one card; once armed, the fault plan keeps the engine
 * off its fast-forward path until the episode ends. After the last
 * step the rack settles until the victim revives and no tenant is
 * Degraded.
 *
 * Closed loop, one synchronous caller. The host keeps a ledger of
 * every acked write and reads it back after every migration and at
 * the end: zero acked-write loss. A journaled write that the dead card
 * leaves unacked is the injected fault's expected effect, not a failed
 * operation; any other unacked call is.
 */

#include <map>
#include <memory>
#include <stdexcept>

#include "bench.h"
#include "common/strings.h"
#include "fault/fault_plan.h"
#include "fleet/fleet_manager.h"
#include "fleet/tenant_role.h"
#include "spans.h"

using namespace harmonia;

namespace perfbench {

namespace {

constexpr std::size_t kStepsPerEpisode = 60;
constexpr std::size_t kKillStep = kStepsPerEpisode * 2 / 5;
constexpr std::size_t kVictimCard = 2;
constexpr Tick kStepRun = 500'000;
constexpr Tick kDeathSpan = 1'500'000'000;
/** 60 samples per episode: ten lie beyond p80. */
constexpr double kTailPct = 80.0;
/** Set-ups per episode (its own and extra ones), for a steady setup_s:
 *  at least 24 in a run of kMinEpisodes. */
constexpr std::size_t kSetupsPerEpisode = 6;

std::vector<FleetCardSpec>
rackSpecs()
{
    std::vector<FleetCardSpec> specs;
    for (const char *dev : {"DeviceA", "DeviceA", "DeviceB", "DeviceB",
                            "DeviceC", "DeviceC", "DeviceD", "DeviceD"}) {
        FleetCardSpec spec;
        spec.device = dev;
        spec.prSlots = 3;
        specs.push_back(spec);
    }
    return specs;
}

/** Cards 0-3 carry Xilinx dies, 4-7 Intel dies. */
bool
intelCard(std::size_t card)
{
    return card >= 4;
}

/** Engine, fault plan, fleet and hub of one episode, set up. */
struct Rig {
    Engine engine;
    FaultPlan plan;
    std::unique_ptr<ObsHub> hub;
    std::unique_ptr<FleetManager> fleet;

    explicit Rig(std::uint64_t seed) : plan(seed)
    {
        engine.setIdleFastForward(true);
        fleet = std::make_unique<FleetManager>(engine, rackSpecs());
        hub = std::make_unique<ObsHub>(engine);
        for (std::size_t i = 0; i < fleet->cardCount(); ++i) {
            // Publish the card's series so the hub has some to stream.
            fleet->cardShell(i).registerTelemetry();
            hub->addDevice(fleet->cardName(i), "tenant-host",
                           fleet->cardShell(i));
        }
        fleet->attachHub(hub.get());

        const auto kind = [this](const char *name, RoleRequirements reqs) {
            fleet->registerRoleKind(name, reqs, [name, reqs] {
                return std::make_unique<TenantRole>(name, reqs);
            });
        };
        kind("kv_cache", TenantRole::lightRequirements("kv_cache", 2400));
        kind("kv_index", TenantRole::lightRequirements("kv_index", 3600));
        RoleRequirements mem =
            TenantRole::lightRequirements("mem_cache", 2800);
        mem.needsMemory = true;
        mem.memoryBandwidthGBps = 24;
        mem.memoryCapacityBytes = 1ULL << 30;
        kind("mem_cache", mem);
        RoleRequirements fw = TenantRole::lightRequirements("edge_fw", 2000);
        fw.needsNetwork = true;
        fw.networkGbps = 100;
        fw.networkPorts = 1;
        kind("edge_fw", fw);

        for (std::size_t i = 0; i < fleet->cardCount(); ++i)
            CmdDriver(engine, fleet->cardShell(i)).initializeAll();
        if (hub->subscribeAll() != fleet->cardCount())
            throw std::runtime_error("hub subscription refused");
    }
};

/** Layer counters of one episode (simulated, so seed-determined). */
struct EpisodeCounts {
    std::uint64_t admits = 0, placed = 0;
    std::uint64_t migrations = 0, migrated = 0, crossVendor = 0;
    std::uint64_t acked = 0, verified = 0, lost = 0;
    std::uint64_t deathUnacked = 0;
    std::uint64_t journalHighWater = 0, samples = 0;
    bool died = false;
};

/** Wall-time bookkeeping of the traced phase, beyond the spans. */
struct WallCounts {
    Tick runForSim = 0;   ///< simulated time advanced inside runFor
    double armedS = 0.0;  ///< wall time with the fault plan armed
};

/** One episode: set-up, the churn, the settle and the checks. */
class Episode {
  public:
    Episode(std::uint64_t seed, SpanLog &log, Phase &phase, Result &res,
            WallCounts &wall)
        : seed_(seed), log_(log), phase_(phase), res_(res), wall_(wall)
    {
        pinForEpisode(phase_.episodes());
        const std::int64_t s0 = wallNs();
        rig_ = std::make_unique<Rig>(seed);
        phase_.setupS.push_back(secondsSince(s0));
        phase_.beginEpisode();
        victim_ = fleet().cardName(kVictimCard);
    }

    /** Run the churn; returns the simulated digest. */
    std::uint64_t run()
    {
        for (std::size_t step = 0; step < kStepsPerEpisode; ++step) {
            const std::uint64_t op = phase_.ops;
            const std::int64_t t0 = wallNs();
            stepFailed_ = false;
            {
                ScopedSpan span(log_, kOpSpan, op);
                this->step(step, op);
            }
            const double us = static_cast<double>(wallNs() - t0) / 1e3;
            phase_.opWallUs.push_back(us);
            phase_.measuredS += us / 1e6;
            ++phase_.ops;
            ++phase_.attempted;
            if (stepFailed_)
                ++phase_.failed;
        }
        const std::int64_t t0 = wallNs();
        {
            ScopedSpan span(log_, "settle", phase_.ops);
            settle();
        }
        phase_.extraS = secondsSince(t0);
        phase_.measuredS += phase_.extraS;
        phase_.endEpisode();
        return finish();
    }

    const EpisodeCounts &counts() const { return counts_; }

  private:
    FleetManager &fleet() { return *rig_->fleet; }
    Engine &engine() { return rig_->engine; }

    void step(std::size_t step, std::uint64_t op)
    {
        const std::uint64_t r = mix(seed_, step);
        if (step == kKillStep) {
            {
                ScopedSpan span(log_, "fault.arm", op);
                windowEnd_ = engine().now() + kDeathSpan;
                rig_->plan.addWindow(FaultKind::DeviceDeath,
                                     engine().now(), windowEnd_, 1.0,
                                     victim_);
                rig_->plan.arm();
            }
            armedAt_ = wallNs();
            // Exactly one write lands on the dying card before the
            // watchdog's verdict: it times out unacked and must come
            // back through journal-tail replay. Until the verdict the
            // host leaves the victim's tenants alone, so every seed
            // pays the same detection cost.
            std::string t;
            {
                ScopedSpan span(log_, "fleet.lookup", op);
                t = pickPlaced(r, victim_);
            }
            write(t, r >> 16, op);
            avoidVictim_ = true;
        }

        // A full rack gets one make-room eviction first, so the churn
        // keeps placing.
        std::string out;
        {
            ScopedSpan span(log_, "fleet.lookup", op);
            if (fleet().freeSlots() == 0)
                out = pickPlaced(r >> 40);
        }
        if (!out.empty()) {
            ScopedSpan span(log_, "fleet.evict", op);
            if (fleet().evict(out))
                ledger_.erase(out);
        }
        admit(r >> 8, op);

        // Live migrations on a cadence; every fourth one is a pinned
        // cross-vendor move of a Xilinx-resident tenant onto Intel.
        if (step % 7 == 3) {
            const bool pinned = step % 28 == 10;
            std::string t;
            std::size_t src = 0;
            {
                ScopedSpan span(log_, "fleet.lookup", op);
                t = pickPlaced(r >> 32);
                if (!t.empty())
                    src = fleet().cardIndex(fleet().tenantCard(t));
            }
            if (!t.empty() && !(pinned && intelCard(src))) {
                for (unsigned w = 0; w < 3; ++w)
                    write(t, mix(seed_ ^ r, w), op);
                migrate(t, src,
                        pinned ? fleet().cardName(6 + (r >> 40) % 2) : "",
                        op);
            }
        }

        std::string bg;
        {
            ScopedSpan span(log_, "fleet.lookup", op);
            bg = pickPlaced(r >> 24);
        }
        write(bg, r >> 33, op);

        {
            ScopedSpan span(log_, "fleet.poll", op);
            fleet().poll();
        }
        {
            ScopedSpan span(log_, "fleet.lookup", op);
            if (fleet().cardWatchdog(kVictimCard).dead()) {
                counts_.died = true;
                avoidVictim_ = false;
            }
        }
        if (step % 10 == 7) {
            ScopedSpan span(log_, "obs.hub_poll", op);
            rig_->hub->poll(engine().now());
        }
        runFor(kStepRun, op);
    }

    void runFor(Tick span_ticks, std::uint64_t op)
    {
        ScopedSpan span(log_, "sim.runfor", op);
        engine().runFor(span_ticks);
        wall_.runForSim += span_ticks;
    }

    /**
     * Name of a Placed tenant near @p pick — on @p only_card when
     * given, never on the victim while it awaits its verdict — or ""
     * when there is none.
     */
    std::string pickPlaced(std::uint64_t pick,
                           const std::string &only_card = "")
    {
        const std::size_t n = everAdmitted_.size();
        for (std::size_t i = 0; i < n; ++i) {
            const std::string &name = everAdmitted_[(pick + i) % n];
            if (fleet().tenantState(name) !=
                FleetManager::TenantState::Placed)
                continue;
            const std::string &card = fleet().tenantCard(name);
            if (only_card.empty() ? !(avoidVictim_ && card == victim_)
                                  : card == only_card)
                return name;
        }
        return "";
    }

    void admit(std::uint64_t r, std::uint64_t op)
    {
        static const char *kKinds[] = {"kv_cache", "kv_index",
                                       "mem_cache", "edge_fw"};
        FleetRoleSpec spec;
        spec.tenant = format("t%05llu", static_cast<unsigned long long>(
                                            nextTenant_++));
        spec.kind = kKinds[r % 4];
        spec.priority = static_cast<unsigned>((r >> 8) % 4);
        if (spec.kind == "edge_fw")
            spec.antiAffinity = format(
                "fwgrp%llu", static_cast<unsigned long long>((r >> 12) % 3));
        PlacementDecision d;
        {
            ScopedSpan span(log_, "fleet.admit", op);
            d = fleet().admit(spec);
        }
        ++counts_.admits;
        if (!d.evictTenant.empty())
            ledger_.erase(d.evictTenant);
        if (d.placed) {
            ++counts_.placed;
            everAdmitted_.push_back(spec.tenant);
        } else if (fleet().hasTenant(spec.tenant)) {
            everAdmitted_.push_back(spec.tenant);  // degraded admit
        }
    }

    void write(const std::string &tenant, std::uint64_t r,
               std::uint64_t op)
    {
        if (tenant.empty())
            return;
        const auto key = static_cast<std::uint32_t>(r % 48);
        const auto value = static_cast<std::uint32_t>(r >> 5) | 1u;
        std::size_t card = 0;
        CallOutcome out;
        {
            ScopedSpan span(log_, "fleet.call", op);
            card = fleet().cardIndex(fleet().tenantCard(tenant));
            out = fleet().call(tenant, kCmdTableWrite, {key, value});
        }
        if (out.ok() && out.response.status == kCmdOk) {
            ledger_[tenant][key] = value;
            ++counts_.acked;
        } else if (card == kVictimCard && windowEnd_ != 0) {
            ++counts_.deathUnacked;  // the injected death, as intended
        } else {
            stepFailed_ = true;
            res_.fail("journaled write to " + tenant + " not acked");
        }
    }

    void migrate(const std::string &tenant, std::size_t src,
                 const std::string &target, std::uint64_t op)
    {
        PlacementDecision d;
        {
            ScopedSpan span(log_, "fleet.migrate", op);
            d = fleet().migrate(tenant, target);
        }
        ++counts_.migrations;
        if (!d.evictTenant.empty())
            ledger_.erase(d.evictTenant);
        if (!d.placed)
            return;
        ++counts_.migrated;
        if (intelCard(fleet().cardIndex(d.card)) != intelCard(src))
            ++counts_.crossVendor;
        // Every acked write the host remembers must already sit in the
        // migrated table.
        ScopedSpan span(log_, "bench.verify", op);
        verify(tenant);
    }

    void verify(const std::string &tenant)
    {
        const auto it = ledger_.find(tenant);
        if (it == ledger_.end())
            return;
        const auto *role =
            static_cast<const TenantRole *>(fleet().tenantRole(tenant));
        for (const auto &[key, value] : it->second) {
            if (role != nullptr && role->valueOf(key) == value) {
                ++counts_.verified;
            } else {
                ++counts_.lost;
                stepFailed_ = true;
            }
        }
    }

    /** Outlive the death window, then re-place degraded tenants. */
    void settle()
    {
        const std::uint64_t op = phase_.ops;
        while (windowEnd_ != 0 &&
               engine().now() < windowEnd_ + 100'000'000) {
            {
                ScopedSpan span(log_, "fleet.poll", op);
                fleet().poll();
            }
            runFor(20'000'000, op);
        }
        for (int i = 0; i < 100 && fleet().degradedCount() != 0; ++i) {
            {
                ScopedSpan span(log_, "fleet.poll", op);
                fleet().poll();
            }
            runFor(5'000'000, op);
        }
        rig_->plan.disarm();
        if (armedAt_ != 0)
            wall_.armedS += static_cast<double>(wallNs() - armedAt_) / 1e9;
    }

    std::uint64_t finish()
    {
        for (const auto &kv : ledger_)
            if (fleet().tenantState(kv.first) ==
                FleetManager::TenantState::Placed)
                verify(kv.first);
        if (counts_.lost != 0)
            res_.fail(std::to_string(counts_.lost) + " acked writes lost");
        if (fleet().degradedCount() != 0)
            res_.fail("tenants still Degraded after the settle");
        if (!counts_.died || fleet().cardWatchdog(kVictimCard).dead())
            res_.fail("the victim card did not die and revive");
        if (counts_.migrated == 0 || counts_.crossVendor == 0)
            res_.fail("the churn made no cross-vendor migration");

        counts_.journalHighWater = fleet().journalHighWater();
        for (const std::string &label : rig_->hub->deviceLabels())
            counts_.samples += rig_->hub->device(label).samplesIngested;

        Digest d;
        d.add(fleet().fingerprint());
        d.add(engine().now());
        d.add(rig_->plan.fingerprint());
        for (const std::uint64_t v :
             {counts_.admits, counts_.placed, counts_.migrations,
              counts_.migrated, counts_.crossVendor, counts_.acked,
              counts_.verified, counts_.deathUnacked,
              counts_.journalHighWater, counts_.samples,
              fleet().placements(), fleet().ackedCalls()})
            d.add(v);
        return d.value();
    }

    std::uint64_t seed_;
    SpanLog &log_;
    Phase &phase_;
    Result &res_;
    WallCounts &wall_;
    std::unique_ptr<Rig> rig_;
    std::string victim_;
    std::vector<std::string> everAdmitted_;
    /** Host-side ledger: tenant -> key -> last acked value. */
    std::map<std::string, std::map<std::uint32_t, std::uint32_t>> ledger_;
    std::uint64_t nextTenant_ = 0;
    Tick windowEnd_ = 0;
    std::int64_t armedAt_ = 0;
    bool avoidVictim_ = false;
    bool stepFailed_ = false;
    EpisodeCounts counts_;
};

/** Episodes: at least @p min_episodes and @p seconds of wall time. */
Phase
runPhase(std::uint64_t seed, double seconds, std::size_t min_episodes,
         SpanLog &log, Result &res, std::uint64_t &digest,
         EpisodeCounts &first, WallCounts &wall)
{
    Phase phase;
    const std::int64_t start = wallNs();
    while (phase.episodes() < min_episodes ||
           secondsSince(start) < seconds) {
        {
            Episode ep(seed, log, phase, res, wall);
            const std::uint64_t d = ep.run();
            if (digest == 0) {
                digest = d;
                first = ep.counts();
            } else if (d != digest) {
                res.fail("episode digest differs within one seed");
            }
        }
        // Set-ups alone after every episode (once its rig is gone, so
        // peak RSS stays one rig's), spread over the whole run.
        for (std::size_t i = 1; i < kSetupsPerEpisode; ++i) {
            const std::int64_t s0 = wallNs();
            Rig rig(seed);
            phase.setupS.push_back(secondsSince(s0));
        }
    }
    return phase;
}

double
ratio(std::uint64_t num, std::uint64_t den)
{
    return den == 0 ? 0.0
                    : static_cast<double>(num) / static_cast<double>(den);
}

} // namespace

Result
runFleetChurn(const Options &opts)
{
    Result res;
    std::uint64_t digest = 0;
    EpisodeCounts first;
    WallCounts wall;
    SpanLog log;

    if (!opts.trace) {
        const Phase phase = runPhase(opts.seed, opts.seconds, kMinEpisodes,
                                     log, res, digest, first, wall);
        res.attempted = phase.attempted;
        res.failed = phase.failed;
        reportEndToEnd(phase, kTailPct, res);
    } else {
        // Per-layer metrics have no bound: one episode a side will do.
        const Phase plain = runPhase(opts.seed, opts.seconds / 2, 1, log,
                                     res, digest, first, wall);
        wall = {};
        log.setEnabled(true);
        const Phase traced = runPhase(opts.seed, opts.seconds / 2, 1, log,
                                      res, digest, first, wall);
        log.setEnabled(false);
        res.attempted = plain.attempted + traced.attempted;
        res.failed = plain.failed + traced.failed;

        const double coverage = log.opCoverage();
        if (coverage < 0.95)
            res.fail("layer spans cover only " +
                     std::to_string(coverage * 100) + "% of op wall time");
        const std::vector<double> admit = log.durationsUs("fleet.admit");
        const Tail admit_tail = tailOf(admit);
        const double runfor_ms = log.totalUs("sim.runfor") / 1e3;
        res.metrics = {
            {"fleet.admit_wall_us_p50", percentile(admit, 50.0), "us"},
            {"fleet.admit_wall_us_tail", admit_tail.value, "us"},
            {"fleet.admit_placed_ratio", ratio(first.placed, first.admits),
             "ratio"},
            {"fleet.migrate_wall_us", mean(log.durationsUs("fleet.migrate")),
             "us"},
            {"fleet.migrate_ok_ratio",
             ratio(first.migrated, first.migrations), "ratio"},
            {"fleet.call_wall_us", mean(log.durationsUs("fleet.call")), "us"},
            {"fleet.journal_high_water",
             static_cast<double>(first.journalHighWater), "count"},
            {"fleet.poll_wall_us", mean(log.durationsUs("fleet.poll")), "us"},
            {"obs.hub_poll_wall_us", mean(log.durationsUs("obs.hub_poll")),
             "us"},
            {"obs.samples_ingested", static_cast<double>(first.samples),
             "count"},
            {"sim.runfor_wall_us", mean(log.durationsUs("sim.runfor")), "us"},
            {"sim.sim_ns_per_wall_ms",
             runfor_ms > 0.0
                 ? static_cast<double>(wall.runForSim) / 1e3 / runfor_ms
                 : 0.0,
             "ns/ms"},
            {"fault.armed_wall_share",
             traced.measuredS > 0.0 ? wall.armedS / traced.measuredS : 0.0,
             "ratio"},
            {"bench.trace_overhead_pct", traceOverheadPct(plain, traced),
             "%"},
            {"bench.span_coverage", coverage, "ratio"},
        };
        completePerLayer(res);
        char line[128];
        std::snprintf(line, sizeof line,
                      "fleet.admit_wall_us_tail is p%g over %zu admissions",
                      admit_tail.pct, admit_tail.samples);
        res.notes.emplace_back(line);
        if (!opts.traceOut.empty() && !log.writeChromeTrace(opts.traceOut))
            res.fail("cannot write " + opts.traceOut);
    }
    char line[200];
    std::snprintf(line, sizeof line,
                  "digest %016llx (admits %llu placed %llu migrations "
                  "%llu cross-vendor %llu acked %llu verified %llu "
                  "unacked-by-death %llu)",
                  static_cast<unsigned long long>(digest),
                  static_cast<unsigned long long>(first.admits),
                  static_cast<unsigned long long>(first.placed),
                  static_cast<unsigned long long>(first.migrated),
                  static_cast<unsigned long long>(first.crossVendor),
                  static_cast<unsigned long long>(first.acked),
                  static_cast<unsigned long long>(first.verified),
                  static_cast<unsigned long long>(first.deathUnacked));
    res.notes.emplace_back(line);
    return res;
}

} // namespace perfbench
