#include "obs/fleet_sim.h"

#include "common/fnv.h"
#include "common/packet.h"
#include "device/database.h"

namespace harmonia {

namespace {

struct CardSpec {
    const char *device;
    const char *role;
};

/** The four heterogeneous cards the drill federates. */
constexpr CardSpec kCards[] = {
    {"DeviceA", "sec_gateway"},
    {"DeviceB", "kv_cache"},
    {"DeviceC", "net_probe"},
    {"DeviceD", "ml_infer"},
};

} // namespace

FleetSim::FleetSim(FleetSimConfig config)
    : cfg_(std::move(config)), hub_(engine_), plan_(cfg_.seed)
{
    if (cfg_.trace) {
        traceWasEnabled_ = Trace::instance().enabled();
        Trace::instance().setEnabled(true);
    }

    for (const CardSpec &card : kCards) {
        shells_.push_back(Shell::makeUnified(
            engine_, DeviceDatabase::instance().byName(card.device)));
        Shell &shell = *shells_.back();
        shell.registerTelemetry();
        drivers_.push_back(
            std::make_unique<CmdDriver>(engine_, shell));
        hub_.addDevice(card.device, card.role, shell);
        fed_.addDevice(card.device, shell.name());
    }

    hub_.addRollup("uck/commands_executed");
    hub_.addRollup("uck/buffer_occupancy");
    hub_.addRollup("uck/service_time_ps/p99");

    // Fleet SLOs: the liveness objective fires when the victim dies;
    // the latency objective stays comfortably inactive and shows the
    // healthy path on the dashboard.
    // GaugeBelow burn is objective/mean, so the objective sits half a
    // device below full strength: 4 alive burns at 0.875 (quiet), 3
    // alive at 1.167 (tripped).
    SloSpec alive;
    alive.name = "fleet-devices-alive";
    alive.kind = SloKind::GaugeBelow;
    alive.metric = "fleet/devices/alive";
    alive.objective =
        static_cast<double>(sizeof kCards / sizeof kCards[0]) - 0.5;
    alive.window = 30'000'000;
    alive.pendingFor = 5'000'000;
    alive.resolveFor = 1'000'000'000'000ULL;  // a death never clears
    hub_.addFleetSlo(alive);

    SloSpec p99;
    p99.name = "fleet-any-p99";
    p99.kind = SloKind::OccupancyAbove;
    p99.metric = "fleet/uck/service_time_ps/p99/max";
    p99.objective = 1e12;  // generous ps bound; stays inactive
    p99.window = 30'000'000;
    hub_.addFleetSlo(p99);

    // Per-device latency objectives give every dashboard row a live
    // alert cell (and stay quiet at these bounds).
    for (const CardSpec &card : kCards) {
        SloSpec dev;
        dev.name = std::string("p99-") + card.device;
        dev.kind = SloKind::OccupancyAbove;
        dev.metric = std::string("unified_") + card.device +
                     "/uck/service_time_ps/p99";
        dev.objective = 1e12;
        dev.window = 30'000'000;
        hub_.addFleetSlo(dev);
    }

    hub_.subscribeAll();

    if (cfg_.injectFault) {
        // The victim dies and never comes back (same shape as the
        // failover drill, minus the standby).
        plan_.addWindow(FaultKind::DeviceDeath, cfg_.deathAt,
                        2'000'000'000'000ULL, 1.0, cfg_.victim);
        plan_.arm();
    }
}

FleetSim::~FleetSim()
{
    plan_.disarm();
    if (cfg_.trace)
        Trace::instance().setEnabled(traceWasEnabled_);
}

void
FleetSim::trafficRound()
{
    const Tick wire = wireTime(512, 100e9);
    for (std::size_t i = 0; i < shells_.size(); ++i) {
        const std::string &label = kCards[i].device;
        if (!hub_.device(label).alive)
            continue;  // don't burn retries on a declared-dead card
        Shell &shell = *shells_[i];
        for (int p = 0; p < 4; ++p) {
            PacketDesc pkt;
            pkt.bytes = 512;
            pkt.flowHash = pktsInjected_++;
            pkt.injected = engine_.now() + p * wire;
            shell.network().mac().injectRx(pkt, pkt.injected);
        }
        drivers_[i]->call(kRbbSystem, 0, kCmdTimeCount);
        if (round_ % 2 == static_cast<int>(i) % 2)
            drivers_[i]->call(kRbbTelemetry, 0,
                              kCmdModuleStatusRead);
    }

    // Fleet sweep: one command per card under a single correlation
    // id, producing a genuinely cross-device span tree to federate.
    if (cfg_.trace && round_ % 8 == 4) {
        TraceContext ctx;
        ctx.corr = Trace::instance().newCorrelation();
        ScopedTraceContext scope(ctx);
        for (std::size_t i = 0; i < shells_.size(); ++i)
            if (hub_.device(kCards[i].device).alive)
                drivers_[i]->call(kRbbSystem, 0, kCmdTimeCount);
    }

    // Drain what the MACs forwarded so rings never saturate.
    for (std::size_t i = 0; i < shells_.size(); ++i)
        while (shells_[i]->network().rxAvailable())
            shells_[i]->network().rxPop();
}

bool
FleetSim::step()
{
    if (round_ >= cfg_.rounds)
        return false;
    trafficRound();
    engine_.runFor(cfg_.roundTicks);
    hub_.poll(engine_.now());
    ++round_;
    return round_ < cfg_.rounds;
}

void
FleetSim::run()
{
    while (step()) {
    }
}

std::string
FleetSim::top() const
{
    return renderTop(hub_, engine_.now());
}

std::uint64_t
FleetSim::fingerprint() const
{
    Fnv1a64 h;
    h.bytes(top()).bytes(hub_.summary());
    for (const FaultPlan::Event &e : plan_.log())
        h.bytes(e.target);
    return h.value() ^ plan_.fingerprint();
}

} // namespace harmonia
