#include "obs/slo.h"

#include <algorithm>

#include "common/logging.h"
#include "obs/flight_recorder.h"
#include "sim/trace.h"

namespace harmonia {

const char *
toString(SloKind kind)
{
    switch (kind) {
      case SloKind::ErrorRate:
        return "error_rate";
      case SloKind::LatencyP99:
        return "latency_p99";
      case SloKind::OccupancyAbove:
        return "occupancy_above";
      case SloKind::GaugeBelow:
        return "gauge_below";
    }
    return "?";
}

const char *
toString(AlertState state)
{
    switch (state) {
      case AlertState::Inactive:
        return "inactive";
      case AlertState::Pending:
        return "pending";
      case AlertState::Firing:
        return "firing";
      case AlertState::Resolved:
        return "resolved";
    }
    return "?";
}

SloEngine::SloEngine(std::string name, TimeSeriesStore &store,
                     Tick evalPeriod)
    : Component(std::move(name)), store_(store),
      evalPeriod_(evalPeriod), stats_(this->name())
{
    if (evalPeriod == 0)
        fatal("slo engine '%s': eval period must be non-zero",
              this->name().c_str());
}

std::size_t
SloEngine::addSpec(SloSpec spec)
{
    if (spec.name.empty())
        fatal("slo spec with an empty name");
    if (spec.burnThreshold <= 0.0)
        fatal("slo spec '%s': burn threshold must be positive",
              spec.name.c_str());
    Alert a;
    a.status.name = spec.name;
    a.spec = std::move(spec);
    alerts_.push_back(std::move(a));
    return alerts_.size() - 1;
}

const SloSpec &
SloEngine::spec(std::size_t i) const
{
    if (i >= alerts_.size())
        fatal("slo engine '%s': spec index %zu out of range",
              name().c_str(), i);
    return alerts_[i].spec;
}

const AlertStatus &
SloEngine::status(std::size_t i) const
{
    if (i >= alerts_.size())
        fatal("slo engine '%s': spec index %zu out of range",
              name().c_str(), i);
    return alerts_[i].status;
}

std::vector<AlertStatus>
SloEngine::statuses() const
{
    std::vector<AlertStatus> out;
    out.reserve(alerts_.size());
    for (const Alert &a : alerts_)
        out.push_back(a.status);
    return out;
}

bool
SloEngine::anyActive() const
{
    for (const Alert &a : alerts_)
        if (a.status.state == AlertState::Pending ||
            a.status.state == AlertState::Firing)
            return true;
    return false;
}

double
SloEngine::burnRate(const SloSpec &spec, const TimeSeriesStore &store,
                    Tick now)
{
    switch (spec.kind) {
      case SloKind::ErrorRate: {
        const double bad =
            store.delta(spec.badMetric, spec.window, now);
        const double total =
            store.delta(spec.totalMetric, spec.window, now);
        if (total <= 0.0)
            return 0.0;
        const double allowed = 1.0 - spec.objective;
        if (allowed <= 0.0)
            return bad > 0.0 ? spec.burnThreshold * 2.0 : 0.0;
        return (bad / total) / allowed;
      }
      case SloKind::LatencyP99: {
        if (spec.objective <= 0.0)
            return 0.0;
        return store.percentileOver(spec.metric, spec.window, 99.0,
                                    now) /
               spec.objective;
      }
      case SloKind::OccupancyAbove: {
        if (spec.objective <= 0.0)
            return 0.0;
        const TsWindowStats w =
            store.windowStats(spec.metric, spec.window, now);
        return w.empty() ? 0.0 : w.mean / spec.objective;
      }
      case SloKind::GaugeBelow: {
        const TsWindowStats w =
            store.windowStats(spec.metric, spec.window, now);
        if (w.empty())
            return 0.0;
        if (w.mean <= 0.0)
            return spec.objective > 0.0 ? 2.0 : 0.0;
        return spec.objective / w.mean;
      }
    }
    return 0.0;
}

void
SloEngine::transition(Alert &a, AlertState to, Tick now)
{
    const AlertState from = a.status.state;
    if (from == to)
        return;
    a.status.state = to;
    a.status.since = now;
    switch (to) {
      case AlertState::Pending:
        toPending_.inc();
        ++a.status.pendingEvents;
        break;
      case AlertState::Firing:
        toFiring_.inc();
        ++a.status.fireEvents;
        a.firedAt = now;
        a.clearSince = 0;
        break;
      case AlertState::Resolved:
        toResolved_.inc();
        ++a.status.resolveEvents;
        // The firing interval renders as one span on the alert track,
        // next to the workload spans that burned the budget.
        Trace::instance().completeSpan(a.firedAt, now, name(),
                                       "alert:" + a.spec.name,
                                       "alert");
        break;
      case AlertState::Inactive:
        toInactive_.inc();
        break;
    }
    trace(*this, "alert %s: %s -> %s (burn %.3f)",
          a.spec.name.c_str(), toString(from), toString(to),
          a.status.burnRate);
    if (recorder_ != nullptr)
        recorder_->noteAlert(a.spec.name, toString(from), toString(to),
                             now, a.status.burnRate,
                             to == AlertState::Firing);
}

void
SloEngine::evaluate(Tick now)
{
    for (Alert &a : alerts_) {
        const SloSpec &s = a.spec;
        const double burn = burnRate(s, store_, now);
        a.status.burnRate = burn;
        ++a.evals;
        evaluations_.inc();

        const bool trip = burn >= s.burnThreshold;
        const bool clear = burn <= s.burnThreshold * s.clearRatio;
        if (trip) {
            ++a.breaches;
            breaches_.inc();
        }

        // Lifetime budget: error SLOs consume bad/total against the
        // allowance; everything else reports its breach-time fraction.
        if (s.kind == SloKind::ErrorRate) {
            const double bad = store_.latest(s.badMetric);
            const double total = store_.latest(s.totalMetric);
            const double allowed = 1.0 - s.objective;
            a.status.budgetConsumed =
                total > 0.0 && allowed > 0.0
                    ? (bad / total) / allowed
                    : 0.0;
        } else {
            a.status.budgetConsumed =
                a.evals != 0 ? static_cast<double>(a.breaches) /
                                   static_cast<double>(a.evals)
                             : 0.0;
        }

        switch (a.status.state) {
          case AlertState::Inactive:
            if (trip)
                transition(a, AlertState::Pending, now);
            break;
          case AlertState::Pending:
            if (trip && now - a.status.since >= s.pendingFor)
                transition(a, AlertState::Firing, now);
            else if (clear)
                transition(a, AlertState::Inactive, now);
            // In the hysteresis band: hold pending, never promote.
            break;
          case AlertState::Firing:
            if (!clear) {
                a.clearSince = 0;
                break;
            }
            if (a.clearSince == 0)
                a.clearSince = now;
            if (now - a.clearSince >= s.resolveFor)
                transition(a, AlertState::Resolved, now);
            break;
          case AlertState::Resolved:
            if (trip)
                transition(a, AlertState::Pending, now);
            else if (now - a.status.since >= s.resolveFor)
                transition(a, AlertState::Inactive, now);
            break;
        }
    }
}

void
SloEngine::tick()
{
    if (now() < nextDue_)
        return;
    evaluate(now());
    nextDue_ = now() + evalPeriod_;
}

void
SloEngine::registerTelemetry(MetricsRegistry &reg,
                             const std::string &prefix)
{
    telemetry_.reset(reg);
    telemetry_.addGroup(prefix, &stats_);
    for (std::size_t i = 0; i < alerts_.size(); ++i) {
        const std::string base = prefix + "/" + alerts_[i].spec.name;
        telemetry_.addGauge(base + "/state", [this, i] {
            return static_cast<double>(alerts_[i].status.state);
        });
        telemetry_.addGauge(base + "/burn_rate", [this, i] {
            return alerts_[i].status.burnRate;
        });
        telemetry_.addGauge(base + "/budget_consumed", [this, i] {
            return alerts_[i].status.budgetConsumed;
        });
    }
}

} // namespace harmonia
