/**
 * @file
 * Periodic telemetry sampler: a clocked component that scrapes the
 * metrics registry every @p period of simulated time into a
 * TimeSeriesStore — the in-fabric analogue of a scrape loop. Register
 * it on any clock domain; sampling is aligned to simulated time, not
 * cycles, so the period holds across domains. The store is the only
 * history: it keeps each series' raw ring and rollups.
 */

#ifndef HARMONIA_OBS_SAMPLER_H_
#define HARMONIA_OBS_SAMPLER_H_

#include "obs/timeseries.h"
#include "sim/component.h"
#include "telemetry/metrics_registry.h"

namespace harmonia {

class Sampler : public Component {
  public:
    /**
     * @param store  Receives every scrape; not owned, must outlive
     *               the sampler.
     * @param period Simulated time between scrapes, in ticks (ps).
     */
    Sampler(std::string name, MetricsRegistry &registry,
            TimeSeriesStore &store, Tick period);

    void tick() override;

    /** Nothing to scrape until the next due time. */
    bool idle() const override { return now() < nextDue_; }
    Tick wakeTime() const override { return nextDue_; }

    Tick period() const { return period_; }

  private:
    MetricsRegistry &registry_;
    TimeSeriesStore &store_;
    Tick period_;
    Tick nextDue_ = 0;
};

} // namespace harmonia

#endif // HARMONIA_OBS_SAMPLER_H_
