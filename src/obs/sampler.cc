#include "obs/sampler.h"

#include "common/logging.h"

namespace harmonia {

Sampler::Sampler(std::string name, MetricsRegistry &registry,
                 TimeSeriesStore &store, Tick period)
    : Component(std::move(name)), registry_(registry), store_(store),
      period_(period)
{
    if (period == 0)
        fatal("sampler '%s': period must be non-zero",
              this->name().c_str());
}

void
Sampler::tick()
{
    if (now() < nextDue_)
        return;
    store_.ingest(now(), registry_.scalarSeries());
    // Next scrape one full period from this one. When the sampling
    // clock is slower than the period the schedule degrades to "every
    // edge", never to a burst of catch-up scrapes.
    nextDue_ = now() + period_;
}

} // namespace harmonia
