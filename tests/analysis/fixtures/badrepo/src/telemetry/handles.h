// Fixture: counter handles declared under out-of-convention names
// (TEL-001 over the handle declaration form), one with a wrapped
// initializer and one naming its group through a call.
#ifndef BADREPO_TELEMETRY_HANDLES_H_
#define BADREPO_TELEMETRY_HANDLES_H_

template <typename StatGroup, typename CounterHandle>
struct FixtureHandles {
    StatGroup stats_{"fixture"};
    StatGroup &group() { return stats_; }
    CounterHandle fine_{group(), "fine_name"};
    CounterHandle badName_{stats_,
                           "Bad-Handle"};
    CounterHandle badCall_{group(), "badCall"};
};

#endif // BADREPO_TELEMETRY_HANDLES_H_
