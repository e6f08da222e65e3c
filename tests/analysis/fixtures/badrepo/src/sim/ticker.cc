// Fixture: RNG in ticked code (DET-001), unordered iteration in
// ticked code (DET-002), and string work on the tick path: a
// string-keyed counter lookup and a format() span argument (HOT-002).
#include "sim/ticker.h"

#include <cstdlib>

void
Ticker::tick()
{
    const int jitter = rand();
    for (auto &kv : table_)
        kv.second += jitter;
    stats_.counter("ticks").inc();
    const SpanId span = tracer_.beginSpan(
        now_, format("ticker%d", id_), "tick");
    tracer_.endSpan(span, now_);
}
