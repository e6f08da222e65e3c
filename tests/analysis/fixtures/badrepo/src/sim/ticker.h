// Fixture: ticked component declaring an unordered member (DET-003).
#ifndef BADREPO_SIM_TICKER_H_
#define BADREPO_SIM_TICKER_H_

#include <unordered_map>

class Ticker {
  public:
    void tick();

  private:
    std::unordered_map<int, int> table_;
    StatGroup stats_;
    Trace &tracer_;
    Tick now_ = 0;
    int id_ = 0;
};

#endif // BADREPO_SIM_TICKER_H_
