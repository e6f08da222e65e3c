/**
 * @file
 * Clock domains for the tick-based simulation kernel. FPGA shells are
 * inherently multi-clock (the paper's RBBs run at S MHz while roles run
 * at R MHz); every component belongs to exactly one Clock.
 */

#ifndef HARMONIA_SIM_CLOCK_H_
#define HARMONIA_SIM_CLOCK_H_

#include <cstddef>
#include <string>

#include "common/types.h"

namespace harmonia {

/**
 * A clock domain: a name, a period, and a running cycle count. The
 * Engine advances clocks; components read their cycle count to convert
 * between cycles and wall (simulated) time. While its domain's
 * concurrency group is dormant under fast-forward, the engine does not
 * advance it: cycle() derives the count from engine time when read.
 */
class Clock {
  public:
    /**
     * @param name Human-readable domain name, e.g. "rbb_clk".
     * @param mhz  Frequency in MHz; must be positive.
     */
    Clock(std::string name, double mhz);

    const std::string &name() const { return name_; }
    double mhz() const { return mhz_; }
    Tick period() const { return period_; }

    /** Rising edges seen so far. */
    Cycles cycle() const
    {
        return dormant_ ? *engineNow_ / period_ : cycle_;
    }

    /** cycle() is derived from engine time: its domain's group is
     *  dormant, or woke and has not been walked since. Input to a
     *  dormant group must wake it (Component::noteMutation). */
    bool dormant() const { return dormant_; }

    /** Time of the next rising edge strictly after @p now. */
    Tick nextEdge(Tick now) const;

    /** Convert a cycle count in this domain to simulated time. */
    Tick cyclesToTicks(Cycles c) const { return c * period_; }

    /** Cycles elapsed in @p t time (floor). */
    Cycles ticksToCycles(Tick t) const { return t / period_; }

  private:
    friend class Engine;
    void advance() { ++cycle_; }

    /**
     * Batch-advance to @p now: the cycle count always equals the number
     * of edges at or before the current time (edges sit at multiples of
     * the period), so a fast-forwarding engine can land a clock at any
     * instant without walking the intermediate edges. Ends dormancy.
     */
    void
    syncTo(Tick now)
    {
        cycle_ = now / period_;
        dormant_ = false;
    }

    std::string name_;
    double mhz_;
    Tick period_;
    Cycles cycle_ = 0;
    const Tick *engineNow_ = nullptr;  ///< owning engine's time
    std::size_t domain_ = 0;  ///< its index in the owning engine
    bool dormant_ = false;
};

} // namespace harmonia

#endif // HARMONIA_SIM_CLOCK_H_
