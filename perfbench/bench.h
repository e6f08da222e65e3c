/**
 * @file
 * Shared plumbing of the host wall-clock benchmark: run options, the
 * seeded input mixer, the simulated-state digest, percentile helpers
 * and the result every workload hands back to main(). All times here
 * are host wall time unless a name says "sim".
 */

#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/** Command-line options of one benchmark run. */
struct Options {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /** Where the traced run writes its spans ("" = nowhere). */
    std::string traceOut;
};

/** Host wall time in ns on the monotonic clock. */
inline std::int64_t
wallNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** splitmix64 finalizer over (seed, counter): the input generator. */
inline std::uint64_t
mix(std::uint64_t seed, std::uint64_t counter)
{
    std::uint64_t z = seed + (counter + 1) * 0x9e3779b97f4a7c15ULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

/** FNV-1a over 64-bit words: the simulated-outcome digest. */
class Digest {
  public:
    void add(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            h_ ^= (v >> (8 * i)) & 0xff;
            h_ *= 0x100000001b3ULL;
        }
    }
    std::uint64_t value() const { return h_; }

  private:
    std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

/** One reported metric. */
struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
};

/** The tail a timing is reported at, and how many samples it rests on. */
struct Tail {
    double pct = 50.0;  ///< percentile reported as "tail"
    double value = 0.0;
    std::size_t samples = 0;
};

/** Nearest-rank percentile of @p v (copied, then partially sorted). */
double percentile(std::vector<double> v, double pct);

/**
 * The highest percentile of the ladder {99.9, 99, 95, 90, 80, 50}
 * with at least ten samples beyond it.
 */
Tail tailOf(const std::vector<double> &v);

/** Samples needed so that ten lie beyond percentile @p pct. */
std::size_t samplesForTail(double pct);

/** Episodes a timed phase runs at least: four, so that each sample's
 *  quiet percentile has episodes to choose from. */
inline constexpr std::size_t kMinEpisodes = 4;

double mean(const std::vector<double> &v);

/** Peak resident set of this process, in MiB. */
double peakRssMb();

/**
 * Pin this single-threaded process to the next allowed CPU before
 * @p episode, so a run's episodes rotate over every CPU it may use. A
 * neighbour that slows one core then slows only that core's episodes,
 * which kQuietPct leaves out. Returns the number of CPUs rotated over,
 * or 0 when affinity cannot be set (the episode then runs unpinned).
 */
std::size_t pinForEpisode(std::size_t episode);

/**
 * Episodes of a run replay identical inputs and do identical simulated
 * work, so the k-th sample of every episode times the same simulated
 * work, and what differs between its episodes is interference from the
 * rest of the host. A run therefore reports each sample at this
 * percentile of its episodes, on the fast side: the attempts least
 * disturbed by noisy neighbours on a shared machine, where a busy
 * neighbour may slow half of a run's time or more. Taken per sample
 * rather than per episode, a burst of interference spoils only the
 * samples it overlaps. With fewer than 20 episodes this is the fastest.
 */
inline constexpr double kQuietPct = 5.0;

/** Episodes whose samples a phase keeps (see Phase::endEpisode). */
inline constexpr std::size_t kStoredEpisodes = 256;

/**
 * Wall-clock record of one measured phase: several episodes, each a
 * fresh set-up replaying the same seeded inputs, so each has the same
 * number of samples. See kQuietPct for how episodes combine.
 */
struct Phase {
    /** Host us per operation in the current episode: one sample per
     *  operation, or per slice where operations are timed in slices. */
    std::vector<double> opWallUs;
    /** Host s of the current episode outside its samples (a settle). */
    double extraS = 0.0;
    std::vector<double> setupS;  ///< one entry per set-up
    double measuredS = 0.0;      ///< wall time of ops (+ fleet settles)
    std::uint64_t ops = 0;       ///< operations completed
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;

    void beginEpisode();
    /**
     * Close the episode. Its samples are kept for the profile; past
     * kStoredEpisodes, every other kept episode is dropped and only
     * every second one kept from then on, so memory stays fixed and the
     * kept episodes stay spread over the whole phase.
     */
    void endEpisode();
    std::size_t episodes() const { return episodes_; }

    /** Per-sample us per operation, each at kQuietPct of its episodes. */
    std::vector<double> quietProfile() const;
    /** Operations per host second of an episode made of the profile. */
    double opsPerS() const;

  private:
    std::size_t episodes_ = 0;
    std::size_t samplesPerEpisode_ = 0;
    std::uint64_t opsPerEpisode_ = 0;
    std::size_t stride_ = 1;  ///< every stride_-th episode is kept
    std::size_t kept_ = 0;
    std::vector<float> keptUs_;  ///< kept_ x samplesPerEpisode_
    std::vector<double> keptExtraS_;
    std::uint64_t opsAtBegin_ = 0;
};

/** What one run of a workload produced. */
struct Result {
    bool correct = true;
    std::string error;  ///< first failed check, when !correct
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<Metric> metrics;
    /** Free-form lines printed before the JSON (tail, digest, ...). */
    std::vector<std::string> notes;

    /** Record a failed check (the first one wins the message). */
    void fail(const std::string &why);
};

/**
 * Fill @p res with the end-to-end metrics of an untraced phase, its
 * tail at percentile @p tail_pct of the quiet profile.
 */
void reportEndToEnd(const Phase &phase, double tail_pct, Result &res);

/** Wall seconds since @p start_ns. */
inline double
secondsSince(std::int64_t start_ns)
{
    return static_cast<double>(wallNs() - start_ns) / 1e9;
}

/** Tracing overhead: traced vs untraced wall time per operation, %. */
double traceOverheadPct(const Phase &untraced, const Phase &traced);

/**
 * Put @p res's per-layer metrics in catalogue order and add every
 * catalogued metric the workload did not set, as 0: that layer did no
 * work in this workload. A name outside the catalogue fails the run.
 */
void completePerLayer(Result &res);

Result runFleetChurn(const Options &opts);
Result runCmdStream(const Options &opts);
Result runL4lbFlows(const Options &opts);

} // namespace perfbench

#endif // PERFBENCH_BENCH_H_
