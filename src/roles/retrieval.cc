#include "roles/retrieval.h"

#include <algorithm>

#include "common/logging.h"
#include "sim/clock.h"

namespace harmonia {

Retrieval::Retrieval(const RetrievalConfig &config)
    : Role("retrieval", RoleArch::LookAside, standardRequirements()),
      cfg_(config)
{
    if (cfg_.dim == 0 || cfg_.topK == 0 || cfg_.parallelism == 0)
        fatal("retrieval config fields must be non-zero");
}

RoleRequirements
Retrieval::standardRequirements()
{
    RoleRequirements r;
    r.name = "retrieval";
    r.needsMemory = true;
    r.memoryBandwidthGBps = 100.0;  // full-corpus scans want HBM
    r.memoryCapacityBytes = 8ULL << 30;
    r.needsHost = true;
    r.hostQueues = 8;
    r.roleLogic = {90000, 120000, 320, 0, 1200};
    r.roleLoc = 6410;
    return r;
}

void
Retrieval::setCorpusItems(std::uint64_t items)
{
    if (items == 0)
        fatal("corpus must hold at least one item");
    corpusItems_ = items;
}

std::int8_t
Retrieval::embeddingElement(std::uint64_t item, unsigned component) const
{
    std::uint64_t z =
        item * 0x9e3779b97f4a7c15ULL + component * 0xbf58476d1ce4e5b9ULL;
    z ^= z >> 29;
    return static_cast<std::int8_t>(z & 0xff);
}

std::int8_t
Retrieval::queryElement(std::uint64_t query_id, unsigned component) const
{
    std::uint64_t z = (query_id + 0x1234567) *
                          0x94d049bb133111ebULL +
                      component;
    z ^= z >> 31;
    return static_cast<std::int8_t>(z & 0xff);
}

std::int32_t
Retrieval::score(std::uint64_t query_id, std::uint64_t item) const
{
    std::int32_t acc = 0;
    for (unsigned c = 0; c < cfg_.dim; ++c)
        acc += static_cast<std::int32_t>(queryElement(query_id, c)) *
               static_cast<std::int32_t>(embeddingElement(item, c));
    return acc;
}

void
Retrieval::populateCorpus()
{
    if (corpusItems_ > kFunctionalLimit)
        fatal("corpus of %llu items exceeds the functional limit; "
              "use timing-only mode",
              static_cast<unsigned long long>(corpusItems_));
    MemoryRbb &mem = shell().memory();
    std::vector<std::uint8_t> row(cfg_.dim);
    for (std::uint64_t item = 0; item < corpusItems_; ++item) {
        for (unsigned c = 0; c < cfg_.dim; ++c)
            row[c] = static_cast<std::uint8_t>(
                embeddingElement(item, c));
        mem.storeWrite(item * cfg_.dim, row);
    }
}

bool
Retrieval::submitQuery(std::uint64_t id)
{
    if (pending_.size() >= 64) {
        rejectedQueries_.inc();
        return false;
    }
    pending_.emplace_back(id, now());
    queries_.inc();
    return true;
}

RetrievalResult
Retrieval::popResult()
{
    if (results_.empty())
        fatal("retrieval '%s': popResult with none pending",
              name().c_str());
    RetrievalResult r = results_.front();
    results_.pop_front();
    return r;
}

Tick
Retrieval::queryServiceTime() const
{
    const MemoryRbb &mem =
        const_cast<Retrieval *>(this)->shell().memory();
    const auto &ctrl =
        const_cast<MemoryRbb &>(mem).controller();
    const double scan_bw =
        ctrl.channelBandwidth() * ctrl.channels();
    const double corpus_bytes =
        static_cast<double>(corpusItems_) * cfg_.dim;
    const double scan_s = corpus_bytes / scan_bw;

    const double clock_hz = clock() ? clock()->mhz() * 1e6 : 250e6;
    // One lane retires one embedding element per cycle.
    const double compute_s =
        corpus_bytes / cfg_.parallelism / clock_hz;

    return static_cast<Tick>(std::max(scan_s, compute_s) *
                             kTicksPerSecond);
}

std::vector<std::uint32_t>
Retrieval::snapshotPayload() const
{
    std::vector<std::uint32_t> out;
    const auto push64 = [&](std::uint64_t v) {
        out.push_back(static_cast<std::uint32_t>(v));
        out.push_back(static_cast<std::uint32_t>(v >> 32));
    };

    push64(corpusItems_);

    out.push_back(static_cast<std::uint32_t>(pending_.size()));
    for (const auto &[id, submitted] : pending_) {
        push64(id);
        push64(submitted);
    }

    out.push_back(busy_ ? 1 : 0);
    push64(activeQuery_);
    push64(activeSubmitted_);
    push64(busyUntil_);

    out.push_back(static_cast<std::uint32_t>(results_.size()));
    for (const RetrievalResult &r : results_) {
        push64(r.queryId);
        push64(r.submitted);
        push64(r.completed);
        out.push_back(static_cast<std::uint32_t>(r.topK.size()));
        for (const auto &[item, item_score] : r.topK) {
            push64(item);
            out.push_back(static_cast<std::uint32_t>(item_score));
        }
    }
    return out;
}

CheckpointError
Retrieval::restorePayload(const std::vector<std::uint32_t> &payload)
{
    std::size_t at = 0;
    bool short_read = false;
    const auto next = [&]() -> std::uint32_t {
        if (at >= payload.size()) {
            short_read = true;
            return 0;
        }
        return payload[at++];
    };
    const auto next64 = [&]() -> std::uint64_t {
        const std::uint64_t lo = next();
        return lo | (static_cast<std::uint64_t>(next()) << 32);
    };

    const std::uint64_t corpus = next64();
    if (corpus == 0)
        return CheckpointError::BadPayload;

    std::deque<std::pair<std::uint64_t, Tick>> pending;
    const std::uint32_t npending = next();
    for (std::uint32_t i = 0; i < npending && !short_read; ++i) {
        const std::uint64_t id = next64();
        pending.emplace_back(id, next64());
    }

    const bool busy = next() != 0;
    const std::uint64_t active_query = next64();
    const Tick active_submitted = next64();
    const Tick busy_until = next64();

    std::deque<RetrievalResult> results;
    const std::uint32_t nresults = next();
    for (std::uint32_t i = 0; i < nresults && !short_read; ++i) {
        RetrievalResult r;
        r.queryId = next64();
        r.submitted = next64();
        r.completed = next64();
        const std::uint32_t k = next();
        for (std::uint32_t j = 0; j < k && !short_read; ++j) {
            const std::uint64_t item = next64();
            r.topK.emplace_back(
                item, static_cast<std::int32_t>(next()));
        }
        results.push_back(std::move(r));
    }

    if (short_read || at != payload.size())
        return CheckpointError::BadPayload;

    corpusItems_ = corpus;
    pending_ = std::move(pending);
    results_ = std::move(results);
    busy_ = busy;
    activeQuery_ = active_query;
    activeSubmitted_ = active_submitted;
    busyUntil_ = busy_until;
    readsOutstanding_ = 0;

    // The standby's memory store is cold; re-derive the functional
    // corpus (embeddings are pure functions of item index).
    if (bound() && corpusItems_ <= kFunctionalLimit)
        populateCorpus();
    return CheckpointError::Ok;
}

void
Retrieval::tick()
{
    if (!active())
        return;

    MemoryRbb &mem = shell().memory();

    // Drain scan-read completions.
    while (mem.hasCompletion()) {
        mem.popCompletion();
        if (readsOutstanding_ > 0)
            --readsOutstanding_;
    }

    // Finish the active query.
    if (busy_ && now() >= busyUntil_ && readsOutstanding_ == 0) {
        RetrievalResult result;
        result.queryId = activeQuery_;
        result.submitted = activeSubmitted_;
        result.completed = now();
        if (corpusItems_ <= kFunctionalLimit) {
            // Exact top-K over the functional corpus.
            std::vector<std::pair<std::int32_t, std::uint64_t>> all;
            all.reserve(corpusItems_);
            for (std::uint64_t item = 0; item < corpusItems_; ++item)
                all.emplace_back(score(activeQuery_, item), item);
            const std::size_t k =
                std::min<std::size_t>(cfg_.topK, all.size());
            std::partial_sort(
                all.begin(), all.begin() + static_cast<long>(k),
                all.end(), [](const auto &x, const auto &y) {
                    return x.first > y.first ||
                           (x.first == y.first &&
                            x.second < y.second);
                });
            for (std::size_t i = 0; i < k; ++i)
                result.topK.emplace_back(all[i].second, all[i].first);
        }
        results_.push_back(std::move(result));
        completedQueries_.inc();
        busy_ = false;
    }

    // Start the next query.
    if (!busy_ && !pending_.empty()) {
        auto [id, submitted] = pending_.front();
        pending_.pop_front();
        activeQuery_ = id;
        activeSubmitted_ = submitted;
        busy_ = true;
        busyUntil_ = now() + queryServiceTime();

        // Exercise the real memory path with representative block
        // reads across the scan footprint.
        const std::uint64_t corpus_bytes =
            corpusItems_ * cfg_.dim;
        const std::uint32_t block = 4096;
        const unsigned n_reads = static_cast<unsigned>(
            std::min<std::uint64_t>(32, corpus_bytes / block + 1));
        for (unsigned i = 0; i < n_reads; ++i) {
            const Addr addr =
                (corpus_bytes > block)
                    ? (corpus_bytes / n_reads) * i
                    : 0;
            if (mem.read(addr, block, id))
                ++readsOutstanding_;
        }
    }
}

} // namespace harmonia
