/**
 * @file
 * Retrieval role (Table 2): look-aside embedding retrieval in the
 * FAERY mould. Each query scans the full corpus of int8 embeddings in
 * external memory, computes similarity scores and keeps the top-K.
 * Functional top-K is exact for test-sized corpora; timing follows the
 * memory-scan / compute bound.
 */

#ifndef HARMONIA_ROLES_RETRIEVAL_H_
#define HARMONIA_ROLES_RETRIEVAL_H_

#include <deque>

#include "roles/role.h"
#include "rtl/pipeline.h"

namespace harmonia {

/** Retrieval kernel parameters. */
struct RetrievalConfig {
    unsigned dim = 64;          ///< embedding bytes (int8 per element)
    unsigned topK = 10;
    unsigned parallelism = 2048;  ///< similarity lanes (bytes/cycle)
};

/** A finished query. */
struct RetrievalResult {
    std::uint64_t queryId = 0;
    Tick submitted = 0;
    Tick completed = 0;
    /** (item, score), best first; exact for functional corpora. */
    std::vector<std::pair<std::uint64_t, std::int32_t>> topK;

    Tick latency() const { return completed - submitted; }
};

/** The embedding-retrieval role. */
class Retrieval : public Role {
  public:
    /** Corpora up to this size carry real data and exact top-K. */
    static constexpr std::uint64_t kFunctionalLimit = 1 << 16;

    explicit Retrieval(const RetrievalConfig &config = {});

    static RoleRequirements standardRequirements();

    /** Set the corpus size (items); larger corpora are timing-only. */
    void setCorpusItems(std::uint64_t items);
    std::uint64_t corpusItems() const { return corpusItems_; }

    /** Write functional embeddings into the memory RBB store. */
    void populateCorpus();

    /** Deterministic int8 embedding element for (item, component). */
    std::int8_t embeddingElement(std::uint64_t item,
                                 unsigned component) const;

    /** Deterministic query embedding element. */
    std::int8_t queryElement(std::uint64_t query_id,
                             unsigned component) const;

    /** Exact reference score (int8 dot product). */
    std::int32_t score(std::uint64_t query_id,
                       std::uint64_t item) const;

    bool submitQuery(std::uint64_t id);
    bool hasResult() const { return !results_.empty(); }
    RetrievalResult popResult();

    /** Modelled service time of one query at current corpus size. */
    Tick queryServiceTime() const;

    void tick() override;

  protected:
    /**
     * State words: corpus size, the pending queue, the in-flight
     * query (absolute ticks stay valid — primary and standby share
     * one simulated timeline) and undrained results. Outstanding
     * memory reads are deliberately NOT carried: the standby's
     * memory RBB never saw them, so restore re-arms with zero and
     * the service-time gate alone finishes the active query.
     */
    std::vector<std::uint32_t> snapshotPayload() const override;
    CheckpointError
    restorePayload(const std::vector<std::uint32_t> &payload) override;

  private:
    RetrievalConfig cfg_;
    std::uint64_t corpusItems_ = 1 << 14;
    std::deque<std::pair<std::uint64_t, Tick>> pending_;
    std::deque<RetrievalResult> results_;
    bool busy_ = false;
    std::uint64_t activeQuery_ = 0;
    Tick activeSubmitted_ = 0;
    Tick busyUntil_ = 0;
    unsigned readsOutstanding_ = 0;
    CounterHandle rejectedQueries_{stats(), "rejected_queries"};
    CounterHandle queries_{stats(), "queries"};
    CounterHandle completedQueries_{stats(), "completed_queries"};
};

} // namespace harmonia

#endif // HARMONIA_ROLES_RETRIEVAL_H_
