/**
 * @file
 * A fixed set of bounded FIFOs whose storage follows use: a queue costs
 * one null pointer until its first push, and a bitmap of the non-empty
 * queues lets a round-robin scheduler find the next one without
 * visiting the empty ones. This is the Host RBB's 1K DMA queues, of
 * which only the active few are scheduled (§3.3.1).
 */

#ifndef HARMONIA_RTL_FIFO_ARRAY_H_
#define HARMONIA_RTL_FIFO_ARRAY_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "rtl/fifo.h"

namespace harmonia {

/** @p count FIFOs of @p capacity entries each, allocated on first push. */
template <typename T>
class FifoArray {
  public:
    static constexpr std::size_t kNone = ~std::size_t{0};

    FifoArray(std::size_t count, std::size_t capacity)
        : capacity_(capacity), fifos_(count), nonEmpty_((count + 63) / 64)
    {
        if (capacity == 0)
            fatal("FifoArray capacity must be non-zero");
    }

    bool canPush(std::size_t q) const
    {
        return fifos_[q] == nullptr || fifos_[q]->canPush();
    }
    bool canPop(std::size_t q) const
    {
        return (nonEmpty_[q / 64] >> (q % 64)) & 1;
    }
    std::size_t size(std::size_t q) const
    {
        return fifos_[q] == nullptr ? 0 : fifos_[q]->size();
    }

    void
    push(std::size_t q, T item)
    {
        if (fifos_[q] == nullptr)
            fifos_[q] = std::make_unique<Fifo<T>>(capacity_);
        fifos_[q]->push(std::move(item));
        nonEmpty_[q / 64] |= std::uint64_t{1} << (q % 64);
    }

    T
    pop(std::size_t q)
    {
        if (!canPop(q))
            panic("pop from empty FIFO");
        T item = fifos_[q]->pop();
        if (fifos_[q]->empty())
            nonEmpty_[q / 64] &= ~(std::uint64_t{1} << (q % 64));
        return item;
    }

    const T &
    front(std::size_t q) const
    {
        if (!canPop(q))
            panic("front of empty FIFO");
        return fifos_[q]->front();
    }

    /**
     * The first non-empty queue at or after @p from, wrapping past the
     * last queue to the first: what a round-robin scan of every queue
     * from @p from would find. kNone when all are empty.
     */
    std::size_t
    nextNonEmpty(std::size_t from) const
    {
        const std::size_t words = nonEmpty_.size();
        std::size_t w = from / 64;
        std::uint64_t bits =
            nonEmpty_[w] & (~std::uint64_t{0} << (from % 64));
        // Then every later word, wrapping: the start word's low bits
        // come last.
        for (std::size_t i = 0; bits == 0 && i < words; ++i) {
            w = (w + 1) % words;
            bits = nonEmpty_[w];
        }
        return bits == 0 ? kNone
                         : w * 64 + static_cast<std::size_t>(
                                        std::countr_zero(bits));
    }

    /** Empty every queue and give its storage back. */
    void
    clear()
    {
        for (auto &f : fifos_)
            f.reset();
        for (auto &w : nonEmpty_)
            w = 0;
    }

  private:
    std::size_t capacity_;
    std::vector<std::unique_ptr<Fifo<T>>> fifos_;
    std::vector<std::uint64_t> nonEmpty_;  ///< bit q: queue q holds one
};

} // namespace harmonia

#endif // HARMONIA_RTL_FIFO_ARRAY_H_
