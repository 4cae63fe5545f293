// Score memo: the deviation and accuracy of every probed candidate of one
// view space, kept across Recommend() calls (DESIGN.md §13).
//
// A binned view's D(V_{i,b}) depends on the data, the predicate, the
// distance and b; its A(V_{i,b}) on the data, the predicate and b.
// Neither depends on the weights, k or the scheme — exactly what the
// paper's user-defined-weights workflow (Section III-B) varies.  So a
// caller that keeps one memo per (data version, predicate) answers every
// later request's probes of a candidate from the value the first probe
// computed, bit for bit.
//
// Layout: one slot per (view, b) with b in [1, B_j] (b = 1 only for a
// categorical view), flattened in view order.  Each score kind — the
// accuracy, and the deviation under each DistanceKind — has its own slot
// array, allocated in blocks of up to 128 slots on first write.  A slot
// holds the value's exact bits; a reserved NaN pattern marks it empty,
// and a value with that pattern is never stored (it would only read as
// a miss).
// Blocks are published by compare-and-swap and slots by release stores,
// so concurrent requests and pool workers fill one memo without a lock.
// Two writers of one slot computed the same bits; the first wins.

#ifndef MUVE_CORE_SCORE_MEMO_H_
#define MUVE_CORE_SCORE_MEMO_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "core/distance.h"
#include "core/view.h"

namespace muve::core {

class ScoreMemo {
 public:
  // Which score a slot array holds.
  static int AccuracyKind() { return 0; }
  static int DeviationKind(DistanceKind distance) {
    return 1 + static_cast<int>(distance);
  }

  explicit ScoreMemo(const ViewSpace& space);
  ~ScoreMemo();
  ScoreMemo(const ScoreMemo&) = delete;
  ScoreMemo& operator=(const ScoreMemo&) = delete;

  // Whether this memo's slots were laid out for `space`'s views and bin
  // ranges.
  bool Fits(const ViewSpace& space) const;

  // The stored score of (view, bins), or nullopt when the slot is empty
  // or (view, bins) has none.
  std::optional<double> Get(int kind, int view_index, int bins) const;

  // Stores `value`; returns whether this call filled the slot (false
  // when it was filled already or has no slot).
  bool Put(int kind, int view_index, int bins, double value);

  // Bytes held: the block tables plus every allocated block.
  size_t bytes() const { return bytes_.load(std::memory_order_relaxed); }

 private:
  // A score's bits, or the empty pattern.
  using Slot = std::atomic<uint64_t>;

  // The flat slot index of (view, bins), or -1.
  int64_t SlotIndex(int view_index, int bins) const;
  // The block table entry holding `slot` of `kind`.
  std::atomic<Slot*>& BlockOf(int kind, int64_t slot) const;

  // Slot offsets per view, size views + 1.
  std::vector<int64_t> offsets_;
  size_t block_slots_ = 1;
  size_t blocks_per_kind_ = 0;
  // kinds x blocks_per_kind_ block pointers, null until first write.
  std::unique_ptr<std::atomic<Slot*>[]> blocks_;
  std::atomic<size_t> bytes_{0};
};

}  // namespace muve::core

#endif  // MUVE_CORE_SCORE_MEMO_H_
