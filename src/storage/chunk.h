// Fixed-capacity column chunk: the unit of storage, sharing, and skipping.
//
// A Column is a sequence of ColumnChunks of one power-of-two capacity.
// Chunks are the granularity at which
//   * appended data becomes visible (an append writes only its new rows
//     into the open tail chunk's shared store — see "Versions" below —
//     and every chunk is shared between table versions: O(new rows)
//     ingest, never a table rebuild),
//   * scans skip work (each chunk carries a zone map: min / max over its
//     non-NULL, non-NaN numeric cells plus a null count, letting
//     Predicate::FilterInto discard or bulk-accept a whole chunk without
//     touching cell bytes), and
//   * strings deduplicate (per-chunk dictionary encoding: each distinct
//     string stored once, rows hold dense uint32 codes — equality and IN
//     predicates compare codes, and a literal absent from the dictionary
//     skips the chunk outright), and
//   * numeric columns carry a capped distinct-value dictionary with
//     uint16 per-row codes, maintained on append: view-space setup reads
//     a column's distinct values from the dictionaries instead of its
//     rows, and fused builds key rows through a code remap instead of a
//     sort and a binary search per row.  A chunk whose distinct values
//     outgrow kMaxNumericDictSize (or that holds a NaN, which no
//     dictionary can key) drops its dictionary for good and is
//     "high-cardinality": readers fall back to the cells.
//
// Versions.  A ColumnChunk value is one version of a chunk: a small
// header (row count, null count, zone map, dictionary sizes, the
// high-cardinality flag and the partial last validity word) over a
// shared, append-only tail store holding every row-sized array: cells,
// string codes, numeric codes, complete validity words and numeric
// dictionary entries.  Versions of one chunk — a published table, its
// clones, the writer's next version — share the store and differ only
// in how much of it they see: a version reads rows [0, size()) and
// nothing past them.
//
// An append writes in place past its version's row count only when that
// version is the store's newest writer, decided by one atomic claim on
// the store's committed length.  A version that loses the claim (a
// second fork of one table) moves its rows once into a store of its own.
// So no append changes what an existing version sees, and the
// steady-state append writes only its new rows.  A store holds the whole
// chunk from the start, so it never regrows: its buffers are allocated
// uninitialized, and the OS backs only the pages appends touch.
//
// The string dictionary and its CodeOf index are dictionary-sized, not
// row-sized: they are shared between versions and copied on write by the
// first version that adds a string to one another version still holds.

#ifndef MUVE_STORAGE_CHUNK_H_
#define MUVE_STORAGE_CHUNK_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/logging.h"
#include "storage/validity_bitmap.h"
#include "storage/value.h"

namespace muve::storage {

// Default rows per chunk.  Power of two so global row ids resolve to
// (chunk, offset) by shift/mask.  1M rows keeps every current benchmark
// dataset single-chunk (identical scan order and cache keys as the
// pre-chunking engine).
inline constexpr size_t kDefaultChunkRows = size_t{1} << 20;

class ColumnChunk {
 public:
  // Sentinel code for NULL cells of a string chunk.  Never a valid
  // dictionary index, and never equal to any probe code — scan loops over
  // codes treat NULL rows as non-matching for free.
  static constexpr uint32_t kNoCode = 0xFFFFFFFFu;

  // Most distinct values a numeric chunk's dictionary holds: codes fit
  // uint16_t.  One more distinct value makes the chunk high-cardinality.
  static constexpr size_t kMaxNumericDictSize = 4096;

  ColumnChunk(ValueType type, size_t capacity)
      : type_(type), capacity_(capacity) {}

  ValueType type() const { return type_; }
  size_t size() const { return size_; }
  size_t capacity() const { return capacity_; }
  bool full() const { return size_ >= capacity_; }

  // --- Appends ---
  // Makes room for `n` more rows (size() + n <= capacity()) that no other
  // version can see: claims them in the shared store when this version is
  // its newest writer, else moves this version's rows into a new store
  // and returns how many it moved.  Exactly `n` Append* calls must follow
  // before the version is copied.
  size_t Claim(size_t n);

  // Appends one cell into claimed room.
  void AppendInt64(int64_t v) {
    MUVE_DCHECK(type_ == ValueType::kInt64 && Claimed());
    store_->ints[size_] = v;
    ObserveNumeric(static_cast<double>(v));
    Commit(true);
  }
  void AppendDouble(double v) {
    MUVE_DCHECK(type_ == ValueType::kDouble && Claimed());
    store_->doubles[size_] = v;
    ObserveNumeric(v);
    Commit(true);
  }
  void AppendString(std::string_view v);
  void AppendNull();

  // --- Cell access (chunk-local offsets) ---
  bool IsNull(size_t i) const { return !validity().Get(i); }
  int64_t Int64At(size_t i) const { return store_->ints[i]; }
  double DoubleAt(size_t i) const { return store_->doubles[i]; }
  const std::string& StringAt(size_t i) const {
    return dict_->entries[store_->codes[i]];
  }
  double NumericAt(size_t i) const {
    return type_ == ValueType::kInt64 ? static_cast<double>(store_->ints[i])
                                      : store_->doubles[i];
  }

  // --- Raw arrays for scan kernels (valid for offsets [0, size())) ---
  ValidityBitmap validity() const {
    return ValidityBitmap(store_ ? store_->words.get() : nullptr, last_word_,
                          size_);
  }
  const int64_t* int64_data() const {
    MUVE_DCHECK(type_ == ValueType::kInt64);
    return store_ ? store_->ints.get() : nullptr;
  }
  const double* double_data() const {
    MUVE_DCHECK(type_ == ValueType::kDouble);
    return store_ ? store_->doubles.get() : nullptr;
  }
  const uint32_t* codes() const {
    MUVE_DCHECK(type_ == ValueType::kString);
    return store_ ? store_->codes.get() : nullptr;
  }

  // --- Numeric dictionary ---
  // True for a numeric chunk whose every non-NULL cell is coded: at most
  // kMaxNumericDictSize distinct values and no NaN.  Empty chunks count.
  bool HasNumericDict() const {
    return (type_ == ValueType::kInt64 || type_ == ValueType::kDouble) &&
           !high_cardinality_;
  }
  // Distinct cell values (as doubles, so int64 values that round to one
  // double share an entry, and -0.0 shares 0.0's) in first-appearance
  // order.  Empty unless HasNumericDict().
  std::span<const double> numeric_dict() const {
    if (!HasNumericDict() || store_ == nullptr) return {};
    return {store_->num_dict.get(), num_dict_size_};
  }
  // Per-row index into numeric_dict(); NULL rows hold 0 (mask them with
  // validity()).  Only meaningful when HasNumericDict().
  const uint16_t* numeric_codes() const {
    return store_ ? store_->num_codes.get() : nullptr;
  }

  // --- String dictionary ---
  // Distinct strings in first-appearance order; rows store indexes into
  // it (kNoCode for NULL rows).
  std::span<const std::string> dict() const {
    if (dict_ == nullptr) return {};
    return dict_->entries;
  }
  // Dictionary code of `s` in this chunk, or kNoCode when absent (an
  // equality probe for an absent literal skips the whole chunk).
  uint32_t CodeOf(std::string_view s) const {
    if (dict_ == nullptr) return kNoCode;
    const auto it = dict_->index.find(s);
    return it == dict_->index.end() ? kNoCode : it->second;
  }

  // --- Zone map ---
  size_t null_count() const { return null_count_; }
  bool AllValid() const { return null_count_ == 0; }
  // True when the chunk holds at least one non-NULL, non-NaN numeric
  // cell; min()/max() are only meaningful then.
  bool HasRange() const { return has_range_; }
  double min() const { return min_; }
  double max() const { return max_; }
  // Whether any appended double was NaN.  NaN is excluded from min/max,
  // so zone-map decisions that depend on "every cell compares false/true"
  // must consult this (a NaN cell satisfies every `!=` comparison).
  bool HasNaN() const { return has_nan_; }

  // Bytes of this version's rows and dictionaries (untouched store
  // capacity is not counted).
  size_t ApproxBytes() const;

 private:
  // Row-sized storage behind every version of one chunk: buffers of the
  // chunk's capacity that never move.  Slots past the committed length
  // belong to no version until one claims them.
  struct Store {
    Store(ValueType type, size_t capacity, bool coded);

    // Moves the committed length from `from` to `to` when it is still
    // `from`: the caller's version is the newest writer, and rows
    // [from, to) are now its alone.
    bool Claim(size_t from, size_t to) {
      return committed.compare_exchange_strong(from, to,
                                               std::memory_order_acq_rel);
    }

    std::atomic<size_t> committed{0};
    std::unique_ptr<int64_t[]> ints;
    std::unique_ptr<double[]> doubles;
    std::unique_ptr<uint32_t[]> codes;
    std::unique_ptr<uint16_t[]> num_codes;
    std::unique_ptr<double[]> num_dict;
    // Complete validity words; a word is written once all its 64 rows
    // are appended, and never again.
    std::unique_ptr<uint64_t[]> words;
    // Open-addressing index over num_dict for appends: slot holds
    // code + 1, 0 = empty.  Power-of-two size, at most a quarter full.
    // Only the newest writer reads or writes it, so it always indexes
    // that writer's dictionary.
    std::vector<uint16_t> num_slots;
  };

  // Transparent hash, so appends look up a string_view without building
  // a std::string first.
  struct StringHash {
    using is_transparent = void;
    size_t operator()(std::string_view s) const {
      return std::hash<std::string_view>{}(s);
    }
  };
  struct StringDict {
    std::vector<std::string> entries;
    std::unordered_map<std::string, uint32_t, StringHash, std::equal_to<>>
        index;
  };

  // Debug check that the row about to be written was claimed.
  bool Claimed() const {
    return store_ != nullptr &&
           size_ < store_->committed.load(std::memory_order_relaxed);
  }
  // Records the validity of the row just written and counts it; stores
  // the last validity word once it is complete.
  void Commit(bool valid);
  // Zone map plus dictionary upkeep for one appended numeric cell.
  void ObserveNumeric(double v);
  // Writes `v`'s dictionary code, adding `v` to the dictionary when new;
  // turns the chunk high-cardinality instead when it would overflow.
  void CodeNumeric(double v);
  // Rebuilds the append index at `slots` slots over the dictionary.
  void BuildIndex(size_t slots);
  // Stops coding for good: the chunk is high-cardinality.
  void DropNumericDict();

  ValueType type_;
  size_t capacity_;
  size_t size_ = 0;
  size_t null_count_ = 0;
  size_t num_dict_size_ = 0;
  // Validity bits of rows [64 * (size_ / 64), size_).
  uint64_t last_word_ = 0;
  bool high_cardinality_ = false;
  bool has_range_ = false;
  bool has_nan_ = false;
  double min_ = 0.0;
  double max_ = 0.0;
  std::shared_ptr<Store> store_;
  std::shared_ptr<StringDict> dict_;
};

}  // namespace muve::storage

#endif  // MUVE_STORAGE_CHUNK_H_
