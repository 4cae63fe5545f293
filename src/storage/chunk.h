// Fixed-capacity column chunk: the unit of storage, sharing, and skipping.
//
// A Column is a sequence of ColumnChunks of one power-of-two capacity.
// Chunks are the granularity at which
//   * appended data becomes visible (a catalog append copies only the
//     open tail chunk; every sealed chunk is shared by pointer between
//     table versions — O(new rows + one tail chunk) ingest, never a
//     table rebuild),
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
// Chunks are structurally immutable once full ("sealed"); only a column's
// open tail chunk ever mutates, and copy-on-write in Column keeps a tail
// shared across table versions safe to grow.

#ifndef MUVE_STORAGE_CHUNK_H_
#define MUVE_STORAGE_CHUNK_H_

#include <cstdint>
#include <functional>
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
// pre-chunking engine) while bounding the copy-on-append unit at scale.
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
  size_t size() const { return valid_.size(); }
  size_t capacity() const { return capacity_; }
  bool full() const { return size() >= capacity_; }

  // --- Appends (chunk-local; caller checks !full()) ---
  void AppendInt64(int64_t v) {
    MUVE_DCHECK(type_ == ValueType::kInt64 && !full());
    ints_.push_back(v);
    valid_.PushBack(true);
    ObserveNumeric(static_cast<double>(v));
  }
  void AppendDouble(double v) {
    MUVE_DCHECK(type_ == ValueType::kDouble && !full());
    doubles_.push_back(v);
    valid_.PushBack(true);
    ObserveNumeric(v);
  }
  void AppendString(std::string_view v);
  void AppendNull();

  // --- Cell access (chunk-local offsets) ---
  bool IsNull(size_t i) const { return !valid_.Get(i); }
  int64_t Int64At(size_t i) const { return ints_[i]; }
  double DoubleAt(size_t i) const { return doubles_[i]; }
  const std::string& StringAt(size_t i) const { return dict_[codes_[i]]; }
  double NumericAt(size_t i) const {
    return type_ == ValueType::kInt64 ? static_cast<double>(ints_[i])
                                      : doubles_[i];
  }

  // --- Raw arrays for scan kernels ---
  const ValidityBitmap& validity() const { return valid_; }
  const int64_t* int64_data() const {
    MUVE_DCHECK(type_ == ValueType::kInt64);
    return ints_.data();
  }
  const double* double_data() const {
    MUVE_DCHECK(type_ == ValueType::kDouble);
    return doubles_.data();
  }
  const uint32_t* codes() const {
    MUVE_DCHECK(type_ == ValueType::kString);
    return codes_.data();
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
  // order.  Only meaningful when HasNumericDict().
  const std::vector<double>& numeric_dict() const { return num_dict_; }
  // Per-row index into numeric_dict(); NULL rows hold 0 (mask them with
  // validity()).  Only meaningful when HasNumericDict().
  const uint16_t* numeric_codes() const { return num_codes_.data(); }

  // --- String dictionary ---
  // Distinct strings in first-appearance order; rows store indexes into
  // this vector (kNoCode for NULL rows).
  const std::vector<std::string>& dict() const { return dict_; }
  // Dictionary code of `s` in this chunk, or kNoCode when absent (an
  // equality probe for an absent literal skips the whole chunk).
  uint32_t CodeOf(std::string_view s) const {
    const auto it = dict_index_.find(s);
    return it == dict_index_.end() ? kNoCode : it->second;
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

  size_t ApproxBytes() const;

 private:
  // Zone map plus dictionary upkeep for one appended numeric cell.
  void ObserveNumeric(double v);
  // Appends `v`'s dictionary code, adding `v` to the dictionary when new;
  // turns the chunk high-cardinality instead when it would overflow.
  void CodeNumeric(double v);
  // Doubles the append index (16 slots at first) and re-inserts every
  // dictionary entry.
  void GrowIndex();
  // Drops the dictionary, codes and index for good.
  void DropNumericDict();
  // Frees the append-time hash index once the chunk is full: a sealed
  // chunk never codes another value.
  void ReleaseIndexIfFull();

  ValueType type_;
  size_t capacity_;
  ValidityBitmap valid_;
  std::vector<int64_t> ints_;
  std::vector<double> doubles_;
  std::vector<std::string> dict_;
  std::vector<uint32_t> codes_;
  // Transparent hash, so appends look up a string_view without building
  // a std::string first.
  struct StringHash {
    using is_transparent = void;
    size_t operator()(std::string_view s) const {
      return std::hash<std::string_view>{}(s);
    }
  };
  std::unordered_map<std::string, uint32_t, StringHash, std::equal_to<>>
      dict_index_;
  std::vector<double> num_dict_;
  std::vector<uint16_t> num_codes_;
  // Open-addressing index over num_dict_ for appends: slot holds code + 1,
  // 0 = empty.  Power-of-two size, at most a quarter full, grown with the
  // dictionary (at most 16384 slots).
  std::vector<uint16_t> num_slots_;
  bool high_cardinality_ = false;
  size_t null_count_ = 0;
  bool has_range_ = false;
  bool has_nan_ = false;
  double min_ = 0.0;
  double max_ = 0.0;
};

}  // namespace muve::storage

#endif  // MUVE_STORAGE_CHUNK_H_
