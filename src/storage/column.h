// Typed columnar storage.
//
// Each column stores its native type as a sequence of fixed-capacity
// chunks (storage/chunk.h), each carrying its own validity bitmap, zone
// map, and (for strings) dictionary.  Scans run chunk-at-a-time over the
// raw per-chunk arrays; `Value`-based access is provided for the generic
// boundary (SQL results, CSV, tests).
//
// Chunk capacity is a power of two, so a global row id resolves to its
// (chunk, offset) pair by shift/mask.  Sealed (full) chunks are shared by
// shared_ptr between column copies — Column's copy constructor is O(chunks),
// not O(rows) — and the open tail chunk copy-on-writes on the first append
// after a copy, so growing one copy never mutates data the other can see.
//
// Bulk ingest appends column to column (AppendColumn): it walks the
// source's chunks and converts per AppendValue's rules; no Value is built
// per cell.

#ifndef MUVE_STORAGE_COLUMN_H_
#define MUVE_STORAGE_COLUMN_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "storage/chunk.h"
#include "storage/value.h"

namespace muve::storage {

// The sorted union of some chunks' numeric dictionaries, with each
// chunk's code -> union index remap (Column::MergeNumericDicts).
struct MergedNumericDict {
  // Ascending distinct values.
  std::vector<double> values;
  // Union index of code k of chunk c: remap[remap_begin[c] + k].
  // remap_begin is indexed by column chunk id (entries before the merged
  // range are unused).
  std::vector<uint32_t> remap;
  std::vector<size_t> remap_begin;
};

// A single column of one ValueType with per-row validity.
class Column {
 public:
  // `chunk_rows` must be a power of two (checked).
  explicit Column(ValueType type, size_t chunk_rows = kDefaultChunkRows);

  // Copies share every chunk; the first append to either side deep-copies
  // the (partial) tail chunk it is about to grow.
  Column(const Column&) = default;
  Column& operator=(const Column&) = default;
  Column(Column&&) = default;
  Column& operator=(Column&&) = default;

  ValueType type() const { return type_; }
  size_t size() const { return size_; }

  // Appends a cell.  AppendValue type-checks and coerces numerics
  // (int64 column accepts an integral double and vice versa).
  void AppendInt64(int64_t v);
  void AppendDouble(double v);
  void AppendString(std::string_view v);
  void AppendNull();
  common::Status AppendValue(const Value& v);

  // Column-to-column append under AppendValue's rules.  FirstMismatch is
  // the row of the first cell of `src` this column cannot store
  // (src.size() when every cell fits); AppendColumn requires there is
  // none.  NULL cells always fit.
  size_t FirstMismatch(const Column& src) const;
  void AppendColumn(const Column& src);

  bool IsNull(size_t row) const {
    return chunks_[row >> shift_]->IsNull(row & mask_);
  }

  // Typed fast-path accessors.  Undefined for null cells or wrong types
  // (checked in debug builds).
  int64_t Int64At(size_t row) const {
    MUVE_DCHECK(type_ == ValueType::kInt64 && row < size_);
    return chunks_[row >> shift_]->Int64At(row & mask_);
  }
  double DoubleAt(size_t row) const {
    MUVE_DCHECK(type_ == ValueType::kDouble && row < size_);
    return chunks_[row >> shift_]->DoubleAt(row & mask_);
  }
  const std::string& StringAt(size_t row) const {
    MUVE_DCHECK(type_ == ValueType::kString && row < size_);
    return chunks_[row >> shift_]->StringAt(row & mask_);
  }

  // Numeric read regardless of int64/double storage; aborts for strings.
  double NumericAt(size_t row) const;

  // Generic access (allocates for strings).
  Value ValueAt(size_t row) const;

  // Min / max over non-null numeric cells, answered from the per-chunk
  // zone maps in O(chunks).  Error for string columns or when the column
  // has no non-null cell.  NaN cells are excluded (a column whose every
  // non-null cell is NaN reports NaN).
  common::Result<double> NumericMin() const;
  common::Result<double> NumericMax() const;

  // Merges the numeric dictionaries of chunks [first_chunk, last_chunk)
  // into `out` without reading a row: the union of the chunk
  // dictionaries is sorted once and each chunk's codes remapped into it.
  // Returns false when the column is not numeric or a chunk in the range
  // is high-cardinality (ColumnChunk::HasNumericDict).
  bool MergeNumericDicts(size_t first_chunk, size_t last_chunk,
                         MergedNumericDict* out) const;

  void Reserve(size_t n);

  // --- Chunk access for scan kernels ---
  size_t num_chunks() const { return chunks_.size(); }
  const ColumnChunk& chunk(size_t i) const { return *chunks_[i]; }
  size_t chunk_rows() const { return chunk_rows_; }
  // Global row id -> (chunk index, chunk-local offset).
  uint32_t chunk_shift() const { return shift_; }
  uint32_t chunk_mask() const { return mask_; }
  // True when no cell of any chunk is NULL (scan fast path).
  bool AllValid() const;
  size_t null_count() const;

  size_t ApproxBytes() const;

 private:
  // Returns the open tail chunk, creating or copy-on-writing it so the
  // append below cannot be observed through any shared copy.
  ColumnChunk* MutableTail();

  ValueType type_;
  size_t chunk_rows_;
  uint32_t shift_ = 0;
  uint32_t mask_ = 0;
  size_t size_ = 0;
  std::vector<std::shared_ptr<ColumnChunk>> chunks_;
};

}  // namespace muve::storage

#endif  // MUVE_STORAGE_COLUMN_H_
