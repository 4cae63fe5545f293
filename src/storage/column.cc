#include "storage/column.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"

namespace muve::storage {

namespace {

uint32_t ShiftFor(size_t chunk_rows) {
  MUVE_CHECK(chunk_rows > 0 && (chunk_rows & (chunk_rows - 1)) == 0)
      << "chunk_rows must be a power of two, got " << chunk_rows;
  uint32_t shift = 0;
  while ((size_t{1} << shift) < chunk_rows) ++shift;
  return shift;
}

// Appends cells [begin, end) of `from` to `to`, which has room for them,
// converting per Column::AppendValue.  Every non-NULL cell must fit.
void AppendChunkRange(const ColumnChunk& from, size_t begin, size_t end,
                      ColumnChunk* to) {
  if (from.type() == ValueType::kString) {
    for (size_t i = begin; i < end; ++i) {
      if (from.IsNull(i)) {
        to->AppendNull();
      } else {
        to->AppendString(from.StringAt(i));
      }
    }
    return;
  }
  const bool to_int = to->type() == ValueType::kInt64;
  for (size_t i = begin; i < end; ++i) {
    if (from.IsNull(i)) {
      to->AppendNull();
    } else if (!to_int) {
      to->AppendDouble(from.NumericAt(i));
    } else if (from.type() == ValueType::kInt64) {
      to->AppendInt64(from.Int64At(i));
    } else {
      to->AppendInt64(static_cast<int64_t>(from.DoubleAt(i)));
    }
  }
}

}  // namespace

Column::Column(ValueType type, size_t chunk_rows)
    : type_(type),
      chunk_rows_(chunk_rows),
      shift_(ShiftFor(chunk_rows)),
      mask_(static_cast<uint32_t>(chunk_rows - 1)) {}

ColumnChunk* Column::MutableTail() {
  if (chunks_.empty() || chunks_.back()->full()) {
    chunks_.push_back(std::make_shared<ColumnChunk>(type_, chunk_rows_));
  } else if (chunks_.back().use_count() > 1) {
    // The tail is visible through another Column copy (or pinned by a
    // reader snapshot): growing it in place would leak rows into that
    // view.  Copy-on-write bounds the cost at one chunk.
    chunks_.back() = std::make_shared<ColumnChunk>(*chunks_.back());
  }
  return chunks_.back().get();
}

void Column::AppendInt64(int64_t v) {
  MUVE_DCHECK(type_ == ValueType::kInt64);
  MutableTail()->AppendInt64(v);
  ++size_;
}

void Column::AppendDouble(double v) {
  MUVE_DCHECK(type_ == ValueType::kDouble);
  MutableTail()->AppendDouble(v);
  ++size_;
}

void Column::AppendString(std::string_view v) {
  MUVE_DCHECK(type_ == ValueType::kString);
  MutableTail()->AppendString(v);
  ++size_;
}

void Column::AppendNull() {
  MutableTail()->AppendNull();
  ++size_;
}

common::Status Column::AppendValue(const Value& v) {
  if (v.is_null()) {
    AppendNull();
    return common::Status::OK();
  }
  switch (type_) {
    case ValueType::kInt64: {
      if (v.type() == ValueType::kInt64) {
        AppendInt64(v.AsInt64());
        return common::Status::OK();
      }
      if (v.type() == ValueType::kDouble) {
        const double d = v.AsDoubleExact();
        if (d == std::floor(d)) {
          AppendInt64(static_cast<int64_t>(d));
          return common::Status::OK();
        }
        return common::Status::TypeMismatch(
            "cannot store non-integral double in int64 column");
      }
      break;
    }
    case ValueType::kDouble: {
      if (v.is_numeric()) {
        MUVE_ASSIGN_OR_RETURN(const double d, v.ToDouble());
        AppendDouble(d);
        return common::Status::OK();
      }
      break;
    }
    case ValueType::kString: {
      if (v.type() == ValueType::kString) {
        AppendString(v.AsString());
        return common::Status::OK();
      }
      break;
    }
    case ValueType::kNull:
      break;
  }
  return common::Status::TypeMismatch(
      std::string("cannot store ") + ValueTypeName(v.type()) + " in " +
      ValueTypeName(type_) + " column");
}

size_t Column::FirstMismatch(const Column& src) const {
  const ValueType from = src.type();
  if (from == ValueType::kNull || from == type_ ||
      (type_ == ValueType::kDouble && from == ValueType::kInt64)) {
    return src.size();
  }
  // Only an int64 column takes some cells of a double column: the
  // integral ones in range.
  const bool int_from_double =
      type_ == ValueType::kInt64 && from == ValueType::kDouble;
  for (size_t row = 0; row < src.size(); ++row) {
    if (src.IsNull(row)) continue;
    if (!int_from_double || !FitsInt64Exactly(src.DoubleAt(row))) return row;
  }
  return src.size();
}

void Column::AppendColumn(const Column& src) {
  for (size_t c = 0; c < src.num_chunks(); ++c) {
    const ColumnChunk& from = src.chunk(c);
    for (size_t i = 0; i < from.size();) {
      ColumnChunk* tail = MutableTail();
      const size_t n =
          std::min(from.size() - i, tail->capacity() - tail->size());
      AppendChunkRange(from, i, i + n, tail);
      i += n;
      size_ += n;
    }
  }
}

double Column::NumericAt(size_t row) const {
  switch (type_) {
    case ValueType::kInt64:
    case ValueType::kDouble:
      return chunks_[row >> shift_]->NumericAt(row & mask_);
    default:
      MUVE_CHECK(false) << "NumericAt on non-numeric column";
      return 0.0;
  }
}

Value Column::ValueAt(size_t row) const {
  MUVE_DCHECK(row < size_);
  const ColumnChunk& c = *chunks_[row >> shift_];
  const size_t i = row & mask_;
  if (c.IsNull(i)) return Value::Null();
  switch (type_) {
    case ValueType::kInt64:
      return Value(c.Int64At(i));
    case ValueType::kDouble:
      return Value(c.DoubleAt(i));
    case ValueType::kString:
      return Value(c.StringAt(i));
    case ValueType::kNull:
      return Value::Null();
  }
  return Value::Null();
}

common::Result<double> Column::NumericMin() const {
  if (type_ == ValueType::kString || type_ == ValueType::kNull) {
    return common::Status::TypeMismatch("NumericMin on non-numeric column");
  }
  bool found = false;
  bool any_nan = false;
  double best = 0.0;
  for (const auto& c : chunks_) {
    any_nan = any_nan || c->HasNaN();
    if (!c->HasRange()) continue;
    const double v = c->min();
    if (!found || v < best) {
      best = v;
      found = true;
    }
  }
  if (found) return best;
  // Non-null cells exist but none carried a range: every value was NaN.
  if (any_nan) return std::nan("");
  return common::Status::NotFound("column has no non-null cells");
}

common::Result<double> Column::NumericMax() const {
  if (type_ == ValueType::kString || type_ == ValueType::kNull) {
    return common::Status::TypeMismatch("NumericMax on non-numeric column");
  }
  bool found = false;
  bool any_nan = false;
  double best = 0.0;
  for (const auto& c : chunks_) {
    any_nan = any_nan || c->HasNaN();
    if (!c->HasRange()) continue;
    const double v = c->max();
    if (!found || v > best) {
      best = v;
      found = true;
    }
  }
  if (found) return best;
  if (any_nan) return std::nan("");
  return common::Status::NotFound("column has no non-null cells");
}

bool Column::MergeNumericDicts(size_t first_chunk, size_t last_chunk,
                               MergedNumericDict* out) const {
  out->values.clear();
  out->remap.clear();
  out->remap_begin.clear();
  if (type_ != ValueType::kInt64 && type_ != ValueType::kDouble) return false;
  struct Entry {
    double value;
    uint32_t slot;  // position in `remap`
  };
  std::vector<Entry> entries;
  out->remap_begin.assign(last_chunk, 0);
  for (size_t c = first_chunk; c < last_chunk; ++c) {
    const ColumnChunk& chunk = *chunks_[c];
    if (!chunk.HasNumericDict()) {
      out->remap_begin.clear();
      return false;
    }
    out->remap_begin[c] = entries.size();
    for (const double v : chunk.numeric_dict()) {
      entries.push_back({v, static_cast<uint32_t>(entries.size())});
    }
  }
  std::sort(entries.begin(), entries.end(),
            [](const Entry& a, const Entry& b) { return a.value < b.value; });
  out->remap.resize(entries.size());
  for (const Entry& e : entries) {
    // == merges -0.0 into 0.0, as every other reader of the column does.
    if (out->values.empty() || out->values.back() != e.value) {
      out->values.push_back(e.value);
    }
    out->remap[e.slot] = static_cast<uint32_t>(out->values.size() - 1);
  }
  return true;
}

void Column::Reserve(size_t n) {
  // Chunks allocate lazily with geometric growth; a reserve hint only
  // needs to pre-create nothing — it is kept as a no-op beyond validating
  // the argument shape, since per-chunk arrays are bounded at chunk_rows_
  // and bulk loads amortize growth across at most log(chunk_rows_)
  // reallocations per chunk.
  (void)n;
}

bool Column::AllValid() const {
  for (const auto& c : chunks_) {
    if (c->null_count() != 0) return false;
  }
  return true;
}

size_t Column::null_count() const {
  size_t n = 0;
  for (const auto& c : chunks_) n += c->null_count();
  return n;
}

size_t Column::ApproxBytes() const {
  size_t bytes = sizeof(Column);
  for (const auto& c : chunks_) bytes += c->ApproxBytes();
  return bytes;
}

}  // namespace muve::storage
