#include "storage/predicate.h"

#include <algorithm>
#include <cstdio>
#include <span>
#include <utility>

#include "storage/chunk.h"
#include "storage/chunk_run.h"
#include "storage/validity_bitmap.h"

namespace muve::storage {

void Predicate::FilterInto(const Table& table, const RowSet& candidates,
                           RowSet* out, FilterStats*) const {
  // Generic fallback: per-row virtual Matches.  Leaf nodes override with
  // typed kernels; this path remains for mixed-type comparisons.
  for (const uint32_t row : candidates) {
    if (Matches(table, row)) out->push_back(row);
  }
}

namespace {

// Zone-map verdict for one chunk: scan it, skip it wholesale (no cell
// can match — nothing touched, counted in FilterStats::chunks_skipped),
// or accept every candidate row in it (every cell provably matches).
enum class ZoneDecision { kScan, kSkip, kAcceptAll };

// Numeric comparison verdict from the chunk zone map.  min/max exclude
// NaN cells, so:
//   * "no match" conclusions for ordering ops stay sound with NaNs
//     present (a NaN cell fails every <, <=, >, >=, = comparison), but
//     `!=` must not conclude "all equal the literal" when a NaN hides
//     outside the range (NaN != lit is TRUE);
//   * "all match" conclusions additionally require zero NULLs (NULL
//     cells never match) and zero NaNs (a NaN fails ordering ops).
ZoneDecision ZoneForCompare(const ColumnChunk& c, CompareOp op, double lit) {
  const bool ranged = c.HasRange();
  const bool pure = c.AllValid() && !c.HasNaN();
  switch (op) {
    case CompareOp::kEq:
      if (!ranged || lit < c.min() || lit > c.max()) return ZoneDecision::kSkip;
      if (pure && c.min() == c.max() && c.min() == lit) {
        return ZoneDecision::kAcceptAll;
      }
      return ZoneDecision::kScan;
    case CompareOp::kNe:
      if (!c.HasNaN() &&
          (!ranged || (c.min() == c.max() && c.min() == lit))) {
        return ZoneDecision::kSkip;
      }
      if (c.AllValid() && (!ranged || lit < c.min() || lit > c.max())) {
        // Every non-NULL cell is NaN (matches !=) or provably != lit.
        return ZoneDecision::kAcceptAll;
      }
      return ZoneDecision::kScan;
    case CompareOp::kLt:
      if (!ranged || c.min() >= lit) return ZoneDecision::kSkip;
      if (pure && c.max() < lit) return ZoneDecision::kAcceptAll;
      return ZoneDecision::kScan;
    case CompareOp::kLe:
      if (!ranged || c.min() > lit) return ZoneDecision::kSkip;
      if (pure && c.max() <= lit) return ZoneDecision::kAcceptAll;
      return ZoneDecision::kScan;
    case CompareOp::kGt:
      if (!ranged || c.max() <= lit) return ZoneDecision::kSkip;
      if (pure && c.min() > lit) return ZoneDecision::kAcceptAll;
      return ZoneDecision::kScan;
    case CompareOp::kGe:
      if (!ranged || c.max() < lit) return ZoneDecision::kSkip;
      if (pure && c.min() >= lit) return ZoneDecision::kAcceptAll;
      return ZoneDecision::kScan;
  }
  return ZoneDecision::kScan;
}

ZoneDecision ZoneForBetween(const ColumnChunk& c, double lo, double hi) {
  if (!c.HasRange() || hi < c.min() || lo > c.max()) {
    return ZoneDecision::kSkip;
  }
  if (c.AllValid() && !c.HasNaN() && lo <= c.min() && c.max() <= hi) {
    return ZoneDecision::kAcceptAll;
  }
  return ZoneDecision::kScan;
}

// Tight typed scan over one chunk run: one comparator instantiation per
// CompareOp, null-skip hoisted to a per-chunk AllValid check (the common
// case — the MuVE datasets carry no NULLs on predicate columns — runs a
// branch-per-row-free loop over the chunk's raw array).
template <typename T, typename Cmp>
void ScanChunkRun(const ColumnChunk& chunk, const T* data, const RowSet& rows,
                  size_t begin, size_t end, uint32_t mask, Cmp cmp,
                  RowSet* out) {
  if (chunk.AllValid()) {
    for (size_t p = begin; p < end; ++p) {
      const uint32_t row = rows[p];
      if (cmp(data[row & mask])) out->push_back(row);
    }
    return;
  }
  const ValidityBitmap valid = chunk.validity();
  for (size_t p = begin; p < end; ++p) {
    const uint32_t row = rows[p];
    const uint32_t i = row & mask;
    if (valid.Get(i) && cmp(data[i])) out->push_back(row);
  }
}

// Numeric comparison kernel for one chunk run.  Values compare after
// coercion to double, exactly like Value::operator== / operator< (which
// also coerce int64 through double), so kernel results match Matches
// bit-for-bit.
template <typename T>
void ScanCompareNumericRun(const ColumnChunk& chunk, const T* data,
                           const RowSet& rows, size_t begin, size_t end,
                           uint32_t mask, CompareOp op, double lit,
                           RowSet* out) {
  switch (op) {
    case CompareOp::kEq:
      ScanChunkRun(chunk, data, rows, begin, end, mask,
                   [lit](T v) { return static_cast<double>(v) == lit; }, out);
      return;
    case CompareOp::kNe:
      ScanChunkRun(chunk, data, rows, begin, end, mask,
                   [lit](T v) { return static_cast<double>(v) != lit; }, out);
      return;
    case CompareOp::kLt:
      ScanChunkRun(chunk, data, rows, begin, end, mask,
                   [lit](T v) { return static_cast<double>(v) < lit; }, out);
      return;
    case CompareOp::kLe:
      ScanChunkRun(chunk, data, rows, begin, end, mask,
                   [lit](T v) { return static_cast<double>(v) <= lit; }, out);
      return;
    case CompareOp::kGt:
      ScanChunkRun(chunk, data, rows, begin, end, mask,
                   [lit](T v) { return static_cast<double>(v) > lit; }, out);
      return;
    case CompareOp::kGe:
      ScanChunkRun(chunk, data, rows, begin, end, mask,
                   [lit](T v) { return static_cast<double>(v) >= lit; }, out);
      return;
  }
}

void AcceptRun(const RowSet& candidates, size_t begin, size_t end,
               RowSet* out) {
  out->insert(out->end(), candidates.begin() + static_cast<ptrdiff_t>(begin),
              candidates.begin() + static_cast<ptrdiff_t>(end));
}

// Chunk-run driver for a numeric predicate: zone map first, typed kernel
// only for runs the zone map cannot decide.  `zone` maps a chunk to a
// ZoneDecision; `scan` runs the kernel over one undecided run.
template <typename ZoneFn, typename ScanFn>
void FilterChunked(const Column& col, const RowSet& candidates,
                   FilterStats* stats, ZoneFn zone, ScanFn scan,
                   RowSet* out) {
  const uint32_t mask = col.chunk_mask();
  ForEachChunkRun(
      candidates, 0, candidates.size(), col.chunk_shift(),
      [&](uint32_t c, size_t begin, size_t end) {
        const ColumnChunk& chunk = col.chunk(c);
        switch (zone(chunk)) {
          case ZoneDecision::kSkip:
            if (stats != nullptr) ++stats->chunks_skipped;
            return;
          case ZoneDecision::kAcceptAll:
            AcceptRun(candidates, begin, end, out);
            return;
          case ZoneDecision::kScan:
            scan(chunk, begin, end, mask);
            return;
        }
      });
}

// String predicates evaluate the comparison ONCE per distinct dictionary
// entry, then scan the dense codes.  NULL rows carry ColumnChunk::kNoCode,
// which indexes no match-table slot — the kNoCode guard doubles as the
// null check, so no validity bitmap lookups happen at all.
//
// `match` maps a dictionary string to bool.  Returns the per-code match
// table; `any`/`all` report whether the chunk can short-circuit.
struct DictMatch {
  std::vector<uint8_t> table;
  bool any = false;
  bool all = true;
};

template <typename MatchFn>
DictMatch BuildDictMatch(const ColumnChunk& chunk, MatchFn match) {
  const std::span<const std::string> dict = chunk.dict();
  DictMatch out;
  out.table.resize(dict.size());
  for (size_t i = 0; i < dict.size(); ++i) {
    const bool m = match(dict[i]);
    out.table[i] = m ? 1 : 0;
    out.any = out.any || m;
    out.all = out.all && m;
  }
  return out;
}

void ScanCodesRun(const ColumnChunk& chunk, const DictMatch& match,
                  const RowSet& rows, size_t begin, size_t end, uint32_t mask,
                  RowSet* out) {
  const uint32_t* codes = chunk.codes();
  for (size_t p = begin; p < end; ++p) {
    const uint32_t row = rows[p];
    const uint32_t code = codes[row & mask];
    if (code != ColumnChunk::kNoCode && match.table[code] != 0) {
      out->push_back(row);
    }
  }
}

// Chunk-run driver for string predicates via dictionary match tables.
template <typename MatchFn>
void FilterStringChunked(const Column& col, const RowSet& candidates,
                         FilterStats* stats, MatchFn match, RowSet* out) {
  const uint32_t mask = col.chunk_mask();
  ForEachChunkRun(
      candidates, 0, candidates.size(), col.chunk_shift(),
      [&](uint32_t c, size_t begin, size_t end) {
        const ColumnChunk& chunk = col.chunk(c);
        const DictMatch dm = BuildDictMatch(chunk, match);
        if (!dm.any) {
          // No distinct string of this chunk matches: NULL rows match
          // nothing either, so the whole run is gone without reading a
          // single code.
          if (stats != nullptr) ++stats->chunks_skipped;
          return;
        }
        if (dm.all && chunk.AllValid()) {
          AcceptRun(candidates, begin, end, out);
          return;
        }
        ScanCodesRun(chunk, dm, candidates, begin, end, mask, out);
      });
}

// Numeric literal as double under the same coercion Value uses.
double LiteralAsDouble(const Value& v) {
  return v.type() == ValueType::kInt64 ? static_cast<double>(v.AsInt64())
                                       : v.AsDoubleExact();
}

// Canonical literal rendering for cache keys.  Numerics render through a
// 17-significant-digit round-trip double form whether typed int64 or
// double — Value comparisons coerce int64 through double, so `10` and
// `10.0` are one literal semantically and must share a key.  Strings are
// length-prefixed so literal content cannot forge the key grammar's
// separators.
void AppendCanonicalValue(const Value& v, std::string* out) {
  switch (v.type()) {
    case ValueType::kNull:
      *out += "null";
      return;
    case ValueType::kInt64:
    case ValueType::kDouble: {
      char buf[40];
      std::snprintf(buf, sizeof(buf), "%.17g", LiteralAsDouble(v));
      *out += "n:";
      *out += buf;
      return;
    }
    case ValueType::kString: {
      const std::string& s = v.AsString();
      *out += 's';
      *out += std::to_string(s.size());
      *out += ':';
      *out += s;
      return;
    }
  }
}

void AppendCanonicalColumn(const std::string& column, std::string* out) {
  *out += 'c';
  *out += std::to_string(column.size());
  *out += ':';
  *out += column;
}

// Sorted union of two ascending row sets into `out` (appended).
void UnionInto(const RowSet& a, const RowSet& b, RowSet* out) {
  size_t i = 0;
  size_t j = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i] < b[j]) {
      out->push_back(a[i++]);
    } else if (b[j] < a[i]) {
      out->push_back(b[j++]);
    } else {
      out->push_back(a[i]);
      ++i;
      ++j;
    }
  }
  out->insert(out->end(), a.begin() + static_cast<ptrdiff_t>(i), a.end());
  out->insert(out->end(), b.begin() + static_cast<ptrdiff_t>(j), b.end());
}

// Rows of `candidates` not present in `exclude` (both ascending,
// `exclude` a subset of `candidates`), appended onto `out`.
void DifferenceInto(const RowSet& candidates, const RowSet& exclude,
                    RowSet* out) {
  size_t j = 0;
  for (const uint32_t row : candidates) {
    if (j < exclude.size() && exclude[j] == row) {
      ++j;
      continue;
    }
    out->push_back(row);
  }
}

}  // namespace

const char* CompareOpSymbol(CompareOp op) {
  switch (op) {
    case CompareOp::kEq:
      return "=";
    case CompareOp::kNe:
      return "<>";
    case CompareOp::kLt:
      return "<";
    case CompareOp::kLe:
      return "<=";
    case CompareOp::kGt:
      return ">";
    case CompareOp::kGe:
      return ">=";
  }
  return "?";
}

namespace {

class ComparisonPredicate final : public Predicate {
 public:
  ComparisonPredicate(std::string column, CompareOp op, Value literal)
      : column_(std::move(column)), op_(op), literal_(std::move(literal)) {}

  common::Status Bind(const Schema& schema) override {
    MUVE_ASSIGN_OR_RETURN(index_, schema.FieldIndex(column_));
    bound_ = true;
    return common::Status::OK();
  }

  bool Matches(const Table& table, size_t row) const override {
    const Value v = table.column(index_).ValueAt(row);
    if (v.is_null() || literal_.is_null()) return false;
    switch (op_) {
      case CompareOp::kEq:
        return v == literal_;
      case CompareOp::kNe:
        return v != literal_;
      case CompareOp::kLt:
        return v < literal_;
      case CompareOp::kLe:
        return v < literal_ || v == literal_;
      case CompareOp::kGt:
        return literal_ < v;
      case CompareOp::kGe:
        return literal_ < v || v == literal_;
    }
    return false;
  }

  void FilterInto(const Table& table, const RowSet& candidates, RowSet* out,
                  FilterStats* stats) const override {
    if (literal_.is_null()) return;  // comparisons with NULL never match
    const Column& col = table.column(index_);
    switch (col.type()) {
      case ValueType::kInt64:
        if (literal_.is_numeric()) {
          const double lit = LiteralAsDouble(literal_);
          FilterChunked(
              col, candidates, stats,
              [this, lit](const ColumnChunk& c) {
                return ZoneForCompare(c, op_, lit);
              },
              [&](const ColumnChunk& c, size_t b, size_t e, uint32_t mask) {
                ScanCompareNumericRun(c, c.int64_data(), candidates, b, e,
                                      mask, op_, lit, out);
              },
              out);
          return;
        }
        break;
      case ValueType::kDouble:
        if (literal_.is_numeric()) {
          const double lit = LiteralAsDouble(literal_);
          FilterChunked(
              col, candidates, stats,
              [this, lit](const ColumnChunk& c) {
                return ZoneForCompare(c, op_, lit);
              },
              [&](const ColumnChunk& c, size_t b, size_t e, uint32_t mask) {
                ScanCompareNumericRun(c, c.double_data(), candidates, b, e,
                                      mask, op_, lit, out);
              },
              out);
          return;
        }
        break;
      case ValueType::kString:
        if (literal_.type() == ValueType::kString) {
          const std::string& lit = literal_.AsString();
          if (op_ == CompareOp::kEq) {
            // Equality probes the chunk dictionary directly: absent
            // literal = skipped chunk; present literal = a single-code
            // compare per row (NULL rows hold kNoCode, which can never
            // equal a dictionary code).
            const uint32_t mask = col.chunk_mask();
            ForEachChunkRun(
                candidates, 0, candidates.size(), col.chunk_shift(),
                [&](uint32_t c, size_t begin, size_t end) {
                  const ColumnChunk& chunk = col.chunk(c);
                  const uint32_t code = chunk.CodeOf(lit);
                  if (code == ColumnChunk::kNoCode) {
                    if (stats != nullptr) ++stats->chunks_skipped;
                    return;
                  }
                  const uint32_t* codes = chunk.codes();
                  for (size_t p = begin; p < end; ++p) {
                    const uint32_t row = candidates[p];
                    if (codes[row & mask] == code) out->push_back(row);
                  }
                });
            return;
          }
          const CompareOp op = op_;
          FilterStringChunked(
              col, candidates, stats,
              [&lit, op](const std::string& v) {
                switch (op) {
                  case CompareOp::kEq:
                    return v == lit;
                  case CompareOp::kNe:
                    return v != lit;
                  case CompareOp::kLt:
                    return v < lit;
                  case CompareOp::kLe:
                    return v <= lit;
                  case CompareOp::kGt:
                    return v > lit;
                  case CompareOp::kGe:
                    return v >= lit;
                }
                return false;
              },
              out);
          return;
        }
        break;
      case ValueType::kNull:
        break;
    }
    // Mixed type classes (string column vs numeric literal and vice
    // versa) keep the rank-ordering semantics of Value::operator<.
    Predicate::FilterInto(table, candidates, out, stats);
  }

  std::string ToString() const override {
    return column_ + " " + CompareOpSymbol(op_) + " " + literal_.ToString();
  }

  void AppendCanonicalKey(std::string* out) const override {
    *out += "cmp(";
    AppendCanonicalColumn(column_, out);
    *out += ',';
    *out += CompareOpSymbol(op_);
    *out += ',';
    AppendCanonicalValue(literal_, out);
    *out += ')';
  }

 private:
  std::string column_;
  CompareOp op_;
  Value literal_;
  size_t index_ = 0;
  bool bound_ = false;
};

class BetweenPredicate final : public Predicate {
 public:
  BetweenPredicate(std::string column, Value lo, Value hi)
      : column_(std::move(column)), lo_(std::move(lo)), hi_(std::move(hi)) {}

  common::Status Bind(const Schema& schema) override {
    MUVE_ASSIGN_OR_RETURN(index_, schema.FieldIndex(column_));
    return common::Status::OK();
  }

  bool Matches(const Table& table, size_t row) const override {
    const Value v = table.column(index_).ValueAt(row);
    if (v.is_null() || lo_.is_null() || hi_.is_null()) return false;
    const bool ge_lo = lo_ < v || v == lo_;
    const bool le_hi = v < hi_ || v == hi_;
    return ge_lo && le_hi;
  }

  void FilterInto(const Table& table, const RowSet& candidates, RowSet* out,
                  FilterStats* stats) const override {
    if (lo_.is_null() || hi_.is_null()) return;  // never matches
    const Column& col = table.column(index_);
    if ((col.type() == ValueType::kInt64 ||
         col.type() == ValueType::kDouble) &&
        lo_.is_numeric() && hi_.is_numeric()) {
      const double lo = LiteralAsDouble(lo_);
      const double hi = LiteralAsDouble(hi_);
      auto in_range = [lo, hi](auto v) {
        const double d = static_cast<double>(v);
        return lo <= d && d <= hi;
      };
      FilterChunked(
          col, candidates, stats,
          [lo, hi](const ColumnChunk& c) { return ZoneForBetween(c, lo, hi); },
          [&](const ColumnChunk& c, size_t b, size_t e, uint32_t mask) {
            if (c.type() == ValueType::kInt64) {
              ScanChunkRun(c, c.int64_data(), candidates, b, e, mask,
                           in_range, out);
            } else {
              ScanChunkRun(c, c.double_data(), candidates, b, e, mask,
                           in_range, out);
            }
          },
          out);
      return;
    }
    if (col.type() == ValueType::kString &&
        lo_.type() == ValueType::kString &&
        hi_.type() == ValueType::kString) {
      const std::string& lo = lo_.AsString();
      const std::string& hi = hi_.AsString();
      FilterStringChunked(
          col, candidates, stats,
          [&lo, &hi](const std::string& v) { return lo <= v && v <= hi; },
          out);
      return;
    }
    Predicate::FilterInto(table, candidates, out, stats);
  }

  std::string ToString() const override {
    return column_ + " BETWEEN " + lo_.ToString() + " AND " + hi_.ToString();
  }

  void AppendCanonicalKey(std::string* out) const override {
    *out += "between(";
    AppendCanonicalColumn(column_, out);
    *out += ',';
    AppendCanonicalValue(lo_, out);
    *out += ',';
    AppendCanonicalValue(hi_, out);
    *out += ')';
  }

 private:
  std::string column_;
  Value lo_;
  Value hi_;
  size_t index_ = 0;
};

class InListPredicate final : public Predicate {
 public:
  InListPredicate(std::string column, std::vector<Value> values)
      : column_(std::move(column)), values_(std::move(values)) {}

  common::Status Bind(const Schema& schema) override {
    MUVE_ASSIGN_OR_RETURN(index_, schema.FieldIndex(column_));
    return common::Status::OK();
  }

  bool Matches(const Table& table, size_t row) const override {
    const Value v = table.column(index_).ValueAt(row);
    if (v.is_null()) return false;
    for (const Value& candidate : values_) {
      if (v == candidate) return true;
    }
    return false;
  }

  void FilterInto(const Table& table, const RowSet& candidates, RowSet* out,
                  FilterStats* stats) const override {
    const Column& col = table.column(index_);
    if (col.type() == ValueType::kInt64 || col.type() == ValueType::kDouble) {
      // NULL list elements never match and non-numeric elements cannot
      // equal a numeric cell (Value::operator== requires matching type
      // classes), so both drop out of the probe set.
      std::vector<double> lits;
      lits.reserve(values_.size());
      for (const Value& v : values_) {
        if (v.is_numeric()) lits.push_back(LiteralAsDouble(v));
      }
      // Linear probe over the (small) literal list: `==` comparisons
      // exactly mirror Matches, including NaN cells never matching.
      auto contains = [&lits](auto v) {
        const double d = static_cast<double>(v);
        for (const double lit : lits) {
          if (d == lit) return true;
        }
        return false;
      };
      FilterChunked(
          col, candidates, stats,
          [&lits](const ColumnChunk& c) {
            // Equality can only fire inside the chunk range; a list with
            // no literal in [min, max] cannot match any cell (NaN cells
            // never compare equal either).
            if (!c.HasRange()) return ZoneDecision::kSkip;
            for (const double lit : lits) {
              if (lit >= c.min() && lit <= c.max()) {
                return ZoneDecision::kScan;
              }
            }
            return ZoneDecision::kSkip;
          },
          [&](const ColumnChunk& c, size_t b, size_t e, uint32_t mask) {
            if (c.type() == ValueType::kInt64) {
              ScanChunkRun(c, c.int64_data(), candidates, b, e, mask,
                           contains, out);
            } else {
              ScanChunkRun(c, c.double_data(), candidates, b, e, mask,
                           contains, out);
            }
          },
          out);
      return;
    }
    if (col.type() == ValueType::kString) {
      std::vector<std::string> lits;
      lits.reserve(values_.size());
      for (const Value& v : values_) {
        if (v.type() == ValueType::kString) lits.push_back(v.AsString());
      }
      std::sort(lits.begin(), lits.end());
      lits.erase(std::unique(lits.begin(), lits.end()), lits.end());
      // An IN list none of whose literals appear in the chunk dictionary
      // skips the chunk inside FilterStringChunked (empty match table).
      FilterStringChunked(
          col, candidates, stats,
          [&lits](const std::string& v) {
            return std::binary_search(lits.begin(), lits.end(), v);
          },
          out);
      return;
    }
    Predicate::FilterInto(table, candidates, out, stats);
  }

  std::string ToString() const override {
    std::string out = column_ + " IN (";
    for (size_t i = 0; i < values_.size(); ++i) {
      if (i > 0) out += ", ";
      out += values_[i].ToString();
    }
    return out + ")";
  }

  void AppendCanonicalKey(std::string* out) const override {
    // IN is an OR of equalities: element order is irrelevant and
    // duplicates are idempotent, so the rendered literals sort and dedup.
    std::vector<std::string> lits;
    lits.reserve(values_.size());
    for (const Value& v : values_) {
      std::string lit;
      AppendCanonicalValue(v, &lit);
      lits.push_back(std::move(lit));
    }
    std::sort(lits.begin(), lits.end());
    lits.erase(std::unique(lits.begin(), lits.end()), lits.end());
    *out += "in(";
    AppendCanonicalColumn(column_, out);
    for (const std::string& lit : lits) {
      *out += ',';
      *out += lit;
    }
    *out += ')';
  }

 private:
  std::string column_;
  std::vector<Value> values_;
  size_t index_ = 0;
};

class IsNullPredicate final : public Predicate {
 public:
  IsNullPredicate(std::string column, bool negate)
      : column_(std::move(column)), negate_(negate) {}

  common::Status Bind(const Schema& schema) override {
    MUVE_ASSIGN_OR_RETURN(index_, schema.FieldIndex(column_));
    return common::Status::OK();
  }

  bool Matches(const Table& table, size_t row) const override {
    return table.column(index_).IsNull(row) != negate_;
  }

  void FilterInto(const Table& table, const RowSet& candidates, RowSet* out,
                  FilterStats* stats) const override {
    const Column& col = table.column(index_);
    const bool want_valid = negate_;
    const uint32_t mask = col.chunk_mask();
    ForEachChunkRun(
        candidates, 0, candidates.size(), col.chunk_shift(),
        [&](uint32_t c, size_t begin, size_t end) {
          const ColumnChunk& chunk = col.chunk(c);
          // The null count IS the zone map here: an all-valid chunk
          // decides both variants outright, as does an all-null one.
          if (chunk.null_count() == 0) {
            if (want_valid) {
              AcceptRun(candidates, begin, end, out);
            } else if (stats != nullptr) {
              ++stats->chunks_skipped;
            }
            return;
          }
          if (chunk.null_count() == chunk.size()) {
            if (!want_valid) {
              AcceptRun(candidates, begin, end, out);
            } else if (stats != nullptr) {
              ++stats->chunks_skipped;
            }
            return;
          }
          const ValidityBitmap valid = chunk.validity();
          for (size_t p = begin; p < end; ++p) {
            const uint32_t row = candidates[p];
            if (valid.Get(row & mask) == want_valid) out->push_back(row);
          }
        });
  }

  std::string ToString() const override {
    return column_ + (negate_ ? " IS NOT NULL" : " IS NULL");
  }

  void AppendCanonicalKey(std::string* out) const override {
    *out += negate_ ? "notnull(" : "isnull(";
    AppendCanonicalColumn(column_, out);
    *out += ')';
  }

 private:
  std::string column_;
  bool negate_;
  size_t index_ = 0;
};

class BinaryLogicalPredicate final : public Predicate {
 public:
  enum class Kind { kAnd, kOr };

  BinaryLogicalPredicate(Kind kind, PredicatePtr lhs, PredicatePtr rhs)
      : kind_(kind), lhs_(std::move(lhs)), rhs_(std::move(rhs)) {}

  common::Status Bind(const Schema& schema) override {
    MUVE_RETURN_IF_ERROR(lhs_->Bind(schema));
    return rhs_->Bind(schema);
  }

  bool Matches(const Table& table, size_t row) const override {
    if (kind_ == Kind::kAnd) {
      return lhs_->Matches(table, row) && rhs_->Matches(table, row);
    }
    return lhs_->Matches(table, row) || rhs_->Matches(table, row);
  }

  void FilterInto(const Table& table, const RowSet& candidates, RowSet* out,
                  FilterStats* stats) const override {
    if (kind_ == Kind::kAnd) {
      // Selection-vector intersection by cascade: the rhs kernel only
      // scans rows the lhs kept.
      RowSet kept;
      lhs_->FilterInto(table, candidates, &kept, stats);
      rhs_->FilterInto(table, kept, out, stats);
      return;
    }
    // OR: union of two ascending selections.  rhs scans only the rows
    // lhs rejected, so each candidate is evaluated at most twice and the
    // merge is a linear sorted union.
    RowSet left;
    lhs_->FilterInto(table, candidates, &left, stats);
    RowSet rest;
    DifferenceInto(candidates, left, &rest);
    RowSet right;
    rhs_->FilterInto(table, rest, &right, stats);
    UnionInto(left, right, out);
  }

  std::string ToString() const override {
    return "(" + lhs_->ToString() +
           (kind_ == Kind::kAnd ? " AND " : " OR ") + rhs_->ToString() + ")";
  }

  void AppendCanonicalKey(std::string* out) const override {
    // Flatten the same-kind subtree (associativity), sort the operand
    // keys (commutativity), and dedup (idempotence — Matches combines
    // children with plain && / ||, so a repeated operand cannot change
    // the outcome).  A chain collapsing to one distinct operand IS that
    // operand: `p AND p` keys like `p`.
    std::vector<std::string> operands;
    CollectOperands(*lhs_, kind_, &operands);
    CollectOperands(*rhs_, kind_, &operands);
    std::sort(operands.begin(), operands.end());
    operands.erase(std::unique(operands.begin(), operands.end()),
                   operands.end());
    if (operands.size() == 1) {
      *out += operands[0];
      return;
    }
    *out += kind_ == Kind::kAnd ? "and(" : "or(";
    for (size_t i = 0; i < operands.size(); ++i) {
      if (i > 0) *out += ';';
      *out += operands[i];
    }
    *out += ')';
  }

 private:
  static void CollectOperands(const Predicate& node, Kind kind,
                              std::vector<std::string>* out) {
    const auto* same = dynamic_cast<const BinaryLogicalPredicate*>(&node);
    if (same != nullptr && same->kind_ == kind) {
      CollectOperands(*same->lhs_, kind, out);
      CollectOperands(*same->rhs_, kind, out);
      return;
    }
    std::string key;
    node.AppendCanonicalKey(&key);
    out->push_back(std::move(key));
  }

  Kind kind_;
  PredicatePtr lhs_;
  PredicatePtr rhs_;
};

class NotPredicate final : public Predicate {
 public:
  explicit NotPredicate(PredicatePtr inner) : inner_(std::move(inner)) {}

  common::Status Bind(const Schema& schema) override {
    return inner_->Bind(schema);
  }

  bool Matches(const Table& table, size_t row) const override {
    return !inner_->Matches(table, row);
  }

  void FilterInto(const Table& table, const RowSet& candidates, RowSet* out,
                  FilterStats* stats) const override {
    // Sorted difference: candidates minus the inner selection.  Keeps
    // the two-valued NULL semantics (NOT of a false NULL-comparison is
    // true) because rows the inner kernel skipped stay in the result.
    RowSet inner;
    inner_->FilterInto(table, candidates, &inner, stats);
    DifferenceInto(candidates, inner, out);
  }

  std::string ToString() const override {
    return "NOT (" + inner_->ToString() + ")";
  }

  void AppendCanonicalKey(std::string* out) const override {
    *out += "not(";
    inner_->AppendCanonicalKey(out);
    *out += ')';
  }

 private:
  PredicatePtr inner_;
};

class TruePredicate final : public Predicate {
 public:
  common::Status Bind(const Schema&) override { return common::Status::OK(); }
  bool Matches(const Table&, size_t) const override { return true; }
  void FilterInto(const Table&, const RowSet& candidates, RowSet* out,
                  FilterStats*) const override {
    out->insert(out->end(), candidates.begin(), candidates.end());
  }
  std::string ToString() const override { return "TRUE"; }
  void AppendCanonicalKey(std::string* out) const override { *out += "true"; }
};

}  // namespace

PredicatePtr MakeComparison(std::string column, CompareOp op, Value literal) {
  return std::make_unique<ComparisonPredicate>(std::move(column), op,
                                               std::move(literal));
}

PredicatePtr MakeBetween(std::string column, Value lo, Value hi) {
  return std::make_unique<BetweenPredicate>(std::move(column), std::move(lo),
                                            std::move(hi));
}

PredicatePtr MakeInList(std::string column, std::vector<Value> values) {
  return std::make_unique<InListPredicate>(std::move(column),
                                           std::move(values));
}

PredicatePtr MakeIsNull(std::string column, bool negate) {
  return std::make_unique<IsNullPredicate>(std::move(column), negate);
}

PredicatePtr MakeAnd(PredicatePtr lhs, PredicatePtr rhs) {
  return std::make_unique<BinaryLogicalPredicate>(
      BinaryLogicalPredicate::Kind::kAnd, std::move(lhs), std::move(rhs));
}

PredicatePtr MakeOr(PredicatePtr lhs, PredicatePtr rhs) {
  return std::make_unique<BinaryLogicalPredicate>(
      BinaryLogicalPredicate::Kind::kOr, std::move(lhs), std::move(rhs));
}

PredicatePtr MakeNot(PredicatePtr inner) {
  return std::make_unique<NotPredicate>(std::move(inner));
}

PredicatePtr MakeTrue() { return std::make_unique<TruePredicate>(); }

std::string CanonicalPredicateKey(const Predicate& pred) {
  std::string key;
  pred.AppendCanonicalKey(&key);
  return key;
}

common::Result<RowSet> Filter(const Table& table, Predicate* pred,
                              const RowSet* base, FilterStats* stats) {
  MUVE_RETURN_IF_ERROR(pred->Bind(table.schema()));
  RowSet out;
  if (base != nullptr) {
    out.reserve(base->size());
    pred->FilterInto(table, *base, &out, stats);
    if (stats != nullptr) {
      stats->rows_in += static_cast<int64_t>(base->size());
      stats->rows_out += static_cast<int64_t>(out.size());
    }
    return out;
  }
  const RowSet all = AllRows(table.num_rows());
  out.reserve(all.size());
  pred->FilterInto(table, all, &out, stats);
  if (stats != nullptr) {
    stats->rows_in += static_cast<int64_t>(all.size());
    stats->rows_out += static_cast<int64_t>(out.size());
  }
  return out;
}

}  // namespace muve::storage
