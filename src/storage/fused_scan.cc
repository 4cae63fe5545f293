#include "storage/fused_scan.h"

#include <algorithm>
#include <atomic>
#include <limits>
#include <utility>

#include "common/exec_context.h"
#include "common/failpoint.h"
#include "common/logging.h"
#include "common/stopwatch.h"
#include "common/thread_pool.h"
#include "storage/chunk_run.h"
#include "storage/column.h"

namespace muve::storage {

namespace {

// Dense-key sentinel for NULL dimension cells.
constexpr uint32_t kNullKey = std::numeric_limits<uint32_t>::max();

// Runs fn(index) for every index in [0, count): inline when no pool (or
// trivially small), data-parallel on the shared pool otherwise.  Every
// task writes disjoint state, so results never depend on the schedule.
void RunIndexed(common::ThreadPool* pool, size_t count,
                const std::function<void(size_t)>& fn) {
  if (count == 0) return;
  if (pool == nullptr || pool->num_workers() == 1 || count == 1) {
    for (size_t i = 0; i < count; ++i) fn(i);
    return;
  }
  pool->ParallelFor(count, [&fn](size_t, size_t index) { fn(index); });
}

// Phase A kernel, sorted path: gather the non-NULL values of one chunk
// run of `rows` into `out` through the chunk's raw typed array (no Value
// boxing, no virtual calls).
template <typename T>
void GatherValuesRun(const ColumnChunk& chunk, const T* data,
                     const RowSet& rows, size_t begin, size_t end,
                     uint32_t mask, std::vector<double>* out) {
  if (chunk.AllValid()) {
    for (size_t p = begin; p < end; ++p) {
      out->push_back(static_cast<double>(data[rows[p] & mask]));
    }
    return;
  }
  const ValidityBitmap valid = chunk.validity();
  for (size_t p = begin; p < end; ++p) {
    const uint32_t i = rows[p] & mask;
    if (valid.Get(i)) out->push_back(static_cast<double>(data[i]));
  }
}

void GatherValues(const Column& col, const RowSet& rows,
                  std::vector<double>* out) {
  const uint32_t mask = col.chunk_mask();
  ForEachChunkRun(rows, 0, rows.size(), col.chunk_shift(),
                  [&](uint32_t c, size_t begin, size_t end) {
                    const ColumnChunk& chunk = col.chunk(c);
                    if (col.type() == ValueType::kInt64) {
                      GatherValuesRun(chunk, chunk.int64_data(), rows, begin,
                                      end, mask, out);
                    } else {
                      GatherValuesRun(chunk, chunk.double_data(), rows, begin,
                                      end, mask, out);
                    }
                  });
}

// Phase A on the coded path: the merged dictionaries of the chunks
// `rows` spans (a superset of the rows' own values — Phase D drops the
// fine bins no row fell into).  False, leaving the sorted path to run,
// when a spanned chunk is high-cardinality or the merged entries would
// outnumber the rows: a row set much smaller than the dictionary keeps a
// dictionary (and an arena) only as large as its own values.
bool MergeChunkDictionaries(const Column& col, const RowSet& rows,
                            MergedNumericDict* dict) {
  if (rows.empty()) return false;
  const size_t first = rows.front() >> col.chunk_shift();
  const size_t last = (rows.back() >> col.chunk_shift()) + 1;
  size_t entries = 0;
  for (size_t c = first; c < last; ++c) {
    const ColumnChunk& chunk = col.chunk(c);
    if (!chunk.HasNumericDict()) return false;
    entries += chunk.numeric_dict().size();
  }
  return entries <= rows.size() && col.MergeNumericDicts(first, last, dict);
}

// Phase B kernel, coded path: a row's key is its chunk code remapped
// into the merged dictionary.
void RemapKeysRun(const ColumnChunk& chunk, const uint32_t* remap,
                  const RowSet& rows, size_t begin, size_t end, uint32_t mask,
                  uint32_t* keys) {
  const uint16_t* codes = chunk.numeric_codes();
  if (chunk.AllValid()) {
    for (size_t p = begin; p < end; ++p) {
      keys[p] = remap[codes[rows[p] & mask]];
    }
    return;
  }
  const ValidityBitmap valid = chunk.validity();
  for (size_t p = begin; p < end; ++p) {
    const uint32_t i = rows[p] & mask;
    keys[p] = valid.Get(i) ? remap[codes[i]] : kNullKey;
  }
}

// Phase B kernel, sorted path: dense dictionary key per row position of
// one chunk run within a morsel, by binary search.
template <typename T>
void SearchKeysRun(const ColumnChunk& chunk, const T* data,
                   const std::vector<double>& dict, const RowSet& rows,
                   size_t begin, size_t end, uint32_t mask, uint32_t* keys) {
  const bool all_valid = chunk.AllValid();
  const ValidityBitmap valid = chunk.validity();
  for (size_t p = begin; p < end; ++p) {
    const uint32_t i = rows[p] & mask;
    if (!all_valid && !valid.Get(i)) {
      keys[p] = kNullKey;
      continue;
    }
    const double v = static_cast<double>(data[i]);
    const auto it = std::lower_bound(dict.begin(), dict.end(), v);
    MUVE_DCHECK(it != dict.end() && *it == v);
    keys[p] = static_cast<uint32_t>(it - dict.begin());
  }
}

void FillKeys(const Column& col, const MergedNumericDict& dict,
              const RowSet& rows, size_t begin, size_t end, uint32_t* keys) {
  const uint32_t mask = col.chunk_mask();
  const bool coded = !dict.remap_begin.empty();
  ForEachChunkRun(rows, begin, end, col.chunk_shift(),
                  [&](uint32_t c, size_t rb, size_t re) {
                    const ColumnChunk& chunk = col.chunk(c);
                    if (coded) {
                      RemapKeysRun(chunk,
                                   dict.remap.data() + dict.remap_begin[c],
                                   rows, rb, re, mask, keys);
                    } else if (col.type() == ValueType::kInt64) {
                      SearchKeysRun(chunk, chunk.int64_data(), dict.values,
                                    rows, rb, re, mask, keys);
                    } else {
                      SearchKeysRun(chunk, chunk.double_data(), dict.values,
                                    rows, rb, re, mask, keys);
                    }
                  });
}

// Phase C kernel: keyed count / sum / sum-of-squares scatter-add over
// the row positions [begin, end) of one chunk run.  `keys` is indexed by
// row position, `data` by the chunk-local row in `local`; per key the
// additions happen in row order, the association every worker count and
// chunking reproduces.
template <typename T>
void AccumulateRun(const ColumnChunk& chunk, const T* data,
                   const uint32_t* local, size_t begin, size_t end,
                   const uint32_t* keys, int64_t* counts, double* sums,
                   double* sum_sqs) {
  const bool all_valid = chunk.AllValid();
  const ValidityBitmap valid = chunk.validity();
  for (size_t p = begin; p < end; ++p) {
    const uint32_t k = keys[p];
    if (k == kNullKey) continue;  // NULL dimension cell
    const uint32_t row = local[p];
    if (!all_valid && !valid.Get(row)) continue;  // NULL measure cell
    const double m = static_cast<double>(data[row]);
    ++counts[k];
    sums[k] += m;
    sum_sqs[k] += m * m;
  }
}

}  // namespace

common::Result<std::vector<BaseHistogram>> FusedBuildBaseHistograms(
    const Table& table, const RowSet& rows,
    const std::vector<FusedScanPair>& pairs, common::ThreadPool* pool,
    size_t morsel_size, FusedScanStats* stats, FusedScanScratch* scratch,
    common::ExecContext* ctx) {
  std::vector<BaseHistogram> out(pairs.size());
  if (pairs.empty()) return out;
  if (morsel_size == 0) morsel_size = kDefaultFusedMorselSize;
  // A pass that is out of time before it starts builds nothing.
  if (common::Expired(ctx)) return ctx->ExpiryStatus();

  // Resolve and validate every column up front (nothing builds on error).
  std::vector<std::string_view> dim_names;  // first-appearance order
  std::vector<const Column*> dim_cols;
  std::vector<size_t> pair_dim(pairs.size());
  std::vector<const Column*> mea_cols(pairs.size());
  for (size_t i = 0; i < pairs.size(); ++i) {
    MUVE_ASSIGN_OR_RETURN(const Column* dim,
                          table.ColumnByName(pairs[i].dimension));
    if (dim->type() == ValueType::kString) {
      return common::Status::TypeMismatch(
          "cannot bin string dimension '" + pairs[i].dimension + "'");
    }
    MUVE_ASSIGN_OR_RETURN(mea_cols[i], table.ColumnByName(pairs[i].measure));
    if (mea_cols[i]->type() == ValueType::kString) {
      // String measures are only aggregatable with COUNT; that
      // combination keeps using the direct scan (BaseHistogram stores
      // measure moments).
      return common::Status::TypeMismatch(
          "cannot build base histogram over string measure '" +
          pairs[i].measure + "'");
    }
    size_t slot = dim_names.size();
    for (size_t d = 0; d < dim_names.size(); ++d) {
      if (dim_names[d] == pairs[i].dimension) {
        slot = d;
        break;
      }
    }
    if (slot == dim_names.size()) {
      dim_names.push_back(pairs[i].dimension);
      dim_cols.push_back(dim);
    }
    pair_dim[i] = slot;
  }

  const size_t num_dims = dim_cols.size();
  const size_t n = rows.size();
  const size_t num_morsels = n == 0 ? 0 : (n + morsel_size - 1) / morsel_size;

  FusedScanScratch local;
  if (scratch == nullptr) scratch = &local;
  if (scratch->dicts.size() < num_dims) scratch->dicts.resize(num_dims);
  if (scratch->keys.size() < num_dims) scratch->keys.resize(num_dims);

  // Every column of a table shares one chunk geometry (Table constructs
  // all columns with the same chunk_rows), so one shift/mask serves the
  // whole pass.
  const uint32_t chunk_shift = dim_cols[0]->chunk_shift();
  const uint32_t chunk_mask = dim_cols[0]->chunk_mask();

  // Phase A: one sorted distinct-value dictionary per dimension, shared
  // by every measure paired with it — merged from the chunk dictionaries
  // when they serve, else gathered from the rows, sorted and deduped.
  common::Stopwatch phase_timer;
  RunIndexed(pool, num_dims, [&](size_t d) {
    MergedNumericDict& dict = scratch->dicts[d];
    if (MergeChunkDictionaries(*dim_cols[d], rows, &dict)) return;
    dict.remap_begin.clear();
    std::vector<double>& values = dict.values;
    values.clear();
    values.reserve(n);
    GatherValues(*dim_cols[d], rows, &values);
    std::sort(values.begin(), values.end());
    values.erase(std::unique(values.begin(), values.end()), values.end());
  });
  const double dict_ms = phase_timer.ElapsedMillis();
  phase_timer.Restart();

  // Phase B: dense key arrays, morsel x dimension parallel, plus the
  // position-aligned chunk-local row offsets Phase C's kernel consumes.
  // A morsel planner note on skipping: the morsel grid partitions the
  // ROW SET, not the table — a chunk with no selected rows (e.g. one the
  // predicate's zone map discarded) contributes no positions, so no
  // morsel, no key fill, and no accumulation ever touches it.
  for (size_t d = 0; d < num_dims; ++d) scratch->keys[d].resize(n);
  scratch->local_rows.resize(n);
  RunIndexed(pool, num_morsels, [&](size_t m) {
    const size_t begin = m * morsel_size;
    const size_t end = std::min(n, begin + morsel_size);
    uint32_t* local = scratch->local_rows.data();
    for (size_t p = begin; p < end; ++p) local[p] = rows[p] & chunk_mask;
  });
  RunIndexed(pool, num_dims * num_morsels, [&](size_t t) {
    const size_t d = t / num_morsels;
    const size_t m = t % num_morsels;
    const size_t begin = m * morsel_size;
    const size_t end = std::min(n, begin + morsel_size);
    FillKeys(*dim_cols[d], scratch->dicts[d], rows, begin, end,
             scratch->keys[d].data());
  });
  const double keys_ms = phase_timer.ElapsedMillis();
  phase_timer.Restart();

  // Phase boundary poll: dictionaries and key arrays for a large row set
  // are themselves row-order work, so re-check before committing to the
  // accumulation phase.
  if (common::Expired(ctx)) return ctx->ExpiryStatus();

  // Arena layout: one slab per morsel; within a slab, pair i owns
  // [pair_offset[i], pair_offset[i] + dict_size(i)).
  std::vector<size_t> pair_offset(pairs.size());
  size_t slab = 0;
  for (size_t i = 0; i < pairs.size(); ++i) {
    pair_offset[i] = slab;
    slab += scratch->dicts[pair_dim[i]].values.size();
  }
  scratch->counts.assign(slab * num_morsels, 0);
  scratch->sums.assign(slab * num_morsels, 0.0);
  scratch->sum_sqs.assign(slab * num_morsels, 0.0);

  // Mid-pass abort plumbing: once any morsel observes an expired context
  // (or an injected fault), every not-yet-started morsel returns
  // immediately.  In-flight morsels finish — they only write their own
  // partial slab, which the abort below discards wholesale.
  std::atomic<bool> aborted{false};
  std::atomic<bool> fault_injected{false};

  // Phase C: morsel-parallel accumulation into per-morsel partials; per
  // fine bin the additions happen in row order within the morsel.
  RunIndexed(pool, num_morsels, [&](size_t m) {
    if (aborted.load(std::memory_order_relaxed)) return;
    switch (MUVE_FAILPOINT("fused_scan.morsel")) {
      case common::FailpointAction::kError:
      case common::FailpointAction::kOom:
        fault_injected.store(true, std::memory_order_relaxed);
        aborted.store(true, std::memory_order_relaxed);
        return;
      default:
        break;  // kDelay already slept inside the failpoint lookup
    }
    if (common::Expired(ctx)) {
      aborted.store(true, std::memory_order_relaxed);
      return;
    }
    const size_t begin = m * morsel_size;
    const size_t end = std::min(n, begin + morsel_size);
    int64_t* counts = scratch->counts.data() + m * slab;
    double* sums = scratch->sums.data() + m * slab;
    double* sum_sqs = scratch->sum_sqs.data() + m * slab;
    // One chunk-run decomposition per morsel, shared by every pair: the
    // kernel receives the chunk-local row array plus the run's chunk —
    // same positions, same per-key row order, same accumulation
    // association as the flat layout, so the output bits do not depend
    // on the chunking.
    const uint32_t* local = scratch->local_rows.data();
    ForEachChunkRun(rows, begin, end, chunk_shift, [&](uint32_t c,
                                                      size_t rb, size_t re) {
      for (size_t i = 0; i < pairs.size(); ++i) {
        const uint32_t* keys = scratch->keys[pair_dim[i]].data();
        const ColumnChunk& mea = mea_cols[i]->chunk(c);
        const size_t off = pair_offset[i];
        if (mea.type() == ValueType::kInt64) {
          AccumulateRun(mea, mea.int64_data(), local, rb, re, keys,
                        counts + off, sums + off, sum_sqs + off);
        } else {
          AccumulateRun(mea, mea.double_data(), local, rb, re, keys,
                        counts + off, sums + off, sum_sqs + off);
        }
      }
    });
  });

  // An aborted pass returns NOTHING: some morsels never ran, so the
  // merged histograms would silently under-count.  The caller degrades
  // (direct per-pair builds for whatever probes still run).
  if (aborted.load(std::memory_order_relaxed)) {
    if (fault_injected.load(std::memory_order_relaxed)) {
      return common::Status::IoError(
          "fused scan aborted by failpoint fused_scan.morsel");
    }
    return ctx->ExpiryStatus();
  }
  const double accumulate_ms = phase_timer.ElapsedMillis();
  phase_timer.Restart();

  // Phase D: serial merge in ascending morsel order (fixed association —
  // identical output for any worker count), then compact fine bins with
  // zero rows (dimension values whose every row is NULL on this measure),
  // which restores the exact per-(A, M) fine-bin set of the per-pair
  // builder.
  for (size_t i = 0; i < pairs.size(); ++i) {
    const std::vector<double>& dict = scratch->dicts[pair_dim[i]].values;
    const size_t off = pair_offset[i];
    BaseHistogram& base = out[i];
    base.source_rows = static_cast<int64_t>(n);
    base.table_rows = static_cast<int64_t>(table.num_rows());
    base.prefix_counts.push_back(0);
    base.prefix_sums.push_back(0.0);
    base.prefix_sum_sqs.push_back(0.0);
    for (size_t j = 0; j < dict.size(); ++j) {
      int64_t count = 0;
      double sum = 0.0;
      double sum_sq = 0.0;
      for (size_t m = 0; m < num_morsels; ++m) {
        const size_t idx = m * slab + off + j;
        count += scratch->counts[idx];
        sum += scratch->sums[idx];
        sum_sq += scratch->sum_sqs[idx];
      }
      if (count == 0) continue;
      base.values.push_back(dict[j]);
      base.sums.push_back(sum);
      base.sum_sqs.push_back(sum_sq);
      base.prefix_counts.push_back(base.prefix_counts.back() + count);
      base.prefix_sums.push_back(base.prefix_sums.back() + sum);
      base.prefix_sum_sqs.push_back(base.prefix_sum_sqs.back() + sum_sq);
    }
  }

  if (stats != nullptr) {
    stats->morsels += static_cast<int64_t>(num_morsels);
    stats->dimensions += static_cast<int64_t>(num_dims);
    for (size_t d = 0; d < num_dims; ++d) {
      if (!scratch->dicts[d].remap_begin.empty()) ++stats->coded_dimensions;
    }
    stats->dict_ms += dict_ms;
    stats->keys_ms += keys_ms;
    stats->accumulate_ms += accumulate_ms;
    stats->merge_ms += phase_timer.ElapsedMillis();
  }
  return out;
}

}  // namespace muve::storage
