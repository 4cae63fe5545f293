#include "storage/ingest.h"

#include <utility>

#include "storage/fused_scan.h"

namespace muve::storage {

namespace {

// Pairs from the (A, M) grid whose base histogram is cached on the
// target or comparison side.  String-typed dimensions/measures never
// enter the cache (ViewSpace::Create gives them no base pair), so a
// Contains() hit implies the fused builder accepts the pair; the type
// probe below is a cheap belt against a caller handing a grid the cache
// never saw.
std::vector<FusedScanPair> CachedPairs(const IngestDeltaRequest& request,
                                       bool target_side,
                                       std::vector<std::string>* keys) {
  std::vector<FusedScanPair> pairs;
  for (const std::string& dim : request.dimensions) {
    auto dim_col = request.table->ColumnByName(dim);
    if (!dim_col.ok() || (*dim_col)->type() == ValueType::kString) continue;
    for (const std::string& mea : request.measures) {
      auto mea_col = request.table->ColumnByName(mea);
      if (!mea_col.ok() || (*mea_col)->type() == ValueType::kString) {
        continue;
      }
      std::string key =
          request.key_prefix + BaseHistogramKey(target_side, dim, mea);
      if (!request.cache->Contains(key)) continue;
      pairs.push_back({dim, mea});
      keys->push_back(std::move(key));
    }
  }
  return pairs;
}

// Builds the partial histograms of `pairs` over `delta_rows` in one
// fused pass and merges each into its cached base.  Any failure (an
// expired ExecContext aborting the pass, a mid-merge eviction) leaves
// the un-merged entries stale relative to the appended table; the
// caller must drop them.
common::Status PatchSide(const IngestDeltaRequest& request,
                         const RowSet& delta_rows,
                         const std::vector<FusedScanPair>& pairs,
                         const std::vector<std::string>& keys,
                         IngestDeltaStats* stats) {
  // An empty delta still merges: it restamps the entries with the
  // post-append version, so the next append patches them again.
  if (pairs.empty()) return common::Status::OK();
  FusedScanScratch scratch;
  auto built = FusedBuildBaseHistograms(
      *request.table, delta_rows, pairs, request.pool, request.morsel_size,
      /*stats=*/nullptr, &scratch, request.exec);
  MUVE_RETURN_IF_ERROR(built.status());
  if (stats != nullptr) {
    stats->rows_scanned += static_cast<int64_t>(delta_rows.size());
  }
  for (size_t i = 0; i < keys.size(); ++i) {
    // A false return means the entry was evicted since the Contains
    // probe, was already rebuilt over the appended table, or described
    // another version and was dropped — in every case the next build
    // reads a current entry or scans the full appended table.
    if (request.cache->MergeDelta(keys[i], (*built)[i],
                                  static_cast<int64_t>(request.rows_before)) &&
        stats != nullptr) {
      ++stats->delta_merges;
    }
  }
  return common::Status::OK();
}

}  // namespace

common::Status ApplyAppendDeltas(const IngestDeltaRequest& request,
                                 IngestDeltaStats* stats) {
  if (request.table == nullptr || request.cache == nullptr) {
    return common::Status::InvalidArgument(
        "ApplyAppendDeltas needs a table and a cache");
  }
  if (request.rows_appended == 0) return common::Status::OK();

  std::vector<std::string> comparison_keys;
  std::vector<std::string> target_keys;
  const std::vector<FusedScanPair> comparison_pairs =
      CachedPairs(request, /*target_side=*/false, &comparison_keys);
  const std::vector<FusedScanPair> target_pairs =
      request.target_predicate == nullptr
          ? std::vector<FusedScanPair>{}
          : CachedPairs(request, /*target_side=*/true, &target_keys);
  if (stats != nullptr) {
    stats->pairs_considered +=
        static_cast<int64_t>(comparison_pairs.size() + target_pairs.size());
  }
  if (comparison_pairs.empty() && target_pairs.empty()) {
    return common::Status::OK();
  }

  // The comparison side (D_B) sees every appended row.
  RowSet delta_rows;
  delta_rows.reserve(request.rows_appended);
  for (size_t r = request.rows_before;
       r < request.rows_before + request.rows_appended; ++r) {
    delta_rows.push_back(static_cast<uint32_t>(r));
  }
  MUVE_RETURN_IF_ERROR(
      PatchSide(request, delta_rows, comparison_pairs, comparison_keys,
                stats));

  // The target side (D_Q) sees only appended rows satisfying T —
  // zone maps on the freshly sealed delta chunks prune here too.
  if (!target_pairs.empty()) {
    RowSet target_delta;
    FilterStats filter_stats;
    request.target_predicate->FilterInto(*request.table, delta_rows,
                                         &target_delta, &filter_stats);
    if (stats != nullptr) {
      stats->target_delta_rows += static_cast<int64_t>(target_delta.size());
      stats->chunks_skipped += filter_stats.chunks_skipped;
    }
    MUVE_RETURN_IF_ERROR(PatchSide(request, target_delta, target_pairs,
                                   target_keys, stats));
  }
  return common::Status::OK();
}

}  // namespace muve::storage
