// Extension bench: the fused morsel-parallel scan engine.
//
// Two questions:
//
//   1. Row-scan savings, at storage level.  Building every eligible
//      (dimension, measure) base histogram of a side one pair at a time
//      (a one-pair, one-morsel build each) costs |A| x |M| traversals of
//      the row set; one FusedBuildBaseHistograms call builds all of them in
//      a single traversal — the pass the Recommender's prewarm runs.
//      The bench times both on NBA and DIAB for the target and
//      comparison sides, checks the histograms agree pair for pair, and
//      reports the rows_scanned ratio plus the fused pass's per-phase ms
//      (dictionary, keys, accumulate, merge) and how many dimensions
//      built their dictionary from the chunk dictionaries.
//
//   2. Thread scaling.  The fused pass splits its row set into morsels
//      dispatched on the shared pool.  The bench sweeps 1/2/4/8 threads
//      of horizontal Linear (the scheme that executes every candidate)
//      with a deliberately small morsel size (so even the bundled
//      datasets split into multiple morsels) and verifies the top-k is
//      bit-stable across thread counts — the determinism contract: the
//      morsel partitioning, never the worker schedule, fixes the output.
//      Speedup numbers need real cores; on a single-core host the
//      correctness columns are the meaningful part (same caveat as
//      parallel_scaling).
//
// `--smoke` runs the toy dataset only with a reduced thread sweep — the
// CI smoke step uses this to keep the engine's end-to-end path exercised
// on every push without benchmark-scale runtimes.
//
// A machine-readable JSON block follows the tables for tracking across
// commits.

#include <algorithm>
#include <cmath>
#include <cstring>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/logging.h"
#include "common/stopwatch.h"
#include "common/string_util.h"
#include "core/recommender.h"
#include "storage/base_histogram_cache.h"
#include "storage/fused_scan.h"
#include "data/diab.h"
#include "data/nba.h"
#include "data/toy.h"
#include "harness.h"

namespace {

bool SameTopK(const muve::core::Recommendation& a,
              const muve::core::Recommendation& b) {
  if (a.views.size() != b.views.size()) return false;
  for (size_t i = 0; i < a.views.size(); ++i) {
    const auto& va = a.views[i];
    const auto& vb = b.views[i];
    if (va.view.Key() != vb.view.Key() || va.bins != vb.bins ||
        std::abs(va.utility - vb.utility) > 1e-9) {
      return false;
    }
  }
  return true;
}

// Same fine bins and counts; sums equal within FP tolerance (a fused
// pass of several morsels re-associates them).
bool SameHistogram(const muve::storage::BaseHistogram& a,
                   const muve::storage::BaseHistogram& b) {
  if (a.values != b.values || a.prefix_counts != b.prefix_counts) {
    return false;
  }
  for (size_t j = 0; j < a.sums.size(); ++j) {
    if (std::abs(a.sums[j] - b.sums[j]) > 1e-9 * (1.0 + std::abs(b.sums[j]))) {
      return false;
    }
  }
  return true;
}

// One dataset: per-pair builds vs one fused pass per side, then the
// thread sweep.  Appends this dataset's JSON object to `json`.
void RunDataset(const muve::data::Dataset& dataset, bool smoke,
                const std::vector<int>& thread_counts, std::ostream& json) {
  using muve::bench::Ms;

  auto recommender = muve::core::Recommender::Create(dataset);
  MUVE_CHECK(recommender.ok()) << recommender.status().ToString();
  const muve::storage::Table& table = *dataset.table;

  // Every (A, M) pair a base histogram serves.
  std::vector<muve::storage::FusedScanPair> pairs;
  for (const muve::core::BasePair& pair : recommender->space().base_pairs()) {
    pairs.push_back({pair.dimension, pair.measure});
  }
  MUVE_CHECK(!pairs.empty()) << dataset.name << ": no base-servable pairs";

  muve::bench::TablePrinter table_out({"side", "build mode", "ms",
                                       "rows scanned", "passes"});
  json << "\n    {\"dataset\": \"" << dataset.name << "\""
       << ", \"pairs\": " << pairs.size() << ", \"sides\": [";
  const int reps = muve::bench::Repetitions();
  int64_t per_pair_rows = 0;
  int64_t fused_rows = 0;
  for (const bool target : {true, false}) {
    const muve::storage::RowSet& rows =
        target ? dataset.target_rows : dataset.all_rows;
    const char* side = target ? "target" : "comparison";

    std::vector<muve::storage::BaseHistogram> per_pair;
    muve::common::Stopwatch pair_timer;
    for (int rep = 0; rep < reps; ++rep) {
      per_pair.clear();
      for (const auto& pair : pairs) {
        auto built = muve::storage::FusedBuildBaseHistograms(
            table, rows, {pair}, /*pool=*/nullptr,
            std::max<size_t>(rows.size(), 1));
        MUVE_CHECK(built.ok()) << built.status().ToString();
        per_pair.push_back(std::move(built->front()));
      }
    }
    const double pair_ms = pair_timer.ElapsedMillis() / reps;

    std::vector<muve::storage::BaseHistogram> fused;
    muve::storage::FusedScanStats phases;
    muve::common::Stopwatch fused_timer;
    for (int rep = 0; rep < reps; ++rep) {
      auto built = muve::storage::FusedBuildBaseHistograms(
          table, rows, pairs, /*pool=*/nullptr, /*morsel_size=*/0, &phases);
      MUVE_CHECK(built.ok()) << built.status().ToString();
      fused = std::move(built).value();
    }
    const double fused_ms = fused_timer.ElapsedMillis() / reps;

    // The fused pass must never buy its savings with a different answer.
    for (size_t i = 0; i < pairs.size(); ++i) {
      MUVE_CHECK(SameHistogram(per_pair[i], fused[i]))
          << dataset.name << ": fused " << pairs[i].dimension << "/"
          << pairs[i].measure << " diverged from its per-pair build";
    }
    const int64_t pair_side_rows =
        static_cast<int64_t>(pairs.size() * rows.size());
    const int64_t fused_side_rows = static_cast<int64_t>(rows.size());
    per_pair_rows += pair_side_rows;
    fused_rows += fused_side_rows;
    table_out.AddRow({side, "per-pair", Ms(pair_ms),
                      std::to_string(pair_side_rows),
                      std::to_string(pairs.size())});
    table_out.AddRow({side, "fused", Ms(fused_ms),
                      std::to_string(fused_side_rows), "1"});
    json << (target ? "" : ", ") << "{\"side\": \"" << side << "\""
         << ", \"per_pair\": {\"rows_scanned\": " << pair_side_rows
         << ", \"ms\": " << pair_ms << "}"
         << ", \"fused\": {\"rows_scanned\": " << fused_side_rows
         << ", \"ms\": " << fused_ms
         << ", \"dict_ms\": " << phases.dict_ms / reps
         << ", \"keys_ms\": " << phases.keys_ms / reps
         << ", \"accumulate_ms\": " << phases.accumulate_ms / reps
         << ", \"merge_ms\": " << phases.merge_ms / reps
         << ", \"coded_dimensions\": " << phases.coded_dimensions / reps
         << "}}";
  }
  const double ratio = static_cast<double>(per_pair_rows) /
                       static_cast<double>(std::max<int64_t>(fused_rows, 1));
  // Acceptance floor on the bundled datasets (toy is too small a
  // workload to clear it, so the smoke run only reports).
  if (!smoke) {
    MUVE_CHECK(ratio >= 5.0)
        << dataset.name << ": expected >= 5x fewer rows scanned, got "
        << ratio << "x";
  }
  table_out.Print(dataset.name + ", " + std::to_string(pairs.size()) +
                  " (A, M) pairs per side, identical histograms, " +
                  muve::common::FormatDouble(ratio, 1) +
                  "x fewer rows scanned");
  json << "],\n     \"rows_scanned_ratio\": " << ratio
       << ", \"identical_histograms\": true";

  // Thread sweep: Linear-Linear with a small morsel size so the bundled
  // row sets actually split, verifying thread-count invariance end to
  // end (latency speedup requires real cores).
  muve::bench::TablePrinter sweep({"threads", "elapsed(ms)", "speedup",
                                   "morsels", "matches 1-thread top-k"});
  json << ",\n     \"thread_sweep\": [";
  muve::core::Recommendation reference;
  double elapsed_1 = 0.0;
  for (size_t t = 0; t < thread_counts.size(); ++t) {
    const int threads = thread_counts[t];
    muve::core::SearchOptions options = muve::bench::LinearLinear();
    options.num_threads = threads;
    options.fused_morsel_size = 128;  // force multi-morsel fused passes
    MUVE_CHECK(recommender->Recommend(options).ok());  // warmup
    muve::common::Stopwatch timer;
    auto rec = recommender->Recommend(options);
    const double elapsed = timer.ElapsedMillis();
    MUVE_CHECK(rec.ok()) << rec.status().ToString();
    if (threads == thread_counts.front()) {
      elapsed_1 = elapsed;
      reference = *rec;
    }
    const bool identical = SameTopK(*rec, reference);
    MUVE_CHECK(identical)
        << dataset.name << ": top-k changed at " << threads << " threads";
    sweep.AddRow({std::to_string(threads), Ms(elapsed),
                  muve::common::FormatDouble(elapsed_1 / elapsed, 2) + "x",
                  std::to_string(rec->stats.morsels_dispatched),
                  identical ? "yes" : "NO"});
    json << (t == 0 ? "" : ", ") << "{\"threads\": " << threads
         << ", \"elapsed_ms\": " << elapsed
         << ", \"workers\": " << rec->stats.num_workers
         << ", \"morsels\": " << rec->stats.morsels_dispatched
         << ", \"matches_serial\": " << (identical ? "true" : "false") << "}";
  }
  json << "]}";
  sweep.Print(dataset.name +
              ", fused prewarm thread sweep (morsel_size=128)");
  std::cout << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = muve::bench::InitBench(&argc, argv).smoke;

  std::cout << "=== Extension: fused morsel-parallel scan engine ===\n";
  std::ostringstream json;
  json << "{\n  \"hardware_threads\": "
       << std::thread::hardware_concurrency()
       << ",\n  \"smoke\": " << (smoke ? "true" : "false")
       << ",\n  \"datasets\": [";

  if (smoke) {
    RunDataset(muve::data::MakeToyDataset(), smoke, {1, 2}, json);
  } else {
    const std::vector<int> threads = {1, 2, 4, 8};
    bool first = true;
    for (const auto& dataset :
         {muve::data::WithWorkloadSize(muve::data::MakeNbaDataset(), 3, 13, 3),
          muve::data::WithWorkloadSize(muve::data::MakeDiabDataset(), 3, 3,
                                       3)}) {
      if (!first) json << ",";
      first = false;
      RunDataset(dataset, smoke, threads, json);
    }
  }
  json << "\n  ]\n}";

  std::cout << "JSON:\n" << json.str() << "\n\n";
  std::cout << "(hardware threads available: "
            << std::thread::hardware_concurrency()
            << "; the thread-sweep speedup column needs real cores — on a "
               "single-core host it stays ~1x and the 'matches 1-thread "
               "top-k' column is the claim under test)\n";
  return 0;
}
