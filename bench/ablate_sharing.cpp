// Ablation: base-histogram sharing vs MuVE pruning.
//
// Section II-A cites shared computation among views as an optimization
// class orthogonal to pruning.  Base histograms are that sharing: one
// fused pass per (A, M) side builds a finest-granularity histogram, and
// every (view, b) probe is derived by prefix-sum coarsening.  The first
// half pits exhaustive Linear-Linear (which probes every candidate off
// the shared bases) against MuVE-MuVE (which skips most candidates) on
// both datasets — usability-heavy weights favor pruning, more measures
// favor sharing.
//
// The second half measures what the sharing saves.  The "off" arm is a
// bench-side direct Linear-Linear (tests/direct_oracle.h): every
// (view, b) probe runs its own BinnedAggregate over D_Q and D_B, and
// each view one raw GroupByAggregate.  It emits a JSON block with the
// row-scan counters; with b_max >= 64 the base path scans >= 5x fewer
// rows while recommending the identical top-k.

#include <cmath>
#include <iostream>
#include <sstream>

#include "common/logging.h"
#include "common/stopwatch.h"
#include "common/string_util.h"
#include "core/recommender.h"
#include "data/diab.h"
#include "data/nba.h"
#include "direct_oracle.h"
#include "harness.h"

namespace {

void RunDataset(const muve::data::Dataset& dataset,
                const muve::core::Weights& weights, const char* regime) {
  using muve::bench::Ms;
  using muve::bench::RunScheme;

  auto recommender = muve::core::Recommender::Create(dataset);
  MUVE_CHECK(recommender.ok()) << recommender.status().ToString();

  auto linear = muve::bench::LinearLinear();
  auto muve = muve::bench::MuveMuve();
  linear.weights = muve.weights = weights;

  const auto r_linear = RunScheme(*recommender, linear);
  const auto r_muve = RunScheme(*recommender, muve);

  muve::bench::TablePrinter table(
      {"scheme", "cost(ms)", "target queries", "comparison queries"});
  table.AddRow({"Linear-Linear", Ms(r_linear.cost_ms),
                std::to_string(r_linear.stats.target_queries),
                std::to_string(r_linear.stats.comparison_queries)});
  table.AddRow({"MuVE-MuVE", Ms(r_muve.cost_ms),
                std::to_string(r_muve.stats.target_queries),
                std::to_string(r_muve.stats.comparison_queries)});
  table.Print(dataset.name + ", " + regime + " weights " +
              weights.ToString() + ", mean of " +
              std::to_string(muve::bench::Repetitions()) + " runs");
}

// Sharing ablation: the Recommender's Linear-Linear (base histograms)
// vs the direct per-(view, b) scan loop.  Emits a machine-readable JSON
// block so the row-scan saving (and top-k identity) can be tracked
// across commits.
void RunSharingAblation(const muve::data::Dataset& dataset) {
  using muve::bench::Ms;
  using muve::bench::RunScheme;

  auto recommender = muve::core::Recommender::Create(dataset);
  MUVE_CHECK(recommender.ok()) << recommender.status().ToString();
  const int b_max = recommender->space().max_bins_overall();

  const auto options = muve::bench::LinearLinear();
  const auto r_on = RunScheme(*recommender, options);
  double off_ms = 0.0;
  muve::testutil::DirectTopK r_off;
  for (int rep = 0; rep < muve::bench::Repetitions(); ++rep) {
    muve::common::Stopwatch timer;
    r_off = muve::testutil::DirectLinearLinear(dataset, recommender->space(),
                                               options);
    off_ms += timer.ElapsedMillis();
  }
  off_ms /= muve::bench::Repetitions();

  // Identical top-k is part of the base path's contract (pinned harder
  // by tests/core/rebin_differential_test); verify it here too so the
  // bench never reports a saving bought with a wrong answer.
  bool identical = r_on.recommendation.views.size() == r_off.views.size();
  if (identical) {
    for (size_t i = 0; i < r_off.views.size(); ++i) {
      const auto& a = r_on.recommendation.views[i];
      const auto& b = r_off.views[i];
      if (a.view.Key() != b.view.Key() || a.bins != b.bins ||
          std::abs(a.utility - b.utility) > 1e-9) {
        identical = false;
        break;
      }
    }
  }
  MUVE_CHECK(identical) << "base-path top-k diverged from the direct scans";

  const double ratio =
      r_on.stats.rows_scanned > 0
          ? static_cast<double>(r_off.rows_scanned) /
                static_cast<double>(r_on.stats.rows_scanned)
          : 0.0;

  muve::bench::TablePrinter table({"probe path", "ms", "rows scanned",
                                   "base builds", "cache hits"});
  table.AddRow({"direct scans", Ms(off_ms), std::to_string(r_off.rows_scanned),
                "0", "0"});
  table.AddRow({"base histograms", Ms(r_on.cost_ms),
                std::to_string(r_on.stats.rows_scanned),
                std::to_string(r_on.stats.base_builds),
                std::to_string(r_on.stats.base_cache_hits)});
  table.Print(dataset.name + ", Linear-Linear, b_max=" +
              std::to_string(b_max) + ", identical top-k, " +
              muve::common::FormatDouble(ratio, 1) + "x fewer rows scanned");

  std::ostringstream json;
  json << "{\"dataset\": \"" << dataset.name << "\""
       << ", \"scheme\": \"Linear-Linear\""
       << ", \"b_max\": " << b_max
       << ", \"direct\": {\"rows_scanned\": " << r_off.rows_scanned
       << ", \"elapsed_ms\": " << off_ms << "}"
       << ", \"base\": {\"rows_scanned\": " << r_on.stats.rows_scanned
       << ", \"build_rows_scanned\": " << r_on.stats.build_rows_scanned
       << ", \"probe_rows_scanned\": " << r_on.stats.probe_rows_scanned
       << ", \"base_builds\": " << r_on.stats.base_builds
       << ", \"base_cache_hits\": " << r_on.stats.base_cache_hits
       << ", \"fused_builds\": " << r_on.stats.fused_builds
       << ", \"morsels\": " << r_on.stats.morsels_dispatched
       << ", \"cost_ms\": " << r_on.cost_ms << "}"
       << ", \"rows_scanned_ratio\": " << ratio
       << ", \"identical_top_k\": " << (identical ? "true" : "false") << "}";
  std::cout << "JSON: " << json.str() << "\n\n";
}

}  // namespace

int main(int argc, char** argv) {
  muve::bench::InitBench(&argc, argv);
  std::cout << "=== Ablation: base-histogram sharing vs pruning (MuVE) ===\n";
  const auto diab =
      muve::data::WithWorkloadSize(muve::data::MakeDiabDataset(), 3, 3, 3);
  const auto nba_wide =
      muve::data::WithWorkloadSize(muve::data::MakeNbaDataset(), 3, 13, 3);
  RunDataset(diab, muve::core::Weights::PaperDefault(), "usability-heavy");
  RunDataset(diab, muve::core::Weights{0.6, 0.2, 0.2}, "deviation-heavy");
  RunDataset(nba_wide, muve::core::Weights{0.6, 0.2, 0.2},
             "deviation-heavy, 13 measures");

  std::cout << "\n=== Ablation: base histograms vs direct scans ===\n";
  RunSharingAblation(diab);
  RunSharingAblation(
      muve::data::WithWorkloadSize(muve::data::MakeNbaDataset(), 2, 3, 3));
  return 0;
}
