// Extension bench: multi-threaded scaling for every scheme.
//
// All vertical strategies run on the shared work-stealing pool, so this
// bench sweeps threads x schemes: the three vertical-Linear combinations,
// MuVE-MuVE, view refinement, and view skipping.  The
// paper's cost metric (Eq. 7) sums *work*, so it stays roughly flat with
// thread count (pruning schemes can inflate slightly: a lagging threshold
// snapshot prunes less); the latency (elapsed wall-clock) is what drops.
// Both are reported, per scheme, plus a machine-readable JSON block for
// plotting scaling curves.

#include <cmath>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/logging.h"
#include "common/stopwatch.h"
#include "common/string_util.h"
#include "core/recommender.h"
#include "data/nba.h"
#include "harness.h"

namespace {

struct SchemeSpec {
  std::string label;
  muve::core::SearchOptions options;
};

std::vector<SchemeSpec> Schemes() {
  using muve::core::HorizontalStrategy;
  using muve::core::VerticalApproximation;
  std::vector<SchemeSpec> specs;
  specs.push_back({"Linear-Linear", muve::bench::LinearLinear()});
  specs.push_back({"HC-Linear", muve::bench::HcLinear()});
  specs.push_back({"MuVE-Linear", muve::bench::MuveLinear()});
  specs.push_back({"MuVE-MuVE", muve::bench::MuveMuve()});
  {
    auto refine = muve::bench::LinearLinear();
    refine.approximation = VerticalApproximation::kRefinement;
    specs.push_back({"Linear-Linear(R)", refine});
    auto skip = muve::bench::LinearLinear();
    skip.approximation = VerticalApproximation::kSkipping;
    specs.push_back({"Linear-Linear(S)", skip});
  }
  return specs;
}

bool SameTopK(const muve::core::Recommendation& a,
              const muve::core::Recommendation& b, double tolerance) {
  if (a.views.size() != b.views.size()) return false;
  for (size_t i = 0; i < a.views.size(); ++i) {
    if (std::abs(a.views[i].utility - b.views[i].utility) > tolerance) {
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  muve::bench::InitBench(&argc, argv);
  std::cout << "=== Extension: parallel scaling across schemes (NBA, 13 "
               "measures) ===\n";
  const muve::data::Dataset dataset =
      muve::data::WithWorkloadSize(muve::data::MakeNbaDataset(), 3, 13, 3);
  auto recommender = muve::core::Recommender::Create(dataset);
  MUVE_CHECK(recommender.ok()) << recommender.status().ToString();

  const std::vector<int> thread_counts = {1, 2, 4, 8};
  std::ostringstream json;
  json << "{\n  \"hardware_threads\": "
       << std::thread::hardware_concurrency() << ",\n  \"schemes\": [";
  bool first_scheme = true;

  for (const SchemeSpec& spec : Schemes()) {
    muve::bench::TablePrinter table({"threads", "elapsed(ms)",
                                     "work cost(ms)", "speedup",
                                     "matches serial top-k"});
    double elapsed_1 = 0.0;
    muve::core::Recommendation reference;
    if (!first_scheme) json << ",";
    first_scheme = false;
    json << "\n    {\"scheme\": \"" << spec.label << "\", \"points\": [";

    for (size_t t = 0; t < thread_counts.size(); ++t) {
      const int threads = thread_counts[t];
      muve::core::SearchOptions options = spec.options;
      options.num_threads = threads;
      // Warmup.
      MUVE_CHECK(recommender->Recommend(options).ok());
      muve::common::Stopwatch timer;
      auto rec = recommender->Recommend(options);
      const double elapsed = timer.ElapsedMillis();
      MUVE_CHECK(rec.ok()) << rec.status().ToString();
      if (threads == 1) {
        elapsed_1 = elapsed;
        reference = *rec;
      }
      // Exact vertical-Linear schemes match serial view-for-view; the
      // pruning/approximation schemes match on recommended utilities.
      const bool identical = SameTopK(*rec, reference, 1e-9);

      table.AddRow({std::to_string(threads), muve::bench::Ms(elapsed),
                    muve::bench::Ms(rec->stats.TotalCostMillis()),
                    muve::common::FormatDouble(elapsed_1 / elapsed, 2) + "x",
                    identical ? "yes" : "NO"});
      json << (t == 0 ? "" : ", ")
           << "{\"threads\": " << threads << ", \"elapsed_ms\": " << elapsed
           << ", \"work_cost_ms\": " << rec->stats.TotalCostMillis()
           << ", \"workers\": " << rec->stats.num_workers
           << ", \"rows_scanned\": " << rec->stats.rows_scanned
           << ", \"build_rows_scanned\": " << rec->stats.build_rows_scanned
           << ", \"probe_rows_scanned\": " << rec->stats.probe_rows_scanned
           << ", \"base_builds\": " << rec->stats.base_builds
           << ", \"base_cache_hits\": " << rec->stats.base_cache_hits
           << ", \"fused_builds\": " << rec->stats.fused_builds
           << ", \"morsels\": " << rec->stats.morsels_dispatched
           << ", \"matches_serial\": " << (identical ? "true" : "false")
           << "}";
    }
    json << "]}";
    table.Print(spec.label + ": elapsed latency vs summed work cost");
    std::cout << "\n";
  }
  json << "\n  ]\n}";

  std::cout << "JSON:\n" << json.str() << "\n\n";
  std::cout << "(hardware threads available: "
            << std::thread::hardware_concurrency()
            << "; on a single-core host latency stays flat and the summed "
               "work cost inflates with timeslicing — the 'matches serial "
               "top-k' column is the correctness claim, the speedup "
               "column needs real cores)\n";
  return 0;
}
