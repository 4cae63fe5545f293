// The MuVE recommender facade (Definition 2): given a dataset workload
// and a SearchH-SearchV configuration, return the top-k binned views by
// the hybrid multi-objective utility, plus the run's cost accounting.

#ifndef MUVE_CORE_RECOMMENDER_H_
#define MUVE_CORE_RECOMMENDER_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "core/candidate.h"
#include "core/exec_stats.h"
#include "core/search_options.h"
#include "core/view.h"
#include "core/view_evaluator.h"
#include "data/dataset.h"

namespace muve::core {

struct Recommendation {
  std::vector<ScoredView> views;  // utility-descending, at most k entries
  ExecStats stats;
  std::string scheme;  // paper naming, e.g. "MuVE-MuVE"

  // Sum of recommended utilities (the fidelity metric's U(V_rec)).
  double TotalUtility() const;

  std::string ToString() const;
};

// One recommendation engine per dataset workload.  Construction enumerates
// the view space and derives dimension binning ranges; each Recommend()
// call runs with a fresh evaluator per pool worker (cold caches, zeroed
// cost accounting) so scheme costs are comparable.
//
// Threading model (options.num_threads): every vertical strategy runs on
// a shared work-stealing pool (common::ThreadPool) —
//   * vertical Linear (Linear-Linear, HC-Linear, MuVE-Linear): one
//     horizontal search per view, views dealt across workers.  Per-view
//     searches are independent (HC seeds by view index), so parallel
//     runs recommend exactly the serial views.  Linear and HC match
//     probe counters too; horizontal MuVE's probe-order priority rule
//     adapts to each evaluator's cost observations, so per-worker
//     evaluators may order the two probes differently than the serial
//     evaluator did — shifting the target/comparison query mix without
//     changing any per-view outcome.
//   * vertical MuVE: the round-robin's rounds stay sequential (they ARE
//     the algorithm), but all views inside one round evaluate in
//     parallel against a SharedTopKTracker threshold snapshot.  The
//     snapshot may lag, so parallel runs can prune *less* than serial
//     ones — never unsoundly more — and the top-k utilities are exactly
//     the serial ones.
//   * view skipping: one per-dimension batch per task.
//   * view refinement: the first (def-bin) pass fans out per view; the
//     k-view refinement pass stays serial.
// Reported time components sum *work* across workers — the paper's
// total-cost metric (Eq. 7) — not elapsed wall-clock;
// ExecStats::num_workers records the pool width.
//
// Execution control (options.deadline_ms / cancel_token /
// max_rows_scanned): every Recommend() is *anytime* — when a bound trips
// mid-run the strategies stop starting probes at their next work
// boundary and the call still returns OK with the best top-k found so
// far; ExecStats::completeness reports how partial the run was
// (degraded flag, first cause as a StatusCode, views fully searched,
// bin probes skipped).  A run whose bounds never trip is bit-identical
// to the unbounded run (pinned by tests/core/deadline_test.cc).  Errors
// (invalid options, worker-task exceptions converted to kInternal) are
// the only non-OK returns.
class Recommender {
 public:
  static common::Result<Recommender> Create(data::Dataset dataset);

  common::Result<Recommendation> Recommend(const SearchOptions& options) const;

  const ViewSpace& space() const { return space_; }
  const data::Dataset& dataset() const { return dataset_; }

 private:
  Recommender(data::Dataset dataset, ViewSpace space)
      : dataset_(std::move(dataset)), space_(std::move(space)) {}

  data::Dataset dataset_;
  ViewSpace space_;
};

}  // namespace muve::core

#endif  // MUVE_CORE_RECOMMENDER_H_
