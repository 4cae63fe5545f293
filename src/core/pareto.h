// Pareto-front (skyline) analysis over the three objectives.
//
// The paper collapses (D, A, S) into a weighted sum (Eq. 5), which
// requires the analyst to fix alpha weights up front.  The dominance
// view is weight-free: candidate c1 dominates c2 when c1 is at least as
// good on every objective and strictly better on one; the Pareto front
// is the set of non-dominated candidates.  Two classic facts connect the
// formulations, and both are enforced by tests:
//
//   * every weighted-sum optimum (for strictly positive weights) lies on
//     the Pareto front, so MuVE's top-1 under any such weights is always
//     a front member;
//   * the front is exactly the set of candidates that *could* be top-1
//     under some monotone preference.
//
// The front is computed from an ExplorationSession's score memo — i.e.
// it reuses the materialized (D, A, S) values and adds no query cost.

#ifndef MUVE_CORE_PARETO_H_
#define MUVE_CORE_PARETO_H_

#include <vector>

#include "common/status.h"
#include "core/candidate.h"
#include "core/exploration_session.h"

namespace muve::core {

// One objective triple in the dominance analysis.
struct ParetoPoint {
  View view;
  int bins = 1;
  double deviation = 0.0;
  double accuracy = 0.0;
  double usability = 0.0;
};

// True when `a` dominates `b`: >= on all three objectives, > on at least
// one.
bool Dominates(const ParetoPoint& a, const ParetoPoint& b);

// Returns the non-dominated subset of `points`, in input order.
// O(n^2) pairwise filtering — candidate tables are thousands of points.
std::vector<ParetoPoint> ParetoFront(const std::vector<ParetoPoint>& points);

// Materializes all candidate scores for `dataset` (via an
// ExplorationSession pass) and returns the Pareto front across every
// (view, bins) candidate.  `per_view` restricts the front to at most one
// candidate per non-binned view is NOT applied — dominance already
// handles redundancy; callers wanting the distinct-view constraint can
// post-filter.
common::Result<std::vector<ParetoPoint>> ComputeParetoFront(
    const data::Dataset& dataset,
    DistanceKind distance = DistanceKind::kEuclidean);

}  // namespace muve::core

#endif  // MUVE_CORE_PARETO_H_
