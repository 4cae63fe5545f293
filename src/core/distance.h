// Distance functions between probability distributions (Eq. 1 / Eq. 2).
//
// The paper lists Euclidean distance (its default), Earth Mover's
// distance, and K-L divergence as candidate `dist` functions.  All
// implementations here are normalized into [0, 1] because the
// multi-objective utility (Eq. 5) requires every objective on that scale:
//
//   Euclidean:  ||p - q||_2 / sqrt(2)         (sqrt(2) = max for two dists)
//   Manhattan:  ||p - q||_1 / 2               (total variation distance)
//   Chebyshev:  max_i |p_i - q_i|             (already <= 1)
//   EMD:        1-D earth mover's on bin indexes, / (b - 1)
//   KL:         symmetric (Jeffreys) divergence with epsilon smoothing,
//               squashed via 1 - exp(-J/2)
//   JS:         Jensen-Shannon divergence with log base 2 (in [0, 1])

#ifndef MUVE_CORE_DISTANCE_H_
#define MUVE_CORE_DISTANCE_H_

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace muve::core {

enum class DistanceKind {
  kEuclidean = 0,
  kManhattan,
  kChebyshev,
  kEarthMovers,
  kKlDivergence,
  kJensenShannon,
};

const char* DistanceKindName(DistanceKind kind);
common::Result<DistanceKind> DistanceKindFromName(std::string_view name);

// Computes the normalized distance between two equal-length probability
// distributions of length `n`.  Returns 0 for empty or singleton inputs
// where the metric is degenerate (e.g. EMD with one bin).  Euclidean's
// core dispatches through the SIMD kernel layer (common/simd/simd.h);
// the other metrics are plain scalar loops.  Span-style view: callers
// pass scratch buffers without materializing vectors.
double Distance(DistanceKind kind, const double* p, const double* q,
                size_t n);

// Thin vector overload (tests, cold paths).  Aborts (debug) on length
// mismatch.
double Distance(DistanceKind kind, const std::vector<double>& p,
                const std::vector<double>& q);

}  // namespace muve::core

#endif  // MUVE_CORE_DISTANCE_H_
