#include "core/distance.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "common/simd/simd.h"
#include "common/string_util.h"

namespace muve::core {

namespace {

constexpr double kSmoothingEpsilon = 1e-9;

// Euclidean, the paper's default, runs its squared-L2 core through the
// SIMD kernel table; the other metrics are plain loops (none runs on the
// default probe path).

double Euclidean(const double* p, const double* q, size_t n) {
  const double sum = common::simd::ActiveKernels().squared_l2_diff(p, q, n);
  return std::sqrt(sum) / std::sqrt(2.0);
}

double Manhattan(const double* p, const double* q, size_t n) {
  double sum = 0.0;
  for (size_t i = 0; i < n; ++i) sum += std::abs(p[i] - q[i]);
  return sum / 2.0;
}

double Chebyshev(const double* p, const double* q, size_t n) {
  double best = 0.0;
  for (size_t i = 0; i < n; ++i) best = std::max(best, std::abs(p[i] - q[i]));
  return best;
}

double EarthMovers(const double* p, const double* q, size_t n) {
  if (n <= 1) return 0.0;
  // 1-D EMD with unit ground distance between adjacent bins equals the
  // sum of absolute prefix-sum differences over the first b - 1 prefixes;
  // max is (b - 1) (all mass moved across the whole axis).
  double cum = 0.0;
  double total = 0.0;
  for (size_t i = 0; i + 1 < n; ++i) {
    cum += p[i] - q[i];
    total += std::abs(cum);
  }
  return total / static_cast<double>(n - 1);
}

double KlOneWay(const double* p, const double* q, size_t n) {
  double sum = 0.0;
  for (size_t i = 0; i < n; ++i) {
    const double pi = p[i] + kSmoothingEpsilon;
    const double qi = q[i] + kSmoothingEpsilon;
    sum += pi * std::log(pi / qi);
  }
  return std::max(0.0, sum);
}

double KlSymmetric(const double* p, const double* q, size_t n) {
  const double j = KlOneWay(p, q, n) + KlOneWay(q, p, n);
  // Squash the unbounded Jeffreys divergence into [0, 1).
  return 1.0 - std::exp(-j / 2.0);
}

double JensenShannon(const double* p, const double* q, size_t n) {
  double sum = 0.0;
  for (size_t i = 0; i < n; ++i) {
    const double pi = p[i] + kSmoothingEpsilon;
    const double qi = q[i] + kSmoothingEpsilon;
    const double mi = (pi + qi) / 2.0;
    sum += 0.5 * pi * std::log2(pi / mi) + 0.5 * qi * std::log2(qi / mi);
  }
  return std::clamp(sum, 0.0, 1.0);
}

}  // namespace

const char* DistanceKindName(DistanceKind kind) {
  switch (kind) {
    case DistanceKind::kEuclidean:
      return "EUCLIDEAN";
    case DistanceKind::kManhattan:
      return "MANHATTAN";
    case DistanceKind::kChebyshev:
      return "CHEBYSHEV";
    case DistanceKind::kEarthMovers:
      return "EMD";
    case DistanceKind::kKlDivergence:
      return "KL";
    case DistanceKind::kJensenShannon:
      return "JS";
  }
  return "?";
}

common::Result<DistanceKind> DistanceKindFromName(std::string_view name) {
  const std::string upper = common::ToUpper(name);
  if (upper == "EUCLIDEAN" || upper == "L2") return DistanceKind::kEuclidean;
  if (upper == "MANHATTAN" || upper == "L1" || upper == "TV") {
    return DistanceKind::kManhattan;
  }
  if (upper == "CHEBYSHEV" || upper == "LINF") return DistanceKind::kChebyshev;
  if (upper == "EMD" || upper == "EARTHMOVERS") {
    return DistanceKind::kEarthMovers;
  }
  if (upper == "KL" || upper == "KLDIVERGENCE") {
    return DistanceKind::kKlDivergence;
  }
  if (upper == "JS" || upper == "JENSENSHANNON") {
    return DistanceKind::kJensenShannon;
  }
  return common::Status::NotFound("unknown distance function: " +
                                  std::string(name));
}

double Distance(DistanceKind kind, const double* p, const double* q,
                size_t n) {
  if (n == 0) return 0.0;
  switch (kind) {
    case DistanceKind::kEuclidean:
      return Euclidean(p, q, n);
    case DistanceKind::kManhattan:
      return Manhattan(p, q, n);
    case DistanceKind::kChebyshev:
      return Chebyshev(p, q, n);
    case DistanceKind::kEarthMovers:
      return EarthMovers(p, q, n);
    case DistanceKind::kKlDivergence:
      return KlSymmetric(p, q, n);
    case DistanceKind::kJensenShannon:
      return JensenShannon(p, q, n);
  }
  return 0.0;
}

double Distance(DistanceKind kind, const std::vector<double>& p,
                const std::vector<double>& q) {
  MUVE_DCHECK(p.size() == q.size()) << "distribution length mismatch";
  return Distance(kind, p.data(), q.data(), p.size());
}

}  // namespace muve::core
