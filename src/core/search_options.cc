#include "core/search_options.h"

#include "common/string_util.h"

namespace muve::core {

const char* HorizontalStrategyName(HorizontalStrategy s) {
  switch (s) {
    case HorizontalStrategy::kLinear:
      return "Linear";
    case HorizontalStrategy::kHillClimbing:
      return "HC";
    case HorizontalStrategy::kMuve:
      return "MuVE";
  }
  return "?";
}

const char* VerticalStrategyName(VerticalStrategy s) {
  switch (s) {
    case VerticalStrategy::kLinear:
      return "Linear";
    case VerticalStrategy::kMuve:
      return "MuVE";
  }
  return "?";
}

std::optional<Scheme> SchemeFromName(std::string_view name) {
  using H = HorizontalStrategy;
  using V = VerticalStrategy;
  const std::string lower = common::ToLower(name);
  if (lower == "linear-linear" || lower == "linear") {
    return Scheme{H::kLinear, V::kLinear};
  }
  if (lower == "hc-linear" || lower == "hc") {
    return Scheme{H::kHillClimbing, V::kLinear};
  }
  if (lower == "muve-linear" || lower == "muve_linear") {
    return Scheme{H::kMuve, V::kLinear};
  }
  if (lower == "muve-muve" || lower == "muve") {
    return Scheme{H::kMuve, V::kMuve};
  }
  return std::nullopt;
}

std::optional<ProbeOrderPolicy> ProbeOrderFromName(std::string_view name) {
  const std::string lower = common::ToLower(name);
  if (lower == "priority") return ProbeOrderPolicy::kPriorityRule;
  if (lower == "deviation-first") return ProbeOrderPolicy::kDeviationFirst;
  if (lower == "accuracy-first") return ProbeOrderPolicy::kAccuracyFirst;
  return std::nullopt;
}

common::Status SearchOptions::Validate() const {
  MUVE_RETURN_IF_ERROR(weights.Validate());
  if (k < 1) {
    return common::Status::InvalidArgument("k must be >= 1");
  }
  if (partition.step < 1) {
    return common::Status::InvalidArgument("partition step must be >= 1");
  }
  if (refinement_default_bins < 1) {
    return common::Status::InvalidArgument(
        "refinement default bins must be >= 1");
  }
  if (num_threads < 1) {
    return common::Status::InvalidArgument("num_threads must be >= 1");
  }
  if (!(sample_fraction > 0.0) || sample_fraction > 1.0) {
    return common::Status::InvalidArgument(
        "sample_fraction must lie in (0, 1]");
  }
  if (max_rows_scanned < 0) {
    return common::Status::InvalidArgument(
        "max_rows_scanned must be >= 0 (0 = unbounded)");
  }
  if (vertical == VerticalStrategy::kMuve &&
      horizontal != HorizontalStrategy::kMuve) {
    return common::Status::InvalidArgument(
        "vertical MuVE requires horizontal MuVE (the paper's MuVE-MuVE "
        "integration); use vertical Linear for other horizontal searches");
  }
  return common::Status::OK();
}

std::string SearchOptions::SchemeName() const {
  std::string name = HorizontalStrategyName(horizontal);
  if (!partition.IsDefault()) {
    name += partition.kind == PartitionKind::kGeometric ? "(G)" : "(A)";
  }
  name += "-";
  name += VerticalStrategyName(vertical);
  if (approximation == VerticalApproximation::kRefinement) name += "(R)";
  if (approximation == VerticalApproximation::kSkipping) name += "(S)";
  if (sample_fraction < 1.0) name += "(Smp)";
  return name;
}

}  // namespace muve::core
