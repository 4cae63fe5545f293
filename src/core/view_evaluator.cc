#include "core/view_evaluator.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"
#include "common/stopwatch.h"
#include "core/distribution.h"
#include "core/objectives.h"
#include "storage/group_by.h"

namespace muve::core {

namespace {

// splitmix64 finalizer: a stateless hash for per-row Bernoulli draws.
uint64_t Mix64(uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

// Whether `row` survives sampling.  The decision is a pure function of
// (seed, row id) — NOT of which row set the row is being drawn for — so
// the target and comparison samples come from ONE shared Bernoulli draw
// per row.  That preserves the D_Q ⊆ D_B premise under sampling:
// sample(D_Q) = D_Q ∩ sample(D_B) whenever D_Q ⊆ D_B.  (The previous
// implementation drew the two sets from independent RNG streams, so a
// sampled target row could be missing from the sampled comparison set,
// breaking the categorical alignment's subset invariant.)
bool KeepRow(uint64_t seed, uint32_t row, double fraction) {
  const uint64_t h = Mix64(seed ^ ((uint64_t{row} + 1) * 0xD6E8FEB86659FD93ULL));
  // 53 high-quality bits -> uniform double in [0, 1).
  return static_cast<double>(h >> 11) * 0x1.0p-53 < fraction;
}

storage::RowSet SampleSubset(const storage::RowSet& rows, double fraction,
                             uint64_t seed) {
  storage::RowSet out;
  out.reserve(static_cast<size_t>(
      static_cast<double>(rows.size()) * fraction) + 1);
  for (uint32_t row : rows) {
    if (KeepRow(seed, row, fraction)) out.push_back(row);
  }
  return out;
}

}  // namespace

ViewEvaluator::ViewEvaluator(const data::Dataset& dataset,
                             const ViewSpace& space, Options options)
    : dataset_(dataset),
      space_(space),
      options_(options),
      target_rows_(&dataset.target_rows),
      all_rows_(&dataset.all_rows),
      raw_series_(space.views().size()),
      target_pins_(space.base_pairs().size()),
      comparison_pins_(space.base_pairs().size()) {
  MUVE_CHECK(options_.sample_fraction > 0.0 &&
             options_.sample_fraction <= 1.0)
      << "sample_fraction must lie in (0, 1]";
  base_cache_ = options_.base_cache;
  if (base_cache_.cache == nullptr) {
    base_cache_.cache = std::make_shared<storage::BaseHistogramCache>();
  }
  if (options_.sample_fraction < 1.0) {
    storage::RowSet& all = sampled_all_rows_;
    storage::RowSet& target = sampled_target_rows_;
    all = SampleSubset(dataset.all_rows, options_.sample_fraction,
                       options_.sample_seed);
    target = SampleSubset(dataset.target_rows, options_.sample_fraction,
                          options_.sample_seed);
    // Keep at least one target row so probes never see an empty D_Q; the
    // kept row is forced into the comparison sample as well to maintain
    // the subset invariant (row sets are ascending, so insert sorted).
    if (target.empty() && !dataset.target_rows.empty()) {
      const uint32_t kept = dataset.target_rows.front();
      target.push_back(kept);
      const auto it = std::lower_bound(all.begin(), all.end(), kept);
      if (it == all.end() || *it != kept) all.insert(it, kept);
    }
    if (all.empty() && !dataset.all_rows.empty()) {
      all.push_back(dataset.all_rows.front());
    }
    target_rows_ = &target;
    all_rows_ = &all;
  }
}

void ViewEvaluator::ChargeProbeRows(int64_t rows) {
  stats_.rows_scanned += rows;
  stats_.probe_rows_scanned += rows;
  if (options_.exec != nullptr) options_.exec->ChargeRows(rows);
}

void ViewEvaluator::ChargeBuildRows(int64_t rows) {
  stats_.rows_scanned += rows;
  stats_.build_rows_scanned += rows;
  if (options_.exec != nullptr) options_.exec->ChargeRows(rows);
}

void ViewEvaluator::PrewarmBaseHistograms(common::ThreadPool* pool) {
  if (space_.base_pairs().empty()) return;
  for (const bool target_side : {true, false}) {
    // A bounded run that is already out of time skips prewarm entirely:
    // demand-path probes (if any still run) build exactly what they need.
    if (common::Expired(options_.exec)) return;
    common::Stopwatch timer;
    storage::BaseHistogramCache::FusedHistogramBuildRequest request;
    request.rows = target_side ? target_rows_ : all_rows_;
    for (const BasePair& pair : space_.base_pairs()) {
      request.pairs.push_back(
          {base_cache_.Key(target_side, pair.dimension, pair.measure),
           pair.dimension, pair.measure});
    }
    request.pool = pool;
    request.morsel_size = options_.fused_morsel_size;
    request.exec = options_.exec;
    request.coalesce = true;
    request.target_side = target_side;
    storage::BaseHistogramCache::FusedBuildOutcome outcome;
    const common::Status status = base_cache_.cache->FusedBuild(
        *dataset_.table, request, &outcome, &fused_scratch_);
    stats_.fused_coalesced += outcome.coalesced;
    // An aborted pass (expired context or injected fault) cached nothing
    // and is charged nothing; probes then fill their pins one pair at a
    // time.  One pass = one row-set traversal, whatever the number of
    // pairs it builds; `passes` is 0 when every pair was cached already.
    if (status.ok()) {
      stats_.base_builds += outcome.passes;
      stats_.fused_builds += outcome.passes;
      ChargeBuildRows(outcome.rows_scanned);
      stats_.morsels_dispatched += outcome.morsels;
      std::move(outcome.histograms.begin(), outcome.histograms.end(),
                (target_side ? target_pins_ : comparison_pins_).begin());
    }
    // The pass's wall-clock lands on the side it prepaid (C_t or C_c);
    // no CostModel observation — a whole-space fused pass is not a
    // representative per-probe cost and would skew the priority rule.
    const double ms = timer.ElapsedMillis();
    if (target_side) {
      stats_.target_time_ms += ms;
    } else {
      stats_.comparison_time_ms += ms;
    }
  }
}

bool ViewEvaluator::FillPin(int pair, bool target_side, BasePin* pin) {
  const BasePair& p = space_.base_pairs()[pair];
  const storage::RowSet& rows = target_side ? target_rows() : all_rows();
  storage::BaseHistogramCache::FusedHistogramBuildRequest request;
  request.rows = &rows;
  request.pairs.push_back(
      {base_cache_.Key(target_side, p.dimension, p.measure), p.dimension,
       p.measure});
  // One morsel: per-fine-bin sums accumulate in row order, the bits the
  // single-pair builder has always produced.
  request.morsel_size = std::max<size_t>(rows.size(), 1);
  request.coalesce = true;
  request.target_side = target_side;
  storage::BaseHistogramCache::FusedBuildOutcome outcome;
  const common::Status status = base_cache_.cache->FusedBuild(
      *dataset_.table, request, &outcome, &fused_scratch_);
  if (!status.ok()) {
    // The build failed (injected fault or real I/O error).  Probes
    // return values, not Results, so the Status rides a StatusError up
    // to Recommender::Recommend — possibly across the thread pool, whose
    // ParallelFor rethrows caller-side — where it is unwrapped back into
    // the original error Status.  A scan fault must fail the call
    // gracefully, never abort the process.
    throw common::StatusError(status);
  }
  *pin = std::move(outcome.histograms[0]);
  if (outcome.passes == 0) return false;
  ++stats_.base_builds;
  ChargeBuildRows(outcome.rows_scanned);
  return true;
}

const storage::BaseHistogram& ViewEvaluator::PinnedBase(const View& view,
                                                        bool target_side) {
  BasePin& pin =
      (target_side ? target_pins_ : comparison_pins_)[view.base_pair];
  if (pin == nullptr && FillPin(view.base_pair, target_side, &pin)) {
    return *pin;
  }
  // Probes served from an already-built histogram touch zero rows.
  ++stats_.base_cache_hits;
  return *pin;
}

const storage::BinnedResult& ViewEvaluator::ExecuteBinnedTarget(
    const View& view, int bins) {
  if (cached_target_view_ == view.index && cached_target_bins_ == bins) {
    return cached_target_;
  }
  const DimensionInfo& dim = space_.dimensions()[view.dimension_index];
  common::Stopwatch timer;
  common::Result<storage::BinnedResult> result = [&] {
    if (view.base_pair >= 0) {
      // Pin fill (first touch) + coarsen; the whole probe's wall-clock
      // is charged to C_t below, so the cost model sees the true
      // per-probe cost including amortized builds.
      return common::Result<storage::BinnedResult>(CoarsenBaseHistogram(
          PinnedBase(view, /*target_side=*/true), view.function, bins,
          dim.lo, dim.hi));
    }
    ChargeProbeRows(static_cast<int64_t>(target_rows().size()));
    return storage::BinnedAggregate(*dataset_.table, target_rows(),
                                    view.dimension, view.measure,
                                    view.function, bins, dim.lo, dim.hi);
  }();
  const double ms = timer.ElapsedMillis();
  MUVE_CHECK(result.ok()) << result.status().ToString();
  stats_.target_time_ms += ms;
  ++stats_.target_queries;
  cost_model_.Observe(CostKind::kTargetQuery, ms);
  cached_target_view_ = view.index;
  cached_target_bins_ = bins;
  cached_target_ = std::move(result).value();
  return cached_target_;
}

storage::BinnedResult ViewEvaluator::ExecuteBinnedComparison(const View& view,
                                                             int bins) {
  const DimensionInfo& dim = space_.dimensions()[view.dimension_index];
  common::Stopwatch timer;
  common::Result<storage::BinnedResult> result = [&] {
    if (view.base_pair >= 0) {
      return common::Result<storage::BinnedResult>(CoarsenBaseHistogram(
          PinnedBase(view, /*target_side=*/false), view.function, bins,
          dim.lo, dim.hi));
    }
    ChargeProbeRows(static_cast<int64_t>(all_rows().size()));
    return storage::BinnedAggregate(*dataset_.table, all_rows(),
                                    view.dimension, view.measure,
                                    view.function, bins, dim.lo, dim.hi);
  }();
  const double ms = timer.ElapsedMillis();
  MUVE_CHECK(result.ok()) << result.status().ToString();
  stats_.comparison_time_ms += ms;
  ++stats_.comparison_queries;
  cost_model_.Observe(CostKind::kComparisonQuery, ms);
  return std::move(result).value();
}

const ViewEvaluator::RawSeries& ViewEvaluator::RawTargetSeries(
    const View& view) {
  std::optional<RawSeries>& slot = raw_series_[view.index];
  if (slot.has_value()) return *slot;

  common::Stopwatch timer;
  RawSeries series;
  if (view.base_pair >= 0) {
    // The raw series IS the base histogram finished per fine bin: same
    // keys, same per-group association, zero rows touched on a hit.
    BaseRawSeries(PinnedBase(view, /*target_side=*/true), view.function,
                  &series.keys, &series.aggregates);
  } else {
    auto grouped = storage::GroupByAggregate(*dataset_.table, target_rows(),
                                             view.dimension, view.measure,
                                             view.function);
    MUVE_CHECK(grouped.ok()) << grouped.status().ToString();
    series.keys.reserve(grouped->num_groups());
    series.aggregates = grouped->aggregates;
    for (const storage::Value& v : grouped->keys) {
      auto d = v.ToDouble();
      MUVE_CHECK(d.ok()) << d.status().ToString();
      series.keys.push_back(*d);
    }
    ChargeProbeRows(static_cast<int64_t>(target_rows().size()));
  }
  const double ms = timer.ElapsedMillis();
  // The raw series is an input to the accuracy objective; its (one-off)
  // computation is charged to C_a.
  stats_.accuracy_time_ms += ms;
  cost_model_.Observe(CostKind::kAccuracy, ms);
  return slot.emplace(std::move(series));
}

double ViewEvaluator::NormalizedSeriesDistance(
    const std::vector<double>& target_aggs,
    const std::vector<double>& comparison_aggs) {
  MUVE_DCHECK(target_aggs.size() == comparison_aggs.size())
      << "distribution length mismatch";
  const size_t n = target_aggs.size();
  if (dist_p_.size() < n) {
    dist_p_.resize(n);
    dist_q_.resize(n);
  }
  NormalizeToDistribution(target_aggs.data(), n, dist_p_.data());
  NormalizeToDistribution(comparison_aggs.data(), n, dist_q_.data());
  return Distance(options_.distance, dist_p_.data(), dist_q_.data(), n);
}

template <typename Probe>
double ViewEvaluator::Memoized(int kind, const View& view, int bins,
                               Probe&& probe) {
  MUVE_DCHECK(view.index >= 0 &&
              static_cast<size_t>(view.index) < space_.views().size() &&
              space_.views()[view.index] == view)
      << "view not from this evaluator's space";
  ScoreMemo* memo = options_.score_memo;
  if (memo == nullptr) return probe();
  const int key_bins =
      space_.dimensions()[view.dimension_index].categorical ? 1 : bins;
  if (const std::optional<double> stored =
          memo->Get(kind, view.index, key_bins)) {
    ++stats_.memo_hits;
    return *stored;
  }
  const double value = probe();
  if (memo->Put(kind, view.index, key_bins, value)) ++stats_.memo_fills;
  return value;
}

double ViewEvaluator::EvaluateDeviation(const View& view, int bins) {
  return Memoized(ScoreMemo::DeviationKind(options_.distance), view, bins,
                  [&] { return ProbeDeviation(view, bins); });
}

double ViewEvaluator::ProbeDeviation(const View& view, int bins) {
  if (space_.dimensions()[view.dimension_index].categorical) {
    return EvaluateCategoricalDeviation(view);
  }
  const storage::BinnedResult& target = ExecuteBinnedTarget(view, bins);
  const storage::BinnedResult comparison =
      ExecuteBinnedComparison(view, bins);

  common::Stopwatch timer;
  const double deviation =
      NormalizedSeriesDistance(target.aggregates, comparison.aggregates);
  const double ms = timer.ElapsedMillis();
  stats_.deviation_time_ms += ms;
  ++stats_.deviation_evals;
  cost_model_.Observe(CostKind::kDeviation, ms);
  return deviation;
}

double ViewEvaluator::EvaluateCategoricalDeviation(const View& view) {
  // Comparison group-by over D_B; its group set is a superset of the
  // target's (D_Q's rows are a subset of D_B's), so aligning the target
  // onto the comparison keys loses nothing.
  common::Stopwatch comparison_timer;
  auto comparison = storage::GroupByAggregate(
      *dataset_.table, all_rows(), view.dimension, view.measure,
      view.function);
  MUVE_CHECK(comparison.ok()) << comparison.status().ToString();
  const double comparison_ms = comparison_timer.ElapsedMillis();
  stats_.comparison_time_ms += comparison_ms;
  ++stats_.comparison_queries;
  ChargeProbeRows(static_cast<int64_t>(all_rows().size()));
  cost_model_.Observe(CostKind::kComparisonQuery, comparison_ms);

  common::Stopwatch target_timer;
  auto target = storage::GroupByAggregate(*dataset_.table,
                                          target_rows(),
                                          view.dimension, view.measure,
                                          view.function);
  MUVE_CHECK(target.ok()) << target.status().ToString();
  const double target_ms = target_timer.ElapsedMillis();
  stats_.target_time_ms += target_ms;
  ++stats_.target_queries;
  ChargeProbeRows(static_cast<int64_t>(target_rows().size()));
  cost_model_.Observe(CostKind::kTargetQuery, target_ms);

  common::Stopwatch distance_timer;
  // Align the target series onto the comparison key order with a sorted
  // two-pointer merge (both group-bys return keys ascending).  The old
  // loop only advanced `t` on an exact match, so one target key missing
  // from the comparison keys silently shifted every later target
  // aggregate into the wrong group.  With D_Q ⊆ D_B (guaranteed even
  // under sampling by the shared per-row draw in SampleSubset) no target
  // key can be missing — enforced below rather than assumed.
  std::vector<double> aligned(comparison->num_groups(), 0.0);
  size_t t = 0;
  for (size_t c = 0;
       c < comparison->num_groups() && t < target->num_groups(); ++c) {
    const storage::Value& comparison_key = comparison->keys[c];
    const storage::Value& target_key = target->keys[t];
    if (target_key == comparison_key) {
      aligned[c] = target->aggregates[t];
      ++t;
    } else {
      MUVE_CHECK(comparison_key < target_key)
          << "categorical alignment: target group key " << target_key
          << " is absent from the comparison view — D_Q is not a subset "
             "of D_B";
      // comparison_key < target_key: a comparison-only group; its target
      // mass stays 0 and only `c` advances.
    }
  }
  MUVE_CHECK(t == target->num_groups())
      << "categorical alignment dropped " << (target->num_groups() - t)
      << " trailing target group(s) — D_Q is not a subset of D_B";
  const double deviation =
      NormalizedSeriesDistance(aligned, comparison->aggregates);
  const double ms = distance_timer.ElapsedMillis();
  stats_.deviation_time_ms += ms;
  ++stats_.deviation_evals;
  cost_model_.Observe(CostKind::kDeviation, ms);
  return deviation;
}

double ViewEvaluator::EvaluateAccuracy(const View& view, int bins) {
  return Memoized(ScoreMemo::AccuracyKind(), view, bins,
                  [&] { return ProbeAccuracy(view, bins); });
}

double ViewEvaluator::ProbeAccuracy(const View& view, int bins) {
  if (space_.dimensions()[view.dimension_index].categorical) {
    // No binning approximation: the view shows every group exactly.
    ++stats_.accuracy_evals;
    return 1.0;
  }
  const RawSeries& raw = RawTargetSeries(view);
  const storage::BinnedResult& target = ExecuteBinnedTarget(view, bins);

  common::Stopwatch timer;
  const double accuracy =
      AccuracyFromSeries(raw.keys, raw.aggregates, target);
  const double ms = timer.ElapsedMillis();
  stats_.accuracy_time_ms += ms;
  ++stats_.accuracy_evals;
  cost_model_.Observe(CostKind::kAccuracy, ms);
  return accuracy;
}

double ViewEvaluator::CandidateUsability(const View& view, int bins) const {
  return core::CandidateUsability(space_.dimensions()[view.dimension_index],
                                  bins);
}

bool ViewEvaluator::AccuracyFirst(const Weights& weights) const {
  const double ct = cost_model_.Estimate(CostKind::kTargetQuery);
  const double cc = cost_model_.Estimate(CostKind::kComparisonQuery);
  const double cd = cost_model_.Estimate(CostKind::kDeviation);
  const double ca = cost_model_.Estimate(CostKind::kAccuracy);
  const double accuracy_cost = ct + ca;
  const double deviation_cost = ct + cc + cd;
  if (accuracy_cost <= 0.0 || deviation_cost <= 0.0) {
    // No observations yet: bootstrap with deviation first (it seeds the
    // most cost estimates in one probe).
    return false;
  }
  return weights.accuracy / accuracy_cost >
         weights.deviation / deviation_cost;
}

void ViewEvaluator::ResetAccounting() {
  stats_ = ExecStats();
  cost_model_ = CostModel(cost_model_.beta());
}

}  // namespace muve::core
