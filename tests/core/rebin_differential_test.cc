// Differential oracle for the base-histogram path: the evaluator and the
// Recommender must produce the SAME objectives and top-k as a test-side
// oracle that scores every probe straight from the direct scans
// (storage::BinnedAggregate / GroupByAggregate) with the shared
// normalize / distance / accuracy functions — the VizRec/Zeng framing: a
// recommendation loop is only trustworthy if validated against an
// oracle.  ~200 fuzzed (dataset, view, b, distance, alpha)
// configurations, plus recommender-level runs (Linear-Linear at 1 and 8
// threads, MuVE-MuVE).
//
// Exactness contract being pinned (see DESIGN.md §7):
//   * COUNT — bit-identical (integer counts, identical row-to-bin
//     assignment by construction).
//   * SUM / AVG over integer-valued measures — bit-identical: every
//     per-value partial sum is exactly representable, so the base's
//     re-association (value order instead of row order) is lossless.
//   * SUM / AVG over fractional measures, STD / VAR — equal within 1e-9
//     relative tolerance (re-association / moment-form rounding).
//   * MIN / MAX, categorical dimensions, COUNT over a string measure —
//     no base serves them; the evaluator scans directly, exactly as the
//     oracle does, so objectives are identical (the gate is what's
//     tested).
//
// Seeding: per-case seeds derive from MUVE_FUZZ_SEED (fixed default) via
// tests/fuzz_util.h; every failure prints the seeds to reproduce it.

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "common/logging.h"
#include "common/rng.h"
#include "core/recommender.h"
#include "core/view_evaluator.h"
#include "data/dataset.h"
#include "direct_oracle.h"
#include "fuzz_util.h"
#include "storage/predicate.h"

namespace muve::core {
namespace {

struct FuzzConfig {
  bool integral_measures = false;   // floor() every measure value
  bool moment_functions = false;    // include STD/VAR in the workload
  bool minmax_functions = false;    // include MIN/MAX (cache-ineligible)
  // Add a string measure and restrict F to COUNT (the only aggregate a
  // string measure takes); no base serves it.
  bool string_measure_count = false;
  // Rows per column chunk of the generated table.
  size_t chunk_rows = storage::kDefaultChunkRows;
  // Adds the fractional dimension "hc" (nearly every value distinct) and
  // grows the table past one 8192-row chunk, so with 8192-row chunks hc's
  // first chunk crosses the numeric dictionary cap.
  bool high_cardinality = false;
};

// Random exploration dataset: 1-3 integer dimensions, optional
// categorical, 1-3 measures with sporadic NULLs, selector sel in {0,1,2}.
data::Dataset RandomDataset(uint64_t seed, const FuzzConfig& config) {
  common::Rng rng(seed);
  const int num_numeric = 1 + static_cast<int>(rng.UniformInt(0, 2));
  const bool with_categorical = rng.Bernoulli(0.3);
  const int num_measures = 1 + static_cast<int>(rng.UniformInt(0, 2));
  size_t rows = 30 + static_cast<size_t>(rng.UniformInt(0, 90));
  if (config.high_cardinality) rows += 8192;

  storage::Schema schema;
  data::Dataset ds;
  for (int d = 0; d < num_numeric; ++d) {
    const std::string name = "dim" + std::to_string(d);
    MUVE_CHECK(schema
                   .AddField({name, storage::ValueType::kInt64,
                              storage::FieldRole::kDimension})
                   .ok());
    ds.dimensions.push_back(name);
  }
  if (config.high_cardinality) {
    MUVE_CHECK(schema
                   .AddField({"hc", storage::ValueType::kDouble,
                              storage::FieldRole::kDimension})
                   .ok());
    ds.dimensions.push_back("hc");
  }
  if (with_categorical) {
    MUVE_CHECK(schema
                   .AddField({"cat", storage::ValueType::kString,
                              storage::FieldRole::kCategoricalDimension})
                   .ok());
    ds.categorical_dimensions.push_back("cat");
  }
  MUVE_CHECK(schema.AddField({"sel", storage::ValueType::kInt64}).ok());
  for (int m = 0; m < num_measures; ++m) {
    const std::string name = "m" + std::to_string(m);
    MUVE_CHECK(schema
                   .AddField({name, storage::ValueType::kDouble,
                              storage::FieldRole::kMeasure})
                   .ok());
    ds.measures.push_back(name);
  }
  if (config.string_measure_count) {
    MUVE_CHECK(schema
                   .AddField({"label", storage::ValueType::kString,
                              storage::FieldRole::kMeasure})
                   .ok());
    ds.measures.push_back("label");
  }

  auto table = std::make_shared<storage::Table>(schema, config.chunk_rows);
  const char* cats[] = {"p", "q", "r"};
  std::vector<int64_t> ranges(static_cast<size_t>(num_numeric));
  for (auto& r : ranges) r = 4 + rng.UniformInt(0, 36);
  for (size_t i = 0; i < rows; ++i) {
    std::vector<storage::Value> row;
    for (int d = 0; d < num_numeric; ++d) {
      row.emplace_back(rng.UniformInt(0, ranges[static_cast<size_t>(d)]));
    }
    if (config.high_cardinality) row.emplace_back(rng.Uniform(0, 30));
    if (with_categorical) row.emplace_back(cats[rng.UniformInt(0, 2)]);
    row.emplace_back(rng.UniformInt(0, 2));  // sel
    for (int m = 0; m < num_measures; ++m) {
      if (rng.Bernoulli(0.05)) {
        row.emplace_back();  // NULL measure
      } else {
        double v = rng.Bernoulli(0.1)   ? 0.0
                   : rng.Bernoulli(0.1) ? rng.Uniform(-5, 0)
                                        : rng.Uniform(0, 20);
        if (config.integral_measures) v = std::floor(v);
        row.emplace_back(v);
      }
    }
    if (config.string_measure_count) {
      if (rng.Bernoulli(0.1)) {
        row.emplace_back();  // NULL label
      } else {
        row.emplace_back(cats[rng.UniformInt(0, 2)]);
      }
    }
    MUVE_CHECK(table->AppendRow(row).ok());
  }

  ds.name = "rebin-fuzz" + std::to_string(seed);
  ds.table = table;
  ds.functions = {storage::AggregateFunction::kSum,
                  storage::AggregateFunction::kAvg,
                  storage::AggregateFunction::kCount};
  if (config.moment_functions) {
    ds.functions.push_back(storage::AggregateFunction::kStd);
    ds.functions.push_back(storage::AggregateFunction::kVar);
  }
  if (config.minmax_functions) {
    ds.functions.push_back(storage::AggregateFunction::kMin);
    ds.functions.push_back(storage::AggregateFunction::kMax);
  }
  if (config.string_measure_count) {
    ds.functions = {storage::AggregateFunction::kCount};
  }
  ds.query_predicate_sql = "sel = 1";
  auto pred = storage::MakeComparison("sel", storage::CompareOp::kEq,
                                      storage::Value(int64_t{1}));
  auto selected = storage::Filter(*table, pred.get());
  MUVE_CHECK(selected.ok());
  ds.target_rows = std::move(selected).value();
  if (ds.target_rows.empty()) ds.target_rows = {0};
  ds.all_rows = storage::AllRows(table->num_rows());
  return ds;
}

Weights RandomWeights(common::Rng& rng) {
  const double d = rng.Uniform(0.01, 1);
  const double a = rng.Uniform(0.01, 1);
  const double s = rng.Uniform(0.01, 1);
  const double total = d + a + s;
  return Weights{d / total, a / total, s / total};
}

// The oracle's objectives for one (view, b) candidate over the given
// (possibly sampled) row sets.
testutil::DirectScores Oracle(const data::Dataset& ds, const ViewSpace& space,
                              const storage::RowSet& target_rows,
                              const storage::RowSet& all_rows,
                              const View& view, int bins,
                              DistanceKind distance) {
  const testutil::RawSeries raw =
      space.dimension_info(view.dimension).categorical
          ? testutil::RawSeries{}
          : testutil::DirectRawSeries(ds, target_rows, view);
  return testutil::ScoreDirect(ds, space, target_rows, all_rows, view, bins,
                               distance, raw);
}

// Whether the evaluator's probe of `view` must be bit-identical to the
// oracle on this dataset (per the contract at the top of the file).
bool MustBeBitExact(const ViewSpace& space, const View& view,
                    bool integral) {
  if (space.dimension_info(view.dimension).categorical) return true;
  switch (view.function) {
    case storage::AggregateFunction::kCount:
    case storage::AggregateFunction::kMin:
    case storage::AggregateFunction::kMax:
      return true;  // COUNT: exact moments; MIN/MAX: both run direct.
    case storage::AggregateFunction::kSum:
    case storage::AggregateFunction::kAvg:
      return integral;
    case storage::AggregateFunction::kStd:
    case storage::AggregateFunction::kVar:
      return false;  // Welford vs moment form.
  }
  return false;
}

// === Evaluator-level differential: ~200 (dataset, view, b, distance,
// alpha) configurations.  40 parameterized cases x 5 probes each. ===

class RebinDifferentialTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RebinDifferentialTest, CachedObjectivesMatchDirectOracle) {
  const uint64_t seed = testutil::FuzzSeed(GetParam() ^ 0xD1FFULL);
  SCOPED_TRACE(testutil::FuzzTrace(GetParam(), seed));
  common::Rng rng(seed * 31337);

  FuzzConfig config;
  config.integral_measures = (GetParam() % 2) == 0;
  config.moment_functions = rng.Bernoulli(0.5);
  config.minmax_functions = rng.Bernoulli(0.3);
  const data::Dataset ds = RandomDataset(seed, config);
  auto space = ViewSpace::Create(ds);
  ASSERT_TRUE(space.ok()) << space.status().ToString();

  ViewEvaluator::Options options;
  // A handful of cases also sample, proving the base keys the SAMPLED
  // row sets (the oracle scans the evaluator's sampled row sets).
  if (rng.Bernoulli(0.25)) {
    options.sample_fraction = 0.4 + rng.Uniform(0, 0.5);
    options.sample_seed = seed;
  }

  const std::vector<View>& views = space->views();
  for (int probe = 0; probe < 5; ++probe) {
    const View& view = views[rng.UniformInt(0, views.size() - 1)];
    const DimensionInfo& dim = space->dimension_info(view.dimension);
    const int bins =
        1 + static_cast<int>(rng.UniformInt(0, dim.max_bins - 1));
    const DistanceKind distance =
        static_cast<DistanceKind>(rng.UniformInt(0, 5));
    options.distance = distance;
    // A fresh evaluator per probe so each (view, b, distance, alpha)
    // configuration is independent; histogram sharing across many probes
    // is pinned by RebinDifferentialStatsTest below.
    ViewEvaluator probe_eval(ds, *space, options);
    const double d_cached = probe_eval.EvaluateDeviation(view, bins);
    const double a_cached = probe_eval.EvaluateAccuracy(view, bins);
    const testutil::DirectScores oracle =
        Oracle(ds, *space, probe_eval.target_rows(), probe_eval.all_rows(),
               view, bins, distance);

    const std::string label =
        view.Label() + " b=" + std::to_string(bins) +
        " distance=" + std::to_string(static_cast<int>(distance)) +
        (config.integral_measures ? " [integral]" : " [fractional]");
    if (MustBeBitExact(*space, view, config.integral_measures)) {
      EXPECT_EQ(d_cached, oracle.deviation) << "deviation " << label;
      EXPECT_EQ(a_cached, oracle.accuracy) << "accuracy " << label;
    } else {
      EXPECT_NEAR(d_cached, oracle.deviation,
                  1e-9 * (1.0 + std::abs(oracle.deviation)))
          << "deviation " << label;
      EXPECT_NEAR(a_cached, oracle.accuracy,
                  1e-9 * (1.0 + std::abs(oracle.accuracy)))
          << "accuracy " << label;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RebinDifferentialTest,
                         ::testing::Range<uint64_t>(1, 41));

// One evaluator probing a whole S-list must scan each (A, M) side once
// and touch no rows afterwards.  This is the observable form of the
// O(1)-re-binning claim the bench relies on.
TEST(RebinDifferentialStatsTest, CachedEvaluatorScansEachSideOnce) {
  const uint64_t seed = testutil::FuzzSeed(12345);
  FuzzConfig config;
  config.integral_measures = true;
  const data::Dataset ds = RandomDataset(seed, config);
  auto space = ViewSpace::Create(ds);
  ASSERT_TRUE(space.ok());

  ViewEvaluator cached(ds, *space);
  const View* numeric_view = nullptr;
  for (const View& view : space->views()) {
    if (!space->dimension_info(view.dimension).categorical) {
      numeric_view = &view;
      break;
    }
  }
  ASSERT_NE(numeric_view, nullptr);
  const DimensionInfo& dim = space->dimension_info(numeric_view->dimension);
  for (int bins = 1; bins <= dim.max_bins; ++bins) {
    const testutil::DirectScores oracle =
        Oracle(ds, *space, ds.target_rows, ds.all_rows, *numeric_view, bins,
               DistanceKind::kEuclidean);
    EXPECT_EQ(cached.EvaluateDeviation(*numeric_view, bins),
              oracle.deviation);
    EXPECT_EQ(cached.EvaluateAccuracy(*numeric_view, bins), oracle.accuracy);
  }
  // 2 builds (target + comparison side; the raw series reuses the
  // target-side histogram), each one row scan; every probe is a hit.
  EXPECT_EQ(cached.stats().base_builds, 2);
  EXPECT_GT(cached.stats().base_cache_hits, 0);
  EXPECT_EQ(cached.stats().rows_scanned,
            static_cast<int64_t>(ds.target_rows.size() +
                                 ds.all_rows.size()));
  EXPECT_EQ(cached.stats().probe_rows_scanned, 0);
}

// COUNT over a string measure is the one servable-looking F no base
// serves: it must scan directly, match the oracle exactly, and leave the
// numeric measures on the base path.
TEST(RebinDifferentialStatsTest, StringMeasureCountScansDirectly) {
  for (uint64_t param = 1; param <= 6; ++param) {
    const uint64_t seed = testutil::FuzzSeed(param ^ 0x57C0ULL);
    SCOPED_TRACE(testutil::FuzzTrace(param, seed));
    FuzzConfig config;
    config.string_measure_count = true;
    const data::Dataset ds = RandomDataset(seed, config);
    auto space = ViewSpace::Create(ds);
    ASSERT_TRUE(space.ok()) << space.status().ToString();

    for (const View& view : space->views()) {
      const DimensionInfo& dim = space->dimension_info(view.dimension);
      ViewEvaluator eval(ds, *space);
      eval.PrewarmBaseHistograms();
      for (int bins = 1; bins <= dim.max_bins; bins += 3) {
        const testutil::DirectScores oracle = Oracle(ds, *space, ds.target_rows,
                                           ds.all_rows, view, bins,
                                           DistanceKind::kEuclidean);
        EXPECT_EQ(eval.EvaluateDeviation(view, bins), oracle.deviation)
            << view.Label() << " b=" << bins;
        EXPECT_EQ(eval.EvaluateAccuracy(view, bins), oracle.accuracy)
            << view.Label() << " b=" << bins;
      }
      const bool direct = dim.categorical || view.measure == "label";
      EXPECT_EQ(eval.stats().probe_rows_scanned > 0, direct) << view.Label();
    }

    SearchOptions options;
    options.horizontal = HorizontalStrategy::kLinear;
    options.vertical = VerticalStrategy::kLinear;
    options.k = 4;
    auto recommender = Recommender::Create(ds);
    ASSERT_TRUE(recommender.ok());
    auto rec = recommender->Recommend(options);
    ASSERT_TRUE(rec.ok()) << rec.status().ToString();
    const std::vector<ScoredView> want =
        testutil::DirectLinearLinear(ds, *space, options).views;
    ASSERT_EQ(rec->views.size(), want.size());
    for (size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(rec->views[i].view.Key(), want[i].view.Key()) << i;
      EXPECT_EQ(rec->views[i].bins, want[i].bins) << i;
      EXPECT_EQ(rec->views[i].utility, want[i].utility) << i;
    }
  }
}

// Chunked tables through the whole Recommender: with 8-row chunks every
// dimension is coded chunk by chunk and fused builds merge many chunk
// dictionaries; with 8192-row chunks "hc" crosses the dictionary cap in
// its first chunk, so one build mixes coded and sorted dimensions.
// Linear-Linear at 1, 2 and 8 threads must reproduce the direct-scan
// oracle's top-k bit for bit (integral measures).
TEST(RebinChunkedTest, DictionaryPathTopKMatchesOracle) {
  for (uint64_t param = 1; param <= 4; ++param) {
    const uint64_t seed = testutil::FuzzSeed(param ^ 0xC0DEULL);
    SCOPED_TRACE(testutil::FuzzTrace(param, seed));
    common::Rng rng(seed * 97);
    FuzzConfig config;
    config.integral_measures = true;
    config.high_cardinality = param % 2 == 0;
    config.chunk_rows = config.high_cardinality ? 8192 : 8;
    const data::Dataset ds = RandomDataset(seed, config);
    auto recommender = Recommender::Create(ds);
    ASSERT_TRUE(recommender.ok()) << recommender.status().ToString();

    SearchOptions base;
    base.weights = RandomWeights(rng);
    base.k = 3;
    base.horizontal = HorizontalStrategy::kLinear;
    base.vertical = VerticalStrategy::kLinear;
    const std::vector<ScoredView> want =
        testutil::DirectLinearLinear(ds, recommender->space(), base).views;
    for (const int threads : {1, 2, 8}) {
      SCOPED_TRACE("threads=" + std::to_string(threads));
      SearchOptions options = base;
      options.num_threads = threads;
      auto rec = recommender->Recommend(options);
      ASSERT_TRUE(rec.ok()) << rec.status().ToString();
      ASSERT_EQ(rec->views.size(), want.size());
      for (size_t i = 0; i < want.size(); ++i) {
        SCOPED_TRACE("rank " + std::to_string(i));
        EXPECT_EQ(rec->views[i].view.Key(), want[i].view.Key());
        EXPECT_EQ(rec->views[i].bins, want[i].bins);
        EXPECT_EQ(rec->views[i].utility, want[i].utility);
      }
    }
  }
}

// === Recommender-level differential: whole searches through the base
// path (Linear-Linear serial and at 8 threads, MuVE-MuVE) against the
// oracle's direct-scan Linear-Linear top-k.  The name keeps the
// historical framing: cache on (the Recommender) vs cache off (the
// oracle). ===

class RebinRecommenderTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RebinRecommenderTest, TopKIdenticalWithCacheOnAndOff) {
  const uint64_t seed = testutil::FuzzSeed(GetParam() ^ 0x5EC0ULL);
  SCOPED_TRACE(testutil::FuzzTrace(GetParam(), seed));
  common::Rng rng(seed * 811);

  FuzzConfig config;
  config.integral_measures = (GetParam() % 2) == 0;
  config.moment_functions = rng.Bernoulli(0.4);
  config.minmax_functions = rng.Bernoulli(0.4);
  const data::Dataset ds = RandomDataset(seed, config);
  auto recommender = Recommender::Create(ds);
  ASSERT_TRUE(recommender.ok()) << recommender.status().ToString();

  SearchOptions base;
  base.weights = RandomWeights(rng);
  base.k = 1 + static_cast<int>(rng.UniformInt(0, 5));
  base.distance = static_cast<DistanceKind>(rng.UniformInt(0, 5));
  base.horizontal = HorizontalStrategy::kLinear;
  base.vertical = VerticalStrategy::kLinear;
  const std::vector<ScoredView> want =
      testutil::DirectLinearLinear(ds, recommender->space(), base).views;
  const bool all_exact = config.integral_measures && !config.moment_functions;
  auto expect_utility = [&](double got, double expected) {
    if (all_exact) {
      // Bit-identical objectives => bit-identical utilities.
      EXPECT_EQ(got, expected);
    } else {
      EXPECT_NEAR(got, expected, 1e-9 * (1.0 + std::abs(expected)));
    }
  };

  for (const int threads : {1, 8}) {
    SCOPED_TRACE("Linear-Linear threads=" + std::to_string(threads));
    SearchOptions options = base;
    options.num_threads = threads;
    auto rec = recommender->Recommend(options);
    ASSERT_TRUE(rec.ok()) << rec.status().ToString();
    ASSERT_EQ(rec->views.size(), want.size());
    for (size_t i = 0; i < want.size(); ++i) {
      SCOPED_TRACE("rank " + std::to_string(i));
      EXPECT_EQ(rec->views[i].view.Key(), want[i].view.Key());
      EXPECT_EQ(rec->views[i].bins, want[i].bins);
      expect_utility(rec->views[i].utility, want[i].utility);
    }
    // The observable saving: only the two fused build passes (plus any
    // direct MIN/MAX / categorical probes) touch rows.
    EXPECT_GT(rec->stats.base_builds, 0);
    EXPECT_EQ(rec->stats.build_rows_scanned,
              static_cast<int64_t>(ds.target_rows.size() +
                                   ds.all_rows.size()));
  }

  // MuVE-MuVE is exact: the same top-k utilities as the exhaustive search
  // (tied views may swap).
  SearchOptions muve = base;
  muve.horizontal = HorizontalStrategy::kMuve;
  muve.vertical = VerticalStrategy::kMuve;
  auto rec = recommender->Recommend(muve);
  ASSERT_TRUE(rec.ok()) << rec.status().ToString();
  ASSERT_EQ(rec->views.size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    SCOPED_TRACE("MuVE-MuVE rank " + std::to_string(i));
    expect_utility(rec->views[i].utility, want[i].utility);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RebinRecommenderTest,
                         ::testing::Range<uint64_t>(1, 13));

}  // namespace
}  // namespace muve::core
