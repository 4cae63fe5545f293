// Exactness fuzzing: on randomly generated datasets — random shapes,
// distributions, null patterns, and workloads — the three exact schemes
// (Linear-Linear, MuVE-Linear, MuVE-MuVE) must recommend top-k sets with
// identical utilities, and the exploration session must agree with them.
// This is the repository's strongest guard on the pruning logic: any
// unsound bound shows up here as a utility mismatch.
//
// Seeding: every case seed derives from MUVE_FUZZ_SEED (fixed default)
// via tests/fuzz_util.h, and every failure prints the seeds needed to
// reproduce it.

#include <gtest/gtest.h>

#include <memory>

#include "common/logging.h"
#include "common/rng.h"
#include "core/exploration_session.h"
#include "core/recommender.h"
#include "data/dataset.h"
#include "fuzz_util.h"
#include "storage/predicate.h"

namespace muve::core {
namespace {

data::Dataset RandomDataset(uint64_t seed) {
  common::Rng rng(seed);
  const int num_numeric = 1 + static_cast<int>(rng.UniformInt(0, 2));
  const bool with_categorical = rng.Bernoulli(0.4);
  const int num_measures = 1 + static_cast<int>(rng.UniformInt(0, 2));
  const size_t rows = 30 + static_cast<size_t>(rng.UniformInt(0, 90));

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
  if (with_categorical) {
    MUVE_CHECK(schema
                   .AddField({"cat", storage::ValueType::kString,
                              storage::FieldRole::kCategoricalDimension})
                   .ok());
    ds.categorical_dimensions.push_back("cat");
  }
  MUVE_CHECK(
      schema.AddField({"sel", storage::ValueType::kInt64}).ok());
  for (int m = 0; m < num_measures; ++m) {
    const std::string name = "m" + std::to_string(m);
    MUVE_CHECK(schema
                   .AddField({name, storage::ValueType::kDouble,
                              storage::FieldRole::kMeasure})
                   .ok());
    ds.measures.push_back(name);
  }

  auto table = std::make_shared<storage::Table>(schema);
  const char* cats[] = {"p", "q", "r", "s"};
  // Per-dimension range in [4, 40].
  std::vector<int64_t> ranges(static_cast<size_t>(num_numeric));
  for (auto& r : ranges) r = 4 + rng.UniformInt(0, 36);
  for (size_t i = 0; i < rows; ++i) {
    std::vector<storage::Value> row;
    for (int d = 0; d < num_numeric; ++d) {
      row.emplace_back(rng.UniformInt(0, ranges[static_cast<size_t>(d)]));
    }
    if (with_categorical) {
      row.emplace_back(cats[rng.UniformInt(0, 3)]);
    }
    row.emplace_back(rng.UniformInt(0, 2));  // sel in {0,1,2}
    for (int m = 0; m < num_measures; ++m) {
      if (rng.Bernoulli(0.05)) {
        row.emplace_back();  // occasional NULL measure
      } else {
        // Mixture: mostly positive, sometimes negative or zero.
        const double v = rng.Bernoulli(0.1)   ? 0.0
                         : rng.Bernoulli(0.1) ? rng.Uniform(-5, 0)
                                              : rng.Uniform(0, 20);
        row.emplace_back(v);
      }
    }
    MUVE_CHECK(table->AppendRow(row).ok());
  }

  ds.name = "fuzz" + std::to_string(seed);
  ds.table = table;
  ds.functions = {storage::AggregateFunction::kSum,
                  storage::AggregateFunction::kAvg,
                  storage::AggregateFunction::kCount};
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
  double d = rng.Uniform(0, 1);
  double a = rng.Uniform(0, 1);
  double s = rng.Uniform(0, 1);
  const double total = d + a + s;
  if (total <= 0) return Weights::Equal();
  return Weights{d / total, a / total, s / total};
}

class FuzzExactnessTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(FuzzExactnessTest, ExactSchemesAndSessionAgree) {
  const uint64_t seed = testutil::FuzzSeed(GetParam());
  SCOPED_TRACE(testutil::FuzzTrace(GetParam(), seed));
  common::Rng rng(seed * 977);
  const data::Dataset ds = RandomDataset(seed);
  auto recommender = Recommender::Create(ds);
  ASSERT_TRUE(recommender.ok()) << recommender.status().ToString();
  auto session = ExplorationSession::Create(ds);
  ASSERT_TRUE(session.ok());

  for (int trial = 0; trial < 3; ++trial) {
    SearchOptions base;
    base.weights = RandomWeights(rng);
    base.k = 1 + static_cast<int>(rng.UniformInt(0, 6));
    base.distance = static_cast<DistanceKind>(rng.UniformInt(0, 5));

    SearchOptions linear = base;
    linear.horizontal = HorizontalStrategy::kLinear;
    linear.vertical = VerticalStrategy::kLinear;
    SearchOptions muve_linear = base;
    muve_linear.horizontal = HorizontalStrategy::kMuve;
    muve_linear.vertical = VerticalStrategy::kLinear;
    SearchOptions muve_muve = base;
    muve_muve.horizontal = HorizontalStrategy::kMuve;
    muve_muve.vertical = VerticalStrategy::kMuve;

    auto r_lin = recommender->Recommend(linear);
    auto r_ml = recommender->Recommend(muve_linear);
    auto r_mm = recommender->Recommend(muve_muve);
    auto r_session =
        session->Recommend(base.weights, base.k, base.distance);
    ASSERT_TRUE(r_lin.ok());
    ASSERT_TRUE(r_ml.ok());
    ASSERT_TRUE(r_mm.ok());
    ASSERT_TRUE(r_session.ok());

    ASSERT_EQ(r_lin->views.size(), r_ml->views.size());
    ASSERT_EQ(r_lin->views.size(), r_mm->views.size());
    ASSERT_EQ(r_lin->views.size(), r_session->size());
    for (size_t i = 0; i < r_lin->views.size(); ++i) {
      const double expected = r_lin->views[i].utility;
      EXPECT_NEAR(r_ml->views[i].utility, expected, 1e-9)
          << "seed " << seed << " trial " << trial << " rank " << i
          << " weights " << base.weights.ToString();
      EXPECT_NEAR(r_mm->views[i].utility, expected, 1e-9)
          << "seed " << seed << " trial " << trial << " rank " << i
          << " weights " << base.weights.ToString();
      EXPECT_NEAR((*r_session)[i].utility, expected, 1e-9)
          << "seed " << seed << " trial " << trial << " rank " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzExactnessTest,
                         ::testing::Range<uint64_t>(1, 21));

// Sampling composes with pruning: with a fixed (sample_fraction,
// sample_seed), every exact scheme evaluates the same deterministic row
// sample, so the schemes must still agree with one another — the pruning
// bounds hold on the sampled estimates exactly as they do on full scans.
// Datasets with categorical dimensions are included (40% of seeds), which
// exercises the sampled categorical-deviation merge path.
class SampledFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SampledFuzzTest, ExactSchemesAgreeUnderSampling) {
  const uint64_t seed = testutil::FuzzSeed(GetParam() ^ 0xA5A5A5A5ULL);
  SCOPED_TRACE(testutil::FuzzTrace(GetParam(), seed));
  common::Rng rng(seed * 1723);
  const data::Dataset ds = RandomDataset(seed);
  auto recommender = Recommender::Create(ds);
  ASSERT_TRUE(recommender.ok()) << recommender.status().ToString();

  for (int trial = 0; trial < 2; ++trial) {
    SearchOptions base;
    base.weights = RandomWeights(rng);
    base.k = 1 + static_cast<int>(rng.UniformInt(0, 4));
    base.sample_fraction = 0.3 + rng.Uniform(0, 0.6);  // (0.3, 0.9)
    base.sample_seed = seed * 31 + static_cast<uint64_t>(trial);

    SearchOptions linear = base;
    linear.horizontal = HorizontalStrategy::kLinear;
    linear.vertical = VerticalStrategy::kLinear;
    SearchOptions muve_linear = base;
    muve_linear.horizontal = HorizontalStrategy::kMuve;
    muve_linear.vertical = VerticalStrategy::kLinear;
    SearchOptions muve_muve = base;  // defaults are MuVE-MuVE

    auto r_lin = recommender->Recommend(linear);
    auto r_ml = recommender->Recommend(muve_linear);
    auto r_mm = recommender->Recommend(muve_muve);
    ASSERT_TRUE(r_lin.ok()) << r_lin.status().ToString();
    ASSERT_TRUE(r_ml.ok());
    ASSERT_TRUE(r_mm.ok());

    ASSERT_EQ(r_lin->views.size(), r_ml->views.size());
    ASSERT_EQ(r_lin->views.size(), r_mm->views.size());
    for (size_t i = 0; i < r_lin->views.size(); ++i) {
      const double expected = r_lin->views[i].utility;
      EXPECT_NEAR(r_ml->views[i].utility, expected, 1e-9)
          << "seed " << seed << " trial " << trial << " rank " << i
          << " fraction " << base.sample_fraction;
      EXPECT_NEAR(r_mm->views[i].utility, expected, 1e-9)
          << "seed " << seed << " trial " << trial << " rank " << i
          << " fraction " << base.sample_fraction;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SampledFuzzTest,
                         ::testing::Range<uint64_t>(1, 13));

// Parallel determinism fuzz: for every vertical strategy and
// approximation, a 3-thread run recommends the same utilities as the
// serial run on random datasets.  Exact vertical-Linear schemes must
// match view-for-view; pruning schemes (vertical MuVE, refinement,
// skipping) must match utility-for-utility (their lagging threshold
// snapshots can change probe counts and tie resolution, never the
// recommended utilities).
class ParallelFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ParallelFuzzTest, EverySchemeIsThreadCountInvariant) {
  const uint64_t seed = testutil::FuzzSeed(GetParam() ^ 0x7171717171ULL);
  SCOPED_TRACE(testutil::FuzzTrace(GetParam(), seed));
  common::Rng rng(seed * 409);
  const data::Dataset ds = RandomDataset(seed + 100);  // fresh shapes
  auto recommender = Recommender::Create(ds);
  ASSERT_TRUE(recommender.ok()) << recommender.status().ToString();

  SearchOptions base;
  base.weights = RandomWeights(rng);
  base.k = 1 + static_cast<int>(rng.UniformInt(0, 4));

  std::vector<SearchOptions> schemes;
  for (const HorizontalStrategy h :
       {HorizontalStrategy::kLinear, HorizontalStrategy::kHillClimbing,
        HorizontalStrategy::kMuve}) {
    SearchOptions o = base;
    o.horizontal = h;
    o.vertical = VerticalStrategy::kLinear;
    schemes.push_back(o);
  }
  {
    SearchOptions muve_muve = base;
    muve_muve.horizontal = HorizontalStrategy::kMuve;
    muve_muve.vertical = VerticalStrategy::kMuve;
    schemes.push_back(muve_muve);
    SearchOptions refine = base;
    refine.horizontal = HorizontalStrategy::kLinear;
    refine.vertical = VerticalStrategy::kLinear;
    refine.approximation = VerticalApproximation::kRefinement;
    schemes.push_back(refine);
    SearchOptions skip = refine;
    skip.approximation = VerticalApproximation::kSkipping;
    schemes.push_back(skip);
  }

  for (const SearchOptions& serial : schemes) {
    SearchOptions parallel = serial;
    parallel.num_threads = 3;
    auto r_serial = recommender->Recommend(serial);
    auto r_parallel = recommender->Recommend(parallel);
    ASSERT_TRUE(r_serial.ok())
        << serial.SchemeName() << ": " << r_serial.status().ToString();
    ASSERT_TRUE(r_parallel.ok())
        << serial.SchemeName() << ": " << r_parallel.status().ToString();
    ASSERT_EQ(r_serial->views.size(), r_parallel->views.size())
        << serial.SchemeName();
    const bool pruning_shared_threshold =
        serial.vertical == VerticalStrategy::kMuve ||
        serial.approximation != VerticalApproximation::kNone;
    for (size_t i = 0; i < r_serial->views.size(); ++i) {
      EXPECT_NEAR(r_parallel->views[i].utility, r_serial->views[i].utility,
                  1e-12)
          << serial.SchemeName() << " seed " << seed << " rank " << i;
      if (!pruning_shared_threshold) {
        EXPECT_EQ(r_parallel->views[i].view.Key(),
                  r_serial->views[i].view.Key())
            << serial.SchemeName() << " seed " << seed << " rank " << i;
        EXPECT_EQ(r_parallel->views[i].bins, r_serial->views[i].bins)
            << serial.SchemeName() << " seed " << seed << " rank " << i;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParallelFuzzTest,
                         ::testing::Range<uint64_t>(1, 11));

}  // namespace
}  // namespace muve::core
