#include "core/view.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "dimension_oracle.h"
#include "fuzz_util.h"
#include "test_util.h"

namespace muve::core {
namespace {

TEST(ViewTest, LabelAndKey) {
  const View v{"MP", "3PAr", storage::AggregateFunction::kSum};
  EXPECT_EQ(v.Label(), "SUM(3PAr) BY MP");
  EXPECT_EQ(v.Key(), "mp|3par|SUM");
  EXPECT_EQ(v, (View{"MP", "3PAr", storage::AggregateFunction::kSum}));
  EXPECT_FALSE(v == (View{"MP", "3PAr", storage::AggregateFunction::kAvg}));
}

TEST(ViewSpaceTest, EnumeratesCrossProduct) {
  const data::Dataset ds = testutil::MakeToyDataset();
  auto space = ViewSpace::Create(ds);
  ASSERT_TRUE(space.ok()) << space.status().ToString();
  // 2 dims x 2 measures x 2 functions.
  EXPECT_EQ(space->views().size(), 8u);
  // Workload order: dimension-major.
  EXPECT_EQ(space->views()[0].dimension, "x");
  EXPECT_EQ(space->views()[0].measure, "m1");
  EXPECT_EQ(space->views()[7].dimension, "y");
  EXPECT_EQ(space->views()[7].measure, "m2");
}

// Create resolves each view's routing once: its own index, its
// dimension's, and the deduplicated (A, M) base pair that serves it —
// none for MIN/MAX.
TEST(ViewSpaceTest, ResolvesIndicesAndBasePairs) {
  data::Dataset ds = testutil::MakeToyDataset();
  ds.functions = {storage::AggregateFunction::kSum,
                  storage::AggregateFunction::kMin,
                  storage::AggregateFunction::kAvg};
  auto space = ViewSpace::Create(ds);
  ASSERT_TRUE(space.ok()) << space.status().ToString();
  // 2 dims x 2 measures, each pair shared by SUM and AVG.
  ASSERT_EQ(space->base_pairs().size(), 4u);
  EXPECT_EQ(space->base_pairs()[0].dimension, "x");
  EXPECT_EQ(space->base_pairs()[0].measure, "m1");
  for (size_t i = 0; i < space->views().size(); ++i) {
    const View& view = space->views()[i];
    SCOPED_TRACE(view.Label());
    EXPECT_EQ(view.index, static_cast<int>(i));
    EXPECT_EQ(space->dimensions()[view.dimension_index].name,
              view.dimension);
    if (view.function == storage::AggregateFunction::kMin) {
      EXPECT_EQ(view.base_pair, -1);
      continue;
    }
    ASSERT_GE(view.base_pair, 0);
    const BasePair& pair = space->base_pairs()[view.base_pair];
    EXPECT_EQ(pair.dimension, view.dimension);
    EXPECT_EQ(pair.measure, view.measure);
  }
}

TEST(ViewSpaceTest, DimensionInfoRangesAndBins) {
  const data::Dataset ds = testutil::MakeToyDataset();
  auto space = ViewSpace::Create(ds);
  ASSERT_TRUE(space.ok());
  const DimensionInfo& x = space->dimension_info("x");
  EXPECT_DOUBLE_EQ(x.lo, 0.0);
  EXPECT_DOUBLE_EQ(x.hi, 29.0);
  EXPECT_EQ(x.max_bins, 29);
  EXPECT_EQ(x.distinct_values, 30u);
  const DimensionInfo& y = space->dimension_info("y");
  EXPECT_EQ(y.max_bins, 9);
  EXPECT_EQ(space->max_bins_overall(), 29);
}

TEST(ViewSpaceTest, TotalBinnedViews) {
  const data::Dataset ds = testutil::MakeToyDataset();
  auto space = ViewSpace::Create(ds);
  ASSERT_TRUE(space.ok());
  // N_B = sum_j 2 * |M| * |F| * B_j = 2*2*2*(29+9).
  EXPECT_EQ(space->TotalBinnedViews(), 2 * 2 * 2 * (29 + 9));
}

TEST(ViewSpaceTest, RejectsStringDimension) {
  data::Dataset ds = testutil::MakeToyDataset();
  ds.dimensions = {"grp"};
  EXPECT_FALSE(ViewSpace::Create(ds).ok());
}

TEST(ViewSpaceTest, RejectsUnknownColumns) {
  data::Dataset ds = testutil::MakeToyDataset();
  ds.dimensions = {"nope"};
  EXPECT_FALSE(ViewSpace::Create(ds).ok());
  ds = testutil::MakeToyDataset();
  ds.measures = {"nope"};
  EXPECT_FALSE(ViewSpace::Create(ds).ok());
}

TEST(ViewSpaceTest, RejectsEmptyWorkload) {
  data::Dataset ds = testutil::MakeToyDataset();
  ds.functions.clear();
  EXPECT_FALSE(ViewSpace::Create(ds).ok());
}

TEST(ViewSpaceTest, DegenerateSingleValueDimension) {
  // A dimension whose range is zero still yields max_bins = 1.
  data::Dataset ds = testutil::MakeToyDataset();
  auto table = std::make_shared<storage::Table>(storage::Schema({
      {"c", storage::ValueType::kInt64, storage::FieldRole::kDimension},
      {"m", storage::ValueType::kDouble, storage::FieldRole::kMeasure},
  }));
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(table
                    ->AppendRow({storage::Value(int64_t{7}),
                                 storage::Value(1.0 * i)})
                    .ok());
  }
  ds.table = table;
  ds.dimensions = {"c"};
  ds.measures = {"m"};
  ds.target_rows = {0, 1};
  ds.all_rows = storage::AllRows(5);
  auto space = ViewSpace::Create(ds);
  ASSERT_TRUE(space.ok());
  EXPECT_EQ(space->dimension_info("c").max_bins, 1);
}

// The fuzzed DimensionInfo tables' columns: i (small int64 range), big
// (int64 around 2^53, where neighbouring values round to one double), d
// (doubles including -0.0 and 0.0), hc (doubles, nearly all distinct:
// high-cardinality once a chunk holds more than kMaxNumericDictSize
// rows), s (strings) and the measure m.
storage::Schema DimensionFuzzSchema() {
  return storage::Schema({
      {"i", storage::ValueType::kInt64},
      {"big", storage::ValueType::kInt64},
      {"d", storage::ValueType::kDouble},
      {"hc", storage::ValueType::kDouble},
      {"s", storage::ValueType::kString},
      {"m", storage::ValueType::kDouble},
  });
}

// One row; NULL cells sprinkled except where `no_nulls` (so no column of
// a table is ever all-NULL).
std::vector<storage::Value> DimensionFuzzRow(common::Rng& rng,
                                             bool no_nulls) {
  constexpr int64_t kTwo53 = int64_t{1} << 53;
  const double doubles[] = {-0.0, 0.0, 1.5, -2.25};
  const char* strings[] = {"p", "q", "r", "s"};
  std::vector<storage::Value> row;
  row.emplace_back(rng.UniformInt(-20, 20));
  row.emplace_back(kTwo53 + rng.UniformInt(-8, 8));
  row.emplace_back(rng.Bernoulli(0.5) ? doubles[rng.UniformInt(0, 3)]
                                      : 0.5 * rng.UniformInt(-9, 9));
  row.emplace_back(rng.Uniform(0.0, 1000.0));
  row.emplace_back(strings[rng.UniformInt(0, 3)]);
  row.emplace_back(rng.Uniform(0.0, 1.0));
  if (!no_nulls) {
    for (size_t c = 0; c + 1 < row.size(); ++c) {
      if (rng.Bernoulli(0.1)) row[c] = storage::Value();
    }
  }
  return row;
}

// ViewSpace over `table` with every column as a numeric dimension, then
// as a categorical one, must agree with the row-reading oracle.
void ExpectDimensionInfoMatchesOracle(
    const std::shared_ptr<const storage::Table>& table) {
  data::Dataset ds;
  ds.table = table;
  ds.measures = {"m"};
  ds.functions = {storage::AggregateFunction::kSum};
  ds.dimensions = {"i", "big", "d", "hc"};
  auto numeric = ViewSpace::Create(ds);
  ASSERT_TRUE(numeric.ok()) << numeric.status().ToString();
  for (const std::string& name : ds.dimensions) {
    SCOPED_TRACE("numeric " + name);
    const DimensionInfo want =
        testutil::OracleDimensionInfo(*table, name, /*categorical=*/false);
    const DimensionInfo& got = numeric->dimension_info(name);
    EXPECT_FALSE(got.categorical);
    EXPECT_EQ(got.lo, want.lo);
    EXPECT_EQ(got.hi, want.hi);
    EXPECT_EQ(got.max_bins, want.max_bins);
    EXPECT_EQ(got.distinct_values, want.distinct_values);
  }
  ds.categorical_dimensions = {"i", "big", "d", "hc", "s"};
  ds.dimensions.clear();
  auto categorical = ViewSpace::Create(ds);
  ASSERT_TRUE(categorical.ok()) << categorical.status().ToString();
  for (const std::string& name : ds.categorical_dimensions) {
    SCOPED_TRACE("categorical " + name);
    const DimensionInfo& got = categorical->dimension_info(name);
    EXPECT_TRUE(got.categorical);
    EXPECT_EQ(got.max_bins, 1);
    EXPECT_EQ(got.distinct_values,
              testutil::OracleDimensionInfo(*table, name, true)
                  .distinct_values);
  }
}

// Tables built by appends that cross chunk boundaries, then grown on
// both sides of a Clone() — the two copies share the open tail chunk, so
// each side's first append copy-on-writes it.  With 8192-row chunks, hc's
// first chunk crosses the dictionary cap mid-append while its second
// chunk stays coded.
TEST(DimensionInfoTest, FuzzedTablesMatchRowReadingOracle) {
  const size_t chunk_sizes[] = {4, 16, 512, 8192};
  for (uint64_t c = 0; c < 24; ++c) {
    const uint64_t seed = testutil::FuzzSeed(c + 7000);
    SCOPED_TRACE(testutil::FuzzTrace(c + 7000, seed));
    common::Rng rng(seed);
    const size_t chunk_rows = chunk_sizes[c % 4];
    SCOPED_TRACE("chunk_rows=" + std::to_string(chunk_rows));
    const size_t rows =
        chunk_rows == 8192
            ? 8192 + static_cast<size_t>(rng.UniformInt(1, 3000))
            : 1 + static_cast<size_t>(rng.UniformInt(0, 600));
    const size_t split = 1 + static_cast<size_t>(rng.UniformInt(
                                 0, static_cast<int64_t>(rows) - 1));
    auto base =
        std::make_shared<storage::Table>(DimensionFuzzSchema(), chunk_rows);
    for (size_t r = 0; r < split; ++r) {
      ASSERT_TRUE(base->AppendRow(DimensionFuzzRow(rng, r == 0)).ok());
    }
    auto grown = std::make_shared<storage::Table>(base->Clone());
    for (size_t r = split; r < rows; ++r) {
      ASSERT_TRUE(grown->AppendRow(DimensionFuzzRow(rng, false)).ok());
    }
    const int64_t diverging = rng.UniformInt(1, 40);
    for (int64_t r = 0; r < diverging; ++r) {
      ASSERT_TRUE(base->AppendRow(DimensionFuzzRow(rng, false)).ok());
    }
    {
      SCOPED_TRACE("base");
      ExpectDimensionInfoMatchesOracle(base);
    }
    {
      SCOPED_TRACE("grown");
      ExpectDimensionInfoMatchesOracle(grown);
    }
  }
}

}  // namespace
}  // namespace muve::core
