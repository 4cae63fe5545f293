// Differential oracle for the fused morsel-parallel scan engine: one
// fused pass over a row set must produce, for EVERY requested (A, M)
// pair, the same base histogram as an independent reference builder
// (gather -> stable sort -> row-order accumulation, the algorithm the
// pre-fusion per-pair builder implemented).
//
// Contract being pinned (see the header of storage/fused_scan.h):
//   * fine-bin key sets and per-bin COUNTS — bit-identical, always;
//   * per-bin sums / sums of squares — bit-identical with a single
//     morsel (row-order association) and for integer-valued measures at
//     any morsel size; within 1e-9 relative error otherwise;
//   * thread-count invariance — for a FIXED morsel size, 1-worker,
//     8-worker, and inline (no pool) runs are bitwise identical;
//   * a single-pair, single-morsel build — bit-identical to the
//     reference, preserving the cache's bit-exactness contract;
//   * both Phase A paths (merged chunk dictionaries and the sorted
//     gather) — bit-identical to a reference that accumulates per morsel
//     in row order and folds the partials in morsel order, at any morsel
//     size and thread count.
//
// Seeding: per-case seeds derive from MUVE_FUZZ_SEED (fixed default) via
// tests/fuzz_util.h; every failure prints the seeds to reproduce it.

#include "storage/fused_scan.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "base_build_util.h"
#include "common/logging.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "fuzz_util.h"
#include "storage/base_histogram_cache.h"
#include "storage/predicate.h"
#include "storage/table.h"

namespace muve::storage {
namespace {

// Independent reference: gather the (dimension value, measure value)
// pairs of rows valid on both columns, stable-sort by dimension value,
// accumulate count / sum / sum_sq per distinct value in row order.
BaseHistogram ReferenceBuild(const Table& table, const RowSet& rows,
                             const std::string& dimension,
                             const std::string& measure) {
  auto dim_col = table.ColumnByName(dimension);
  auto mea_col = table.ColumnByName(measure);
  MUVE_CHECK(dim_col.ok() && mea_col.ok());
  struct Pair {
    double key;
    double value;
  };
  std::vector<Pair> pairs;
  for (const size_t row : rows) {
    if ((*dim_col)->IsNull(row) || (*mea_col)->IsNull(row)) continue;
    auto k = (*dim_col)->ValueAt(row).ToDouble();
    auto v = (*mea_col)->ValueAt(row).ToDouble();
    MUVE_CHECK(k.ok() && v.ok());
    pairs.push_back({*k, *v});
  }
  std::stable_sort(pairs.begin(), pairs.end(),
                   [](const Pair& a, const Pair& b) { return a.key < b.key; });
  BaseHistogram h;
  h.source_rows = static_cast<int64_t>(rows.size());
  h.prefix_counts.push_back(0);
  h.prefix_sums.push_back(0.0);
  h.prefix_sum_sqs.push_back(0.0);
  size_t i = 0;
  while (i < pairs.size()) {
    const double key = pairs[i].key;
    int64_t count = 0;
    double sum = 0.0;
    double sum_sq = 0.0;
    while (i < pairs.size() && pairs[i].key == key) {
      ++count;
      sum += pairs[i].value;
      sum_sq += pairs[i].value * pairs[i].value;
      ++i;
    }
    h.values.push_back(key);
    h.sums.push_back(sum);
    h.sum_sqs.push_back(sum_sq);
    h.prefix_counts.push_back(h.prefix_counts.back() + count);
    h.prefix_sums.push_back(h.prefix_sums.back() + sum);
    h.prefix_sum_sqs.push_back(h.prefix_sum_sqs.back() + sum_sq);
  }
  return h;
}

// Reference for one morsel partitioning: per morsel, count / sum /
// sum_sq per distinct dimension value accumulate from zero in row order;
// the partials then fold in ascending morsel order.  That is the
// association the engine documents, so the comparison is bitwise at any
// morsel size, whatever the measure values.
BaseHistogram MorselReferenceBuild(const Table& table, const RowSet& rows,
                                   const std::string& dimension,
                                   const std::string& measure,
                                   size_t morsel_size) {
  const Column& dim = **table.ColumnByName(dimension);
  const Column& mea = **table.ColumnByName(measure);
  std::vector<double> values;
  for (const uint32_t row : rows) {
    if (!dim.IsNull(row)) values.push_back(dim.NumericAt(row));
  }
  std::sort(values.begin(), values.end());
  values.erase(std::unique(values.begin(), values.end()), values.end());
  const size_t d = values.size();
  const size_t morsels =
      rows.empty() ? 0 : (rows.size() + morsel_size - 1) / morsel_size;
  std::vector<int64_t> counts(d * morsels, 0);
  std::vector<double> sums(d * morsels, 0.0);
  std::vector<double> sum_sqs(d * morsels, 0.0);
  for (size_t p = 0; p < rows.size(); ++p) {
    const uint32_t row = rows[p];
    if (dim.IsNull(row) || mea.IsNull(row)) continue;
    const size_t j = static_cast<size_t>(
        std::lower_bound(values.begin(), values.end(), dim.NumericAt(row)) -
        values.begin());
    const size_t idx = (p / morsel_size) * d + j;
    const double v = mea.NumericAt(row);
    ++counts[idx];
    sums[idx] += v;
    sum_sqs[idx] += v * v;
  }
  BaseHistogram h;
  h.source_rows = static_cast<int64_t>(rows.size());
  h.table_rows = static_cast<int64_t>(table.num_rows());
  h.prefix_counts.push_back(0);
  h.prefix_sums.push_back(0.0);
  h.prefix_sum_sqs.push_back(0.0);
  for (size_t j = 0; j < d; ++j) {
    int64_t count = 0;
    double sum = 0.0;
    double sum_sq = 0.0;
    for (size_t m = 0; m < morsels; ++m) {
      count += counts[m * d + j];
      sum += sums[m * d + j];
      sum_sq += sum_sqs[m * d + j];
    }
    if (count == 0) continue;
    h.values.push_back(values[j]);
    h.sums.push_back(sum);
    h.sum_sqs.push_back(sum_sq);
    h.prefix_counts.push_back(h.prefix_counts.back() + count);
    h.prefix_sums.push_back(h.prefix_sums.back() + sum);
    h.prefix_sum_sqs.push_back(h.prefix_sum_sqs.back() + sum_sq);
  }
  return h;
}

void ExpectSameShape(const BaseHistogram& got, const BaseHistogram& want) {
  ASSERT_EQ(got.values, want.values);
  ASSERT_EQ(got.prefix_counts, want.prefix_counts);
  ASSERT_EQ(got.source_rows, want.source_rows);
}

// Bitwise equality (single morsel / integral measures / thread pairs).
void ExpectBitIdentical(const BaseHistogram& got, const BaseHistogram& want) {
  ExpectSameShape(got, want);
  EXPECT_EQ(got.sums, want.sums);
  EXPECT_EQ(got.sum_sqs, want.sum_sqs);
  EXPECT_EQ(got.prefix_sums, want.prefix_sums);
  EXPECT_EQ(got.prefix_sum_sqs, want.prefix_sum_sqs);
}

void ExpectClose(const BaseHistogram& got, const BaseHistogram& want,
                 double rel_tol) {
  ExpectSameShape(got, want);
  for (size_t j = 0; j < want.sums.size(); ++j) {
    const double scale =
        std::max({1.0, std::abs(want.sums[j]), std::abs(want.sum_sqs[j])});
    EXPECT_NEAR(got.sums[j], want.sums[j], rel_tol * scale) << "bin " << j;
    EXPECT_NEAR(got.sum_sqs[j], want.sum_sqs[j], rel_tol * scale)
        << "bin " << j;
  }
}

struct FuzzWorkload {
  std::shared_ptr<Table> table;
  RowSet rows;
  std::vector<FusedScanPair> pairs;
};

// Random table (2-3 int dimensions, 1-3 double measures with sporadic
// NULLs and optional NULL dimension cells), a random predicate-selected
// row subset, and every (dimension, measure) pair.
FuzzWorkload RandomWorkload(uint64_t seed, bool integral_measures) {
  common::Rng rng(seed);
  const int num_dims = 2 + static_cast<int>(rng.UniformInt(0, 1));
  const int num_measures = 1 + static_cast<int>(rng.UniformInt(0, 2));
  const size_t rows = 1 + static_cast<size_t>(rng.UniformInt(0, 400));

  Schema schema;
  for (int d = 0; d < num_dims; ++d) {
    MUVE_CHECK(schema
                   .AddField({"dim" + std::to_string(d),
                              ValueType::kInt64})
                   .ok());
  }
  for (int m = 0; m < num_measures; ++m) {
    MUVE_CHECK(schema
                   .AddField({"m" + std::to_string(m),
                              ValueType::kDouble})
                   .ok());
  }
  MUVE_CHECK(schema.AddField({"sel", ValueType::kInt64}).ok());

  auto table = std::make_shared<Table>(schema);
  for (size_t r = 0; r < rows; ++r) {
    std::vector<Value> row;
    for (int d = 0; d < num_dims; ++d) {
      if (rng.Bernoulli(0.05)) {
        row.emplace_back();  // NULL dimension cell
      } else {
        row.emplace_back(rng.UniformInt(0, 25));
      }
    }
    for (int m = 0; m < num_measures; ++m) {
      if (rng.Bernoulli(0.08)) {
        row.emplace_back();  // NULL measure
      } else {
        double v = rng.Uniform(-10.0, 10.0);
        if (integral_measures) v = std::floor(v);
        row.emplace_back(v);
      }
    }
    row.emplace_back(rng.UniformInt(0, 2));
    MUVE_CHECK(table->AppendRow(row).ok());
  }

  FuzzWorkload w;
  w.table = table;
  // Row subset selected through the predicate path (sel <= 1 keeps ~2/3).
  auto pred = MakeComparison("sel", CompareOp::kLe,
                             Value(rng.UniformInt(0, 1)));
  auto filtered = Filter(*table, pred.get());
  MUVE_CHECK(filtered.ok());
  w.rows = std::move(filtered).value();
  for (int d = 0; d < num_dims; ++d) {
    for (int m = 0; m < num_measures; ++m) {
      w.pairs.push_back(
          {"dim" + std::to_string(d), "m" + std::to_string(m)});
    }
  }
  return w;
}

TEST(FusedScanDifferentialTest, FuzzedFusedMatchesReference) {
  common::ThreadPool pool_1(1);
  common::ThreadPool pool_8(8);
  FusedScanScratch scratch;

  for (uint64_t c = 0; c < 60; ++c) {
    const uint64_t seed = testutil::FuzzSeed(c);
    SCOPED_TRACE(testutil::FuzzTrace(c, seed));
    const bool integral = c % 3 == 0;
    FuzzWorkload w = RandomWorkload(seed, integral);

    std::vector<BaseHistogram> reference;
    for (const FusedScanPair& p : w.pairs) {
      reference.push_back(
          ReferenceBuild(*w.table, w.rows, p.dimension, p.measure));
    }

    common::Rng rng(seed ^ 0xF05EDULL);
    const size_t morsel_sizes[] = {
        7, 64, std::max<size_t>(w.rows.size(), 1), 0 /* engine default */};
    for (const size_t morsel_size : morsel_sizes) {
      SCOPED_TRACE("morsel_size=" + std::to_string(morsel_size));
      // Inline, 1-worker, and 8-worker runs of the SAME partitioning.
      FusedScanStats stats;
      auto inline_run = FusedBuildBaseHistograms(
          *w.table, w.rows, w.pairs, nullptr, morsel_size, &stats, &scratch);
      ASSERT_TRUE(inline_run.ok()) << inline_run.status().ToString();
      auto pool1_run = FusedBuildBaseHistograms(*w.table, w.rows, w.pairs,
                                                &pool_1, morsel_size);
      ASSERT_TRUE(pool1_run.ok()) << pool1_run.status().ToString();
      auto pool8_run = FusedBuildBaseHistograms(*w.table, w.rows, w.pairs,
                                                &pool_8, morsel_size);
      ASSERT_TRUE(pool8_run.ok()) << pool8_run.status().ToString();

      ASSERT_EQ(inline_run->size(), w.pairs.size());
      const size_t effective =
          morsel_size == 0 ? kDefaultFusedMorselSize : morsel_size;
      const bool single_morsel = effective >= w.rows.size();
      EXPECT_EQ(stats.morsels,
                static_cast<int64_t>(
                    std::max<size_t>(
                        (w.rows.size() + effective - 1) / effective, 1)));

      for (size_t i = 0; i < w.pairs.size(); ++i) {
        SCOPED_TRACE(w.pairs[i].dimension + "/" + w.pairs[i].measure);
        // Thread-count invariance is bitwise, unconditionally.
        ExpectBitIdentical((*pool1_run)[i], (*inline_run)[i]);
        ExpectBitIdentical((*pool8_run)[i], (*inline_run)[i]);
        // Against the reference: bit-exact when association cannot
        // differ (single morsel, or exactly representable partials).
        if (single_morsel || integral) {
          ExpectBitIdentical((*inline_run)[i], reference[i]);
        } else {
          ExpectClose((*inline_run)[i], reference[i], 1e-9);
        }
      }
    }
  }
}

// One pair, one morsel — the build an evaluator's empty pin runs — is
// bit-identical to the reference, with the scratch reused across builds.
TEST(FusedScanDifferentialTest, SinglePairOneMorselBuildIsBitIdentical) {
  for (uint64_t c = 0; c < 20; ++c) {
    const uint64_t seed = testutil::FuzzSeed(c + 1000);
    SCOPED_TRACE(testutil::FuzzTrace(c + 1000, seed));
    FuzzWorkload w = RandomWorkload(seed, /*integral_measures=*/false);
    FusedScanScratch scratch;
    for (const FusedScanPair& p : w.pairs) {
      auto built = testutil::BuildOne(*w.table, w.rows, p.dimension,
                                      p.measure, &scratch);
      ASSERT_TRUE(built.ok()) << built.status().ToString();
      ExpectBitIdentical(
          *built, ReferenceBuild(*w.table, w.rows, p.dimension, p.measure));
    }
  }
}

// A table whose dimensions take both Phase A paths: x (a few int64
// values) and d (halves, -0.0 and 0.0) are coded in every chunk; hc
// (int64, nearly all distinct) is coded in 64-row chunks, but with
// 8192-row chunks its first chunk crosses the dictionary cap and only
// the second stays coded.  Row sets: all rows, a predicate subset, and a
// sparse subset smaller than the merged dictionaries (sorted path).
TEST(FusedScanDifferentialTest, DictionaryPathMatchesReferenceBitForBit) {
  common::ThreadPool pool_1(1);
  common::ThreadPool pool_2(2);
  common::ThreadPool pool_8(8);
  const double doubles[] = {-0.0, 0.0, 1.5, -2.5};
  for (uint64_t c = 0; c < 6; ++c) {
    const uint64_t seed = testutil::FuzzSeed(c + 2000);
    SCOPED_TRACE(testutil::FuzzTrace(c + 2000, seed));
    common::Rng rng(seed);
    const size_t chunk_rows = c % 2 == 0 ? 64 : 8192;
    SCOPED_TRACE("chunk_rows=" + std::to_string(chunk_rows));
    const size_t num_rows =
        chunk_rows == 64 ? 500 + static_cast<size_t>(rng.UniformInt(0, 2500))
                         : 8192 + static_cast<size_t>(rng.UniformInt(1, 3000));
    Table table(Schema({{"x", ValueType::kInt64},
                        {"d", ValueType::kDouble},
                        {"hc", ValueType::kInt64},
                        {"m", ValueType::kDouble},
                        {"k", ValueType::kInt64},
                        {"sel", ValueType::kInt64}}),
                chunk_rows);
    for (size_t r = 0; r < num_rows; ++r) {
      std::vector<Value> row;
      row.emplace_back(rng.UniformInt(0, 30));
      row.emplace_back(rng.Bernoulli(0.3) ? doubles[rng.UniformInt(0, 3)]
                                          : 0.5 * rng.UniformInt(-40, 40));
      row.emplace_back(rng.UniformInt(0, 1000000));
      row.emplace_back(rng.Uniform(-10.0, 10.0));
      row.emplace_back(rng.UniformInt(-100, 100));
      row.emplace_back(rng.UniformInt(0, 3));
      for (size_t col = 0; col < 5; ++col) {
        if (rng.Bernoulli(0.05)) row[col] = Value();
      }
      ASSERT_TRUE(table.AppendRow(row).ok());
    }
    std::vector<FusedScanPair> pairs;
    for (const char* dim : {"x", "d", "hc"}) {
      for (const char* mea : {"m", "k"}) pairs.push_back({dim, mea});
    }
    auto pred = MakeComparison("sel", CompareOp::kLe, Value(int64_t{1}));
    auto subset = Filter(table, pred.get());
    ASSERT_TRUE(subset.ok());
    RowSet sparse;
    for (size_t r = 3; r < num_rows; r += 499) {
      sparse.push_back(static_cast<uint32_t>(r));
    }
    const RowSet all = AllRows(num_rows);
    // Dimensions expected on the coded path for the all-rows build.
    const int64_t coded_all_rows = chunk_rows == 64 ? 3 : 2;

    for (const RowSet* rows :
         std::vector<const RowSet*>{&all, &*subset, &sparse}) {
      SCOPED_TRACE("rows=" + std::to_string(rows->size()));
      for (const size_t morsel_size :
           {size_t{1024}, rows->size(), size_t{0}}) {
        SCOPED_TRACE("morsel_size=" + std::to_string(morsel_size));
        const size_t effective =
            morsel_size == 0 ? kDefaultFusedMorselSize : morsel_size;
        std::vector<BaseHistogram> reference;
        for (const FusedScanPair& p : pairs) {
          reference.push_back(MorselReferenceBuild(
              table, *rows, p.dimension, p.measure, effective));
        }
        for (common::ThreadPool* pool :
             {static_cast<common::ThreadPool*>(nullptr), &pool_1, &pool_2,
              &pool_8}) {
          SCOPED_TRACE(pool == nullptr ? std::string("inline")
                                       : std::to_string(pool->num_workers()) +
                                             " threads");
          FusedScanStats stats;
          auto built = FusedBuildBaseHistograms(table, *rows, pairs, pool,
                                                morsel_size, &stats);
          ASSERT_TRUE(built.ok()) << built.status().ToString();
          if (rows == &all) {
            EXPECT_EQ(stats.coded_dimensions, coded_all_rows);
          }
          if (rows == &sparse) {
            EXPECT_EQ(stats.coded_dimensions, 0);
          }
          for (size_t i = 0; i < pairs.size(); ++i) {
            SCOPED_TRACE(pairs[i].dimension + "/" + pairs[i].measure);
            ExpectBitIdentical((*built)[i], reference[i]);
          }
        }
      }
    }
  }
}

TEST(FusedScanDifferentialTest, EmptyRowSetAndEmptyPairs) {
  FuzzWorkload w = RandomWorkload(testutil::FuzzSeed(7), false);
  const RowSet empty;
  auto built =
      FusedBuildBaseHistograms(*w.table, empty, w.pairs);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  for (const BaseHistogram& h : *built) {
    EXPECT_EQ(h.num_fine_bins(), 0u);
    EXPECT_EQ(h.source_rows, 0);
    EXPECT_EQ(h.prefix_counts, std::vector<int64_t>{0});
  }
  auto none = FusedBuildBaseHistograms(*w.table, w.rows, {});
  ASSERT_TRUE(none.ok());
  EXPECT_TRUE(none->empty());
}

TEST(FusedScanDifferentialTest, ErrorsMirrorPerPairBuilder) {
  Schema schema({{"s", ValueType::kString}, {"m", ValueType::kDouble}});
  Table table(schema);
  ASSERT_TRUE(table.AppendRow({Value("a"), Value(1.0)}).ok());
  const RowSet rows = AllRows(table.num_rows());

  auto string_dim =
      FusedBuildBaseHistograms(table, rows, {{"s", "m"}});
  EXPECT_FALSE(string_dim.ok());
  auto string_measure =
      FusedBuildBaseHistograms(table, rows, {{"m", "s"}});
  EXPECT_FALSE(string_measure.ok());
  auto unknown =
      FusedBuildBaseHistograms(table, rows, {{"nope", "m"}});
  EXPECT_FALSE(unknown.ok());
}

// Cache-level fused build: one FusedBuild call populates every missing
// key, skips already-cached keys, and hands back every pair's histogram.
TEST(FusedScanDifferentialTest, CacheFusedBuildPopulatesMissingPairs) {
  FuzzWorkload w = RandomWorkload(testutil::FuzzSeed(42), false);
  BaseHistogramCache cache;

  // Pre-populate the first pair through a one-pair read.
  const std::string pre_key =
      BaseHistogramKey(true, w.pairs[0].dimension, w.pairs[0].measure);
  auto pre = testutil::FetchOne(cache, pre_key, *w.table, w.rows,
                                w.pairs[0].dimension, w.pairs[0].measure);
  ASSERT_TRUE(pre.ok());
  ASSERT_TRUE(pre->built);

  BaseHistogramCache::FusedHistogramBuildRequest request;
  request.rows = &w.rows;
  for (const FusedScanPair& p : w.pairs) {
    request.pairs.push_back(
        {BaseHistogramKey(true, p.dimension, p.measure), p.dimension,
         p.measure});
  }
  BaseHistogramCache::FusedBuildOutcome outcome;
  ASSERT_TRUE(cache.FusedBuild(*w.table, request, &outcome).ok());
  EXPECT_EQ(outcome.passes, 1);
  EXPECT_EQ(outcome.already_cached, 1);
  EXPECT_EQ(outcome.histograms_built,
            static_cast<int64_t>(w.pairs.size()) - 1);
  EXPECT_EQ(outcome.rows_scanned, static_cast<int64_t>(w.rows.size()));
  ASSERT_EQ(outcome.histograms.size(), w.pairs.size());
  // The cached pair comes back as the entry it already was.
  EXPECT_EQ(outcome.histograms[0].get(), pre->histogram.get());

  // Every pair is now resident, handed back, and matches the reference.
  for (size_t i = 0; i < w.pairs.size(); ++i) {
    const FusedScanPair& p = w.pairs[i];
    const std::string key = BaseHistogramKey(true, p.dimension, p.measure);
    ASSERT_TRUE(cache.Contains(key));
    auto got = testutil::FetchOne(cache, key, *w.table, w.rows, p.dimension,
                                  p.measure);
    ASSERT_TRUE(got.ok());
    EXPECT_FALSE(got->built) << key;
    EXPECT_EQ(got->histogram.get(), outcome.histograms[i].get()) << key;
    ExpectBitIdentical(
        *got->histogram,
        ReferenceBuild(*w.table, w.rows, p.dimension, p.measure));
  }

  // A second fused build is a no-op: everything already cached.
  BaseHistogramCache::FusedBuildOutcome second;
  ASSERT_TRUE(cache.FusedBuild(*w.table, request, &second).ok());
  EXPECT_EQ(second.passes, 0);
  EXPECT_EQ(second.histograms_built, 0);
  EXPECT_EQ(second.already_cached,
            static_cast<int64_t>(w.pairs.size()));
}

}  // namespace
}  // namespace muve::storage
