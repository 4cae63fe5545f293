// Incremental-ingest correctness: MergeBaseHistograms additivity and the
// ApplyAppendDeltas driver that patches a shared BaseHistogramCache in
// O(new rows) after a catalog append.  The pin: a delta-patched base is
// bit-identical (integer measures) to one rebuilt cold over the full
// post-append row set.

#include "storage/ingest.h"

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "base_build_util.h"
#include "common/rng.h"
#include "gtest/gtest.h"
#include "storage/base_histogram_cache.h"
#include "storage/predicate.h"
#include "storage/schema.h"
#include "storage/table.h"
#include "storage/value.h"

namespace muve::storage {
namespace {

using testutil::BuildOne;
using testutil::FetchOne;

constexpr size_t kChunkRows = 16;

Schema IngestSchema() {
  return Schema({Field("a", ValueType::kInt64, FieldRole::kDimension),
                 Field("m", ValueType::kInt64, FieldRole::kMeasure),
                 Field("tag", ValueType::kString, FieldRole::kNone)});
}

// Deterministic row i: a in [0, 12], m integer, tag cycles.
std::vector<Value> RowAt(size_t i) {
  const char* tags[] = {"red", "green", "blue"};
  return {Value(static_cast<int64_t>((i * 7) % 13)),
          Value(static_cast<int64_t>((i * 31) % 997)),
          Value(tags[i % 3])};
}

// Appends rows [begin, end) — the table then describes the post-append
// version, so bases built earlier carry the pre-append stamp.
void AppendRows(Table* t, size_t begin, size_t end) {
  for (size_t i = begin; i < end; ++i) {
    EXPECT_TRUE(t->AppendRow(RowAt(i)).ok());
  }
}

std::shared_ptr<Table> MakeTable(size_t rows) {
  auto t = std::make_shared<Table>(IngestSchema(), kChunkRows);
  AppendRows(t.get(), 0, rows);
  return t;
}

RowSet Range(size_t begin, size_t end) {
  RowSet rows;
  for (size_t i = begin; i < end; ++i) {
    rows.push_back(static_cast<uint32_t>(i));
  }
  return rows;
}

void ExpectSameHistogram(const BaseHistogram& got,
                         const BaseHistogram& expected) {
  ASSERT_EQ(got.values, expected.values);
  ASSERT_EQ(got.prefix_counts, expected.prefix_counts);
  // Integer measures: partial sums are exactly representable, so the
  // merge's re-association is bit-exact.
  ASSERT_EQ(got.sums, expected.sums);
  ASSERT_EQ(got.sum_sqs, expected.sum_sqs);
  ASSERT_EQ(got.prefix_sums, expected.prefix_sums);
  ASSERT_EQ(got.prefix_sum_sqs, expected.prefix_sum_sqs);
  EXPECT_EQ(got.source_rows, expected.source_rows);
}

TEST(MergeBaseHistogramsTest, PrefixPlusDeltaEqualsFullBuild) {
  auto table = MakeTable(100);
  for (const size_t split : {1u, 13u, 50u, 99u}) {
    auto prefix = BuildOne(*table, Range(0, split), "a", "m");
    auto delta = BuildOne(*table, Range(split, 100), "a", "m");
    auto full = BuildOne(*table, Range(0, 100), "a", "m");
    ASSERT_TRUE(prefix.ok() && delta.ok() && full.ok());

    const BaseHistogram merged = MergeBaseHistograms(*prefix, *delta);
    ExpectSameHistogram(merged, *full);
  }
}

TEST(MergeBaseHistogramsTest, DisjointDictionariesUnion) {
  // Prefix holds only even dimension values, delta only odd ones.
  Table t(IngestSchema(), kChunkRows);
  for (int64_t i = 0; i < 8; ++i) {
    ASSERT_TRUE(
        t.AppendRow({Value(2 * i), Value(i + 1), Value("x")}).ok());
  }
  for (int64_t i = 0; i < 8; ++i) {
    ASSERT_TRUE(
        t.AppendRow({Value(2 * i + 1), Value(10 * i), Value("x")}).ok());
  }
  auto prefix = BuildOne(t, Range(0, 8), "a", "m");
  auto delta = BuildOne(t, Range(8, 16), "a", "m");
  auto full = BuildOne(t, Range(0, 16), "a", "m");
  ASSERT_TRUE(prefix.ok() && delta.ok() && full.ok());
  ASSERT_EQ(prefix->num_fine_bins(), 8u);
  ASSERT_EQ(delta->num_fine_bins(), 8u);

  const BaseHistogram merged = MergeBaseHistograms(*prefix, *delta);
  ASSERT_EQ(merged.num_fine_bins(), 16u);
  ExpectSameHistogram(merged, *full);
}

class ApplyAppendDeltasTest : public ::testing::Test {
 protected:
  // Warms `cache` exactly as a pre-append recommendation would: bases
  // over the target rows (predicate-filtered) and the comparison rows
  // (everything), keyed "t|a|m" / "c|a|m", built from the first
  // `rows_before` rows of a table that holds exactly that many.
  void WarmCache(const Table& table, size_t rows_before, Predicate* pred,
                 BaseHistogramCache* cache) {
    ASSERT_EQ(table.num_rows(), rows_before);
    RowSet target;
    pred->FilterInto(table, Range(0, rows_before), &target, nullptr);
    for (const char* side : {"t|", "c|"}) {
      const RowSet& rows =
          side[0] == 't' ? target : Range(0, rows_before);
      auto result =
          FetchOne(*cache, std::string(side) + "a|m", table, rows, "a", "m");
      ASSERT_TRUE(result.ok());
      ASSERT_TRUE(result->built);
    }
  }
};

TEST_F(ApplyAppendDeltasTest, PatchedCacheMatchesColdRebuild) {
  constexpr size_t kBefore = 60;
  constexpr size_t kTotal = 100;
  auto table = MakeTable(kBefore);

  PredicatePtr pred =
      MakeComparison("a", CompareOp::kGe, Value(int64_t{7}));
  ASSERT_TRUE(pred->Bind(table->schema()).ok());

  BaseHistogramCache cache;
  WarmCache(*table, kBefore, pred.get(), &cache);
  AppendRows(table.get(), kBefore, kTotal);

  IngestDeltaRequest request;
  request.table = table.get();
  request.rows_before = kBefore;
  request.rows_appended = kTotal - kBefore;
  request.dimensions = {"a"};
  request.measures = {"m"};
  request.target_predicate = pred.get();
  request.cache = &cache;
  IngestDeltaStats stats;
  ASSERT_TRUE(ApplyAppendDeltas(request, &stats).ok());

  EXPECT_EQ(stats.pairs_considered, 2);
  EXPECT_EQ(stats.delta_merges, 2);
  // Comparison side scans exactly the appended rows; target side only
  // its predicate-matching subset.
  EXPECT_GE(stats.rows_scanned, static_cast<int64_t>(kTotal - kBefore));
  EXPECT_GT(stats.target_delta_rows, 0);
  EXPECT_LT(stats.target_delta_rows,
            static_cast<int64_t>(kTotal - kBefore));

  // Every patched entry must equal a cold build over the full row sets.
  RowSet full_target;
  pred->FilterInto(*table, Range(0, kTotal), &full_target, nullptr);
  const struct {
    const char* key;
    const RowSet rows;
  } sides[] = {{"t|a|m", full_target}, {"c|a|m", Range(0, kTotal)}};
  for (const auto& side : sides) {
    auto patched = FetchOne(cache, side.key, *table, side.rows, "a", "m");
    ASSERT_TRUE(patched.ok());
    // The staleness guard accepted the patched entry — no rebuild.
    EXPECT_FALSE(patched->built) << side.key;
    auto cold = BuildOne(*table, side.rows, "a", "m");
    ASSERT_TRUE(cold.ok());
    ExpectSameHistogram(*patched->histogram, *cold);
  }
}

// Random append schedules: warm once at a random initial size, apply a
// random sequence of delta patches, and require the final cached bases
// to equal cold rebuilds over the full row sets — for every schedule.
TEST_F(ApplyAppendDeltasTest, FuzzedAppendSchedules) {
  common::Rng rng(0x16E57);
  for (int iter = 0; iter < 25; ++iter) {
    const size_t total = static_cast<size_t>(rng.UniformInt(20, 200));
    size_t published = static_cast<size_t>(
        rng.UniformInt(1, static_cast<int64_t>(total) - 1));
    auto table = MakeTable(published);
    PredicatePtr pred = MakeComparison(
        "a", CompareOp::kGe, Value(rng.UniformInt(0, 12)));
    ASSERT_TRUE(pred->Bind(table->schema()).ok());

    BaseHistogramCache cache;
    WarmCache(*table, published, pred.get(), &cache);

    while (published < total) {
      const size_t step = static_cast<size_t>(
          rng.UniformInt(1, static_cast<int64_t>(total - published)));
      AppendRows(table.get(), published, published + step);
      IngestDeltaRequest request;
      request.table = table.get();
      request.rows_before = published;
      request.rows_appended = step;
      request.dimensions = {"a"};
      request.measures = {"m"};
      request.target_predicate = pred.get();
      request.cache = &cache;
      ASSERT_TRUE(ApplyAppendDeltas(request, nullptr).ok());
      published += step;
    }

    RowSet full_target;
    pred->FilterInto(*table, Range(0, total), &full_target, nullptr);
    const struct {
      const char* key;
      const RowSet rows;
    } sides[] = {{"t|a|m", full_target}, {"c|a|m", Range(0, total)}};
    for (const auto& side : sides) {
      auto patched = FetchOne(cache, side.key, *table, side.rows, "a", "m");
      ASSERT_TRUE(patched.ok());
      EXPECT_FALSE(patched->built) << "iter " << iter << " " << side.key;
      auto cold = BuildOne(*table, side.rows, "a", "m");
      ASSERT_TRUE(cold.ok());
      ExpectSameHistogram(*patched->histogram, *cold);
    }
  }
}

// Appends through table versions sharing their tail stores (each a
// Clone() of the last, kept alive, as the catalog publishes them) over
// dimensions that take both fused Phase A paths: x is coded in every
// chunk, while h (all distinct) crosses the chunk dictionary cap
// mid-append.  Delta builds (small row sets) and cold builds (all rows)
// then run on different paths; every delta-patched base must equal a
// cold build over a one-shot reload of the same rows.
TEST_F(ApplyAppendDeltasTest, DictionaryPathsAgreeAcrossCopyOnWriteAppends) {
  constexpr size_t kBigChunk = 8192;
  const Schema schema({Field("x", ValueType::kInt64, FieldRole::kDimension),
                       Field("h", ValueType::kInt64, FieldRole::kDimension),
                       Field("m", ValueType::kInt64, FieldRole::kMeasure)});
  auto row_at = [](size_t i) {
    return std::vector<Value>{
        Value(static_cast<int64_t>((i * 7) % 13)),
        Value(static_cast<int64_t>((i * 7919) % 1000003)),
        Value(static_cast<int64_t>((i * 31) % 997))};
  };
  common::Rng rng(0xD1C7);
  const size_t total = 9000 + static_cast<size_t>(rng.UniformInt(0, 2000));
  size_t published = 3000;
  std::vector<std::shared_ptr<Table>> versions{
      std::make_shared<Table>(schema, kBigChunk)};
  for (size_t i = 0; i < published; ++i) {
    ASSERT_TRUE(versions.back()->AppendRow(row_at(i)).ok());
  }
  PredicatePtr pred = MakeComparison("x", CompareOp::kGe, Value(int64_t{5}));
  ASSERT_TRUE(pred->Bind(schema).ok());

  const std::vector<std::string> keys = {"t|x|m", "t|h|m", "c|x|m", "c|h|m"};
  auto side_rows = [&](const Table& table, const std::string& key) {
    RowSet rows = Range(0, table.num_rows());
    if (key[0] == 'c') return rows;
    RowSet target;
    pred->FilterInto(table, rows, &target, nullptr);
    return target;
  };
  BaseHistogramCache cache;
  for (const std::string& key : keys) {
    const RowSet rows = side_rows(*versions.back(), key);
    ASSERT_TRUE(FetchOne(cache, key, *versions.back(), rows,
                         key.substr(2, 1), "m")
                    .ok());
  }

  while (published < total) {
    const size_t step = std::min<size_t>(
        total - published, static_cast<size_t>(rng.UniformInt(1, 3000)));
    versions.push_back(std::make_shared<Table>(versions.back()->Clone()));
    Table* next = versions.back().get();
    for (size_t i = published; i < published + step; ++i) {
      ASSERT_TRUE(next->AppendRow(row_at(i)).ok());
    }
    IngestDeltaRequest request;
    request.table = next;
    request.rows_before = published;
    request.rows_appended = step;
    request.dimensions = {"x", "h"};
    request.measures = {"m"};
    request.target_predicate = pred.get();
    request.cache = &cache;
    ASSERT_TRUE(ApplyAppendDeltas(request, nullptr).ok());
    published += step;
  }
  const Table& grown = *versions.back();
  ASSERT_FALSE(grown.column(1).chunk(0).HasNumericDict());
  ASSERT_TRUE(grown.column(0).chunk(0).HasNumericDict());

  Table reload(schema, kBigChunk);
  for (size_t i = 0; i < total; ++i) {
    ASSERT_TRUE(reload.AppendRow(row_at(i)).ok());
  }
  for (const std::string& key : keys) {
    SCOPED_TRACE(key);
    const RowSet rows = side_rows(grown, key);
    auto patched = FetchOne(cache, key, grown, rows, key.substr(2, 1), "m");
    ASSERT_TRUE(patched.ok());
    EXPECT_FALSE(patched->built);
    auto cold =
        BuildOne(reload, side_rows(reload, key), key.substr(2, 1), "m");
    ASSERT_TRUE(cold.ok());
    ExpectSameHistogram(*patched->histogram, *cold);
  }
}

// A reader of the post-append table can rebuild a base before the
// append's delta patch reaches it.  The patch must leave that entry
// alone: adding the delta again would count the appended rows twice.
TEST_F(ApplyAppendDeltasTest, EntryRebuiltAfterAppendIsNotPatchedTwice) {
  constexpr size_t kBefore = 60;
  constexpr size_t kTotal = 100;
  auto table = MakeTable(kBefore);
  BaseHistogramCache cache;
  const std::string key = "c|a|m";
  auto fetch = [&](size_t rows) {
    return FetchOne(cache, key, *table, Range(0, rows), "a", "m");
  };
  ASSERT_TRUE(fetch(kBefore).ok());
  AppendRows(table.get(), kBefore, kTotal);
  // The post-append reader's staleness guard replaces the entry.
  auto rebuilt = fetch(kTotal);
  ASSERT_TRUE(rebuilt.ok());
  ASSERT_TRUE(rebuilt->built);

  IngestDeltaRequest request;
  request.table = table.get();
  request.rows_before = kBefore;
  request.rows_appended = kTotal - kBefore;
  request.dimensions = {"a"};
  request.measures = {"m"};
  request.cache = &cache;
  IngestDeltaStats stats;
  ASSERT_TRUE(ApplyAppendDeltas(request, &stats).ok());
  EXPECT_EQ(stats.delta_merges, 0);

  ASSERT_TRUE(cache.Contains(key, kTotal));
  auto served = fetch(kTotal);
  ASSERT_TRUE(served.ok());
  EXPECT_FALSE(served->built);
  auto cold = BuildOne(*table, Range(0, kTotal), "a", "m");
  ASSERT_TRUE(cold.ok());
  ExpectSameHistogram(*served->histogram, *cold);
}

// An entry of neither the pre- nor the post-append version (it missed an
// earlier patch) cannot be patched into the right answer: it is dropped.
TEST_F(ApplyAppendDeltasTest, EntryOfAnOlderVersionIsDropped) {
  auto table = MakeTable(40);
  BaseHistogramCache cache;
  ASSERT_TRUE(FetchOne(cache, "c|a|m", *table, Range(0, 40), "a", "m").ok());
  AppendRows(table.get(), 40, 60);  // an append whose patch never ran
  AppendRows(table.get(), 60, 100);

  IngestDeltaRequest request;
  request.table = table.get();
  request.rows_before = 60;
  request.rows_appended = 40;
  request.dimensions = {"a"};
  request.measures = {"m"};
  request.cache = &cache;
  ASSERT_TRUE(ApplyAppendDeltas(request, nullptr).ok());
  EXPECT_FALSE(cache.Contains("c|a|m"));
}

// A target side no appended row satisfies still advances its stamp, so
// the following append patches it instead of dropping it.
TEST_F(ApplyAppendDeltasTest, EmptyTargetDeltaKeepsEntryPatchable) {
  auto table = MakeTable(30);
  // a = (i * 7) % 13 >= 13 never holds.
  PredicatePtr pred =
      MakeComparison("a", CompareOp::kGe, Value(int64_t{13}));
  ASSERT_TRUE(pred->Bind(table->schema()).ok());
  BaseHistogramCache cache;
  WarmCache(*table, 30, pred.get(), &cache);
  for (const size_t end : {50u, 80u}) {
    const size_t before = table->num_rows();
    AppendRows(table.get(), before, end);
    IngestDeltaRequest request;
    request.table = table.get();
    request.rows_before = before;
    request.rows_appended = end - before;
    request.dimensions = {"a"};
    request.measures = {"m"};
    request.target_predicate = pred.get();
    request.cache = &cache;
    IngestDeltaStats stats;
    ASSERT_TRUE(ApplyAppendDeltas(request, &stats).ok());
    EXPECT_EQ(stats.delta_merges, 2) << end;
    EXPECT_EQ(stats.target_delta_rows, 0);
  }
  EXPECT_TRUE(cache.Contains("t|a|m", 0));
}

TEST_F(ApplyAppendDeltasTest, EmptyCacheIsANoOp) {
  auto table = MakeTable(20);
  BaseHistogramCache cache;
  IngestDeltaRequest request;
  request.table = table.get();
  request.rows_before = 10;
  request.rows_appended = 10;
  request.dimensions = {"a"};
  request.measures = {"m"};
  request.cache = &cache;
  IngestDeltaStats stats;
  ASSERT_TRUE(ApplyAppendDeltas(request, &stats).ok());
  EXPECT_EQ(stats.pairs_considered, 0);
  EXPECT_EQ(stats.delta_merges, 0);
  EXPECT_EQ(stats.rows_scanned, 0);
}

TEST_F(ApplyAppendDeltasTest, StringPairsAreSkipped) {
  auto table = MakeTable(20);
  BaseHistogramCache cache;
  IngestDeltaRequest request;
  request.table = table.get();
  request.rows_before = 10;
  request.rows_appended = 10;
  request.dimensions = {"a", "tag"};  // string dim never cache-eligible
  request.measures = {"m", "tag"};
  request.cache = &cache;
  ASSERT_TRUE(ApplyAppendDeltas(request, nullptr).ok());
}

TEST(ApplyAppendDeltasValidationTest, RejectsMissingTableOrCache) {
  IngestDeltaRequest request;
  EXPECT_EQ(ApplyAppendDeltas(request, nullptr).code(),
            common::StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace muve::storage
