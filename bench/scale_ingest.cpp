// Extension bench: incremental ingest at scale (DESIGN.md §15).
//
// The claim under test: with chunked columnar storage and the shared
// base-histogram cache, *appending 1% of the rows and re-recommending*
// costs O(new rows) — a small fraction of re-running the whole pipeline
// over the reloaded table — while returning the bit-identical top-k.
//
// For each table size N the bench runs Repetitions() cold/warm/append/
// reload cycles (each on a fresh catalog and cache; timings report the
// median) over the deterministic scale workload (dims {x, y}, measures
// {m1, m2}, clustered predicate "day >= D"):
//
//   cold    recommend over rows [0, 0.99 N) with an empty shared cache
//           (pays the fused build passes).
//   warm    the same recommend again (every base served from cache; the
//           rows-scanned column is the cache's steady-state cost).
//   append  publish the last 1% through the Catalog, patch the cached
//           bases with ApplyAppendDeltas (O(new rows) fused passes over
//           the delta only), and recommend over the grown table.
//   reload  materialize all N rows in one shot and recommend with a
//           cold cache — the "reload from scratch" strawman the append
//           path replaces, and the bit-exactness reference.
//
// Each phase's time includes its Recommender::Create (view-space setup);
// the warm run's Create is also recorded alone as create_ms.
//
// The bench FAILS (exit 1) if any invariant breaks: the append-path
// top-k must equal the reload top-k view-for-view and bit-for-bit, the
// append cycle (ingest scan + re-recommend) must scan <= 10% of the
// rows the reload scans, the delta-merge counters must be nonzero (the
// patch actually happened; nothing fell back to a rebuild), the
// clustered predicate must skip chunks via zone maps, and the append
// must move no existing row (Catalog::AppendResult::rows_copied == 0:
// the open tail chunk has room for the 1%, so the append writes in
// place).  Row counts are exact, so these gates cannot flake.
//
// After the sweep, a csv_load phase times the CSV ingest path muved
// runs for `create` + `append`: the 10^6-row scale CSV
// (data::WriteScaleCsv) in four 250K-row batches, the first parsed with
// type inference and published by Catalog::Create, the rest parsed
// under the table's schema and published by Catalog::Append.  It runs
// Repetitions() times, after every cycle so the heap it leaves cannot
// shift the cycle's timings, and records the median csv_parse_ms and
// catalog_append_ms (summed over the batches).  It FAILS unless the
// loaded table equals MakeScaleTable cell for cell and the appends moved
// at most as many rows as the table holds — the bound tail stores that
// grew by doubling would keep; whole-chunk stores move none.
//
// `--smoke` runs 10^6 rows only (the CI scale-smoke leg); the default
// adds 10^7.  `--rows=N` replaces the sweep with a single custom size
// (10^8 is the opt-in upper end; budget ~50 bytes/row of RAM for the
// grown + reloaded tables).

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/stopwatch.h"
#include "core/recommender.h"
#include "core/search_options.h"
#include "data/dataset.h"
#include "data/scale.h"
#include "harness.h"
#include "sql/parser.h"
#include "storage/base_histogram_cache.h"
#include "storage/catalog.h"
#include "storage/csv.h"
#include "storage/ingest.h"
#include "storage/predicate.h"
#include "storage/table.h"

namespace {

using muve::bench::RecordJsonResult;
using muve::bench::TablePrinter;

// The scale workload's exploration setup over one table snapshot.
muve::data::Dataset DatasetOver(
    std::shared_ptr<const muve::storage::Table> table,
    const std::string& predicate_sql) {
  muve::data::Workload workload;
  workload.dimensions = {"x", "y"};
  workload.measures = {"m1", "m2"};
  workload.functions = {muve::storage::AggregateFunction::kSum,
                        muve::storage::AggregateFunction::kAvg};
  auto ds = muve::data::Bind("scale", std::move(table), workload,
                             predicate_sql);
  if (!ds.ok()) {
    std::cerr << "predicate bind failed: " << ds.status().ToString() << "\n";
    std::exit(1);
  }
  return *std::move(ds);
}

struct Phase {
  double ms = 0.0;
  double create_ms = 0.0;  // Recommender::Create alone
  muve::core::Recommendation rec;
};

Phase Recommend(std::shared_ptr<const muve::storage::Table> table,
                const std::string& predicate_sql,
                std::shared_ptr<muve::storage::BaseHistogramCache> cache) {
  muve::common::Stopwatch timer;
  muve::data::Dataset dataset = DatasetOver(std::move(table), predicate_sql);
  muve::common::Stopwatch create_timer;
  auto recommender = muve::core::Recommender::Create(std::move(dataset));
  const double create_ms = create_timer.ElapsedMillis();
  if (!recommender.ok()) {
    std::cerr << "recommender: " << recommender.status().ToString() << "\n";
    std::exit(1);
  }
  muve::core::SearchOptions options;
  options.k = 5;
  options.shared_base_cache = std::move(cache);
  auto result = recommender->Recommend(options);
  if (!result.ok()) {
    std::cerr << "recommend: " << result.status().ToString() << "\n";
    std::exit(1);
  }
  Phase phase;
  phase.ms = timer.ElapsedMillis();
  phase.create_ms = create_ms;
  phase.rec = *std::move(result);
  return phase;
}

bool SameTopK(const muve::core::Recommendation& a,
              const muve::core::Recommendation& b) {
  if (a.views.size() != b.views.size()) return false;
  for (size_t i = 0; i < a.views.size(); ++i) {
    // Integer measures: delta-merged bases are bit-exact, so the
    // comparison is == on the doubles, not a tolerance.
    if (!(a.views[i].view == b.views[i].view) ||
        a.views[i].bins != b.views[i].bins ||
        a.views[i].utility != b.views[i].utility ||
        a.views[i].deviation != b.views[i].deviation) {
      return false;
    }
  }
  return true;
}

std::string Fmt(double v) { return muve::bench::Ms(v); }

double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

// One cold/warm/append/reload cycle (see the file comment).
struct Cycle {
  Phase cold;
  Phase warm;
  Phase after;
  Phase reload;
  double append_ms = 0.0;
  size_t rows_copied = 0;
  muve::storage::IngestDeltaStats ingest;
};

bool RunCycleOnce(const muve::data::ScaleSpec& spec, size_t chunk_rows,
                  Cycle* cycle) {
  const std::string predicate = muve::data::ScalePredicateSql(spec);
  const size_t initial = spec.rows - spec.rows / 100;
  muve::storage::Catalog catalog;
  {
    muve::common::Stopwatch timer;
    auto created = catalog.Create(
        "scale",
        std::move(*muve::data::MakeScaleTable(spec, 0, initial, chunk_rows)));
    if (!created.ok()) {
      std::cerr << "create: " << created.ToString() << "\n";
      return false;
    }
    std::cout << "  materialized " << initial << " rows in "
              << Fmt(timer.ElapsedMillis()) << " ms" << std::endl;
  }
  auto cache = std::make_shared<muve::storage::BaseHistogramCache>();

  auto snapshot = catalog.Get("scale");
  if (!snapshot.ok()) return false;
  cycle->cold = Recommend(snapshot->table, predicate, cache);
  cycle->warm = Recommend(snapshot->table, predicate, cache);

  // Append the last 1% through the catalog and patch the cached bases;
  // the timed region is everything the serving path would do: delta
  // materialization, publish, patch, re-recommend.
  muve::common::Stopwatch append_timer;
  auto delta =
      muve::data::MakeScaleTable(spec, initial, spec.rows, chunk_rows);
  auto published = catalog.Append("scale", *delta);
  if (!published.ok()) {
    std::cerr << "append: " << published.status().ToString() << "\n";
    return false;
  }
  cycle->rows_copied = published->rows_copied;
  auto where = muve::sql::ParseWhere(predicate);
  if (!where.ok() ||
      !(*where)->Bind(published->snapshot.table->schema()).ok()) {
    return false;
  }
  muve::storage::IngestDeltaRequest request;
  request.table = published->snapshot.table.get();
  request.rows_before = published->rows_before;
  request.rows_appended = published->rows_appended;
  request.dimensions = {"x", "y"};
  request.measures = {"m1", "m2"};
  request.target_predicate = where->get();
  request.cache = cache.get();
  if (!muve::storage::ApplyAppendDeltas(request, &cycle->ingest).ok()) {
    std::cerr << "delta patch failed\n";
    return false;
  }
  cycle->after = Recommend(published->snapshot.table, predicate, cache);
  cycle->append_ms = append_timer.ElapsedMillis();

  // Reload-from-scratch reference (cold cache over all N rows in one
  // shot) — the bit-exactness oracle and the cost denominator.
  cycle->reload =
      Recommend(muve::data::MakeScaleTable(spec, 0, spec.rows, chunk_rows),
                predicate,
                std::make_shared<muve::storage::BaseHistogramCache>());
  return true;
}

bool RunCycle(size_t total_rows, TablePrinter* table) {
  muve::data::ScaleSpec spec;
  spec.rows = total_rows;
  const size_t appended = total_rows / 100;

  // At least 8 chunks at every size, so zone-map skipping has something
  // to skip even at 10^6 rows (the default 2^20-row chunk would make
  // that table single-chunk); 10^7 rows and up use the default.
  size_t chunk_rows = muve::storage::kDefaultChunkRows;
  while (chunk_rows > 1024 && chunk_rows * 8 > total_rows) chunk_rows >>= 1;

  std::cout << "== " << total_rows << " rows (append "
            << appended << ") ==" << std::endl;

  // Every repetition is a fresh catalog and cache; timings report the
  // median, counters the last repetition (they are deterministic).
  std::vector<Cycle> cycles(static_cast<size_t>(muve::bench::Repetitions()));
  bool identical = true;
  size_t rows_copied = 0;
  for (Cycle& cycle : cycles) {
    if (!RunCycleOnce(spec, chunk_rows, &cycle)) return false;
    identical = identical && SameTopK(cycle.after.rec, cycle.reload.rec);
    rows_copied = std::max(rows_copied, cycle.rows_copied);
  }
  const auto median = [&cycles](double (*field)(const Cycle&)) {
    std::vector<double> values;
    for (const Cycle& cycle : cycles) values.push_back(field(cycle));
    return Median(std::move(values));
  };
  const double cold_ms = median([](const Cycle& c) { return c.cold.ms; });
  const double warm_ms = median([](const Cycle& c) { return c.warm.ms; });
  const double create_ms =
      median([](const Cycle& c) { return c.warm.create_ms; });
  const double append_ms = median([](const Cycle& c) { return c.append_ms; });
  const double reload_ms = median([](const Cycle& c) { return c.reload.ms; });

  const Cycle& last = cycles.back();
  const muve::storage::IngestDeltaStats& ingest = last.ingest;
  const int64_t append_scanned =
      ingest.rows_scanned + last.after.rec.stats.rows_scanned;
  const int64_t reload_scanned = last.reload.rec.stats.rows_scanned;
  const double ratio = reload_scanned > 0
                           ? static_cast<double>(append_scanned) /
                                 static_cast<double>(reload_scanned)
                           : 1.0;

  table->AddRow({std::to_string(total_rows), Fmt(cold_ms), Fmt(warm_ms),
                 Fmt(create_ms), Fmt(append_ms), Fmt(reload_ms),
                 std::to_string(reload_scanned),
                 std::to_string(append_scanned),
                 muve::bench::Pct(ratio),
                 std::to_string(ingest.delta_merges),
                 std::to_string(last.after.rec.stats.chunks_skipped),
                 std::to_string(rows_copied), identical ? "yes" : "NO"});

  RecordJsonResult(
      "scale_" + std::to_string(total_rows), {},
      {{"rows", static_cast<double>(total_rows)},
       {"appended_rows", static_cast<double>(appended)},
       {"cold_ms", cold_ms},
       {"warm_ms", warm_ms},
       {"create_ms", create_ms},
       {"append_ms", append_ms},
       {"reload_ms", reload_ms},
       {"cold_rows_scanned",
        static_cast<double>(last.cold.rec.stats.rows_scanned)},
       {"warm_rows_scanned",
        static_cast<double>(last.warm.rec.stats.rows_scanned)},
       {"ingest_rows", static_cast<double>(ingest.rows_scanned)},
       {"delta_merges", static_cast<double>(ingest.delta_merges)},
       {"append_rec_rows_scanned",
        static_cast<double>(last.after.rec.stats.rows_scanned)},
       {"reload_rows_scanned", static_cast<double>(reload_scanned)},
       {"append_over_reload_rows", ratio},
       {"chunks_skipped",
        static_cast<double>(last.after.rec.stats.chunks_skipped)},
       {"rows_copied", static_cast<double>(rows_copied)},
       {"topk_identical", identical ? 1.0 : 0.0}});

  bool ok = true;
  if (!identical) {
    std::cerr << "FAIL: append-path top-k differs from reload at "
              << total_rows << " rows\n";
    ok = false;
  }
  if (ratio > 0.10) {
    std::cerr << "FAIL: append cycle scanned " << append_scanned << " rows ("
              << muve::bench::Pct(ratio) << " of reload's " << reload_scanned
              << ") at " << total_rows << " rows — expected <= 10%\n";
    ok = false;
  }
  if (ingest.delta_merges <= 0) {
    std::cerr << "FAIL: no cached bases were delta-merged at " << total_rows
              << " rows\n";
    ok = false;
  }
  if (last.after.rec.stats.chunks_skipped <= 0) {
    std::cerr << "FAIL: the clustered predicate skipped no chunks at "
              << total_rows << " rows\n";
    ok = false;
  }
  // The open tail chunk has room for the 1%: the append writes its rows
  // in place and moves none.
  if (rows_copied > 0) {
    std::cerr << "FAIL: the 1% append moved " << rows_copied
              << " existing rows at " << total_rows << " rows — expected 0\n";
    ok = false;
  }
  return ok;
}

// True when `got` holds the same cells as `want` (types, NULLs, values).
bool SameCells(const muve::storage::Table& got,
               const muve::storage::Table& want) {
  using muve::storage::ValueType;
  if (got.num_rows() != want.num_rows() ||
      got.num_columns() != want.num_columns()) {
    return false;
  }
  for (size_t c = 0; c < want.num_columns(); ++c) {
    const muve::storage::Column& g = got.column(c);
    const muve::storage::Column& w = want.column(c);
    if (g.type() != w.type() ||
        got.schema().field(c).name != want.schema().field(c).name) {
      return false;
    }
    for (size_t r = 0; r < w.size(); ++r) {
      if (g.IsNull(r) != w.IsNull(r)) return false;
      if (w.IsNull(r)) continue;
      const bool same = w.type() == ValueType::kInt64
                            ? g.Int64At(r) == w.Int64At(r)
                        : w.type() == ValueType::kString
                            ? g.StringAt(r) == w.StringAt(r)
                            : g.NumericAt(r) == w.NumericAt(r);
      if (!same) return false;
    }
  }
  return true;
}

// One pass of the csv_load phase (see the file comment).
struct CsvLoad {
  double parse_ms = 0.0;
  double append_ms = 0.0;
  size_t bytes = 0;
  size_t rows_copied = 0;
  bool identical = false;
};

constexpr size_t kCsvRows = 1'000'000;
constexpr size_t kCsvBatchRows = 250'000;

bool RunCsvLoadOnce(CsvLoad* load) {
  muve::data::ScaleSpec spec;
  spec.rows = kCsvRows;
  muve::storage::Catalog catalog;
  std::string header;
  for (size_t begin = 0; begin < kCsvRows; begin += kCsvBatchRows) {
    std::ostringstream out;
    muve::data::WriteScaleCsv(out, spec, begin,
                              std::min(kCsvRows, begin + kCsvBatchRows));
    std::string csv = out.str();
    // Only the first batch carries the header; muved frames all do.
    if (begin == 0) {
      header = csv.substr(0, csv.find('\n') + 1);
    } else {
      csv.insert(0, header);
    }
    load->bytes += csv.size();
    muve::storage::CsvOptions options;
    if (begin > 0) options.schema = catalog.Get("scale")->table->schema();
    muve::storage::CsvLoadStats stats;
    auto rows = muve::storage::ReadCsvString(csv, options, &stats);
    if (!rows.ok()) {
      std::cerr << "FAIL: csv_load parse: " << rows.status().ToString()
                << "\n";
      return false;
    }
    load->parse_ms += stats.parse_ms;
    muve::common::Stopwatch timer;
    muve::common::Status published;
    if (begin == 0) {
      published = catalog.Create("scale", std::move(*rows));
    } else {
      auto appended = catalog.Append("scale", *rows);
      published = appended.status();
      if (appended.ok()) load->rows_copied += appended->rows_copied;
    }
    load->append_ms += timer.ElapsedMillis();
    if (!published.ok()) {
      std::cerr << "FAIL: csv_load publish: " << published.ToString() << "\n";
      return false;
    }
  }
  load->identical =
      SameCells(*catalog.Get("scale")->table,
                *muve::data::MakeScaleTable(spec, 0, kCsvRows));
  return true;
}

// The csv_load phase, Repetitions() times: timings report the median.
bool RunCsvLoad() {
  std::vector<CsvLoad> loads(static_cast<size_t>(muve::bench::Repetitions()));
  std::vector<double> parse_ms;
  std::vector<double> append_ms;
  bool identical = true;
  size_t rows_copied = 0;
  for (CsvLoad& load : loads) {
    if (!RunCsvLoadOnce(&load)) return false;
    parse_ms.push_back(load.parse_ms);
    append_ms.push_back(load.append_ms);
    identical = identical && load.identical;
    rows_copied = std::max(rows_copied, load.rows_copied);
  }
  std::cout << "== csv_load: " << kCsvRows << " rows in "
            << kCsvRows / kCsvBatchRows << " batches, parse "
            << Fmt(Median(parse_ms)) << " ms, catalog "
            << Fmt(Median(append_ms)) << " ms, rows copied " << rows_copied
            << ", identical " << (identical ? "yes" : "NO") << " =="
            << std::endl;
  RecordJsonResult("csv_load_" + std::to_string(kCsvRows), {},
                   {{"rows", static_cast<double>(kCsvRows)},
                    {"batches", static_cast<double>(kCsvRows / kCsvBatchRows)},
                    {"bytes", static_cast<double>(loads.back().bytes)},
                    {"csv_parse_ms", Median(parse_ms)},
                    {"catalog_append_ms", Median(append_ms)},
                    {"rows_copied", static_cast<double>(rows_copied)},
                    {"identical", identical ? 1.0 : 0.0}});
  bool ok = identical;
  if (!identical) {
    std::cerr << "FAIL: the CSV-loaded table differs from MakeScaleTable\n";
  }
  // The doubling bound: no more rows moved than the table ends up holding.
  if (rows_copied > kCsvRows) {
    std::cerr << "FAIL: csv_load appends moved " << rows_copied
              << " rows, more than the " << kCsvRows
              << " the table holds\n";
    ok = false;
  }
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  const muve::bench::BenchOptions& options = muve::bench::InitBench(&argc, argv);

  size_t custom_rows = 0;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--rows=", 7) == 0) {
      custom_rows = static_cast<size_t>(std::strtoull(argv[i] + 7, nullptr, 10));
    }
  }

  std::vector<size_t> sizes;
  if (custom_rows > 0) {
    sizes = {custom_rows};
  } else if (options.smoke) {
    sizes = {1'000'000};
  } else {
    sizes = {1'000'000, 10'000'000};
  }

  TablePrinter table({"rows", "cold ms", "warm ms", "create ms", "append ms",
                      "reload ms", "reload rows", "append rows",
                      "append/reload", "delta merges", "chunks skipped",
                      "rows copied", "topk=="});
  bool ok = true;
  for (size_t rows : sizes) ok = RunCycle(rows, &table) && ok;
  table.Print("Incremental ingest: append 1% + re-recommend vs reload");
  // Last, so the heap it leaves behind cannot shift the cycle's timings.
  ok = RunCsvLoad() && ok;
  return ok ? 0 : 1;
}
