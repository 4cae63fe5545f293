#include "data/scale.h"

#include <algorithm>
#include <vector>

#include "common/logging.h"
#include "common/stopwatch.h"

namespace muve::data {

namespace {

using storage::Field;
using storage::FieldRole;
using storage::Schema;
using storage::Table;
using storage::Value;
using storage::ValueType;

// splitmix64 finalizer: the per-row hash chain.  Every derived quantity
// mixes (seed, index) independently of neighboring rows, which is what
// makes prefix generation + append bit-identical to one-shot generation.
uint64_t Mix(uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

size_t RowsPerDay(const ScaleSpec& spec) {
  if (spec.rows_per_day > 0) return spec.rows_per_day;
  return std::max<size_t>(1, spec.rows / 64);
}

int64_t MaxDay(const ScaleSpec& spec) {
  if (spec.rows == 0) return 0;
  return static_cast<int64_t>((spec.rows - 1) / RowsPerDay(spec));
}

}  // namespace

ScaleRow ScaleRowAt(const ScaleSpec& spec, size_t index) {
  const uint64_t h0 = Mix(spec.seed ^ Mix(static_cast<uint64_t>(index)));
  const uint64_t h1 = Mix(h0);
  const uint64_t h2 = Mix(h1);
  const uint64_t h3 = Mix(h2);
  const uint64_t h4 = Mix(h3);
  ScaleRow row;
  row.day = static_cast<int64_t>(index / RowsPerDay(spec));
  row.region = static_cast<uint32_t>(h0 & 3);
  // Day-drifting means keep per-day distributions distinguishable, so
  // views over the day-filtered target genuinely deviate from the
  // comparison over all days.
  row.x = static_cast<int64_t>(h1 % 97) + row.day % 24;
  row.y = static_cast<int64_t>(h2 % 49);
  row.m1 = 10 * row.x + static_cast<int64_t>(h3 % 1000);
  row.m2 = 20 * row.y + static_cast<int64_t>(h4 % 1000);
  return row;
}

Schema ScaleSchema() {
  return Schema({
      Field("day", ValueType::kInt64, FieldRole::kNone),
      Field("region", ValueType::kString, FieldRole::kNone),
      Field("x", ValueType::kInt64, FieldRole::kDimension),
      Field("y", ValueType::kInt64, FieldRole::kDimension),
      Field("m1", ValueType::kInt64, FieldRole::kMeasure),
      Field("m2", ValueType::kInt64, FieldRole::kMeasure),
  });
}

std::shared_ptr<Table> MakeScaleTable(const ScaleSpec& spec, size_t begin,
                                      size_t end, size_t chunk_rows) {
  auto table = std::make_shared<Table>(ScaleSchema(), chunk_rows);
  std::vector<Value> row(6);
  for (size_t i = begin; i < end; ++i) {
    const ScaleRow r = ScaleRowAt(spec, i);
    row[0] = Value(r.day);
    row[1] = Value(kScaleRegions[r.region]);
    row[2] = Value(r.x);
    row[3] = Value(r.y);
    row[4] = Value(r.m1);
    row[5] = Value(r.m2);
    const common::Status st = table->AppendRow(row);
    MUVE_CHECK(st.ok()) << st.ToString();
  }
  return table;
}

std::string ScalePredicateSql(const ScaleSpec& spec) {
  // The final quarter of the day domain: selective (~25%) and clustered
  // at the tail, so zone maps skip the leading chunks wholesale.
  const int64_t threshold = (MaxDay(spec) + 1) * 3 / 4;
  return "day >= " + std::to_string(threshold);
}

Dataset MakeScaleDataset(const ScaleSpec& spec, size_t chunk_rows) {
  common::Stopwatch setup_timer;
  Workload workload;
  workload.dimensions = {"x", "y"};
  workload.measures = {"m1", "m2"};
  workload.functions = {storage::AggregateFunction::kSum,
                        storage::AggregateFunction::kAvg};
  workload.default_predicate = ScalePredicateSql(spec);
  auto ds = Bind("scale", MakeScaleTable(spec, 0, spec.rows, chunk_rows),
                 workload, workload.default_predicate);
  MUVE_CHECK(ds.ok()) << ds.status().ToString();
  ds->setup_time_ms = setup_timer.ElapsedMillis();
  return *std::move(ds);
}

void WriteScaleCsv(std::ostream& out, const ScaleSpec& spec, size_t begin,
                   size_t end) {
  if (begin == 0) out << "day,region,x,y,m1,m2\n";
  // No field here ever needs CSV quoting (ints and bare region names),
  // so the stream stays byte-identical to WriteCsvString over the same
  // rows without going through the quoting path.
  for (size_t i = begin; i < end; ++i) {
    const ScaleRow r = ScaleRowAt(spec, i);
    out << r.day << ',' << kScaleRegions[r.region] << ',' << r.x << ','
        << r.y << ',' << r.m1 << ',' << r.m2 << '\n';
  }
}

}  // namespace muve::data
