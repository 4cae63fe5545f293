#include "data/toy.h"

#include <memory>

#include "common/logging.h"
#include "common/stopwatch.h"

namespace muve::data {

Dataset MakeToyDataset() {
  common::Stopwatch setup_timer;
  storage::Schema schema({
      {"x", storage::ValueType::kInt64, storage::FieldRole::kDimension},
      {"y", storage::ValueType::kInt64, storage::FieldRole::kDimension},
      {"grp", storage::ValueType::kString, storage::FieldRole::kNone},
      {"m1", storage::ValueType::kDouble, storage::FieldRole::kMeasure},
      {"m2", storage::ValueType::kDouble, storage::FieldRole::kMeasure},
  });
  auto table = std::make_shared<storage::Table>(schema);
  // 90 rows: x cycles 0..29, y cycles 0..9; every third row is 'a'.
  for (int i = 0; i < static_cast<int>(kToyRows); ++i) {
    const int x = i % 30;
    const int y = i % 10;
    const bool target = i % 3 == 0;
    const double m1 = target ? 1.0 + 0.5 * x : 10.0;
    const double m2 = 1.0 + 0.1 * i;
    const common::Status st = table->AppendRow({
        storage::Value(static_cast<int64_t>(x)),
        storage::Value(static_cast<int64_t>(y)),
        storage::Value(target ? "a" : "b"),
        storage::Value(m1),
        storage::Value(m2),
    });
    MUVE_CHECK(st.ok()) << st.ToString();
  }

  Workload workload;
  workload.dimensions = {"x", "y"};
  workload.measures = {"m1", "m2"};
  workload.functions = {storage::AggregateFunction::kSum,
                        storage::AggregateFunction::kAvg};
  workload.default_predicate = "grp = 'a'";
  auto ds = Bind("toy", std::move(table), workload,
                 workload.default_predicate);
  MUVE_CHECK(ds.ok()) << ds.status().ToString();
  ds->setup_time_ms = setup_timer.ElapsedMillis();
  return *std::move(ds);
}

}  // namespace muve::data
