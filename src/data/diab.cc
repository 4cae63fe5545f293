#include "data/diab.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "common/rng.h"
#include "common/stopwatch.h"

namespace muve::data {

namespace {

using storage::Field;
using storage::FieldRole;
using storage::Schema;
using storage::Table;
using storage::Value;
using storage::ValueType;

double Sigmoid(double x) { return 1.0 / (1.0 + std::exp(-x)); }

int64_t ClampInt(double v, int64_t lo, int64_t hi) {
  const int64_t r = static_cast<int64_t>(std::llround(v));
  return std::clamp(r, lo, hi);
}

}  // namespace

Dataset MakeDiabDataset(uint64_t seed) {
  common::Stopwatch setup_timer;
  Schema schema({
      Field("Pregnancies", ValueType::kInt64, FieldRole::kDimension),
      Field("Glucose", ValueType::kInt64, FieldRole::kMeasure),
      Field("BloodPressure", ValueType::kInt64, FieldRole::kDimension),
      Field("SkinThickness", ValueType::kInt64, FieldRole::kMeasure),
      Field("Insulin", ValueType::kInt64, FieldRole::kMeasure),
      Field("BMI", ValueType::kDouble, FieldRole::kDimension),
      Field("DiabetesPedigree", ValueType::kDouble, FieldRole::kMeasure),
      Field("Age", ValueType::kInt64, FieldRole::kDimension),
      Field("Outcome", ValueType::kInt64, FieldRole::kNone),
  });

  common::Rng rng(seed);
  auto table = std::make_shared<Table>(schema);

  for (size_t i = 0; i < kDiabRows; ++i) {
    int64_t age = ClampInt(rng.Normal(33.0, 11.0), 21, 81);
    // Parity loosely follows age.
    int64_t pregnancies =
        ClampInt(rng.Normal(0.1 * static_cast<double>(age) - 0.5, 3.0), 0, 17);
    double bmi = rng.ClampedNormal(32.0, 7.0, 18.0, 67.0);
    int64_t glucose = ClampInt(
        rng.Normal(110.0 + 0.4 * bmi, 28.0), 44, 199);
    int64_t blood_pressure = ClampInt(
        rng.Normal(62.0 + 0.2 * static_cast<double>(age), 11.0), 24, 110);
    int64_t skin = ClampInt(rng.Normal(0.9 * bmi - 8.0, 9.0), 7, 99);
    int64_t insulin = ClampInt(
        rng.Normal(2.0 * static_cast<double>(glucose) - 120.0, 85.0), 14, 846);
    double pedigree =
        std::min(0.08 + rng.Exponential(2.4), 2.42);

    // Pin each dimension's endpoints so ranges (and hence the view space)
    // are deterministic regardless of seed.
    if (i == 0) age = 21;
    if (i == 1) age = 81;
    if (i == 2) blood_pressure = 24;
    if (i == 3) blood_pressure = 110;
    if (i == 4) pregnancies = 0;
    if (i == 5) pregnancies = 17;
    if (i == 6) bmi = 18.0;
    if (i == 7) bmi = 67.0;

    const double risk =
        0.028 * (static_cast<double>(glucose) - 123.0) +
        0.075 * (bmi - 32.0) +
        0.022 * (static_cast<double>(age) - 33.0) - 0.45;
    const int64_t outcome = rng.Bernoulli(Sigmoid(risk)) ? 1 : 0;

    const common::Status st = table->AppendRow({
        Value(pregnancies),
        Value(glucose),
        Value(blood_pressure),
        Value(skin),
        Value(insulin),
        Value(bmi),
        Value(pedigree),
        Value(age),
        Value(outcome),
    });
    MUVE_CHECK(st.ok()) << st.ToString();
  }

  Workload workload;
  workload.dimensions = {"Age", "BloodPressure", "Pregnancies", "BMI"};
  workload.measures = {"Glucose", "Insulin", "SkinThickness",
                       "DiabetesPedigree"};
  workload.functions = {storage::AggregateFunction::kSum,
                        storage::AggregateFunction::kAvg,
                        storage::AggregateFunction::kCount};
  workload.default_predicate = "Outcome = 1";
  auto out = Bind("DIAB", std::move(table), workload,
                  workload.default_predicate);
  MUVE_CHECK(out.ok()) << out.status().ToString();
  out->setup_time_ms = setup_timer.ElapsedMillis();
  return *std::move(out);
}

}  // namespace muve::data
