// Quickstart: load a small CSV, query it with the MuVE SQL dialect, and
// get view recommendations — the 60-second tour of the library.
//
//   $ ./build/examples/quickstart
//
// Walks through: (1) loading data, (2) plain SQL, (3) the paper's binned
// aggregation extension (GROUP BY ... NUMBER OF BINS), and (4) the
// RECOMMEND statement running the MuVE-MuVE search.

#include <cstdlib>
#include <iostream>
#include <string>

#include "core/recommend_sql.h"
#include "sql/executor.h"
#include "storage/catalog.h"
#include "storage/csv.h"
#include "viz/bar_chart.h"

namespace {

// A small sales table: `region` drives the analyst predicate, `day` is a
// numeric dimension, `revenue` and `units` are measures.
constexpr const char* kSalesCsv =
    "day,region,revenue,units\n"
    "1,north,120,12\n"
    "2,north,80,9\n"
    "3,north,100,11\n"
    "5,north,90,8\n"
    "8,north,75,7\n"
    "13,north,60,6\n"
    "21,north,50,5\n"
    "1,south,20,2\n"
    "2,south,25,3\n"
    "3,south,30,3\n"
    "5,south,180,17\n"
    "8,south,210,21\n"
    "13,south,240,22\n"
    "21,south,260,25\n"
    "2,west,40,4\n"
    "5,west,55,5\n"
    "8,west,60,6\n"
    "13,west,45,4\n";

void Fail(const muve::common::Status& status) {
  std::cerr << "quickstart failed: " << status.ToString() << std::endl;
  std::exit(1);
}

}  // namespace

int main() {
  using muve::common::Status;

  // 1. Load CSV data with role annotations (dimension vs measure).
  muve::storage::Schema schema({
      {"day", muve::storage::ValueType::kInt64,
       muve::storage::FieldRole::kDimension},
      {"region", muve::storage::ValueType::kString,
       muve::storage::FieldRole::kNone},
      {"revenue", muve::storage::ValueType::kDouble,
       muve::storage::FieldRole::kMeasure},
      {"units", muve::storage::ValueType::kInt64,
       muve::storage::FieldRole::kMeasure},
  });
  muve::storage::CsvOptions csv_options;
  csv_options.schema = schema;
  auto table = muve::storage::ReadCsvString(kSalesCsv, csv_options);
  if (!table.ok()) Fail(table.status());

  muve::storage::Catalog catalog;
  if (Status st = catalog.Create("sales", std::move(table).value());
      !st.ok()) {
    Fail(st);
  }

  // 2. Plain SQL over the catalog.
  std::cout << "== SELECT region, SUM(revenue) FROM sales GROUP BY region ==\n";
  auto grouped = muve::sql::ExecuteSql(
      "SELECT region, SUM(revenue) FROM sales GROUP BY region", catalog);
  if (!grouped.ok()) Fail(grouped.status());
  std::cout << grouped->ToString() << "\n";

  // 3. The paper's binned aggregation extension (Section III-A).
  std::cout << "== SELECT day, SUM(revenue) FROM sales WHERE region = "
               "'south' GROUP BY day NUMBER OF BINS 4 ==\n";
  auto binned = muve::sql::ExecuteSql(
      "SELECT day, SUM(revenue) FROM sales WHERE region = 'south' "
      "GROUP BY day NUMBER OF BINS 4",
      catalog);
  if (!binned.ok()) Fail(binned.status());
  std::cout << binned->ToString() << "\n";

  // Render the binned view as a bar chart.
  muve::viz::Series series;
  series.title = "SUM(revenue) BY day, region = 'south', 4 bins";
  for (size_t r = 0; r < binned->num_rows(); ++r) {
    series.labels.push_back("[" + binned->At(r, 0).ToString() + ", " +
                            binned->At(r, 1).ToString() + ")");
    auto v = binned->At(r, 2).ToDouble();
    series.values.push_back(v.ok() ? *v : 0.0);
  }
  std::cout << muve::viz::RenderBarChart(series) << "\n";

  // 4. View recommendation: which views make the 'south' region look most
  //    different from the whole company?
  std::cout << "== RECOMMEND TOP 3 VIEWS FROM sales WHERE region = 'south' "
               "USING MUVE ==\n";
  auto rec = muve::core::RecommendSql(
      "RECOMMEND TOP 3 VIEWS FROM sales WHERE region = 'south' "
      "USING MUVE WEIGHTS (0.4, 0.2, 0.4)",
      catalog);
  if (!rec.ok()) Fail(rec.status());
  std::cout << rec->ToString() << "\n";

  std::cout << "\nDone. Next: examples/nba_exploration and "
               "examples/diabetes_exploration reproduce the paper's "
               "workloads.\n";
  return 0;
}
