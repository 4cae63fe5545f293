// Ablation: equi-width bar-chart binning vs classic histogram shapes.
//
// Section III-A argues binned views must be equi-width (the only shape a
// standard bar chart can draw) even though equi-depth and V-optimal
// histograms approximate the data better.  This bench quantifies what
// that choice costs in approximation error: per bucket count, the SSE of
// the three partitioning schemes over real view series from the NBA
// dataset, plus V-optimal's construction-time premium.

#include <iostream>

#include "common/logging.h"
#include "common/stopwatch.h"
#include "common/string_util.h"
#include "data/nba.h"
#include "harness.h"
#include "storage/group_by.h"
#include "histogram.h"

int main(int argc, char** argv) {
  muve::bench::InitBench(&argc, argv);
  using muve::storage::BuildHistogram;
  using muve::storage::Histogram;

  std::cout << "=== Ablation: equi-width vs equi-depth vs V-optimal "
               "(Section III-A) ===\n";
  const muve::data::Dataset dataset = muve::data::MakeNbaDataset();

  // The raw series of a representative view: per-MP SUM(PER) over all
  // players (the kind of series the accuracy objective approximates).
  auto grouped = muve::storage::GroupByAggregate(
      *dataset.table, dataset.all_rows, "MP", "PER",
      muve::storage::AggregateFunction::kSum);
  MUVE_CHECK(grouped.ok());
  const std::vector<double>& series = grouped->aggregates;
  std::cout << "Series: SUM(PER) BY MP over all players, "
            << series.size() << " distinct values\n";

  muve::bench::TablePrinter table({"buckets", "equi-width SSE",
                                   "equi-depth SSE", "V-optimal SSE",
                                   "V-opt vs equi-width",
                                   "V-opt build(ms)"});
  for (const int buckets : {2, 4, 8, 16, 32, 64}) {
    auto equi_w =
        BuildHistogram(Histogram::Kind::kEquiWidth, series, buckets);
    auto equi_d =
        BuildHistogram(Histogram::Kind::kEquiDepth, series, buckets);
    muve::common::Stopwatch timer;
    auto v_opt =
        BuildHistogram(Histogram::Kind::kVOptimal, series, buckets);
    const double v_opt_ms = timer.ElapsedMillis();
    MUVE_CHECK(equi_w.ok());
    MUVE_CHECK(equi_d.ok());
    MUVE_CHECK(v_opt.ok());
    const double ew = equi_w->TotalSse();
    const double vo = v_opt->TotalSse();
    table.AddRow({std::to_string(buckets),
                  muve::common::FormatDouble(ew, 1),
                  muve::common::FormatDouble(equi_d->TotalSse(), 1),
                  muve::common::FormatDouble(vo, 1),
                  muve::bench::Pct(ew > 0 ? 1.0 - vo / ew : 0.0),
                  muve::bench::Ms(v_opt_ms)});
  }
  table.Print("Total SSE by partitioning scheme (lower is better; "
              "V-optimal is the error floor bar charts give up)");
  return 0;
}
