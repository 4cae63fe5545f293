// muve_cli — run any recommendation configuration from the command line.
//
//   $ muve_cli --dataset=nba --scheme=muve-muve --k=5 \
//              --weights=0.6,0.2,0.2 --distance=euclidean
//   $ muve_cli --csv=mydata.csv --dims=age,height --measures=score \
//              --predicate="segment = 'trial'" --scheme=linear-linear
//   $ muve_cli --dataset=diab --scheme=linear-linear --approx=refine \
//              --fidelity
//
// Flags:
//   --dataset=diab|nba|toy    bundled dataset (default: diab; `toy` is the
//                             90-row deterministic test workload)
//   --csv=PATH                load a CSV instead (requires --dims,
//                             --measures, --predicate)
//   --dims=a,b  --measures=x,y  --cat-dims=p,q   workload columns for CSV
//   --predicate=SQL           analyst predicate selecting D_Q
//   --num-dims=N --num-measures=N --num-functions=N   workload truncation
//   --scheme=linear-linear|hc-linear|muve-linear|muve-muve
//   --weights=D,A,S           alpha weights (default 0.2,0.2,0.6)
//   --k=N                     top-k (default 5)
//   --distance=NAME           euclidean|l1|chebyshev|emd|kl|js
//   --partition=additive|geometric  --step=N
//   --approx=none|refine|skip [--def-bins=N]
//   --threads=N               worker threads (default 1)
//   --probe-order=priority|deviation-first|accuracy-first
//                             MuVE's incremental-evaluation probe order;
//                             `priority` (default) is the wall-clock-driven
//                             cost/benefit rule, the fixed orders are
//                             deterministic (used by the golden tests)
//   --deadline-ms=N           anytime budget: stop searching after N ms and
//                             print the best top-k found so far (0 = expire
//                             immediately; negative/absent = unbounded)
//   --cancel-after-ms=N       cancel the search from a watchdog thread
//                             after N ms (0 = cancel before it starts)
//   --max-rows=N              stop after charging ~N scanned rows
//   --max-cache-mb=N          cap the base-histogram cache at N MiB
//   --fidelity                also run Linear-Linear and report fidelity
//   --charts                  render the recommended views as bar charts
//
// Exit codes (from common::StatusCode, so scripts can branch on cause):
//   0  OK, complete results
//   1  internal / unclassified error
//   2  invalid arguments, parse error, or type mismatch
//   3  I/O error or missing file
//   4  deadline exceeded (partial results were printed, DEGRADED banner)
//   5  cancelled (partial results were printed, DEGRADED banner)
//   6  resource budget exhausted (partial results, DEGRADED banner)

#include <atomic>
#include <chrono>
#include <cstring>
#include <iostream>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "common/exec_context.h"
#include "common/parse.h"
#include "common/simd/simd.h"
#include "common/status.h"
#include "common/string_util.h"
#include "core/fidelity.h"
#include "core/recommender.h"
#include "data/diab.h"
#include "data/nba.h"
#include "data/toy.h"
#include "storage/binned_group_by.h"
#include "storage/csv.h"
#include "viz/bar_chart.h"
#include "viz/svg_chart.h"

namespace {

using muve::common::Result;
using muve::common::Status;

struct Flags {
  std::string dataset = "diab";
  std::string csv_path;
  std::string dims;
  std::string cat_dims;
  std::string measures;
  std::string predicate;
  size_t num_dims = 3;
  size_t num_measures = 3;
  size_t num_functions = 3;
  std::string scheme = "muve-muve";
  std::string weights = "0.2,0.2,0.6";
  int k = 5;
  std::string distance = "euclidean";
  std::string partition = "additive";
  int step = 1;
  std::string approx = "none";
  int def_bins = 4;
  int threads = 1;
  std::string probe_order = "priority";
  double deadline_ms = -1.0;      // < 0: unbounded
  double cancel_after_ms = -1.0;  // < 0: no watchdog
  int64_t max_rows = 0;           // 0: unbounded
  int max_cache_mb = 0;           // 0: library default
  bool fidelity = false;
  bool charts = false;
  std::string html_path;  // write an SVG/HTML report of the top-k
};

// Maps a StatusCode to the CLI's documented exit codes (header table,
// shared with muved's protocol error codes).
int ExitCodeFor(muve::common::StatusCode code) {
  return muve::common::ExitCodeForStatus(code);
}

// Every numeric flag goes through the strict parser (common/parse.h):
// malformed or out-of-range values ("--k=abc", "--threads=0",
// "--max-rows=99999999999999999999") are InvalidArgument errors that
// name the flag — exit 2 — never a silent 0 from atoi.
Status ParseFlags(int argc, char** argv, Flags* flags) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value_of = [&arg](const std::string& name) -> std::string {
      return arg.substr(name.size());
    };
    auto has = [&arg](const std::string& name) {
      return muve::common::StartsWith(arg, name);
    };
    // Strict numeric flag parsing: on success assigns through `out`
    // (narrowing from int64 is safe inside the given range), on failure
    // propagates the flag-naming error.
    auto parse_int = [&](const char* name, auto* out, int64_t min_value,
                         int64_t max_value) -> Status {
      auto parsed = muve::common::ParseFlagInt64(
          std::string_view(name, std::strlen(name) - 1), value_of(name),
          min_value, max_value);
      if (!parsed.ok()) return parsed.status();
      *out = static_cast<std::decay_t<decltype(*out)>>(*parsed);
      return Status::OK();
    };
    auto parse_double = [&](const char* name, double* out, double min_value,
                            double max_value) -> Status {
      auto parsed = muve::common::ParseFlagDouble(
          std::string_view(name, std::strlen(name) - 1), value_of(name),
          min_value, max_value);
      if (!parsed.ok()) return parsed.status();
      *out = *parsed;
      return Status::OK();
    };
    if (has("--dataset=")) {
      flags->dataset = value_of("--dataset=");
    } else if (has("--csv=")) {
      flags->csv_path = value_of("--csv=");
    } else if (has("--dims=")) {
      flags->dims = value_of("--dims=");
    } else if (has("--cat-dims=")) {
      flags->cat_dims = value_of("--cat-dims=");
    } else if (has("--measures=")) {
      flags->measures = value_of("--measures=");
    } else if (has("--predicate=")) {
      flags->predicate = value_of("--predicate=");
    } else if (has("--num-dims=")) {
      MUVE_RETURN_IF_ERROR(
          parse_int("--num-dims=", &flags->num_dims, 1, 1 << 20));
    } else if (has("--num-measures=")) {
      MUVE_RETURN_IF_ERROR(
          parse_int("--num-measures=", &flags->num_measures, 1, 1 << 20));
    } else if (has("--num-functions=")) {
      MUVE_RETURN_IF_ERROR(
          parse_int("--num-functions=", &flags->num_functions, 1, 1 << 20));
    } else if (has("--scheme=")) {
      flags->scheme = muve::common::ToLower(value_of("--scheme="));
    } else if (has("--weights=")) {
      flags->weights = value_of("--weights=");
    } else if (has("--k=")) {
      MUVE_RETURN_IF_ERROR(parse_int("--k=", &flags->k, 1, 1000000));
    } else if (has("--distance=")) {
      flags->distance = value_of("--distance=");
    } else if (has("--partition=")) {
      flags->partition = muve::common::ToLower(value_of("--partition="));
    } else if (has("--step=")) {
      MUVE_RETURN_IF_ERROR(parse_int("--step=", &flags->step, 1, 1000000));
    } else if (has("--approx=")) {
      flags->approx = muve::common::ToLower(value_of("--approx="));
    } else if (has("--def-bins=")) {
      MUVE_RETURN_IF_ERROR(
          parse_int("--def-bins=", &flags->def_bins, 1, 1000000));
    } else if (has("--threads=")) {
      MUVE_RETURN_IF_ERROR(parse_int("--threads=", &flags->threads, 1, 4096));
    } else if (has("--probe-order=")) {
      flags->probe_order = muve::common::ToLower(value_of("--probe-order="));
    } else if (has("--deadline-ms=")) {
      // Negative = unbounded (documented); still must parse strictly.
      MUVE_RETURN_IF_ERROR(parse_double("--deadline-ms=", &flags->deadline_ms,
                                        -1e15, 1e15));
    } else if (has("--cancel-after-ms=")) {
      MUVE_RETURN_IF_ERROR(parse_double("--cancel-after-ms=",
                                        &flags->cancel_after_ms, -1e15, 1e15));
    } else if (has("--max-rows=")) {
      MUVE_RETURN_IF_ERROR(parse_int("--max-rows=", &flags->max_rows, 0,
                                     std::numeric_limits<int64_t>::max()));
    } else if (has("--max-cache-mb=")) {
      MUVE_RETURN_IF_ERROR(
          parse_int("--max-cache-mb=", &flags->max_cache_mb, 0, 1 << 20));
    } else if (arg == "--fidelity") {
      flags->fidelity = true;
    } else if (arg == "--charts") {
      flags->charts = true;
    } else if (has("--html=")) {
      flags->html_path = value_of("--html=");
    } else if (arg == "--help" || arg == "-h") {
      return Status::InvalidArgument("help requested");
    } else {
      return Status::InvalidArgument("unknown flag: " + arg);
    }
  }
  return Status::OK();
}

Result<muve::core::SearchOptions> BuildOptions(const Flags& flags) {
  muve::core::SearchOptions options;
  const auto scheme = muve::core::SchemeFromName(flags.scheme);
  if (!scheme) {
    return Status::InvalidArgument("unknown --scheme: " + flags.scheme);
  }
  options.horizontal = scheme->horizontal;
  options.vertical = scheme->vertical;

  const auto parts = muve::common::Split(flags.weights, ',');
  if (parts.size() != 3) {
    return Status::InvalidArgument("--weights needs D,A,S");
  }
  double w[3];
  for (int i = 0; i < 3; ++i) {
    MUVE_ASSIGN_OR_RETURN(
        w[i], muve::common::ParseFlagDouble(
                  "--weights", muve::common::Trim(parts[i]), 0.0, 1.0));
  }
  options.weights = muve::core::Weights{w[0], w[1], w[2]};
  options.k = flags.k;
  MUVE_ASSIGN_OR_RETURN(options.distance,
                        muve::core::DistanceKindFromName(flags.distance));
  if (flags.partition == "geometric") {
    options.partition.kind = muve::core::PartitionKind::kGeometric;
  } else if (flags.partition != "additive") {
    return Status::InvalidArgument("unknown --partition: " + flags.partition);
  }
  options.partition.step = flags.step;
  if (flags.approx == "refine") {
    options.approximation = muve::core::VerticalApproximation::kRefinement;
  } else if (flags.approx == "skip") {
    options.approximation = muve::core::VerticalApproximation::kSkipping;
  } else if (flags.approx != "none") {
    return Status::InvalidArgument("unknown --approx: " + flags.approx);
  }
  options.refinement_default_bins = flags.def_bins;
  options.num_threads = flags.threads;
  const auto probe_order = muve::core::ProbeOrderFromName(flags.probe_order);
  if (!probe_order) {
    return Status::InvalidArgument("unknown --probe-order: " +
                                   flags.probe_order);
  }
  options.probe_order = *probe_order;
  options.deadline_ms = flags.deadline_ms;
  options.max_rows_scanned = flags.max_rows > 0 ? flags.max_rows : 0;
  if (flags.max_cache_mb > 0) {
    options.max_cache_bytes =
        static_cast<size_t>(flags.max_cache_mb) * (size_t{1} << 20);
  }
  return options;
}

Result<muve::data::Dataset> BuildDataset(const Flags& flags) {
  if (!flags.csv_path.empty()) {
    if (flags.dims.empty() || flags.measures.empty() ||
        flags.predicate.empty()) {
      return Status::InvalidArgument(
          "--csv requires --dims, --measures, and --predicate");
    }
    muve::storage::CsvLoadStats load_stats;
    MUVE_ASSIGN_OR_RETURN(
        muve::storage::Table table,
        muve::storage::ReadCsvFile(flags.csv_path, {}, &load_stats));
    muve::data::Workload workload;
    for (const auto& d : muve::common::Split(flags.dims, ',')) {
      workload.dimensions.push_back(std::string(muve::common::Trim(d)));
    }
    if (!flags.cat_dims.empty()) {
      for (const auto& d : muve::common::Split(flags.cat_dims, ',')) {
        workload.categorical_dimensions.push_back(
            std::string(muve::common::Trim(d)));
      }
    }
    for (const auto& m : muve::common::Split(flags.measures, ',')) {
      workload.measures.push_back(std::string(muve::common::Trim(m)));
    }
    workload.functions = {muve::storage::AggregateFunction::kSum,
                          muve::storage::AggregateFunction::kAvg,
                          muve::storage::AggregateFunction::kCount};
    MUVE_ASSIGN_OR_RETURN(
        muve::data::Dataset ds,
        muve::data::Bind(
            flags.csv_path,
            std::make_shared<muve::storage::Table>(std::move(table)),
            workload, flags.predicate));
    ds.setup_time_ms += load_stats.parse_ms;
    return ds;
  }

  muve::data::Dataset base;
  if (flags.dataset == "diab") {
    base = muve::data::MakeDiabDataset();
  } else if (flags.dataset == "nba") {
    base = muve::data::MakeNbaDataset();
  } else if (flags.dataset == "toy") {
    base = muve::data::MakeToyDataset();
  } else {
    return Status::InvalidArgument("unknown --dataset: " + flags.dataset);
  }
  return muve::data::WithWorkloadSize(base, flags.num_dims,
                                      flags.num_measures,
                                      flags.num_functions);
}

// Builds the grouped-bar charts (normalized target vs comparison) of the
// recommendation's numeric-dimension views.
std::vector<muve::viz::GroupedBarChart> BuildCharts(
    const muve::data::Dataset& dataset,
    const muve::core::Recommendation& rec) {
  std::vector<muve::viz::GroupedBarChart> charts;
  for (const muve::core::ScoredView& sv : rec.views) {
    auto dim_col = dataset.table->ColumnByName(sv.view.dimension);
    if (!dim_col.ok() ||
        (*dim_col)->type() == muve::storage::ValueType::kString) {
      continue;
    }
    const double lo = (*dim_col)->NumericMin().value_or(0);
    const double hi = (*dim_col)->NumericMax().value_or(0);
    auto target = muve::storage::BinnedAggregate(
        *dataset.table, dataset.target_rows, sv.view.dimension,
        sv.view.measure, sv.view.function, sv.bins, lo, hi);
    auto comparison = muve::storage::BinnedAggregate(
        *dataset.table, dataset.all_rows, sv.view.dimension, sv.view.measure,
        sv.view.function, sv.bins, lo, hi);
    if (!target.ok() || !comparison.ok()) continue;
    auto normalize = [](std::vector<double> v) {
      double total = 0;
      for (double& x : v) total += std::max(x, 0.0);
      if (total > 0) {
        for (double& x : v) x = std::max(x, 0.0) / total;
      }
      return v;
    };
    muve::viz::GroupedBarChart chart;
    chart.title = sv.ToString();
    chart.labels = muve::viz::BinLabels(lo, hi, sv.bins);
    chart.target = normalize(target->aggregates);
    chart.comparison = normalize(comparison->aggregates);
    charts.push_back(std::move(chart));
  }
  return charts;
}

void RenderCharts(const muve::data::Dataset& dataset,
                  const muve::core::Recommendation& rec) {
  for (const muve::core::ScoredView& sv : rec.views) {
    auto dim_col = dataset.table->ColumnByName(sv.view.dimension);
    if (!dim_col.ok() ||
        (*dim_col)->type() == muve::storage::ValueType::kString) {
      continue;  // categorical views skipped in chart mode
    }
    const double lo = (*dim_col)->NumericMin().value_or(0);
    const double hi = (*dim_col)->NumericMax().value_or(0);
    auto target = muve::storage::BinnedAggregate(
        *dataset.table, dataset.target_rows, sv.view.dimension,
        sv.view.measure, sv.view.function, sv.bins, lo, hi);
    auto comparison = muve::storage::BinnedAggregate(
        *dataset.table, dataset.all_rows, sv.view.dimension, sv.view.measure,
        sv.view.function, sv.bins, lo, hi);
    if (!target.ok() || !comparison.ok()) continue;
    muve::viz::Series left;
    left.title = "target";
    left.labels = muve::viz::BinLabels(lo, hi, sv.bins);
    left.values = target->aggregates;
    muve::viz::Series right;
    right.title = "comparison";
    right.labels = left.labels;
    right.values = comparison->aggregates;
    muve::viz::BarChartOptions viz;
    viz.normalize = true;
    std::cout << "\n" << sv.ToString() << "\n"
              << muve::viz::RenderSideBySide(left, right, viz);
  }
}

int RunCli(int argc, char** argv) {
  Flags flags;
  if (Status st = ParseFlags(argc, argv, &flags); !st.ok()) {
    std::cerr << st.message() << "\n\nSee the header of tools/muve_cli.cpp "
              << "for flag documentation.\n";
    return 2;
  }

  auto dataset = BuildDataset(flags);
  if (!dataset.ok()) {
    std::cerr << "dataset error: " << dataset.status().ToString() << "\n";
    return ExitCodeFor(dataset.status().code());
  }
  auto options = BuildOptions(flags);
  if (!options.ok()) {
    std::cerr << "options error: " << options.status().ToString() << "\n";
    return ExitCodeFor(options.status().code());
  }
  auto recommender = muve::core::Recommender::Create(*dataset);
  if (!recommender.ok()) {
    std::cerr << "workload error: " << recommender.status().ToString()
              << "\n";
    return ExitCodeFor(recommender.status().code());
  }
  std::cout << "dataset: " << dataset->name << " ("
            << dataset->table->num_rows() << " rows, "
            << dataset->target_rows.size() << " in D_Q)\n"
            << "views:   " << recommender->space().views().size()
            << " candidates, " << recommender->space().TotalBinnedViews()
            << " binned views\n"
            << "engine:  simd=" << muve::common::simd::ActiveLevelName()
            << "\n";
  // Optional cancellation watchdog: a side thread trips the token after
  // --cancel-after-ms.  The search notices at its next work boundary and
  // returns the best top-k found so far (DEGRADED, exit code 5).
  std::shared_ptr<muve::common::CancellationToken> cancel_token;
  std::thread watchdog;
  std::atomic<bool> search_done{false};
  if (flags.cancel_after_ms >= 0.0) {
    cancel_token = std::make_shared<muve::common::CancellationToken>();
    options->cancel_token = cancel_token;
    if (flags.cancel_after_ms == 0.0) {
      cancel_token->Cancel();  // Cancel before the search even starts.
    } else {
      watchdog = std::thread([cancel_token, &search_done,
                              ms = flags.cancel_after_ms] {
        const auto stop =
            std::chrono::steady_clock::now() +
            std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                std::chrono::duration<double, std::milli>(ms));
        // Poll so a fast search does not leave the CLI waiting out the
        // full timer before it can exit.
        while (!search_done.load(std::memory_order_relaxed) &&
               std::chrono::steady_clock::now() < stop) {
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
        if (!search_done.load(std::memory_order_relaxed)) {
          cancel_token->Cancel();
        }
      });
    }
  }
  auto rec = recommender->Recommend(*options);
  search_done.store(true, std::memory_order_relaxed);
  if (watchdog.joinable()) watchdog.join();
  if (!rec.ok()) {
    std::cerr << "recommendation error: " << rec.status().ToString() << "\n";
    return ExitCodeFor(rec.status().code());
  }
  std::cout << rec->ToString() << "\n";
  const muve::core::ExecCompleteness& completeness = rec->stats.completeness;
  if (completeness.degraded) {
    std::cout << "*** DEGRADED ("
              << muve::common::StatusCodeName(completeness.status)
              << "): partial top-k — views_done="
              << completeness.views_fully_searched << " bins_pruned="
              << completeness.bins_pruned_by_deadline << " ***\n";
  }

  if (flags.fidelity) {
    auto baseline_options = *options;
    baseline_options.horizontal = muve::core::HorizontalStrategy::kLinear;
    baseline_options.vertical = muve::core::VerticalStrategy::kLinear;
    baseline_options.approximation =
        muve::core::VerticalApproximation::kNone;
    baseline_options.partition = muve::core::PartitionSpec{};
    auto baseline = recommender->Recommend(baseline_options);
    if (baseline.ok()) {
      std::cout << "fidelity vs Linear-Linear: "
                << muve::common::FormatDouble(
                       muve::core::Fidelity(baseline->views, rec->views) *
                           100.0,
                       1)
                << "%\n";
    }
  }
  if (flags.charts) RenderCharts(*dataset, *rec);
  if (!flags.html_path.empty()) {
    const auto charts = BuildCharts(*dataset, *rec);
    const auto st = muve::viz::WriteHtmlReport(
        flags.html_path,
        rec->scheme + " top-" + std::to_string(rec->views.size()) + " — " +
            dataset->name,
        charts);
    if (!st.ok()) {
      std::cerr << "html report error: " << st.ToString() << "\n";
      return ExitCodeFor(st.code());
    }
    std::cout << "wrote " << flags.html_path << " (" << charts.size()
              << " charts)\n";
  }
  // Degraded runs exit nonzero even though partial results were printed,
  // so scripts can distinguish "complete top-k" from "whatever fit in the
  // budget" without parsing the banner.
  return completeness.degraded ? ExitCodeFor(completeness.status) : 0;
}

}  // namespace

int main(int argc, char** argv) { return RunCli(argc, argv); }
