// Dataset bundle: a table plus the exploration setup the paper's
// experiments assume — which attributes are dimensions, which are
// measures, which aggregate functions are in play, and the analyst's
// query predicate T that selects the subset D_Q.
//
// Bind is the one place a Dataset's selection is built: every front end
// (the bundled loaders, muved's registry, SQL RECOMMEND, muve_cli --csv,
// the scale bench) hands it (table, workload, predicate text).

#ifndef MUVE_DATA_DATASET_H_
#define MUVE_DATA_DATASET_H_

#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "storage/aggregate.h"
#include "storage/predicate.h"
#include "storage/table.h"

namespace muve::data {

// The exploration workload attached to a table: which columns are
// dimensions/measures, the aggregate functions in play, and the table's
// default analyst predicate ("" = none).
struct Workload {
  std::vector<std::string> dimensions;
  std::vector<std::string> measures;
  std::vector<storage::AggregateFunction> functions;
  std::vector<std::string> categorical_dimensions;
  std::string default_predicate;
};

// A fully-specified exploration workload over one table.
struct Dataset {
  std::string name;
  std::shared_ptr<const storage::Table> table;

  // The paper's A (numerical dimension attributes) and M (measures).
  std::vector<std::string> dimensions;
  std::vector<std::string> measures;
  std::vector<storage::AggregateFunction> functions;

  // Categorical dimensions (no binning; the SeeDB setting).  Views over
  // these enter the vertical search with a single candidate each.
  std::vector<std::string> categorical_dimensions;

  // SQL text of the analyst's selection predicate (e.g. "team = 'GSW'"),
  // kept as text so each consumer can build and bind its own tree.
  std::string query_predicate_sql;

  // Rows of D_Q (the predicate's selection) and D_B (everything).
  storage::RowSet target_rows;
  storage::RowSet all_rows;

  // Setup accounting (outside the paper's per-probe cost C): rows the
  // analyst predicate eliminated when selecting D_Q, and wall-clock spent
  // on data load + predicate filtering.  The Recommender copies these
  // into every Recommendation's ExecStats (predicate_rows_filtered /
  // setup_time_ms) so end-to-end runs report one-off costs explicitly.
  int64_t predicate_rows_filtered = 0;
  // Column chunks the setup predicate never scanned because their zone
  // maps decided them wholesale (0 on single-chunk tables).
  int64_t chunks_skipped = 0;
  double setup_time_ms = 0.0;
};

// Binds `workload` over `table` under `predicate_sql`, a bare WHERE
// condition (sql::ParseWhere): D_Q is the rows it selects, D_B every
// row, and the setup accounting (rows filtered, chunks skipped, parse +
// filter wall-clock) is filled in.  Parse and bind errors pass through;
// a predicate selecting no rows is InvalidArgument, since there would be
// no deviation to measure.
common::Result<Dataset> Bind(std::string name,
                             std::shared_ptr<const storage::Table> table,
                             const Workload& workload,
                             const std::string& predicate_sql);

// The workload `dataset` was bound with; its predicate becomes the
// default.
Workload WorkloadOf(const Dataset& dataset);

// Restricts `dataset`'s workload to the first `num_dimensions` dimensions /
// `num_measures` measures / `num_functions` functions (for the paper's
// scalability sweeps).  Counts are clamped to what is available.
Dataset WithWorkloadSize(const Dataset& dataset, size_t num_dimensions,
                         size_t num_measures, size_t num_functions);

}  // namespace muve::data

#endif  // MUVE_DATA_DATASET_H_
