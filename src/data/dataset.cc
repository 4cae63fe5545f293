#include "data/dataset.h"

#include <utility>

#include "common/stopwatch.h"
#include "sql/parser.h"

namespace muve::data {

common::Result<Dataset> Bind(std::string name,
                             std::shared_ptr<const storage::Table> table,
                             const Workload& workload,
                             const std::string& predicate_sql) {
  common::Stopwatch setup_timer;
  MUVE_ASSIGN_OR_RETURN(const storage::PredicatePtr where,
                        sql::ParseWhere(predicate_sql));
  Dataset ds;
  storage::FilterStats filter_stats;
  MUVE_ASSIGN_OR_RETURN(
      ds.target_rows,
      storage::Filter(*table, where.get(), nullptr, &filter_stats));
  if (ds.target_rows.empty()) {
    return common::Status::InvalidArgument("predicate selects no rows: " +
                                           predicate_sql);
  }
  ds.all_rows = storage::AllRows(table->num_rows());
  ds.name = std::move(name);
  ds.table = std::move(table);
  ds.dimensions = workload.dimensions;
  ds.measures = workload.measures;
  ds.functions = workload.functions;
  ds.categorical_dimensions = workload.categorical_dimensions;
  ds.query_predicate_sql = predicate_sql;
  ds.predicate_rows_filtered = filter_stats.rows_in - filter_stats.rows_out;
  ds.chunks_skipped = filter_stats.chunks_skipped;
  ds.setup_time_ms = setup_timer.ElapsedMillis();
  return ds;
}

Workload WorkloadOf(const Dataset& dataset) {
  return Workload{dataset.dimensions, dataset.measures, dataset.functions,
                  dataset.categorical_dimensions,
                  dataset.query_predicate_sql};
}

Dataset WithWorkloadSize(const Dataset& dataset, size_t num_dimensions,
                         size_t num_measures, size_t num_functions) {
  Dataset out = dataset;
  if (num_dimensions < out.dimensions.size()) {
    out.dimensions.resize(num_dimensions);
  }
  if (num_measures < out.measures.size()) {
    out.measures.resize(num_measures);
  }
  if (num_functions < out.functions.size()) {
    out.functions.resize(num_functions);
  }
  return out;
}

}  // namespace muve::data
