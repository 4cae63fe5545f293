#include "core/recommend_sql.h"

#include <optional>

#include "data/dataset.h"
#include "sql/executor.h"
#include "sql/parser.h"

namespace muve::core {

namespace {

common::Result<SearchOptions> OptionsFromStatement(
    const sql::RecommendStatement& stmt) {
  SearchOptions options;
  options.k = stmt.top_k;
  options.weights = Weights{stmt.alpha_d, stmt.alpha_a, stmt.alpha_s};
  MUVE_ASSIGN_OR_RETURN(options.distance,
                        DistanceKindFromName(stmt.distance));
  const std::optional<Scheme> scheme = SchemeFromName(stmt.scheme);
  if (!scheme) {
    return common::Status::InvalidArgument(
        "unknown recommendation scheme '" + stmt.scheme +
        "' (expected LINEAR, HC, MUVE_LINEAR, or MUVE)");
  }
  options.horizontal = scheme->horizontal;
  options.vertical = scheme->vertical;
  return options;
}

}  // namespace

common::Result<Recommendation> ExecuteRecommend(
    const sql::RecommendStatement& stmt, const storage::Catalog& catalog) {
  MUVE_ASSIGN_OR_RETURN(const storage::Catalog::Snapshot snap,
                        sql::GetTable(catalog, stmt.table_name));
  if (stmt.where == nullptr) {
    return common::Status::InvalidArgument(
        "RECOMMEND requires a WHERE predicate selecting the analyzed "
        "subset D_Q");
  }
  const storage::Schema& schema = snap.table->schema();
  data::Workload workload;
  workload.dimensions =
      schema.FieldNamesWithRole(storage::FieldRole::kDimension);
  workload.categorical_dimensions =
      schema.FieldNamesWithRole(storage::FieldRole::kCategoricalDimension);
  workload.measures = schema.FieldNamesWithRole(storage::FieldRole::kMeasure);
  workload.functions = {storage::AggregateFunction::kSum,
                        storage::AggregateFunction::kAvg,
                        storage::AggregateFunction::kCount};
  if ((workload.dimensions.empty() &&
       workload.categorical_dimensions.empty()) ||
      workload.measures.empty()) {
    return common::Status::InvalidArgument(
        "table '" + stmt.table_name +
        "' has no dimension/measure role annotations; RECOMMEND needs a "
        "schema with FieldRole::kDimension and kMeasure fields");
  }
  // The snapshot is pinned by the dataset: a concurrent append publishes
  // a new version without perturbing this recommendation.
  MUVE_ASSIGN_OR_RETURN(
      data::Dataset dataset,
      data::Bind(stmt.table_name, snap.table, workload, stmt.where_sql));
  MUVE_ASSIGN_OR_RETURN(const SearchOptions options,
                        OptionsFromStatement(stmt));
  MUVE_ASSIGN_OR_RETURN(Recommender recommender,
                        Recommender::Create(std::move(dataset)));
  return recommender.Recommend(options);
}

common::Result<Recommendation> RecommendSql(const std::string& sql,
                                            const storage::Catalog& catalog) {
  MUVE_ASSIGN_OR_RETURN(sql::Statement stmt, sql::Parse(sql));
  if (stmt.kind != sql::Statement::Kind::kRecommend) {
    return common::Status::InvalidArgument("statement is not RECOMMEND");
  }
  return ExecuteRecommend(stmt.recommend, catalog);
}

}  // namespace muve::core
