// Glue between the SQL front end and the recommender: executes a parsed
// RECOMMEND statement against a table of a storage::Catalog.
//
//   RECOMMEND TOP 5 VIEWS FROM players WHERE team = 'GSW'
//     USING MUVE WEIGHTS (0.2, 0.2, 0.6) DISTANCE EUCLIDEAN;
//
// The table's schema roles (FieldRole::kDimension / kMeasure) define the
// workload, and the WHERE text binds over the table's current snapshot
// through data::Bind, the binder muved uses.  USING selects the
// SearchH-SearchV combination by name through core::SchemeFromName:
// LINEAR (Linear-Linear), HC (HC-Linear), MUVE_LINEAR (MuVE-Linear), or
// MUVE (MuVE-MuVE).

#ifndef MUVE_CORE_RECOMMEND_SQL_H_
#define MUVE_CORE_RECOMMEND_SQL_H_

#include <string>

#include "common/status.h"
#include "core/recommender.h"
#include "sql/ast.h"
#include "storage/catalog.h"

namespace muve::core {

// Builds the dataset workload for `stmt` from the catalog and runs the
// recommendation.  The statement's WHERE predicate selects D_Q; an absent
// predicate is an error (there would be no deviation to measure).
common::Result<Recommendation> ExecuteRecommend(
    const sql::RecommendStatement& stmt, const storage::Catalog& catalog);

// Parses `sql` (must be a RECOMMEND statement) and executes it.
common::Result<Recommendation> RecommendSql(const std::string& sql,
                                            const storage::Catalog& catalog);

}  // namespace muve::core

#endif  // MUVE_CORE_RECOMMEND_SQL_H_
