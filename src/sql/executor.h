// Executes SQL statements against a storage::Catalog, the same MVCC
// catalog muved serves from.  SELECT reads one snapshot and produces a
// result table; INSERT and LOAD CSV publish through Catalog::Append.
// Table names are case-insensitive: CREATE TABLE stores the lowercased
// name and every lookup lowercases too.
//
// Supported shapes:
//   * projection + filtering:      SELECT a, b FROM t WHERE p
//   * scalar aggregation:          SELECT SUM(m), COUNT(*) FROM t WHERE p
//   * single-attribute group-by:   SELECT a, F(m) FROM t [WHERE p] GROUP BY a
//   * binned group-by (paper ext): ... GROUP BY a NUMBER OF BINS b
//   * ORDER BY <output column> [ASC|DESC], LIMIT n
//
// For binned group-by the binning range is the dimension's min/max over the
// *whole* table (not the filtered subset), so a target query (with WHERE)
// and its comparison query (without) share bin boundaries — the invariant
// the deviation metric needs (Section III-A).

#ifndef MUVE_SQL_EXECUTOR_H_
#define MUVE_SQL_EXECUTOR_H_

#include <optional>
#include <string>

#include "common/status.h"
#include "sql/ast.h"
#include "storage/catalog.h"
#include "storage/table.h"

namespace muve::sql {

// The current snapshot of the table SQL calls `name`; NotFound when
// absent.
common::Result<storage::Catalog::Snapshot> GetTable(
    const storage::Catalog& catalog, const std::string& name);

// Executes `stmt` (whose WHERE predicate gets bound in the process).
common::Result<storage::Table> Execute(SelectStatement& stmt,
                                       const storage::Catalog& catalog);

// Parses and executes in one call.
common::Result<storage::Table> ExecuteSql(const std::string& sql,
                                          const storage::Catalog& catalog);

// Result of a general statement: SELECT carries a result table, DDL/DML
// carry a human-readable confirmation.
struct StatementResult {
  std::optional<storage::Table> table;
  std::string message;
};

// Executes any statement kind except RECOMMEND (which needs the
// recommendation engine; see core/recommend_sql.h).  DDL/DML semantics:
//   CREATE TABLE — Catalog::Create of an empty table with the given
//                  schema/roles (AlreadyExists when the name is taken);
//   INSERT — one all-or-nothing Catalog::Append of the VALUES rows;
//   LOAD CSV — one all-or-nothing Catalog::Append of a CSV file parsed
//              under the table's schema (header names and cell types
//              enforced).
// Each append publishes a new snapshot; readers holding the old one
// are not perturbed.
common::Result<StatementResult> ExecuteStatement(Statement& stmt,
                                                 storage::Catalog& catalog);

}  // namespace muve::sql

#endif  // MUVE_SQL_EXECUTOR_H_
