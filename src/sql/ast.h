// Abstract syntax for the MuVE SQL dialect.
//
// Two statement kinds:
//
//   SELECT  — projection / filtering / single-attribute (optionally binned)
//             group-by aggregation, exactly the query shape of Section II-A
//             and the binned-view extension of Section III-A:
//
//               SELECT A, F(M) FROM T WHERE P GROUP BY A NUMBER OF BINS b;
//
//   RECOMMEND — the user-facing entry point to view recommendation:
//
//               RECOMMEND TOP 5 VIEWS FROM players WHERE team = 'GSW'
//                 USING MUVE WEIGHTS (0.2, 0.2, 0.6);
//
// WHERE clauses parse directly into storage::Predicate trees, so the
// executor has no expression interpreter of its own.

#ifndef MUVE_SQL_AST_H_
#define MUVE_SQL_AST_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "storage/aggregate.h"
#include "storage/predicate.h"

namespace muve::sql {

// One entry of a SELECT list.
struct SelectItem {
  enum class Kind {
    kStar,       // *
    kColumn,     // plain column reference
    kAggregate,  // F(column) or COUNT(*)
  };

  Kind kind = Kind::kColumn;
  std::string column;  // for kColumn and the aggregate argument
  storage::AggregateFunction function = storage::AggregateFunction::kSum;
  bool count_star = false;  // COUNT(*)
  std::string alias;        // optional AS alias

  // Output column name: the alias when present, otherwise a derived name
  // like "SUM(3PAr)".
  std::string OutputName() const;
};

struct OrderBy {
  std::string column;
  bool descending = false;
};

struct SelectStatement {
  std::vector<SelectItem> items;
  std::string table_name;
  storage::PredicatePtr where;          // null when absent
  std::optional<std::string> group_by;  // single attribute per the paper
  std::optional<int> num_bins;          // NUMBER OF BINS extension
  // HAVING filters the aggregated result by its *output* column names
  // (use AS aliases for aggregates: ... SUM(m) AS total ... HAVING
  // total > 10).
  storage::PredicatePtr having;         // null when absent
  std::optional<OrderBy> order_by;
  std::optional<int64_t> limit;

  std::string ToString() const;
};

struct RecommendStatement {
  int top_k = 5;
  std::string table_name;
  storage::PredicatePtr where;  // the exploration query's T predicate
  std::string where_sql;        // its source text, for data::Bind
  std::string scheme = "MUVE";  // MUVE | LINEAR | HC (horizontal-vertical
                                // combos resolved by the recommender glue)
  // alpha_D, alpha_A, alpha_S; defaults to the paper's default setting.
  double alpha_d = 0.2;
  double alpha_a = 0.2;
  double alpha_s = 0.6;
  std::string distance = "EUCLIDEAN";

  std::string ToString() const;
};

// CREATE TABLE name (col TYPE [DIMENSION|MEASURE|CATEGORICAL], ...)
// Types: INT/INTEGER/BIGINT, DOUBLE/FLOAT/REAL, TEXT/STRING/VARCHAR.
struct CreateTableStatement {
  std::string table_name;
  storage::Schema schema;

  std::string ToString() const;
};

// INSERT INTO name VALUES (v, ...), (v, ...), ...
struct InsertStatement {
  std::string table_name;
  std::vector<std::vector<storage::Value>> rows;

  std::string ToString() const;
};

// LOAD CSV 'path' INTO name — appends a CSV file's rows to an existing
// table (the file's header must match the table schema).
struct LoadCsvStatement {
  std::string path;
  std::string table_name;

  std::string ToString() const;
};

struct Statement {
  enum class Kind { kSelect, kRecommend, kCreateTable, kInsert, kLoadCsv };
  Kind kind = Kind::kSelect;
  SelectStatement select;
  RecommendStatement recommend;
  CreateTableStatement create_table;
  InsertStatement insert;
  LoadCsvStatement load_csv;
};

}  // namespace muve::sql

#endif  // MUVE_SQL_AST_H_
