// Recursive-descent parser for the MuVE SQL dialect.  See ast.h for the
// grammar surface.

#ifndef MUVE_SQL_PARSER_H_
#define MUVE_SQL_PARSER_H_

#include <string>

#include "common/status.h"
#include "sql/ast.h"

namespace muve::sql {

// Parses a single statement (SELECT or RECOMMEND).  Trailing semicolons
// are allowed; trailing garbage is an error.
common::Result<Statement> Parse(const std::string& sql);

// Convenience wrapper that fails when the statement is not a SELECT.
common::Result<SelectStatement> ParseSelect(const std::string& sql);

// Parses a bare predicate — the text after WHERE, e.g. "team = 'GSW'" —
// into an unbound tree.  The one entry point for predicate text from
// muved, muve_cli and data::Bind.  A trailing GROUP BY (and with it
// NUMBER OF BINS / HAVING), ORDER BY or LIMIT is InvalidArgument rather
// than silently dropped.
common::Result<storage::PredicatePtr> ParseWhere(const std::string& text);

}  // namespace muve::sql

#endif  // MUVE_SQL_PARSER_H_
