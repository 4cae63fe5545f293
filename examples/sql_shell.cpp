// Interactive SQL shell over the bundled datasets.
//
//   $ ./build/examples/sql_shell
//   muve> SELECT Team, COUNT(*) FROM players GROUP BY Team ORDER BY Team
//         LIMIT 5;
//   muve> SELECT MP, SUM(3PAr) FROM players WHERE Team = 'GSW'
//         GROUP BY MP NUMBER OF BINS 3;
//   muve> RECOMMEND TOP 3 VIEWS FROM players WHERE Team = 'GSW'
//         USING MUVE WEIGHTS (0.6, 0.2, 0.2);
//   muve> \q
//
// Tables available: `players` (synthetic 2015 NBA) and `patients`
// (synthetic Pima diabetes); CREATE TABLE adds more.  Tables live in a
// storage::Catalog, the MVCC catalog muved serves from: names are
// case-insensitive, and INSERT / LOAD CSV each publish one all-or-nothing
// append.  Also reads statements from stdin when piped, which the
// `examples` ctest (tests/examples/examples_smoke.sh) uses:
//
//   $ echo "SELECT COUNT(*) FROM patients;" | ./build/examples/sql_shell

#include <unistd.h>

#include <iostream>
#include <string>

#include "common/logging.h"
#include "core/recommend_sql.h"
#include "data/diab.h"
#include "data/nba.h"
#include "sql/executor.h"
#include "sql/parser.h"
#include "storage/catalog.h"

namespace {

void ExecuteLine(const std::string& line, muve::storage::Catalog& catalog) {
  auto parsed = muve::sql::Parse(line);
  if (!parsed.ok()) {
    std::cout << "error: " << parsed.status().ToString() << "\n";
    return;
  }
  if (parsed->kind == muve::sql::Statement::Kind::kRecommend) {
    auto rec = muve::core::ExecuteRecommend(parsed->recommend, catalog);
    if (!rec.ok()) {
      std::cout << "error: " << rec.status().ToString() << "\n";
      return;
    }
    std::cout << rec->ToString() << "\n";
    return;
  }
  auto result = muve::sql::ExecuteStatement(*parsed, catalog);
  if (!result.ok()) {
    std::cout << "error: " << result.status().ToString() << "\n";
    return;
  }
  if (result->table.has_value()) {
    std::cout << result->table->ToString(20);
  }
  std::cout << result->message << "\n";
}

}  // namespace

int main() {
  muve::storage::Catalog catalog;
  {
    const muve::data::Dataset nba = muve::data::MakeNbaDataset();
    const muve::data::Dataset diab = muve::data::MakeDiabDataset();
    MUVE_CHECK(catalog.Create("players", nba.table->Clone()).ok());
    MUVE_CHECK(catalog.Create("patients", diab.table->Clone()).ok());
  }

  const bool interactive = isatty(0);
  if (interactive) {
    std::cout << "MuVE SQL shell — tables: players (NBA), patients "
                 "(DIAB).\n"
              << "Statements end with ';'. Type \\q to quit.\n";
  }

  std::string buffer;
  std::string line;
  while (true) {
    if (interactive) {
      std::cout << (buffer.empty() ? "muve> " : "  ... ") << std::flush;
    }
    if (!std::getline(std::cin, line)) break;
    if (line == "\\q" || line == "\\quit" || line == "exit") break;
    buffer += line;
    buffer += "\n";
    // Execute once a statement terminator shows up.
    const size_t semi = buffer.find(';');
    if (semi == std::string::npos) continue;
    const std::string stmt = buffer.substr(0, semi + 1);
    buffer.erase(0, semi + 1);
    if (stmt.find_first_not_of("; \t\n") == std::string::npos) continue;
    ExecuteLine(stmt, catalog);
  }
  return 0;
}
