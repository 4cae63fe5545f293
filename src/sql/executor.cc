#include "sql/executor.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/string_util.h"
#include "sql/parser.h"
#include "storage/binned_group_by.h"
#include "storage/csv.h"
#include "storage/group_by.h"
#include "storage/predicate.h"

namespace muve::sql {

namespace {

using common::Result;
using common::Status;
using storage::AggregateFunction;
using storage::Field;
using storage::FieldRole;
using storage::RowSet;
using storage::Schema;
using storage::Table;
using storage::Value;
using storage::ValueType;

// Output column type for an aggregate.
ValueType AggregateOutputType(AggregateFunction f) {
  return f == AggregateFunction::kCount ? ValueType::kInt64
                                        : ValueType::kDouble;
}

Value AggregateOutputValue(AggregateFunction f, double finished) {
  if (f == AggregateFunction::kCount) {
    return Value(static_cast<int64_t>(std::llround(finished)));
  }
  return Value(finished);
}

Result<Table> ExecuteProjection(const SelectStatement& stmt,
                                const Table& table, const RowSet& rows) {
  // Expand the select list into concrete source column indexes.
  std::vector<size_t> source_cols;
  Schema out_schema;
  for (const SelectItem& item : stmt.items) {
    if (item.kind == SelectItem::Kind::kStar) {
      for (size_t c = 0; c < table.schema().num_fields(); ++c) {
        source_cols.push_back(c);
        MUVE_RETURN_IF_ERROR(out_schema.AddField(table.schema().field(c)));
      }
      continue;
    }
    if (item.kind == SelectItem::Kind::kAggregate) {
      return Status::InvalidArgument(
          "mixed aggregate and plain columns require GROUP BY");
    }
    MUVE_ASSIGN_OR_RETURN(const size_t idx,
                          table.schema().FieldIndex(item.column));
    source_cols.push_back(idx);
    Field f = table.schema().field(idx);
    if (!item.alias.empty()) f.name = item.alias;
    MUVE_RETURN_IF_ERROR(out_schema.AddField(std::move(f)));
  }

  Table out(out_schema);
  std::vector<Value> row(source_cols.size());
  for (uint32_t r : rows) {
    for (size_t c = 0; c < source_cols.size(); ++c) {
      row[c] = table.At(r, source_cols[c]);
    }
    MUVE_RETURN_IF_ERROR(out.AppendRow(row));
  }
  return out;
}

Result<Table> ExecuteScalarAggregate(const SelectStatement& stmt,
                                     const Table& table, const RowSet& rows) {
  Schema out_schema;
  std::vector<Value> row;
  for (const SelectItem& item : stmt.items) {
    if (item.kind != SelectItem::Kind::kAggregate) {
      return Status::InvalidArgument(
          "non-aggregate select item requires GROUP BY");
    }
    MUVE_RETURN_IF_ERROR(out_schema.AddField(
        Field(item.OutputName(), AggregateOutputType(item.function))));
    storage::AggregateAccumulator acc(item.function);
    if (item.count_star) {
      for (size_t i = 0; i < rows.size(); ++i) acc.Add(1.0);
    } else {
      MUVE_ASSIGN_OR_RETURN(const storage::Column* col,
                            table.ColumnByName(item.column));
      const bool is_count = item.function == AggregateFunction::kCount;
      if (col->type() == ValueType::kString && !is_count) {
        return Status::TypeMismatch("cannot aggregate string column '" +
                                    item.column + "'");
      }
      for (uint32_t r : rows) {
        if (col->IsNull(r)) continue;
        acc.Add(is_count ? 1.0 : col->NumericAt(r));
      }
    }
    row.push_back(AggregateOutputValue(item.function, acc.Finish()));
  }
  Table out(out_schema);
  MUVE_RETURN_IF_ERROR(out.AppendRow(row));
  return out;
}

Result<Table> ExecuteGroupBy(const SelectStatement& stmt, const Table& table,
                             const RowSet& rows) {
  const std::string& dim = *stmt.group_by;
  // Partition the select list: at most one reference to the group-by
  // column plus one or more aggregates.
  std::vector<const SelectItem*> aggregates;
  bool saw_dim = false;
  std::string dim_output_name = dim;
  for (const SelectItem& item : stmt.items) {
    switch (item.kind) {
      case SelectItem::Kind::kStar:
        return Status::InvalidArgument("'*' not allowed with GROUP BY");
      case SelectItem::Kind::kColumn:
        if (!common::EqualsIgnoreCase(item.column, dim)) {
          return Status::InvalidArgument(
              "column '" + item.column +
              "' must appear in GROUP BY or an aggregate");
        }
        saw_dim = true;
        if (!item.alias.empty()) dim_output_name = item.alias;
        break;
      case SelectItem::Kind::kAggregate:
        aggregates.push_back(&item);
        break;
    }
  }
  if (aggregates.empty()) {
    return Status::InvalidArgument("GROUP BY requires at least one aggregate");
  }
  MUVE_ASSIGN_OR_RETURN(const size_t dim_idx, table.schema().FieldIndex(dim));
  const ValueType dim_type = table.schema().field(dim_idx).type;

  if (stmt.num_bins.has_value()) {
    // Binned aggregation: bin over the whole table's dimension range.
    const storage::Column& dim_col = table.column(dim_idx);
    if (dim_col.type() == ValueType::kString) {
      return Status::TypeMismatch("cannot bin string dimension '" + dim + "'");
    }
    MUVE_ASSIGN_OR_RETURN(const double lo, dim_col.NumericMin());
    MUVE_ASSIGN_OR_RETURN(const double hi, dim_col.NumericMax());

    Schema out_schema;
    if (saw_dim) {
      MUVE_RETURN_IF_ERROR(out_schema.AddField(
          Field(dim_output_name + "_bin_lo", ValueType::kDouble)));
      MUVE_RETURN_IF_ERROR(out_schema.AddField(
          Field(dim_output_name + "_bin_hi", ValueType::kDouble)));
    }
    for (const SelectItem* agg : aggregates) {
      MUVE_RETURN_IF_ERROR(out_schema.AddField(
          Field(agg->OutputName(), AggregateOutputType(agg->function))));
    }

    std::vector<storage::BinnedResult> results;
    for (const SelectItem* agg : aggregates) {
      const std::string& measure = agg->count_star ? dim : agg->column;
      MUVE_ASSIGN_OR_RETURN(
          storage::BinnedResult res,
          storage::BinnedAggregate(table, rows, dim, measure, agg->function,
                                   *stmt.num_bins, lo, hi));
      results.push_back(std::move(res));
    }

    Table out(out_schema);
    const int b = *stmt.num_bins;
    for (int bin = 0; bin < b; ++bin) {
      std::vector<Value> row;
      if (saw_dim) {
        row.emplace_back(results[0].BinStart(bin));
        row.emplace_back(results[0].BinEnd(bin));
      }
      for (size_t a = 0; a < aggregates.size(); ++a) {
        row.push_back(AggregateOutputValue(
            aggregates[a]->function,
            results[a].aggregates[static_cast<size_t>(bin)]));
      }
      MUVE_RETURN_IF_ERROR(out.AppendRow(row));
    }
    return out;
  }

  // Plain group-by.
  Schema out_schema;
  if (saw_dim) {
    MUVE_RETURN_IF_ERROR(out_schema.AddField(Field(dim_output_name, dim_type)));
  }
  for (const SelectItem* agg : aggregates) {
    MUVE_RETURN_IF_ERROR(out_schema.AddField(
        Field(agg->OutputName(), AggregateOutputType(agg->function))));
  }
  std::vector<storage::GroupByResult> results;
  for (const SelectItem* agg : aggregates) {
    const std::string& measure = agg->count_star ? dim : agg->column;
    MUVE_ASSIGN_OR_RETURN(
        storage::GroupByResult res,
        storage::GroupByAggregate(table, rows, dim, measure, agg->function));
    results.push_back(std::move(res));
  }
  // Different aggregates can have different group sets when measures have
  // NULLs in different rows; merge over the union of keys.
  // (With NULL-free data all key sets are identical.)
  std::vector<Value> all_keys;
  for (const auto& res : results) {
    for (const Value& k : res.keys) all_keys.push_back(k);
  }
  std::sort(all_keys.begin(), all_keys.end());
  all_keys.erase(std::unique(all_keys.begin(), all_keys.end()),
                 all_keys.end());

  Table out(out_schema);
  for (const Value& key : all_keys) {
    std::vector<Value> row;
    if (saw_dim) row.push_back(key);
    for (const auto& res : results) {
      const auto it = std::lower_bound(res.keys.begin(), res.keys.end(), key);
      double v = 0.0;
      if (it != res.keys.end() && *it == key) {
        v = res.aggregates[static_cast<size_t>(it - res.keys.begin())];
      }
      // Find which aggregate this result corresponds to for typing.
      const size_t a = static_cast<size_t>(&res - results.data());
      row.push_back(AggregateOutputValue(aggregates[a]->function, v));
    }
    MUVE_RETURN_IF_ERROR(out.AppendRow(row));
  }
  return out;
}

// Filters the aggregated result by the HAVING predicate (bound against
// the result's output schema).
Result<Table> ApplyHaving(const SelectStatement& stmt, Table result) {
  if (stmt.having == nullptr) return result;
  MUVE_ASSIGN_OR_RETURN(
      const RowSet keep,
      storage::Filter(result, stmt.having.get()));
  Table filtered(result.schema());
  std::vector<Value> row(result.num_columns());
  for (uint32_t r : keep) {
    for (size_t c = 0; c < result.num_columns(); ++c) {
      row[c] = result.At(r, c);
    }
    MUVE_RETURN_IF_ERROR(filtered.AppendRow(row));
  }
  return filtered;
}

Result<Table> ApplyOrderAndLimit(const SelectStatement& stmt, Table result) {
  if (stmt.order_by.has_value()) {
    MUVE_ASSIGN_OR_RETURN(const size_t col, result.schema().FieldIndex(
                                                stmt.order_by->column));
    std::vector<size_t> order(result.num_rows());
    std::iota(order.begin(), order.end(), 0);
    const bool desc = stmt.order_by->descending;
    std::stable_sort(order.begin(), order.end(),
                     [&](size_t a, size_t b) {
                       const Value va = result.At(a, col);
                       const Value vb = result.At(b, col);
                       return desc ? vb < va : va < vb;
                     });
    Table sorted(result.schema());
    std::vector<Value> row(result.num_columns());
    for (size_t r : order) {
      for (size_t c = 0; c < result.num_columns(); ++c) {
        row[c] = result.At(r, c);
      }
      MUVE_RETURN_IF_ERROR(sorted.AppendRow(row));
    }
    result = std::move(sorted);
  }
  if (stmt.limit.has_value() &&
      static_cast<size_t>(*stmt.limit) < result.num_rows()) {
    Table limited(result.schema());
    const size_t n = static_cast<size_t>(*stmt.limit);
    std::vector<Value> row(result.num_columns());
    for (size_t r = 0; r < n; ++r) {
      for (size_t c = 0; c < result.num_columns(); ++c) {
        row[c] = result.At(r, c);
      }
      MUVE_RETURN_IF_ERROR(limited.AppendRow(row));
    }
    result = std::move(limited);
  }
  return result;
}

}  // namespace

common::Result<storage::Catalog::Snapshot> GetTable(
    const storage::Catalog& catalog, const std::string& name) {
  return catalog.Get(common::ToLower(name));
}

common::Result<storage::Table> Execute(SelectStatement& stmt,
                                       const storage::Catalog& catalog) {
  MUVE_ASSIGN_OR_RETURN(const storage::Catalog::Snapshot snap,
                        GetTable(catalog, stmt.table_name));
  const Table* table = snap.table.get();
  if (stmt.items.empty()) {
    return Status::InvalidArgument("empty select list");
  }

  RowSet rows;
  if (stmt.where != nullptr) {
    MUVE_ASSIGN_OR_RETURN(rows, storage::Filter(*table, stmt.where.get()));
  } else {
    rows = storage::AllRows(table->num_rows());
  }

  if (stmt.having != nullptr && !stmt.group_by.has_value()) {
    return Status::InvalidArgument("HAVING requires GROUP BY");
  }
  Result<Table> result = [&]() -> Result<Table> {
    if (stmt.group_by.has_value()) {
      return ExecuteGroupBy(stmt, *table, rows);
    }
    const bool any_aggregate =
        std::any_of(stmt.items.begin(), stmt.items.end(), [](const auto& i) {
          return i.kind == SelectItem::Kind::kAggregate;
        });
    if (any_aggregate) {
      return ExecuteScalarAggregate(stmt, *table, rows);
    }
    return ExecuteProjection(stmt, *table, rows);
  }();
  if (!result.ok()) return result.status();
  MUVE_ASSIGN_OR_RETURN(Table with_having,
                        ApplyHaving(stmt, std::move(result).value()));
  return ApplyOrderAndLimit(stmt, std::move(with_having));
}

common::Result<StatementResult> ExecuteStatement(Statement& stmt,
                                                 storage::Catalog& catalog) {
  StatementResult result;
  switch (stmt.kind) {
    case Statement::Kind::kSelect: {
      MUVE_ASSIGN_OR_RETURN(storage::Table table,
                            Execute(stmt.select, catalog));
      result.message =
          "(" + std::to_string(table.num_rows()) + " rows)";
      result.table = std::move(table);
      return result;
    }
    case Statement::Kind::kCreateTable: {
      if (stmt.create_table.schema.num_fields() == 0) {
        return Status::InvalidArgument("CREATE TABLE needs columns");
      }
      MUVE_RETURN_IF_ERROR(
          catalog.Create(common::ToLower(stmt.create_table.table_name),
                         storage::Table(stmt.create_table.schema)));
      result.message = "created table " + stmt.create_table.table_name;
      return result;
    }
    case Statement::Kind::kInsert: {
      MUVE_ASSIGN_OR_RETURN(const storage::Catalog::Snapshot snap,
                            GetTable(catalog, stmt.insert.table_name));
      // The VALUES rows form one batch under the table's schema; a bad
      // row fails here, before anything publishes.
      storage::Table batch(snap.table->schema());
      for (size_t r = 0; r < stmt.insert.rows.size(); ++r) {
        if (const Status st = batch.AppendRow(stmt.insert.rows[r]);
            !st.ok()) {
          return Status::InvalidArgument(
              "row " + std::to_string(r + 1) + ": " + st.message());
        }
      }
      MUVE_RETURN_IF_ERROR(
          catalog.Append(common::ToLower(stmt.insert.table_name), batch)
              .status());
      result.message = "inserted " +
                       std::to_string(stmt.insert.rows.size()) +
                       " rows into " + stmt.insert.table_name;
      return result;
    }
    case Statement::Kind::kLoadCsv: {
      MUVE_ASSIGN_OR_RETURN(const storage::Catalog::Snapshot snap,
                            GetTable(catalog, stmt.load_csv.table_name));
      storage::CsvOptions options;
      options.schema = snap.table->schema();
      MUVE_ASSIGN_OR_RETURN(const storage::Table loaded,
                            storage::ReadCsvFile(stmt.load_csv.path,
                                                 options));
      MUVE_RETURN_IF_ERROR(
          catalog.Append(common::ToLower(stmt.load_csv.table_name), loaded)
              .status());
      result.message = "loaded " + std::to_string(loaded.num_rows()) +
                       " rows from '" + stmt.load_csv.path + "' into " +
                       stmt.load_csv.table_name;
      return result;
    }
    case Statement::Kind::kRecommend:
      return Status::InvalidArgument(
          "RECOMMEND needs the recommendation engine; use "
          "core::ExecuteRecommend");
  }
  return Status::Internal("unhandled statement kind");
}

common::Result<storage::Table> ExecuteSql(const std::string& sql,
                                          const storage::Catalog& catalog) {
  MUVE_ASSIGN_OR_RETURN(Statement stmt, Parse(sql));
  if (stmt.kind != Statement::Kind::kSelect) {
    return Status::InvalidArgument(
        "ExecuteSql only handles SELECT; use the recommender glue for "
        "RECOMMEND statements");
  }
  return Execute(stmt.select, catalog);
}

}  // namespace muve::sql
