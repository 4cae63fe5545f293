#include "sql/parser.h"

#include <string_view>
#include <utility>

#include "common/string_util.h"
#include "sql/lexer.h"

namespace muve::sql {

namespace {

using common::Result;
using common::Status;
using storage::CompareOp;
using storage::PredicatePtr;
using storage::Value;

class Parser {
 public:
  Parser(std::vector<Token> tokens, std::string_view source)
      : tokens_(std::move(tokens)), source_(source) {}

  Result<Statement> ParseStatement() {
    Statement stmt;
    if (PeekKeyword("SELECT")) {
      stmt.kind = Statement::Kind::kSelect;
      MUVE_ASSIGN_OR_RETURN(stmt.select, ParseSelectStatement());
    } else if (PeekKeyword("RECOMMEND")) {
      stmt.kind = Statement::Kind::kRecommend;
      MUVE_ASSIGN_OR_RETURN(stmt.recommend, ParseRecommendStatement());
    } else if (PeekKeyword("CREATE")) {
      stmt.kind = Statement::Kind::kCreateTable;
      MUVE_ASSIGN_OR_RETURN(stmt.create_table, ParseCreateTableStatement());
    } else if (PeekKeyword("INSERT")) {
      stmt.kind = Statement::Kind::kInsert;
      MUVE_ASSIGN_OR_RETURN(stmt.insert, ParseInsertStatement());
    } else if (PeekKeyword("LOAD")) {
      stmt.kind = Statement::Kind::kLoadCsv;
      MUVE_ASSIGN_OR_RETURN(stmt.load_csv, ParseLoadCsvStatement());
    } else {
      return Error(
          "expected SELECT, RECOMMEND, CREATE, INSERT, or LOAD");
    }
    if (Peek().type == TokenType::kSemicolon) Advance();
    if (Peek().type != TokenType::kEnd) {
      return Error("unexpected trailing input");
    }
    return stmt;
  }

 private:
  const Token& Peek(size_t ahead = 0) const {
    const size_t i = pos_ + ahead;
    return i < tokens_.size() ? tokens_[i] : tokens_.back();
  }
  const Token& Advance() { return tokens_[pos_++]; }

  bool PeekKeyword(const char* kw, size_t ahead = 0) const {
    return IsKeyword(Peek(ahead), kw);
  }

  bool ConsumeKeyword(const char* kw) {
    if (PeekKeyword(kw)) {
      Advance();
      return true;
    }
    return false;
  }

  Status ExpectKeyword(const char* kw) {
    if (!ConsumeKeyword(kw)) {
      return Error("expected " + std::string(kw) + ", got '" +
                   Peek().ToString() + "'");
    }
    return Status::OK();
  }

  Status Expect(TokenType type) {
    if (Peek().type != type) {
      return Error(std::string("expected ") + TokenTypeName(type) +
                   ", got '" + Peek().ToString() + "'");
    }
    Advance();
    return Status::OK();
  }

  Status Error(const std::string& message) const {
    return Status::ParseError(message + " (at position " +
                              std::to_string(Peek().position) + ")");
  }

  Result<std::string> ExpectIdentifier() {
    if (Peek().type != TokenType::kIdentifier) {
      return Error("expected identifier, got '" + Peek().ToString() + "'");
    }
    return Advance().text;
  }

  Result<int64_t> ExpectInteger() {
    if (Peek().type != TokenType::kInteger) {
      return Error("expected integer, got '" + Peek().ToString() + "'");
    }
    return Advance().int_value;
  }

  Result<double> ExpectNumber() {
    if (Peek().type == TokenType::kInteger) {
      return static_cast<double>(Advance().int_value);
    }
    if (Peek().type == TokenType::kFloat) {
      return Advance().float_value;
    }
    return Error("expected number, got '" + Peek().ToString() + "'");
  }

  Result<Value> ParseLiteral() {
    const Token& tok = Peek();
    switch (tok.type) {
      case TokenType::kInteger:
        return Value(Advance().int_value);
      case TokenType::kFloat:
        return Value(Advance().float_value);
      case TokenType::kString:
        return Value(Advance().text);
      case TokenType::kKeyword:
        if (tok.text == "NULL") {
          Advance();
          return Value::Null();
        }
        [[fallthrough]];
      default:
        return Error("expected literal, got '" + tok.ToString() + "'");
    }
  }

  // ---- SELECT ----

  Result<SelectStatement> ParseSelectStatement() {
    MUVE_RETURN_IF_ERROR(ExpectKeyword("SELECT"));
    SelectStatement stmt;
    MUVE_ASSIGN_OR_RETURN(stmt.items, ParseSelectList());
    MUVE_RETURN_IF_ERROR(ExpectKeyword("FROM"));
    MUVE_ASSIGN_OR_RETURN(stmt.table_name, ExpectIdentifier());
    if (ConsumeKeyword("WHERE")) {
      MUVE_ASSIGN_OR_RETURN(stmt.where, ParseOrExpr());
    }
    if (ConsumeKeyword("GROUP")) {
      MUVE_RETURN_IF_ERROR(ExpectKeyword("BY"));
      MUVE_ASSIGN_OR_RETURN(std::string dim, ExpectIdentifier());
      stmt.group_by = std::move(dim);
      if (ConsumeKeyword("NUMBER")) {
        MUVE_RETURN_IF_ERROR(ExpectKeyword("OF"));
        MUVE_RETURN_IF_ERROR(ExpectKeyword("BINS"));
        MUVE_ASSIGN_OR_RETURN(const int64_t bins, ExpectInteger());
        if (bins < 1) return Error("NUMBER OF BINS must be >= 1");
        stmt.num_bins = static_cast<int>(bins);
      }
      if (ConsumeKeyword("HAVING")) {
        MUVE_ASSIGN_OR_RETURN(stmt.having, ParseOrExpr());
      }
    }
    if (ConsumeKeyword("ORDER")) {
      MUVE_RETURN_IF_ERROR(ExpectKeyword("BY"));
      OrderBy ob;
      MUVE_ASSIGN_OR_RETURN(ob.column, ExpectIdentifier());
      if (ConsumeKeyword("DESC")) {
        ob.descending = true;
      } else {
        ConsumeKeyword("ASC");
      }
      stmt.order_by = std::move(ob);
    }
    if (ConsumeKeyword("LIMIT")) {
      MUVE_ASSIGN_OR_RETURN(const int64_t lim, ExpectInteger());
      if (lim < 0) return Error("LIMIT must be non-negative");
      stmt.limit = lim;
    }
    return stmt;
  }

  Result<std::vector<SelectItem>> ParseSelectList() {
    std::vector<SelectItem> items;
    while (true) {
      MUVE_ASSIGN_OR_RETURN(SelectItem item, ParseSelectItem());
      items.push_back(std::move(item));
      if (Peek().type == TokenType::kComma) {
        Advance();
        continue;
      }
      break;
    }
    return items;
  }

  Result<SelectItem> ParseSelectItem() {
    SelectItem item;
    if (Peek().type == TokenType::kStar) {
      Advance();
      item.kind = SelectItem::Kind::kStar;
      return item;
    }
    if (Peek().type != TokenType::kIdentifier) {
      return Error("expected column or aggregate, got '" + Peek().ToString() +
                   "'");
    }
    // `ident (` means an aggregate call when ident names a function.
    if (Peek(1).type == TokenType::kLParen) {
      const std::string name = Advance().text;
      const auto func = storage::AggregateFromName(name);
      if (!func.ok()) {
        return Error("unknown aggregate function '" + name + "'");
      }
      Advance();  // (
      item.kind = SelectItem::Kind::kAggregate;
      item.function = *func;
      if (Peek().type == TokenType::kStar) {
        Advance();
        if (item.function != storage::AggregateFunction::kCount) {
          return Error("only COUNT accepts '*'");
        }
        item.count_star = true;
      } else {
        MUVE_ASSIGN_OR_RETURN(item.column, ExpectIdentifier());
      }
      MUVE_RETURN_IF_ERROR(Expect(TokenType::kRParen));
    } else {
      item.kind = SelectItem::Kind::kColumn;
      item.column = Advance().text;
    }
    if (ConsumeKeyword("AS")) {
      MUVE_ASSIGN_OR_RETURN(item.alias, ExpectIdentifier());
    }
    return item;
  }

  // ---- WHERE expressions ----

  Result<PredicatePtr> ParseOrExpr() {
    MUVE_ASSIGN_OR_RETURN(PredicatePtr lhs, ParseAndExpr());
    while (ConsumeKeyword("OR")) {
      MUVE_ASSIGN_OR_RETURN(PredicatePtr rhs, ParseAndExpr());
      lhs = storage::MakeOr(std::move(lhs), std::move(rhs));
    }
    return lhs;
  }

  Result<PredicatePtr> ParseAndExpr() {
    MUVE_ASSIGN_OR_RETURN(PredicatePtr lhs, ParseNotExpr());
    while (ConsumeKeyword("AND")) {
      MUVE_ASSIGN_OR_RETURN(PredicatePtr rhs, ParseNotExpr());
      lhs = storage::MakeAnd(std::move(lhs), std::move(rhs));
    }
    return lhs;
  }

  Result<PredicatePtr> ParseNotExpr() {
    if (ConsumeKeyword("NOT")) {
      MUVE_ASSIGN_OR_RETURN(PredicatePtr inner, ParseNotExpr());
      return storage::MakeNot(std::move(inner));
    }
    return ParsePrimaryExpr();
  }

  Result<PredicatePtr> ParsePrimaryExpr() {
    if (Peek().type == TokenType::kLParen) {
      Advance();
      MUVE_ASSIGN_OR_RETURN(PredicatePtr inner, ParseOrExpr());
      MUVE_RETURN_IF_ERROR(Expect(TokenType::kRParen));
      return inner;
    }
    if (PeekKeyword("TRUE")) {
      Advance();
      return storage::MakeTrue();
    }
    if (PeekKeyword("FALSE")) {
      Advance();
      return storage::MakeNot(storage::MakeTrue());
    }
    MUVE_ASSIGN_OR_RETURN(std::string column, ExpectIdentifier());
    if (ConsumeKeyword("IS")) {
      const bool negate = ConsumeKeyword("NOT");
      MUVE_RETURN_IF_ERROR(ExpectKeyword("NULL"));
      return storage::MakeIsNull(std::move(column), negate);
    }
    if (PeekKeyword("IN") ||
        (PeekKeyword("NOT") && PeekKeyword("IN", 1))) {
      const bool negate = ConsumeKeyword("NOT");
      MUVE_RETURN_IF_ERROR(ExpectKeyword("IN"));
      MUVE_RETURN_IF_ERROR(Expect(TokenType::kLParen));
      std::vector<Value> values;
      while (true) {
        MUVE_ASSIGN_OR_RETURN(Value v, ParseLiteral());
        values.push_back(std::move(v));
        if (Peek().type == TokenType::kComma) {
          Advance();
          continue;
        }
        break;
      }
      MUVE_RETURN_IF_ERROR(Expect(TokenType::kRParen));
      PredicatePtr in_list =
          storage::MakeInList(std::move(column), std::move(values));
      if (negate) return storage::MakeNot(std::move(in_list));
      return in_list;
    }
    if (ConsumeKeyword("BETWEEN")) {
      MUVE_ASSIGN_OR_RETURN(Value lo, ParseLiteral());
      MUVE_RETURN_IF_ERROR(ExpectKeyword("AND"));
      MUVE_ASSIGN_OR_RETURN(Value hi, ParseLiteral());
      return storage::MakeBetween(std::move(column), std::move(lo),
                                  std::move(hi));
    }
    CompareOp op;
    switch (Peek().type) {
      case TokenType::kEq:
        op = CompareOp::kEq;
        break;
      case TokenType::kNe:
        op = CompareOp::kNe;
        break;
      case TokenType::kLt:
        op = CompareOp::kLt;
        break;
      case TokenType::kLe:
        op = CompareOp::kLe;
        break;
      case TokenType::kGt:
        op = CompareOp::kGt;
        break;
      case TokenType::kGe:
        op = CompareOp::kGe;
        break;
      default:
        return Error("expected comparison operator, got '" +
                     Peek().ToString() + "'");
    }
    Advance();
    MUVE_ASSIGN_OR_RETURN(Value literal, ParseLiteral());
    return storage::MakeComparison(std::move(column), op, std::move(literal));
  }

  // ---- DDL / DML ----

  Result<storage::ValueType> ParseColumnType() {
    MUVE_ASSIGN_OR_RETURN(const std::string name, ExpectIdentifier());
    const std::string upper = common::ToUpper(name);
    if (upper == "INT" || upper == "INTEGER" || upper == "BIGINT") {
      return storage::ValueType::kInt64;
    }
    if (upper == "DOUBLE" || upper == "FLOAT" || upper == "REAL") {
      return storage::ValueType::kDouble;
    }
    if (upper == "TEXT" || upper == "STRING" || upper == "VARCHAR") {
      return storage::ValueType::kString;
    }
    return Error("unknown column type '" + name + "'");
  }

  Result<CreateTableStatement> ParseCreateTableStatement() {
    MUVE_RETURN_IF_ERROR(ExpectKeyword("CREATE"));
    MUVE_RETURN_IF_ERROR(ExpectKeyword("TABLE"));
    CreateTableStatement stmt;
    MUVE_ASSIGN_OR_RETURN(stmt.table_name, ExpectIdentifier());
    MUVE_RETURN_IF_ERROR(Expect(TokenType::kLParen));
    while (true) {
      storage::Field field;
      MUVE_ASSIGN_OR_RETURN(field.name, ExpectIdentifier());
      MUVE_ASSIGN_OR_RETURN(field.type, ParseColumnType());
      if (Peek().type == TokenType::kIdentifier) {
        const std::string role = common::ToUpper(Peek().text);
        if (role == "DIMENSION") {
          field.role = storage::FieldRole::kDimension;
          Advance();
        } else if (role == "MEASURE") {
          field.role = storage::FieldRole::kMeasure;
          Advance();
        } else if (role == "CATEGORICAL") {
          field.role = storage::FieldRole::kCategoricalDimension;
          Advance();
        } else {
          return Error("unknown column role '" + Peek().text + "'");
        }
      }
      if (const common::Status st = stmt.schema.AddField(std::move(field));
          !st.ok()) {
        return Error(st.message());
      }
      if (Peek().type == TokenType::kComma) {
        Advance();
        continue;
      }
      break;
    }
    MUVE_RETURN_IF_ERROR(Expect(TokenType::kRParen));
    return stmt;
  }

  Result<InsertStatement> ParseInsertStatement() {
    MUVE_RETURN_IF_ERROR(ExpectKeyword("INSERT"));
    MUVE_RETURN_IF_ERROR(ExpectKeyword("INTO"));
    InsertStatement stmt;
    MUVE_ASSIGN_OR_RETURN(stmt.table_name, ExpectIdentifier());
    MUVE_RETURN_IF_ERROR(ExpectKeyword("VALUES"));
    while (true) {
      MUVE_RETURN_IF_ERROR(Expect(TokenType::kLParen));
      std::vector<Value> row;
      while (true) {
        MUVE_ASSIGN_OR_RETURN(Value v, ParseLiteral());
        row.push_back(std::move(v));
        if (Peek().type == TokenType::kComma) {
          Advance();
          continue;
        }
        break;
      }
      MUVE_RETURN_IF_ERROR(Expect(TokenType::kRParen));
      stmt.rows.push_back(std::move(row));
      if (Peek().type == TokenType::kComma) {
        Advance();
        continue;
      }
      break;
    }
    return stmt;
  }

  Result<LoadCsvStatement> ParseLoadCsvStatement() {
    MUVE_RETURN_IF_ERROR(ExpectKeyword("LOAD"));
    MUVE_RETURN_IF_ERROR(ExpectKeyword("CSV"));
    LoadCsvStatement stmt;
    if (Peek().type != TokenType::kString) {
      return Error("expected a quoted CSV path");
    }
    stmt.path = Advance().text;
    MUVE_RETURN_IF_ERROR(ExpectKeyword("INTO"));
    MUVE_ASSIGN_OR_RETURN(stmt.table_name, ExpectIdentifier());
    return stmt;
  }

  // ---- RECOMMEND ----

  Result<RecommendStatement> ParseRecommendStatement() {
    MUVE_RETURN_IF_ERROR(ExpectKeyword("RECOMMEND"));
    RecommendStatement stmt;
    if (ConsumeKeyword("TOP")) {
      MUVE_ASSIGN_OR_RETURN(const int64_t k, ExpectInteger());
      if (k < 1) return Error("TOP k must be >= 1");
      stmt.top_k = static_cast<int>(k);
    }
    MUVE_RETURN_IF_ERROR(ExpectKeyword("VIEWS"));
    MUVE_RETURN_IF_ERROR(ExpectKeyword("FROM"));
    MUVE_ASSIGN_OR_RETURN(stmt.table_name, ExpectIdentifier());
    if (ConsumeKeyword("WHERE")) {
      const size_t begin = Peek().position;
      MUVE_ASSIGN_OR_RETURN(stmt.where, ParseOrExpr());
      stmt.where_sql = std::string(
          common::Trim(source_.substr(begin, Peek().position - begin)));
    }
    if (ConsumeKeyword("USING")) {
      MUVE_ASSIGN_OR_RETURN(stmt.scheme, ExpectIdentifier());
    }
    if (ConsumeKeyword("WEIGHTS")) {
      MUVE_RETURN_IF_ERROR(Expect(TokenType::kLParen));
      MUVE_ASSIGN_OR_RETURN(stmt.alpha_d, ExpectNumber());
      MUVE_RETURN_IF_ERROR(Expect(TokenType::kComma));
      MUVE_ASSIGN_OR_RETURN(stmt.alpha_a, ExpectNumber());
      MUVE_RETURN_IF_ERROR(Expect(TokenType::kComma));
      MUVE_ASSIGN_OR_RETURN(stmt.alpha_s, ExpectNumber());
      MUVE_RETURN_IF_ERROR(Expect(TokenType::kRParen));
    }
    if (ConsumeKeyword("DISTANCE")) {
      MUVE_ASSIGN_OR_RETURN(stmt.distance, ExpectIdentifier());
    }
    return stmt;
  }

  std::vector<Token> tokens_;
  std::string_view source_;
  size_t pos_ = 0;
};

}  // namespace

common::Result<Statement> Parse(const std::string& sql) {
  MUVE_ASSIGN_OR_RETURN(std::vector<Token> tokens, Tokenize(sql));
  Parser parser(std::move(tokens), sql);
  return parser.ParseStatement();
}

common::Result<SelectStatement> ParseSelect(const std::string& sql) {
  MUVE_ASSIGN_OR_RETURN(Statement stmt, Parse(sql));
  if (stmt.kind != Statement::Kind::kSelect) {
    return common::Status::InvalidArgument("statement is not a SELECT");
  }
  return std::move(stmt.select);
}

common::Result<storage::PredicatePtr> ParseWhere(const std::string& text) {
  MUVE_ASSIGN_OR_RETURN(SelectStatement stmt,
                        ParseSelect("SELECT * FROM t WHERE " + text));
  const char* trailing = stmt.group_by.has_value()   ? "GROUP BY"
                         : stmt.order_by.has_value() ? "ORDER BY"
                         : stmt.limit.has_value()    ? "LIMIT"
                                                     : nullptr;
  if (trailing != nullptr) {
    return common::Status::InvalidArgument(
        std::string("predicate: trailing ") + trailing +
        " is not part of a WHERE condition");
  }
  return std::move(stmt.where);
}

}  // namespace muve::sql
