#include "engine/parser.h"

#include <charconv>
#include <limits>

#include "common/str_util.h"
#include "engine/lexer.h"

namespace sinew::engine {

namespace {

class Parser {
 public:
  explicit Parser(std::vector<Token> tokens) : tokens_(std::move(tokens)) {}

  Result<Statement> ParseStatement() {
    Statement stmt;
    if (PeekKeyword("SELECT")) {
      stmt.kind = StatementKind::kSelect;
      ASSIGN_OR_RETURN(SelectStatement sel, ParseSelect());
      stmt.select = std::make_unique<SelectStatement>(std::move(sel));
    } else if (PeekKeyword("EXPLAIN")) {
      ++pos_;
      stmt.kind = StatementKind::kExplain;
      stmt.explain_analyze = ConsumeKeyword("ANALYZE");
      ASSIGN_OR_RETURN(SelectStatement sel, ParseSelect());
      stmt.select = std::make_unique<SelectStatement>(std::move(sel));
    } else if (PeekKeyword("CREATE")) {
      stmt.kind = StatementKind::kCreateTable;
      ASSIGN_OR_RETURN(CreateTableStatement create, ParseCreateTable());
      stmt.create_table =
          std::make_unique<CreateTableStatement>(std::move(create));
    } else if (PeekKeyword("INSERT")) {
      stmt.kind = StatementKind::kInsert;
      ASSIGN_OR_RETURN(InsertStatement ins, ParseInsert());
      stmt.insert = std::make_unique<InsertStatement>(std::move(ins));
    } else if (PeekKeyword("UPDATE")) {
      stmt.kind = StatementKind::kUpdate;
      ASSIGN_OR_RETURN(UpdateStatement upd, ParseUpdate());
      stmt.update = std::make_unique<UpdateStatement>(std::move(upd));
    } else if (PeekKeyword("DELETE")) {
      stmt.kind = StatementKind::kDelete;
      ASSIGN_OR_RETURN(DeleteStatement del, ParseDelete());
      stmt.del = std::make_unique<DeleteStatement>(std::move(del));
    } else if (PeekKeyword("ANALYZE")) {
      stmt.kind = StatementKind::kAnalyze;
      ++pos_;
      AnalyzeStatement an;
      ASSIGN_OR_RETURN(an.table, ExpectIdentifier("table name"));
      stmt.analyze = std::make_unique<AnalyzeStatement>(std::move(an));
    } else {
      return Error("expected a statement keyword");
    }
    ConsumeSymbol(";");
    if (!AtEnd()) return Error("unexpected trailing tokens");
    return stmt;
  }

  Result<ExprPtr> ParseStandaloneExpression() {
    ASSIGN_OR_RETURN(ExprPtr e, ParseExpr());
    if (!AtEnd()) return Error("unexpected trailing tokens after expression");
    return e;
  }

 private:
  // --- token helpers ---
  const Token& Peek(size_t ahead = 0) const {
    size_t i = pos_ + ahead;
    return i < tokens_.size() ? tokens_[i] : tokens_.back();
  }
  bool AtEnd() const { return Peek().type == TokenType::kEnd; }
  bool PeekKeyword(std::string_view kw, size_t ahead = 0) const {
    return Peek(ahead).IsKeyword(kw);
  }
  bool ConsumeKeyword(std::string_view kw) {
    if (PeekKeyword(kw)) {
      ++pos_;
      return true;
    }
    return false;
  }
  bool ConsumeSymbol(std::string_view sym) {
    if (Peek().IsSymbol(sym)) {
      ++pos_;
      return true;
    }
    return false;
  }
  Status ExpectKeyword(std::string_view kw) {
    if (!ConsumeKeyword(kw)) return Error("expected ", kw);
    return Status::OK();
  }
  Status ExpectSymbol(std::string_view sym) {
    if (!ConsumeSymbol(sym)) return Error("expected '", sym, "'");
    return Status::OK();
  }
  Result<std::string> ExpectIdentifier(std::string_view what) {
    const Token& t = Peek();
    if (t.type == TokenType::kIdentifier ||
        t.type == TokenType::kQuotedIdentifier) {
      ++pos_;
      return t.text;
    }
    return Error("expected ", what);
  }

  template <typename... Args>
  Status Error(Args&&... args) const {
    return Status::ParseError(std::forward<Args>(args)...,
                              " near offset ", Peek().offset, " (token '",
                              Peek().text, "')");
  }

  /// A lexed integer token as int64; InvalidArgument when it overflows.
  static Result<int64_t> IntegerLiteral(const std::string& text) {
    int64_t v = 0;
    if (std::from_chars(text.data(), text.data() + text.size(), v).ec !=
        std::errc()) {
      return Status::InvalidArgument("integer literal ", text,
                                     " is out of range");
    }
    return v;
  }

  // --- statements ---
  Result<SelectStatement> ParseSelect() {
    RETURN_NOT_OK(ExpectKeyword("SELECT"));
    SelectStatement sel;
    sel.distinct = ConsumeKeyword("DISTINCT");
    while (true) {
      ASSIGN_OR_RETURN(SelectItem item, ParseSelectItem());
      sel.items.push_back(std::move(item));
      if (!ConsumeSymbol(",")) break;
    }
    RETURN_NOT_OK(ExpectKeyword("FROM"));
    ASSIGN_OR_RETURN(TableRef first, ParseTableRef());
    sel.from.push_back(std::move(first));
    std::vector<ExprPtr> join_conditions;
    while (true) {
      if (ConsumeSymbol(",")) {
        ASSIGN_OR_RETURN(TableRef t, ParseTableRef());
        sel.from.push_back(std::move(t));
        continue;
      }
      bool inner = PeekKeyword("INNER");
      if (inner || PeekKeyword("JOIN")) {
        if (inner) ++pos_;
        RETURN_NOT_OK(ExpectKeyword("JOIN"));
        ASSIGN_OR_RETURN(TableRef t, ParseTableRef());
        sel.from.push_back(std::move(t));
        RETURN_NOT_OK(ExpectKeyword("ON"));
        ASSIGN_OR_RETURN(ExprPtr cond, ParseExpr());
        join_conditions.push_back(std::move(cond));
        continue;
      }
      break;
    }
    if (ConsumeKeyword("WHERE")) {
      ASSIGN_OR_RETURN(sel.where, ParseExpr());
    }
    for (ExprPtr& cond : join_conditions) {
      sel.where = sel.where == nullptr
                      ? std::move(cond)
                      : Expr::Binary(BinaryOp::kAnd, std::move(sel.where),
                                     std::move(cond));
    }
    if (ConsumeKeyword("GROUP")) {
      RETURN_NOT_OK(ExpectKeyword("BY"));
      while (true) {
        ASSIGN_OR_RETURN(ExprPtr e, ParseExpr());
        sel.group_by.push_back(std::move(e));
        if (!ConsumeSymbol(",")) break;
      }
    }
    if (ConsumeKeyword("HAVING")) {
      ASSIGN_OR_RETURN(sel.having, ParseExpr());
    }
    if (ConsumeKeyword("ORDER")) {
      RETURN_NOT_OK(ExpectKeyword("BY"));
      while (true) {
        OrderItem item;
        ASSIGN_OR_RETURN(item.expr, ParseExpr());
        if (ConsumeKeyword("DESC")) {
          item.descending = true;
        } else {
          ConsumeKeyword("ASC");
        }
        sel.order_by.push_back(std::move(item));
        if (!ConsumeSymbol(",")) break;
      }
    }
    if (ConsumeKeyword("LIMIT")) {
      const Token& t = Peek();
      if (t.type != TokenType::kInteger) return Error("expected LIMIT count");
      ASSIGN_OR_RETURN(sel.limit, IntegerLiteral(t.text));
      ++pos_;
    }
    return sel;
  }

  Result<SelectItem> ParseSelectItem() {
    SelectItem item;
    if (Peek().IsSymbol("*")) {
      ++pos_;
      item.expr = Expr::Star("");
      return item;
    }
    ASSIGN_OR_RETURN(item.expr, ParseExpr());
    if (ConsumeKeyword("AS")) {
      ASSIGN_OR_RETURN(item.alias, ExpectIdentifier("alias"));
    } else if (Peek().type == TokenType::kIdentifier &&
               !IsClauseKeyword(Peek().text)) {
      item.alias = Peek().text;
      ++pos_;
    }
    return item;
  }

  static bool IsClauseKeyword(std::string_view word) {
    static constexpr std::string_view kClauses[] = {
        "FROM",  "WHERE", "GROUP", "HAVING", "ORDER", "LIMIT", "JOIN",
        "INNER", "ON",    "AS",    "AND",    "OR",    "NOT",   "ASC",
        "DESC",  "UNION", "SET",   "BETWEEN", "IN",   "LIKE",  "IS"};
    for (std::string_view kw : kClauses) {
      if (EqualsIgnoreCase(word, kw)) return true;
    }
    return false;
  }

  Result<TableRef> ParseTableRef() {
    TableRef ref;
    ASSIGN_OR_RETURN(ref.table_name, ExpectIdentifier("table name"));
    if (ConsumeKeyword("AS")) {
      ASSIGN_OR_RETURN(ref.alias, ExpectIdentifier("alias"));
    } else if (Peek().type == TokenType::kIdentifier &&
               !IsClauseKeyword(Peek().text)) {
      ref.alias = Peek().text;
      ++pos_;
    }
    return ref;
  }

  Result<CreateTableStatement> ParseCreateTable() {
    RETURN_NOT_OK(ExpectKeyword("CREATE"));
    RETURN_NOT_OK(ExpectKeyword("TABLE"));
    CreateTableStatement create;
    ASSIGN_OR_RETURN(create.table, ExpectIdentifier("table name"));
    RETURN_NOT_OK(ExpectSymbol("("));
    while (true) {
      Column col;
      ASSIGN_OR_RETURN(col.name, ExpectIdentifier("column name"));
      ASSIGN_OR_RETURN(std::string type_name, ExpectIdentifier("column type"));
      if (EqualsIgnoreCase(type_name, "double") && PeekKeyword("PRECISION")) {
        ++pos_;
      }
      std::optional<ColumnType> type = ColumnTypeFromName(type_name);
      if (!type.has_value()) return Error("unknown type ", type_name);
      col.type = *type;
      create.columns.push_back(std::move(col));
      if (ConsumeSymbol(",")) continue;
      RETURN_NOT_OK(ExpectSymbol(")"));
      break;
    }
    return create;
  }

  Result<InsertStatement> ParseInsert() {
    RETURN_NOT_OK(ExpectKeyword("INSERT"));
    RETURN_NOT_OK(ExpectKeyword("INTO"));
    InsertStatement ins;
    ASSIGN_OR_RETURN(ins.table, ExpectIdentifier("table name"));
    if (ConsumeSymbol("(")) {
      while (true) {
        ASSIGN_OR_RETURN(std::string col, ExpectIdentifier("column name"));
        ins.columns.push_back(std::move(col));
        if (ConsumeSymbol(",")) continue;
        RETURN_NOT_OK(ExpectSymbol(")"));
        break;
      }
    }
    RETURN_NOT_OK(ExpectKeyword("VALUES"));
    while (true) {
      RETURN_NOT_OK(ExpectSymbol("("));
      std::vector<ExprPtr> row;
      while (true) {
        ASSIGN_OR_RETURN(ExprPtr e, ParseExpr());
        row.push_back(std::move(e));
        if (ConsumeSymbol(",")) continue;
        RETURN_NOT_OK(ExpectSymbol(")"));
        break;
      }
      ins.values.push_back(std::move(row));
      if (!ConsumeSymbol(",")) break;
    }
    return ins;
  }

  Result<UpdateStatement> ParseUpdate() {
    RETURN_NOT_OK(ExpectKeyword("UPDATE"));
    UpdateStatement upd;
    ASSIGN_OR_RETURN(upd.table, ExpectIdentifier("table name"));
    RETURN_NOT_OK(ExpectKeyword("SET"));
    while (true) {
      ASSIGN_OR_RETURN(std::string col, ExpectIdentifier("column name"));
      RETURN_NOT_OK(ExpectSymbol("="));
      ASSIGN_OR_RETURN(ExprPtr e, ParseExpr());
      upd.assignments.emplace_back(std::move(col), std::move(e));
      if (!ConsumeSymbol(",")) break;
    }
    if (ConsumeKeyword("WHERE")) {
      ASSIGN_OR_RETURN(upd.where, ParseExpr());
    }
    return upd;
  }

  Result<DeleteStatement> ParseDelete() {
    RETURN_NOT_OK(ExpectKeyword("DELETE"));
    RETURN_NOT_OK(ExpectKeyword("FROM"));
    DeleteStatement del;
    ASSIGN_OR_RETURN(del.table, ExpectIdentifier("table name"));
    if (ConsumeKeyword("WHERE")) {
      ASSIGN_OR_RETURN(del.where, ParseExpr());
    }
    return del;
  }

  // --- expressions, precedence climbing ---
  Result<ExprPtr> ParseExpr() { return ParseOr(); }

  Result<ExprPtr> ParseOr() {
    ASSIGN_OR_RETURN(ExprPtr lhs, ParseAnd());
    while (ConsumeKeyword("OR")) {
      ASSIGN_OR_RETURN(ExprPtr rhs, ParseAnd());
      lhs = Expr::Binary(BinaryOp::kOr, std::move(lhs), std::move(rhs));
    }
    return lhs;
  }

  Result<ExprPtr> ParseAnd() {
    ASSIGN_OR_RETURN(ExprPtr lhs, ParseNot());
    while (PeekKeyword("AND")) {
      ++pos_;
      ASSIGN_OR_RETURN(ExprPtr rhs, ParseNot());
      lhs = Expr::Binary(BinaryOp::kAnd, std::move(lhs), std::move(rhs));
    }
    return lhs;
  }

  Result<ExprPtr> ParseNot() {
    if (ConsumeKeyword("NOT")) {
      ASSIGN_OR_RETURN(ExprPtr operand, ParseNot());
      return Expr::Unary(UnaryOp::kNot, std::move(operand));
    }
    return ParseComparison();
  }

  Result<ExprPtr> ParseComparison() {
    ASSIGN_OR_RETURN(ExprPtr lhs, ParseAdditive());
    while (true) {
      bool negated = false;
      if (PeekKeyword("NOT") &&
          (PeekKeyword("BETWEEN", 1) || PeekKeyword("IN", 1) ||
           PeekKeyword("LIKE", 1))) {
        ++pos_;
        negated = true;
      }
      if (ConsumeKeyword("BETWEEN")) {
        ASSIGN_OR_RETURN(ExprPtr lo, ParseAdditive());
        RETURN_NOT_OK(ExpectKeyword("AND"));
        ASSIGN_OR_RETURN(ExprPtr hi, ParseAdditive());
        lhs = Expr::Between(std::move(lhs), std::move(lo), std::move(hi),
                            negated);
        continue;
      }
      if (ConsumeKeyword("IN")) {
        RETURN_NOT_OK(ExpectSymbol("("));
        std::vector<ExprPtr> list;
        while (true) {
          ASSIGN_OR_RETURN(ExprPtr e, ParseExpr());
          list.push_back(std::move(e));
          if (ConsumeSymbol(",")) continue;
          RETURN_NOT_OK(ExpectSymbol(")"));
          break;
        }
        lhs = Expr::InList(std::move(lhs), std::move(list), negated);
        continue;
      }
      if (ConsumeKeyword("LIKE")) {
        ASSIGN_OR_RETURN(ExprPtr pattern, ParseAdditive());
        ExprPtr like = Expr::Binary(BinaryOp::kLike, std::move(lhs),
                                    std::move(pattern));
        lhs = negated ? Expr::Unary(UnaryOp::kNot, std::move(like))
                      : std::move(like);
        continue;
      }
      if (negated) return Error("dangling NOT");
      if (ConsumeKeyword("IS")) {
        bool is_not = ConsumeKeyword("NOT");
        RETURN_NOT_OK(ExpectKeyword("NULL"));
        lhs = Expr::IsNull(std::move(lhs), is_not);
        continue;
      }
      BinaryOp op;
      if (ConsumeSymbol("=")) {
        op = BinaryOp::kEq;
      } else if (ConsumeSymbol("<>") || ConsumeSymbol("!=")) {
        op = BinaryOp::kNe;
      } else if (ConsumeSymbol("<=")) {
        op = BinaryOp::kLe;
      } else if (ConsumeSymbol(">=")) {
        op = BinaryOp::kGe;
      } else if (ConsumeSymbol("<")) {
        op = BinaryOp::kLt;
      } else if (ConsumeSymbol(">")) {
        op = BinaryOp::kGt;
      } else {
        break;
      }
      ASSIGN_OR_RETURN(ExprPtr rhs, ParseAdditive());
      lhs = Expr::Binary(op, std::move(lhs), std::move(rhs));
    }
    return lhs;
  }

  Result<ExprPtr> ParseAdditive() {
    ASSIGN_OR_RETURN(ExprPtr lhs, ParseMultiplicative());
    while (true) {
      BinaryOp op;
      if (ConsumeSymbol("+")) {
        op = BinaryOp::kAdd;
      } else if (ConsumeSymbol("-")) {
        op = BinaryOp::kSub;
      } else if (ConsumeSymbol("||")) {
        op = BinaryOp::kConcat;
      } else {
        break;
      }
      ASSIGN_OR_RETURN(ExprPtr rhs, ParseMultiplicative());
      lhs = Expr::Binary(op, std::move(lhs), std::move(rhs));
    }
    return lhs;
  }

  Result<ExprPtr> ParseMultiplicative() {
    ASSIGN_OR_RETURN(ExprPtr lhs, ParseUnary());
    while (true) {
      BinaryOp op;
      if (ConsumeSymbol("*")) {
        op = BinaryOp::kMul;
      } else if (ConsumeSymbol("/")) {
        op = BinaryOp::kDiv;
      } else if (ConsumeSymbol("%")) {
        op = BinaryOp::kMod;
      } else {
        break;
      }
      ASSIGN_OR_RETURN(ExprPtr rhs, ParseUnary());
      lhs = Expr::Binary(op, std::move(lhs), std::move(rhs));
    }
    return lhs;
  }

  Result<ExprPtr> ParseUnary() {
    if (ConsumeSymbol("-")) {
      // INT64_MIN's magnitude alone overflows int64, so its sign folds
      // into the literal; every other negation stays a unary minus.
      const Token& t = Peek();
      uint64_t magnitude = 0;
      if (t.type == TokenType::kInteger &&
          std::from_chars(t.text.data(), t.text.data() + t.text.size(),
                          magnitude)
                  .ec == std::errc() &&
          magnitude == uint64_t{1} << 63) {
        ++pos_;
        return Expr::Literal(
            Datum::Int(std::numeric_limits<int64_t>::min()));
      }
      ASSIGN_OR_RETURN(ExprPtr operand, ParseUnary());
      return Expr::Unary(UnaryOp::kNeg, std::move(operand));
    }
    return ParsePrimary();
  }

  Result<ExprPtr> ParsePrimary() {
    const Token& t = Peek();
    switch (t.type) {
      case TokenType::kString: {
        ++pos_;
        return Expr::Literal(Datum::Text(t.text));
      }
      case TokenType::kInteger: {
        ASSIGN_OR_RETURN(int64_t v, IntegerLiteral(t.text));
        ++pos_;
        return Expr::Literal(Datum::Int(v));
      }
      case TokenType::kFloat: {
        double v = 0;
        if (std::from_chars(t.text.data(), t.text.data() + t.text.size(), v)
                .ec != std::errc()) {
          return Status::InvalidArgument("numeric literal ", t.text,
                                         " is out of range");
        }
        ++pos_;
        return Expr::Literal(Datum::Double(v));
      }
      case TokenType::kSymbol:
        if (t.IsSymbol("(")) {
          ++pos_;
          ASSIGN_OR_RETURN(ExprPtr e, ParseExpr());
          RETURN_NOT_OK(ExpectSymbol(")"));
          return e;
        }
        return Error("unexpected symbol in expression");
      case TokenType::kIdentifier:
        if (t.IsKeyword("TRUE")) {
          ++pos_;
          return Expr::Literal(Datum::Bool(true));
        }
        if (t.IsKeyword("FALSE")) {
          ++pos_;
          return Expr::Literal(Datum::Bool(false));
        }
        if (t.IsKeyword("NULL")) {
          ++pos_;
          return Expr::Literal(Datum::Null());
        }
        if (t.IsKeyword("CASE")) return ParseCase();
        [[fallthrough]];
      case TokenType::kQuotedIdentifier:
        return ParseIdentifierExpression();
      case TokenType::kEnd:
        return Error("unexpected end of input");
    }
    return Error("unexpected token");
  }

  Result<ExprPtr> ParseCase() {
    ++pos_;  // CASE
    std::vector<ExprPtr> args;
    while (ConsumeKeyword("WHEN")) {
      ASSIGN_OR_RETURN(ExprPtr cond, ParseExpr());
      RETURN_NOT_OK(ExpectKeyword("THEN"));
      ASSIGN_OR_RETURN(ExprPtr value, ParseExpr());
      args.push_back(std::move(cond));
      args.push_back(std::move(value));
    }
    if (args.empty()) return Error("CASE requires at least one WHEN");
    if (ConsumeKeyword("ELSE")) {
      ASSIGN_OR_RETURN(ExprPtr e, ParseExpr());
      args.push_back(std::move(e));
    }
    RETURN_NOT_OK(ExpectKeyword("END"));
    auto e = std::make_unique<Expr>();
    e->kind = ExprKind::kCase;
    e->args = std::move(args);
    return e;
  }

  /// Identifier chain: function call, column ref (possibly alias-qualified,
  /// possibly dotted), or alias.* star.
  Result<ExprPtr> ParseIdentifierExpression() {
    std::vector<std::string> parts;
    const Token& first = Peek();
    parts.push_back(first.text);
    bool first_bare = first.type == TokenType::kIdentifier;
    ++pos_;
    // Function call?
    if (first_bare && Peek().IsSymbol("(")) {
      ++pos_;
      std::vector<ExprPtr> args;
      if (!ConsumeSymbol(")")) {
        while (true) {
          if (Peek().IsSymbol("*")) {
            ++pos_;
            args.push_back(Expr::Star(""));
          } else {
            ASSIGN_OR_RETURN(ExprPtr e, ParseExpr());
            args.push_back(std::move(e));
          }
          if (ConsumeSymbol(",")) continue;
          RETURN_NOT_OK(ExpectSymbol(")"));
          break;
        }
      }
      return Expr::Function(AsciiLower(parts[0]), std::move(args));
    }
    while (Peek().IsSymbol(".")) {
      if (Peek(1).IsSymbol("*")) {
        pos_ += 2;
        // alias.*
        std::string alias = JoinParts(parts);
        return Expr::Star(std::move(alias));
      }
      const Token& next = Peek(1);
      if (next.type != TokenType::kIdentifier &&
          next.type != TokenType::kQuotedIdentifier) {
        break;
      }
      parts.push_back(next.text);
      pos_ += 2;
    }
    // Leave table/column split to the binder: stash the full dotted chain in
    // `column` and let binding peel a leading alias if one matches.
    return Expr::Column("", JoinParts(parts));
  }

  static std::string JoinParts(const std::vector<std::string>& parts) {
    std::string out;
    for (size_t i = 0; i < parts.size(); ++i) {
      if (i > 0) out.push_back('.');
      out += parts[i];
    }
    return out;
  }

  std::vector<Token> tokens_;
  size_t pos_ = 0;
};

}  // namespace

Result<Statement> ParseSql(std::string_view sql) {
  ASSIGN_OR_RETURN(std::vector<Token> tokens, Tokenize(sql));
  Parser parser(std::move(tokens));
  return parser.ParseStatement();
}

Result<ExprPtr> ParseExpression(std::string_view text) {
  ASSIGN_OR_RETURN(std::vector<Token> tokens, Tokenize(text));
  Parser parser(std::move(tokens));
  return parser.ParseStandaloneExpression();
}

}  // namespace sinew::engine
