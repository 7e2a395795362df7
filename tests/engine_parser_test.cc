#include <gtest/gtest.h>

#include <limits>

#include "engine/lexer.h"
#include "engine/parser.h"

namespace sinew::engine {
namespace {

TEST(Lexer, TokenKinds) {
  auto tokens = Tokenize("SELECT a1, \"user.id\" FROM t WHERE x >= 1.5 "
                         "AND s = 'it''s' -- comment\n LIMIT 3");
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ((*tokens)[0].text, "SELECT");
  EXPECT_EQ((*tokens)[1].type, TokenType::kIdentifier);
  EXPECT_TRUE((*tokens)[2].IsSymbol(","));
  EXPECT_EQ((*tokens)[3].type, TokenType::kQuotedIdentifier);
  EXPECT_EQ((*tokens)[3].text, "user.id");
  // 'it''s' unescapes
  bool found_string = false;
  for (const Token& t : *tokens) {
    if (t.type == TokenType::kString) {
      EXPECT_EQ(t.text, "it's");
      found_string = true;
    }
  }
  EXPECT_TRUE(found_string);
  EXPECT_EQ(tokens->back().type, TokenType::kEnd);
}

TEST(Lexer, NumbersAndOperators) {
  auto tokens = Tokenize("1 2.5 1e3 <= >= <> != ||");
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ((*tokens)[0].type, TokenType::kInteger);
  EXPECT_EQ((*tokens)[1].type, TokenType::kFloat);
  EXPECT_EQ((*tokens)[2].type, TokenType::kFloat);
  EXPECT_TRUE((*tokens)[3].IsSymbol("<="));
  EXPECT_TRUE((*tokens)[5].IsSymbol("<>"));
}

TEST(Lexer, Errors) {
  EXPECT_FALSE(Tokenize("SELECT 'unterminated").ok());
  EXPECT_FALSE(Tokenize("SELECT \"unterminated").ok());
  EXPECT_FALSE(Tokenize("SELECT #").ok());
}

TEST(Parser, SelectBasics) {
  auto stmt = ParseSql(
      "SELECT a, b AS bee, COUNT(*) FROM t alias WHERE a > 3 "
      "GROUP BY a HAVING COUNT(*) > 1 ORDER BY a DESC LIMIT 10;");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  ASSERT_EQ(stmt->kind, StatementKind::kSelect);
  const SelectStatement& sel = *stmt->select;
  ASSERT_EQ(sel.items.size(), 3u);
  EXPECT_EQ(sel.items[1].alias, "bee");
  EXPECT_TRUE(sel.items[2].expr->IsAggregateCall());
  ASSERT_EQ(sel.from.size(), 1u);
  EXPECT_EQ(sel.from[0].effective_alias(), "alias");
  ASSERT_NE(sel.where, nullptr);
  ASSERT_EQ(sel.group_by.size(), 1u);
  ASSERT_NE(sel.having, nullptr);
  ASSERT_EQ(sel.order_by.size(), 1u);
  EXPECT_TRUE(sel.order_by[0].descending);
  EXPECT_EQ(sel.limit, 10);
}

TEST(Parser, JoinSyntaxFoldsIntoWhere) {
  auto stmt = ParseSql(
      "SELECT * FROM a INNER JOIN b ON a.x = b.y WHERE a.z = 1");
  ASSERT_TRUE(stmt.ok());
  EXPECT_EQ(stmt->select->from.size(), 2u);
  // ON condition is ANDed into WHERE.
  // Note: dotted chains stay un-split until the binder resolves aliases.
  EXPECT_EQ(stmt->select->where->ToString(),
            "((\"a.z\" = 1) AND (\"a.x\" = \"b.y\"))");
}

TEST(Parser, ExpressionPrecedence) {
  auto e = ParseExpression("a + b * c = 7 OR NOT d AND e");
  ASSERT_TRUE(e.ok());
  EXPECT_EQ((*e)->ToString(),
            "(((\"a\" + (\"b\" * \"c\")) = 7) OR (NOT (\"d\") AND \"e\"))");
}

TEST(Parser, PredicateForms) {
  EXPECT_EQ((*ParseExpression("x BETWEEN 1 AND 2"))->ToString(),
            "(\"x\" BETWEEN 1 AND 2)");
  EXPECT_EQ((*ParseExpression("x NOT BETWEEN 1 AND 2"))->ToString(),
            "(\"x\" NOT BETWEEN 1 AND 2)");
  EXPECT_EQ((*ParseExpression("x IN (1, 2, 3)"))->ToString(),
            "(\"x\" IN (1, 2, 3))");
  EXPECT_EQ((*ParseExpression("x IS NOT NULL"))->ToString(),
            "(\"x\" IS NOT NULL)");
  EXPECT_EQ((*ParseExpression("x LIKE 'a%'"))->ToString(),
            "(\"x\" LIKE 'a%')");
  EXPECT_EQ((*ParseExpression("x NOT LIKE 'a%'"))->ToString(),
            "NOT ((\"x\" LIKE 'a%'))");
  EXPECT_EQ((*ParseExpression("CASE WHEN a THEN 1 ELSE 2 END"))->ToString(),
            "CASE WHEN \"a\" THEN 1 ELSE 2 END");
}

TEST(Parser, DottedAndQuotedColumnChains) {
  // t1."user.lang" keeps the alias prefix for the binder to peel.
  auto e = ParseExpression("t1.\"user.lang\"");
  ASSERT_TRUE(e.ok());
  EXPECT_EQ((*e)->kind, ExprKind::kColumnRef);
  EXPECT_EQ((*e)->column, "t1.user.lang");
  auto bare = ParseExpression("\"user.id\"");
  EXPECT_EQ((*bare)->column, "user.id");
}

TEST(Parser, FunctionCalls) {
  auto e = ParseExpression("coalesce(a, f(b, 'x'), 1)");
  ASSERT_TRUE(e.ok());
  EXPECT_EQ((*e)->fname, "coalesce");
  ASSERT_EQ((*e)->args.size(), 3u);
  EXPECT_EQ((*e)->args[1]->fname, "f");
}

TEST(Parser, CreateInsertUpdateDelete) {
  auto create = ParseSql(
      "CREATE TABLE t (a int, b text, c double precision, d bool, e bytes)");
  ASSERT_TRUE(create.ok());
  ASSERT_EQ(create->create_table->columns.size(), 5u);
  EXPECT_EQ(create->create_table->columns[2].type, ColumnType::kDouble);

  auto insert = ParseSql("INSERT INTO t (a, b) VALUES (1, 'x'), (2, 'y')");
  ASSERT_TRUE(insert.ok());
  EXPECT_EQ(insert->insert->values.size(), 2u);

  auto update = ParseSql("UPDATE t SET a = a + 1, b = 'z' WHERE a < 5");
  ASSERT_TRUE(update.ok());
  EXPECT_EQ(update->update->assignments.size(), 2u);
  ASSERT_NE(update->update->where, nullptr);

  auto del = ParseSql("DELETE FROM t WHERE a = 1");
  ASSERT_TRUE(del.ok());
  ASSERT_NE(del->del->where, nullptr);

  auto analyze = ParseSql("ANALYZE t");
  ASSERT_TRUE(analyze.ok());
  EXPECT_EQ(analyze->analyze->table, "t");

  auto explain = ParseSql("EXPLAIN SELECT a FROM t");
  ASSERT_TRUE(explain.ok());
  EXPECT_EQ(explain->kind, StatementKind::kExplain);
}

TEST(Parser, Errors) {
  const char* bad[] = {
      "SELECT",
      "SELECT FROM t",
      "SELECT a FROM",
      "SELECT a FROM t WHERE",
      "SELECT a t WHERE x",  // missing FROM
      "UPDATE t SET",
      "INSERT INTO t VALUES",
      "SELECT a FROM t GROUP",
      "SELECT a FROM t trailing garbage tokens here",
      "CREATE TABLE t (a unknown_type)",
  };
  for (const char* sql : bad) {
    EXPECT_FALSE(ParseSql(sql).ok()) << sql;
  }
}

TEST(Parser, OutOfRangeNumbersAreInvalidArgument) {
  const char* bad[] = {
      "SELECT 9223372036854775808 FROM t",
      "SELECT 1e309 FROM t",
      "SELECT a FROM t LIMIT 99999999999999999999",
      "SELECT a FROM t WHERE a > -9223372036854775809",
  };
  for (const char* sql : bad) {
    Result<Statement> stmt = ParseSql(sql);
    ASSERT_FALSE(stmt.ok()) << sql;
    EXPECT_TRUE(stmt.status().IsInvalidArgument())
        << sql << " -> " << stmt.status().ToString();
  }
}

TEST(Parser, Int64BoundsAreWritable) {
  auto min = ParseSql("SELECT -9223372036854775808 FROM t");
  ASSERT_TRUE(min.ok()) << min.status().ToString();
  const Expr& lit = *min->select->items[0].expr;
  ASSERT_EQ(lit.kind, ExprKind::kLiteral);
  EXPECT_EQ(lit.literal.int_value(), std::numeric_limits<int64_t>::min());

  auto max = ParseSql(
      "SELECT 9223372036854775807 FROM t LIMIT 9223372036854775807");
  ASSERT_TRUE(max.ok()) << max.status().ToString();
  EXPECT_EQ(max->select->items[0].expr->literal.int_value(),
            std::numeric_limits<int64_t>::max());
  EXPECT_EQ(max->select->limit, std::numeric_limits<int64_t>::max());

  // Other negations keep their unary-minus shape.
  auto neg = ParseSql("SELECT -5 FROM t");
  ASSERT_TRUE(neg.ok());
  EXPECT_EQ(neg->select->items[0].expr->kind, ExprKind::kUnary);
}

TEST(Expr, CloneIsDeepAndEqual) {
  auto e = ParseExpression("f(a + 1, 'x') BETWEEN lo AND hi");
  ExprPtr clone = (*e)->Clone();
  EXPECT_EQ(clone->ToString(), (*e)->ToString());
  // Mutating the clone (the 'x' literal inside f) leaves the original
  // untouched.
  clone->args[0]->args[1]->literal = engine::Datum::Int(99);
  EXPECT_NE(clone->ToString(), (*e)->ToString());
}

TEST(Expr, SplitAndCombineConjuncts) {
  auto e = ParseExpression("a = 1 AND b = 2 AND (c = 3 OR d = 4)");
  std::vector<ExprPtr> parts = SplitConjuncts(**e);
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[2]->ToString(), "((\"c\" = 3) OR (\"d\" = 4))");
  ExprPtr combined = CombineConjuncts(std::move(parts));
  EXPECT_EQ(combined->ToString(), (*e)->ToString());
}

TEST(Expr, AggregateDetection) {
  EXPECT_TRUE((*ParseExpression("SUM(x)"))->IsAggregateCall());
  EXPECT_TRUE((*ParseExpression("1 + COUNT(*)"))->ContainsAggregate());
  EXPECT_FALSE((*ParseExpression("lower(x)"))->IsAggregateCall());
  EXPECT_TRUE(
      (*ParseExpression("lower(x)"))->ContainsNonAggregateFunction());
  EXPECT_FALSE((*ParseExpression("SUM(x)"))->ContainsNonAggregateFunction());
}

}  // namespace
}  // namespace sinew::engine
