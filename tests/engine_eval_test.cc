// Datum semantics and expression-evaluator edge cases.

#include <gtest/gtest.h>

#include "engine/database.h"
#include "engine/datum.h"
#include "engine/eval.h"
#include "engine/parser.h"
#include "scalar_eval.h"

namespace sinew::engine {
namespace {

TEST(Datum, CompareOrdersNullFirstAndCrossNumeric) {
  EXPECT_LT(Datum::Compare(Datum::Null(), Datum::Int(0)), 0);
  EXPECT_EQ(Datum::Compare(Datum::Null(), Datum::Null()), 0);
  EXPECT_EQ(Datum::Compare(Datum::Int(2), Datum::Double(2.0)), 0);
  EXPECT_LT(Datum::Compare(Datum::Int(1), Datum::Double(1.5)), 0);
  EXPECT_GT(Datum::Compare(Datum::Double(3.0), Datum::Int(2)), 0);
  EXPECT_LT(Datum::Compare(Datum::Text("a"), Datum::Text("b")), 0);
  // Mismatched non-numeric kinds order deterministically by kind tag.
  EXPECT_NE(Datum::Compare(Datum::Bool(true), Datum::Text("true")), 0);
}

TEST(Datum, HashConsistentWithCrossNumericEquality) {
  EXPECT_EQ(Datum::Int(7).Hash(), Datum::Double(7.0).Hash());
  DatumRow a{Datum::Int(1), Datum::Text("x")};
  DatumRow b{Datum::Double(1.0), Datum::Text("x")};
  EXPECT_EQ(HashDatums(a), HashDatums(b));
}

TEST(Datum, ValueConversions) {
  EXPECT_EQ(Datum::FromValue(Value::Int(3))->int_value(), 3);
  EXPECT_EQ(Datum::FromValue(Value::String("s"))->str(), "s");
  EXPECT_TRUE(Datum::FromValue(Value::Null())->is_null());
  EXPECT_FALSE(Datum::FromValue(Value::Array({})).ok());
  EXPECT_EQ(Datum::Bool(true).ToValue(), Value::Bool(true));
  EXPECT_EQ(Datum::Int(-4).ToString(), "-4");
  EXPECT_EQ(Datum::Null().ToString(), "NULL");
}

class EvalTest : public ::testing::Test {
 protected:
  // Schema: x int, s text, f double, t2.y int (two tables).
  EvalTest() {
    schema_.cols = {{"t", "x", ColumnType::kInt},
                    {"t", "s", ColumnType::kText},
                    {"t", "f", ColumnType::kDouble},
                    {"t2", "y", ColumnType::kInt}};
    RegisterBuiltinFunctions(&udfs_);
  }

  Result<Datum> Eval(const std::string& text, const DatumRow& row) {
    auto expr = ParseExpression(text);
    EXPECT_TRUE(expr.ok()) << expr.status().ToString();
    Status bound = BindExpr(expr->get(), schema_, {"t", "t2"});
    if (!bound.ok()) return bound;
    return EvalExpr(**expr, row, &udfs_);
  }

  ExecSchema schema_;
  UdfRegistry udfs_;
};

TEST_F(EvalTest, BindingPeelsAliasesAndNormalizes) {
  auto expr = ParseExpression("t.x + t2.y");
  ASSERT_TRUE(BindExpr(expr->get(), schema_, {"t", "t2"}).ok());
  std::vector<const Expr*> refs;
  (*expr)->CollectColumnRefs(&refs);
  ASSERT_EQ(refs.size(), 2u);
  EXPECT_EQ(refs[0]->bound_slot, 0);
  EXPECT_EQ(refs[1]->bound_slot, 3);
  EXPECT_EQ(refs[1]->table, "t2");
  // Ambiguity across tables is rejected.
  ExecSchema dup = schema_;
  dup.cols.push_back({"t2", "x", ColumnType::kInt});
  auto amb = ParseExpression("x");
  EXPECT_FALSE(BindExpr(amb->get(), dup, {"t", "t2"}).ok());
}

TEST_F(EvalTest, NullPropagation) {
  DatumRow row{Datum::Null(), Datum::Text("a"), Datum::Double(1.5),
               Datum::Int(2)};
  EXPECT_TRUE(Eval("x + 1", row)->is_null());
  EXPECT_TRUE(Eval("x = 0", row)->is_null());
  EXPECT_TRUE(Eval("x BETWEEN 0 AND 9", row)->is_null());
  EXPECT_TRUE(Eval("x IN (1, 2)", row)->is_null());
  EXPECT_TRUE(Eval("NOT (x = 0)", row)->is_null());
  EXPECT_TRUE(Eval("x IS NULL", row)->bool_value());
  // Kleene: NULL OR true = true; NULL AND false = false.
  EXPECT_TRUE(Eval("x = 0 OR s = 'a'", row)->bool_value());
  EXPECT_FALSE(Eval("x = 0 AND s = 'zzz'", row)->bool_value());
  EXPECT_TRUE(Eval("x = 0 AND s = 'a'", row)->is_null());
}

TEST_F(EvalTest, CrossKindComparisonIsNullNotError) {
  DatumRow row{Datum::Int(5), Datum::Text("5"), Datum::Double(0), Datum::Int(0)};
  // int vs text: not comparable -> NULL (filters, never throws) — the
  // multi-typed-attribute behaviour Sinew relies on (paper Section 3.2.2).
  auto v = Eval("x = s", row);
  ASSERT_TRUE(v.ok());
  EXPECT_TRUE(v->is_null());
  // int vs double IS comparable.
  EXPECT_TRUE(Eval("x > f", row)->bool_value());
}

TEST_F(EvalTest, ArithmeticTypeRules) {
  DatumRow row{Datum::Int(7), Datum::Text(""), Datum::Double(2.0), Datum::Int(0)};
  EXPECT_TRUE(Eval("x / 2", row)->is_int());     // int division
  EXPECT_EQ(Eval("x / 2", row)->int_value(), 3);
  EXPECT_TRUE(Eval("x / f", row)->is_double());  // promotion
  EXPECT_EQ(Eval("x / f", row)->double_value(), 3.5);
  EXPECT_EQ(Eval("x % 4", row)->int_value(), 3);
  EXPECT_FALSE(Eval("x / 0", row).ok());
  EXPECT_FALSE(Eval("s + 1", row).ok());  // type error, not silent
}

TEST_F(EvalTest, PredicateEvaluationTreatsNullAsFalse) {
  DatumRow row{Datum::Null(), Datum::Text("a"), Datum::Double(0), Datum::Int(0)};
  auto expr = ParseExpression("x > 0");
  ASSERT_TRUE(BindExpr(expr->get(), schema_, {"t"}).ok());
  auto keep = EvalPredicate(**expr, row, &udfs_);
  ASSERT_TRUE(keep.ok());
  EXPECT_FALSE(*keep);
}

TEST_F(EvalTest, InferTypes) {
  auto check = [&](const std::string& text, ColumnType want) {
    auto expr = ParseExpression(text);
    ASSERT_TRUE(BindExpr(expr->get(), schema_, {"t", "t2"}).ok());
    EXPECT_EQ(InferType(**expr, schema_), want) << text;
  };
  check("x", ColumnType::kInt);
  check("f", ColumnType::kDouble);
  check("x + 1", ColumnType::kInt);
  check("x + f", ColumnType::kDouble);
  check("x > 1", ColumnType::kBool);
  check("s", ColumnType::kText);
  check("count(x)", ColumnType::kInt);
  check("avg(x)", ColumnType::kDouble);
  check("coalesce(f, 0.0)", ColumnType::kDouble);
}

}  // namespace
}  // namespace sinew::engine
