// Constant folding and INSERT VALUES against execution and the reference.
//
// Plan-time folding and INSERT VALUES evaluate column-free expressions on
// the bytecode VM over one lane (bytecode::EvalConstant). A corpus of
// literal-only shapes is checked three ways: folded into the plan, the same
// shape over columns holding those values (executed on the VM over a
// one-row table), and the scalar tree walk of scalar_eval.h. Values must
// agree bit for bit; error statuses must agree in code and text.
//
// The IntegerOverflow suite pins the one integer rule of engine/eval.h:
// + - * / and unary minus outside int64 fail with "integer out of range",
// x % -1 is 0, and an integer SUM whose total leaves int64 fails the same
// way, serial and under Gather. Each case trapped (SIGFPE) or wrapped
// before the rule existed; under SINEW_SANITIZE=ON or =undefined UBSan
// checks that no path overflows.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "engine/bytecode.h"
#include "engine/database.h"
#include "engine/parser.h"
#include "engine/row_batch.h"
#include "scalar_eval.h"

namespace sinew::engine {
namespace {

constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
const double kNaN = std::numeric_limits<double>::quiet_NaN();
const double kInf = std::numeric_limits<double>::infinity();

int ParallelDegree() {
  if (const char* env = std::getenv("SINEW_DIFF_PARALLELISM")) {
    int parsed = std::atoi(env);
    if (parsed > 1) return parsed;
  }
  return 4;
}

Datum I(int64_t v) { return Datum::Int(v); }
Datum D(double v) { return Datum::Double(v); }
Datum T(std::string v) { return Datum::Text(std::move(v)); }
Datum B(bool v) { return Datum::Bool(v); }
Datum N() { return Datum::Null(); }

/// A value or an error, rendered exactly: kind, then the bits of a double
/// (so -0.0, 0.0 and every NaN stay apart), or the status's code and text.
std::string Render(const Result<Datum>& r) {
  if (!r.ok()) return "error: " + r.status().ToString();
  const Datum& d = *r;
  if (d.is_double()) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "double %a", d.double_value());
    return buf;
  }
  static const char* kKinds[] = {"null", "bool", "int",
                                 "double", "text", "bytes"};
  return std::string(kKinds[static_cast<int>(d.kind())]) + " " +
         d.ToString();
}

/// One row of a one-column query result, or its status.
Result<Datum> FirstValue(Result<QueryResult> r) {
  if (!r.ok()) return r.status();
  if (r->rows.size() != 1 || r->rows[0].size() != 1) {
    return Status::Internal("expected one value, got ", r->rows.size(),
                            " rows");
  }
  return std::move(r->rows[0][0]);
}

/// Replaces every reference to column c<i> with the literal values[i].
void SubstituteLiterals(ExprPtr* e, const std::vector<Datum>& values) {
  if ((*e)->kind == ExprKind::kColumnRef) {
    const std::string& name = (*e)->column;
    *e = Expr::Literal(values[std::stoul(name.substr(1))]);
    return;
  }
  for (ExprPtr& arg : (*e)->args) SubstituteLiterals(&arg, values);
}

const char* TypeName(const Datum& d) {
  if (d.is_double()) return "DOUBLE";
  if (d.is_text()) return "TEXT";
  if (d.is_bool()) return "BOOL";
  return "INT";  // ints and NULLs
}

/// One literal-only shape: SQL over columns c0.. and the value of each.
struct Shape {
  std::string sql;
  std::vector<Datum> values;
};

std::vector<Shape> Corpus() {
  std::vector<Shape> c = {
      // int arithmetic, division and modulo by zero
      {"c0 + c1", {I(1), I(2)}},
      {"c0 - c1", {I(5), I(7)}},
      {"c0 * c1", {I(-3), I(4)}},
      {"c0 / c1", {I(7), I(2)}},
      {"c0 / c1", {I(-7), I(2)}},
      {"c0 % c1", {I(-7), I(3)}},
      {"c0 / c1", {I(1), I(0)}},
      {"c0 % c1", {I(1), I(0)}},
      {"(c0 + c1) * c2 > c3", {I(2), I(3), I(4), I(19)}},
      // INT64 edges
      {"c0 / c1", {I(kMin), I(-1)}},
      {"c0 % c1", {I(kMin), I(-1)}},
      {"c0 % c1", {I(7), I(-1)}},
      {"c0 + c1", {I(kMax), I(1)}},
      {"c0 - c1", {I(kMin), I(1)}},
      {"c0 * c1", {I(kMax), I(2)}},
      {"c0 * c1", {I(kMin), I(1)}},
      {"c0 + c1", {I(kMax), I(kMin)}},
      {"-c0", {I(kMin)}},
      {"-c0", {I(kMax)}},
      {"c0 = c1", {I(kMin), D(-9223372036854775808.0)}},
      // double arithmetic, ±0.0, NaN and infinity
      {"c0 + c1", {D(1.5), D(2.25)}},
      {"c0 / c1", {D(1.0), D(0.0)}},
      {"c0 / c1", {D(1.0), D(-0.0)}},
      {"c0 % c1", {D(5.5), D(2.0)}},
      {"c0 % c1", {D(1.5), D(0.0)}},
      {"c0 * c1", {D(-0.0), D(1.0)}},
      {"c0 + c1", {D(-0.0), D(0.0)}},
      {"-c0", {D(0.0)}},
      {"c0 = c1", {D(-0.0), D(0.0)}},
      {"c0 + c1", {D(kNaN), D(1.0)}},
      {"c0 = c1", {D(kNaN), D(1.0)}},
      {"c0 < c1", {D(kNaN), D(1.0)}},
      {"c0 - c1", {D(kInf), D(kInf)}},
      {"c0 * c1", {D(kInf), D(0.0)}},
      // mixed int and double
      {"c0 + c1", {I(1), D(2.5)}},
      {"c0 / c1", {I(7), D(2.0)}},
      {"c0 / c1", {I(1), D(0.0)}},
      {"c0 % c1", {I(7), D(2.5)}},
      {"c0 + c1", {I(kMax), D(1.0)}},
      {"c0 = c1", {I(2), D(2.0)}},
      // equal values of distinct kinds or signs stay distinct literals
      {"c0 / c1 + c2 / c3", {I(1), I(2), D(1.0), D(2.0)}},
      {"c0 || c1", {D(0.0), D(-0.0)}},
      // NULL propagation
      {"c0 + c1", {N(), I(1)}},
      {"c0 / c1", {N(), I(0)}},
      {"c0 % c1", {I(1), N()}},
      {"c0 || c1", {N(), T("a")}},
      {"c0 = c1", {N(), I(1)}},
      {"-c0", {N()}},
      {"NOT c0", {N()}},
      {"c0 LIKE c1", {N(), T("a%")}},
      // strings: comparison, LIKE, ||
      {"c0 < c1", {T("abc"), T("abd")}},
      {"c0 = c1", {T("a"), T("a")}},
      {"c0 = c1", {T("1"), I(1)}},
      {"c0 LIKE c1", {T("hello"), T("h%o")}},
      {"c0 LIKE c1", {T("hello"), T("h_x")}},
      {"c0 LIKE c1", {I(1), T("a")}},
      {"c0 || c1", {T("ab"), T("cd")}},
      {"c0 || c1", {T("n"), I(5)}},
      {"c0 || c1", {D(1.5), B(true)}},
      {"c0 + c1", {T("a"), I(1)}},
      // [NOT] BETWEEN
      {"c0 BETWEEN c1 AND c2", {I(5), I(1), I(9)}},
      {"c0 BETWEEN c1 AND c2", {I(5), I(6), I(9)}},
      {"c0 BETWEEN c1 AND c2", {N(), I(1), I(2)}},
      {"c0 BETWEEN c1 AND c2", {I(5), N(), I(9)}},
      {"c0 BETWEEN c1 AND c2", {I(5), I(6), N()}},
      {"c0 BETWEEN c1 AND c2", {D(2.5), I(1), I(3)}},
      {"c0 NOT BETWEEN c1 AND c2", {I(5), I(1), I(9)}},
      {"c0 NOT BETWEEN c1 AND c2", {I(0), I(1), I(9)}},
      {"c0 NOT BETWEEN c1 AND c2", {T("b"), T("a"), T("c")}},
      // [NOT] IN, NULL items included
      {"c0 IN (c1, c2, c3)", {I(2), I(1), I(2), I(3)}},
      {"c0 IN (c1, c2, c3)", {I(4), I(1), N(), I(3)}},
      {"c0 IN (c1, c2, c3)", {I(1), I(1), N(), I(3)}},
      {"c0 IN (c1, c2, c3)", {N(), I(1), I(2), I(3)}},
      {"c0 IN (c1, c2)", {T("a"), I(1), T("a")}},
      {"c0 IN (c1, c2)", {I(2), D(2.0), I(3)}},
      {"c0 NOT IN (c1, c2)", {I(4), I(1), N()}},
      {"c0 NOT IN (c1, c2)", {I(1), I(1), N()}},
      {"c0 NOT IN (c1, c2)", {I(4), I(1), I(2)}},
      // IS [NOT] NULL, NOT, unary minus
      {"c0 IS NULL", {N()}},
      {"c0 IS NULL", {I(1)}},
      {"c0 IS NOT NULL", {N()}},
      {"c0 IS NOT NULL", {T("x")}},
      {"NOT c0", {B(true)}},
      {"NOT c0", {B(false)}},
      {"NOT c0", {I(1)}},
      {"-c0", {I(5)}},
      {"-c0", {D(-2.5)}},
      {"-c0", {T("a")}},
      // Kleene AND/OR, short circuits and non-boolean operands
      {"c0 AND c1", {I(1), B(true)}},
      {"c0 OR c1", {B(false), T("x")}},
      {"c0 AND c1", {B(false), T("x")}},
      {"c0 OR c1", {B(true), I(1)}},
      {"c0 AND c1 / c2 = 0", {B(false), I(1), I(0)}},
      {"c0 AND c1 / c2 = 0", {B(true), I(1), I(0)}},
      {"c0 OR c1 / c2 = 0", {B(true), I(1), I(0)}},
      {"c0 OR c1 + c2 = 0", {N(), I(kMax), I(1)}},
  };
  const Datum kleene[] = {B(true), B(false), N()};
  for (const Datum& a : kleene) {
    for (const Datum& b : kleene) {
      c.push_back({"c0 AND c1", {a, b}});
      c.push_back({"c0 OR c1", {a, b}});
    }
  }
  return c;
}

/// The first projection of the plan's Project node.
const Expr* Projection(const PlanNode& node) {
  if (!node.projections.empty()) return node.projections[0].get();
  for (const PlanPtr& child : node.children) {
    if (const Expr* e = Projection(*child)) return e;
  }
  return nullptr;
}

/// A database holding one table `v` whose one row is `values`, in columns
/// c0.. typed after them.
struct ValuesTable {
  explicit ValuesTable(const std::vector<Datum>& values) {
    std::string ddl = "CREATE TABLE v (";
    for (size_t i = 0; i < values.size(); ++i) {
      ddl += (i ? ", c" : "c") + std::to_string(i) + " " +
             TypeName(values[i]);
    }
    EXPECT_TRUE(db.Execute(ddl + ")").ok()) << ddl;
    Result<Table*> table = db.catalog()->GetTable("v");
    EXPECT_TRUE(table.ok());
    EXPECT_TRUE((*table)->AppendRow(values).ok());
  }
  Database db;
};

std::string Describe(const Shape& s) {
  std::string out = s.sql + " with";
  for (const Datum& d : s.values) out += " [" + Render(d) + "]";
  return out;
}

TEST(FoldDifferential, LiteralShapesAgreeFoldedExecutedAndScalar) {
  for (const Shape& shape : Corpus()) {
    SCOPED_TRACE(Describe(shape));
    ValuesTable t(shape.values);
    Result<Statement> parsed = ParseSql("SELECT " + shape.sql + " FROM v");
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    Statement over_columns = std::move(*parsed);
    Result<Statement> reparsed = ParseSql("SELECT " + shape.sql + " FROM v");
    ASSERT_TRUE(reparsed.ok());
    Statement over_literals = std::move(*reparsed);
    SubstituteLiterals(&over_literals.select->items[0].expr, shape.values);

    // The reference: the scalar tree walk over the literal shape.
    const std::string scalar =
        Render(EvalExpr(*over_literals.select->items[0].expr, {}, nullptr));

    // Folded: a shape that evaluates plans as one literal, shown by
    // EXPLAIN; a failing one stays in the plan and fails when it runs.
    Result<PlanPtr> plan = t.db.PlanStatement(*over_literals.select);
    ASSERT_TRUE(plan.ok()) << plan.status().ToString();
    const Expr* projection = Projection(**plan);
    ASSERT_NE(projection, nullptr);
    std::string folded;
    if (projection->kind == ExprKind::kLiteral) {
      folded = Render(projection->literal);
      EXPECT_NE((*plan)->DebugString().find(projection->ToString()),
                std::string::npos);
    } else {
      folded = Render(FirstValue(t.db.ExecuteStatement(over_literals)));
    }
    EXPECT_EQ(projection->kind == ExprKind::kLiteral,
              scalar.rfind("error", 0) != 0)
        << "a shape folds exactly when it evaluates";

    // Executed: the same shape over columns holding the values.
    const std::string executed =
        Render(FirstValue(t.db.ExecuteStatement(over_columns)));

    EXPECT_EQ(folded, scalar);
    EXPECT_EQ(executed, scalar);
  }
}

TEST(FoldDifferential, FoldedLiteralsInFilters) {
  // A folded WHERE keeps or drops the row exactly as the unfolded one.
  ValuesTable t({I(1)});
  Result<std::string> plan = t.db.Explain("SELECT c0 FROM v WHERE 1 + 2 = 3");
  ASSERT_TRUE(plan.ok());
  EXPECT_NE(plan->find("filter: true"), std::string::npos) << *plan;
  Result<QueryResult> kept = t.db.Execute("SELECT c0 FROM v WHERE 1 + 2 = 3");
  ASSERT_TRUE(kept.ok());
  EXPECT_EQ(kept->rows.size(), 1u);
  Result<QueryResult> dropped =
      t.db.Execute("SELECT c0 FROM v WHERE 2.5 BETWEEN 3 AND NULL");
  ASSERT_TRUE(dropped.ok());
  EXPECT_EQ(dropped->rows.size(), 0u);
}

TEST(FoldDifferential, InsertValuesStatusTexts) {
  // The texts INSERT VALUES has always reported, now from the VM.
  Database db;
  ASSERT_TRUE(db.Execute("CREATE TABLE t (a INT, b INT)").ok());
  const std::pair<const char*, const char*> cases[] = {
      {"INSERT INTO t VALUES (count(*), 1)",
       "Internal error: aggregate count reached the scalar evaluator"},
      {"INSERT INTO t VALUES (nofn(1), 1)",
       "Not found: unknown function nofn"},
      {"INSERT INTO t VALUES (a, 1)",
       "Internal error: unbound column reference a"},
      {"INSERT INTO t VALUES (1/0, 1)", "Invalid argument: division by zero"},
      {"INSERT INTO t VALUES (1 LIKE 'a', 1)",
       "Type error: LIKE on non-text values"},
  };
  for (const auto& [sql, text] : cases) {
    Result<QueryResult> r = db.Execute(sql);
    ASSERT_FALSE(r.ok()) << sql;
    EXPECT_EQ(r.status().ToString(), text) << sql;
  }
  // Computed values, CASE and COALESCE included, land as evaluated.
  ASSERT_TRUE(db.Execute("INSERT INTO t VALUES (2 * 3 + 1, "
                         "CASE WHEN 1 > 2 THEN 1/0 ELSE -4 END), "
                         "(coalesce(NULL, 7 % -1), 9)")
                  .ok());
  Result<QueryResult> rows = db.Execute("SELECT a, b FROM t ORDER BY b");
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->rows.size(), 2u);
  EXPECT_EQ(Render(rows->rows[0][0]), "int 7");
  EXPECT_EQ(Render(rows->rows[0][1]), "int -4");
  EXPECT_EQ(Render(rows->rows[1][0]), "int 0");
  EXPECT_EQ(Render(rows->rows[1][1]), "int 9");
}

// ---- the integer rule: a Status, never a trap or a wrapped value ----

const char kOutOfRange[] = "Invalid argument: integer out of range";

TEST(IntegerOverflow, FoldedShapesFailWhenTheyRun) {
  ValuesTable t({I(1)});
  for (const char* sql :
       {"SELECT c0 FROM v WHERE -9223372036854775808 / -1 = 0",
        "SELECT 9223372036854775807 + 1 FROM v",
        "SELECT -(-9223372036854775808) FROM v",
        "SELECT c0 FROM v WHERE 4611686018427387904 * 2 > 0"}) {
    Result<std::string> plan = t.db.Explain(sql);
    ASSERT_TRUE(plan.ok()) << sql << ": " << plan.status().ToString();
    Result<QueryResult> r = t.db.Execute(sql);
    ASSERT_FALSE(r.ok()) << sql;
    EXPECT_EQ(r.status().ToString(), kOutOfRange) << sql;
  }
  Result<QueryResult> mod = t.db.Execute("SELECT -9223372036854775808 % -1, "
                                         "9223372036854775807 % -1 FROM v");
  ASSERT_TRUE(mod.ok()) << mod.status().ToString();
  EXPECT_EQ(Render(mod->rows[0][0]), "int 0");
  EXPECT_EQ(Render(mod->rows[0][1]), "int 0");
}

TEST(IntegerOverflow, TypedIntColumns) {
  ValuesTable t({I(kMin), I(-1), I(kMax)});
  // The arithmetic runs on the typed int64 kernel, not the boxed loop.
  Result<QueryResult> analyzed =
      t.db.Execute("EXPLAIN ANALYZE SELECT c0 % c1, c2 * c1 FROM v");
  ASSERT_TRUE(analyzed.ok());
  EXPECT_NE(analyzed->rows[0][0].str().find("typed=2 boxed=0"),
            std::string::npos)
      << analyzed->rows[0][0].str();
  for (const char* sql :
       {"SELECT c0 / c1 FROM v", "SELECT c0 + c1 FROM v",
        "SELECT c2 - c1 FROM v", "SELECT c2 + 1 FROM v",
        "SELECT c0 * c1 FROM v", "SELECT -c0 FROM v",
        "SELECT c2 * c2 FROM v", "SELECT c0 FROM v WHERE c0 / c1 > 0"}) {
    Result<QueryResult> r = t.db.Execute(sql);
    ASSERT_FALSE(r.ok()) << sql;
    EXPECT_EQ(r.status().ToString(), kOutOfRange) << sql;
  }
  Result<QueryResult> ok = t.db.Execute(
      "SELECT c0 % c1, c2 % c1, c2 / c1, -c2, c0 + c2, c2 * c1 FROM v");
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  const std::vector<std::string> want = {
      "int 0", "int 0", "int -9223372036854775807",
      "int -9223372036854775807", "int -1", "int -9223372036854775807"};
  ASSERT_EQ(ok->rows.size(), 1u);
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(Render(ok->rows[0][i]), want[i]) << i;
  }
}

TEST(IntegerOverflow, BoxedMixedColumn) {
  // Column 0 mixes ints and a double, so no batch proof types it and
  // kArith takes the boxed per-lane path; column 1 is -1 throughout.
  RowBatch b;
  b.Reset(2);
  const Datum col0[] = {I(kMin), D(0.5), I(7)};
  for (uint32_t i = 0; i < 3; ++i) {
    b.cols[0].push_back(col0[i]);
    b.cols[1].push_back(i == 1 ? D(-1.0) : I(-1));
    b.sel.push_back(i);
  }
  b.size = 3;
  auto col = [](int slot) {
    ExprPtr e = Expr::Column("", "c" + std::to_string(slot));
    e->bound_slot = slot;
    return e;
  };
  auto run = [&](BinaryOp op, const std::vector<uint32_t>& lanes) {
    ExprPtr e = Expr::Binary(op, col(0), col(1));
    std::shared_ptr<const bytecode::Program> p =
        bytecode::Compile(*e, 2, nullptr);
    bytecode::ExecState st;
    std::vector<Datum> out;
    Status s = bytecode::ExecBatch(*p, b, lanes, &st, &out);
    EXPECT_EQ(st.typed_lanes, 0u) << "the mixed column must stay boxed";
    std::string rendered = s.ok() ? "" : "error: " + s.ToString();
    for (const Datum& d : out) rendered += Render(d) + ";";
    return rendered;
  };
  EXPECT_EQ(run(BinaryOp::kDiv, {0, 1, 2}),
            std::string("error: ") + kOutOfRange);
  EXPECT_EQ(run(BinaryOp::kMul, {0, 1, 2}),
            std::string("error: ") + kOutOfRange);
  EXPECT_EQ(run(BinaryOp::kMod, {0, 1, 2}), "int 0;double 0x1p-1;int 0;");
  EXPECT_EQ(run(BinaryOp::kSub, {1, 2}), "double 0x1.8p+0;int 8;");
  EXPECT_EQ(run(BinaryOp::kAdd, {1, 2}), "double -0x1p-1;int 6;");
}

TEST(IntegerOverflow, InsertValues) {
  Database db;
  ASSERT_TRUE(db.Execute("CREATE TABLE t (a INT, b INT)").ok());
  for (const char* sql :
       {"INSERT INTO t VALUES (-9223372036854775808 / -1, 0)",
        "INSERT INTO t VALUES (9223372036854775807 + 1, 0)",
        "INSERT INTO t VALUES (0, -(-9223372036854775808))",
        "INSERT INTO t VALUES (0, 3037000500 * 3037000500)"}) {
    Result<QueryResult> r = db.Execute(sql);
    ASSERT_FALSE(r.ok()) << sql;
    EXPECT_EQ(r.status().ToString(), kOutOfRange) << sql;
  }
  ASSERT_TRUE(
      db.Execute("INSERT INTO t VALUES (-9223372036854775808 % -1, "
                 "-9223372036854775807 - 1)")
          .ok());
  Result<QueryResult> rows = db.Execute("SELECT a, b FROM t");
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->rows.size(), 1u) << "a failed INSERT writes no row";
  EXPECT_EQ(Render(rows->rows[0][0]), "int 0");
  EXPECT_EQ(Render(rows->rows[0][1]), "int -9223372036854775808");
}

TEST(IntegerOverflow, SumSerialAndUnderGather) {
  // 64 rows of INT64_MAX / 8: any eight of them overflow a running int64
  // sum. The full total leaves int64 and fails; a GROUP BY whose groups
  // hold four rows each fits, and a total that returns to range fits
  // whatever order the rows (or Gather's workers) add them in.
  for (int parallelism : {1, ParallelDegree()}) {
    SCOPED_TRACE(parallelism);
    PlannerOptions options;
    options.parallelism = parallelism;
    options.parallel_min_rows = 1;
    Database db(options);
    ASSERT_TRUE(db.Execute("CREATE TABLE s (g INT, x INT)").ok());
    Table* table = *db.catalog()->GetTable("s");
    const int64_t big = kMax / 8;
    for (int i = 0; i < 64; ++i) {
      ASSERT_TRUE(table->AppendRow({I(i % 16), I(big)}).ok());
    }
    for (int i = 0; i < 64; ++i) {
      ASSERT_TRUE(table->AppendRow({I(100), I(i < 32 ? big : -big)}).ok());
    }
    if (parallelism > 1) {
      Result<std::string> plan = db.Explain("SELECT SUM(x) FROM s");
      ASSERT_TRUE(plan.ok());
      EXPECT_NE(plan->find("Gather"), std::string::npos) << *plan;
    }
    Result<QueryResult> total = db.Execute("SELECT SUM(x) FROM s");
    ASSERT_FALSE(total.ok());
    EXPECT_EQ(total.status().ToString(), kOutOfRange);
    Result<QueryResult> filtered =
        db.Execute("SELECT SUM(x) FROM s WHERE g < 16 AND g >= 8");
    ASSERT_FALSE(filtered.ok());
    EXPECT_EQ(filtered.status().ToString(), kOutOfRange);

    Result<QueryResult> groups = db.Execute(
        "SELECT g, SUM(x), AVG(x) FROM s WHERE g < 16 GROUP BY g");
    ASSERT_TRUE(groups.ok()) << groups.status().ToString();
    ASSERT_EQ(groups->rows.size(), 16u);
    for (const auto& row : groups->rows) {
      EXPECT_EQ(Render(row[1]), Render(I(4 * big)));
      EXPECT_EQ(Render(row[2]), Render(D(static_cast<double>(big))));
    }
    Result<QueryResult> back = db.Execute(
        "SELECT SUM(x), COUNT(x), MAX(x) FROM s WHERE g = 100");
    ASSERT_TRUE(back.ok()) << back.status().ToString();
    EXPECT_EQ(Render(back->rows[0][0]), "int 0");
    EXPECT_EQ(Render(back->rows[0][1]), "int 64");
    EXPECT_EQ(Render(back->rows[0][2]), Render(I(big)));
    // Every row: the exact total is 64 * big, out of range; AVG, from the
    // exact total, is not.
    Result<QueryResult> avg = db.Execute("SELECT AVG(x) FROM s WHERE g < 16");
    ASSERT_TRUE(avg.ok()) << avg.status().ToString();
    EXPECT_EQ(Render(avg->rows[0][0]), Render(D(static_cast<double>(big))));
  }
}

}  // namespace
}  // namespace sinew::engine
