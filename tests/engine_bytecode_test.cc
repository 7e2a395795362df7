// Bytecode compiler unit tests: instruction selection for the dominant
// expression shapes, literal-pool interning, register reuse, lane-narrowing
// fork chains, the kRaise contract, and direct VM execution over synthetic
// batches (including the select-mode fast path that refines the selection
// vector without materializing a boolean column). Every result is checked against the one
// semantic reference, scalar EvalExpr/EvalPredicate.

#include "engine/bytecode.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "engine/datum.h"
#include "engine/eval.h"
#include "engine/expr.h"
#include "engine/row_batch.h"
#include "engine/udf.h"
#include "scalar_eval.h"

namespace sinew::engine {
namespace {

namespace bc = bytecode;

ExprPtr Col(int slot) {
  ExprPtr e = Expr::Column("", "c" + std::to_string(slot));
  e->bound_slot = slot;
  return e;
}

ExprPtr Lit(int64_t v) { return Expr::Literal(Datum::Int(v)); }
ExprPtr Lit(std::string v) { return Expr::Literal(Datum::Text(std::move(v))); }

std::shared_ptr<const bc::Program> MustCompile(const ExprPtr& e,
                                               size_t width = 4,
                                               const UdfRegistry* udfs =
                                                   nullptr) {
  std::shared_ptr<const bc::Program> p = bc::Compile(*e, width, udfs);
  EXPECT_NE(p, nullptr) << e->ToString();
  return p;
}

/// A width-2 batch: col0 = 0..n-1 ints, col1 = alternating text/NULL.
RowBatch MakeBatch(size_t n) {
  RowBatch b;
  b.Reset(2);
  for (size_t i = 0; i < n; ++i) {
    b.cols[0].push_back(Datum::Int(static_cast<int64_t>(i)));
    b.cols[1].push_back(i % 2 == 0 ? Datum::Text("t" + std::to_string(i))
                                   : Datum());
    b.sel.push_back(static_cast<uint32_t>(i));
  }
  b.size = n;
  return b;
}

/// The reference verdict: the lanes of `b.sel` where scalar EvalPredicate
/// over the lane's row is TRUE.
std::vector<uint32_t> ScalarSelect(const Expr& e, const RowBatch& b) {
  std::vector<uint32_t> kept;
  for (uint32_t lane : b.sel) {
    DatumRow row;
    b.CopyRow(lane, &row);
    Result<bool> keep = EvalPredicate(e, row, nullptr);
    EXPECT_TRUE(keep.ok()) << e.ToString() << ": " << keep.status().ToString();
    if (keep.ok() && *keep) kept.push_back(lane);
  }
  return kept;
}

TEST(BytecodeCompile, ColCmpLitFusesBothOperandOrders) {
  // One kCompare with the column in `a` and the literal in `b`: the shape
  // the typed kernels and the select mode serve.
  auto p = MustCompile(Expr::Binary(BinaryOp::kLt, Col(0), Lit(5)));
  ASSERT_EQ(p->num_instrs, 1u);
  EXPECT_EQ(p->instrs[0].op, bc::OpCode::kCompare);
  EXPECT_EQ(p->instrs[0].bop, BinaryOp::kLt);
  EXPECT_TRUE(p->instrs[0].a.is_col());
  EXPECT_TRUE(p->instrs[0].b.is_lit());

  // Literal-first flips the comparison: 5 < col  ==  col > 5.
  auto q = MustCompile(Expr::Binary(BinaryOp::kLt, Lit(5), Col(0)));
  ASSERT_EQ(q->num_instrs, 1u);
  EXPECT_EQ(q->instrs[0].op, bc::OpCode::kCompare);
  EXPECT_EQ(q->instrs[0].bop, BinaryOp::kGt);
  EXPECT_TRUE(q->instrs[0].a.is_col());
  EXPECT_TRUE(q->instrs[0].b.is_lit());
}

TEST(BytecodeCompile, BetweenAndIsNullFuse) {
  auto p = MustCompile(Expr::Between(Col(1), Lit(3), Lit(9), false));
  ASSERT_EQ(p->num_instrs, 1u);
  EXPECT_EQ(p->instrs[0].op, bc::OpCode::kBetween);
  EXPECT_TRUE(p->instrs[0].a.is_col());
  EXPECT_TRUE(p->instrs[0].b.is_lit());
  EXPECT_TRUE(p->instrs[0].c.is_lit());
  EXPECT_FALSE(p->instrs[0].negated);

  auto q = MustCompile(Expr::Between(Col(1), Lit(3), Lit(9), true));
  EXPECT_TRUE(q->instrs[0].negated);

  auto r = MustCompile(Expr::IsNull(Col(0), false));
  ASSERT_EQ(r->num_instrs, 1u);
  EXPECT_EQ(r->instrs[0].op, bc::OpCode::kIsNull);
  EXPECT_TRUE(r->instrs[0].a.is_col());

  // A column bound is the generic shape of the same instruction.
  auto s = MustCompile(Expr::Between(Col(0), Col(1), Lit(9), false));
  ASSERT_EQ(s->num_instrs, 1u);
  EXPECT_EQ(s->instrs[0].op, bc::OpCode::kBetween);
  EXPECT_TRUE(s->instrs[0].b.is_col());
}

TEST(BytecodeCompile, UdfCmpLitFusesSimpleArgCalls) {
  UdfRegistry udfs;
  udfs.Register("extract", [](const UdfArgs& args) -> Result<Datum> {
    return *args[0];
  });
  ExprPtr call = Expr::Function("extract", {});
  call->args.push_back(Col(0));
  call->args.push_back(Lit("path"));
  auto p = MustCompile(Expr::Binary(BinaryOp::kEq, std::move(call), Lit(7)),
                       4, &udfs);
  // The peephole merges kCallUdf + kCompare into one kUdfCmpLit.
  ASSERT_EQ(p->num_instrs, 1u);
  EXPECT_EQ(p->instrs[0].op, bc::OpCode::kUdfCmpLit);
  EXPECT_EQ(p->instrs[0].aux_count, 2u);

  // A computed argument (col + 1) is a register operand of the same call.
  ExprPtr complex_call = Expr::Function("extract", {});
  complex_call->args.push_back(
      Expr::Binary(BinaryOp::kAdd, Col(0), Lit(1)));
  auto q = MustCompile(
      Expr::Binary(BinaryOp::kEq, std::move(complex_call), Lit(7)), 2, &udfs);
  ASSERT_EQ(q->num_instrs, 2u);
  EXPECT_EQ(q->instrs[0].op, bc::OpCode::kArith);
  EXPECT_EQ(q->instrs[1].op, bc::OpCode::kUdfCmpLit);
  EXPECT_TRUE(q->aux[q->instrs[1].aux_begin].is_reg());
  RowBatch b = MakeBatch(10);
  bc::ExecState st;
  std::vector<uint32_t> sel = b.sel;
  ASSERT_TRUE(bc::ExecPredicateBatch(*q, b, &st, &sel).ok());
  EXPECT_EQ(sel, (std::vector<uint32_t>{6}));
}

TEST(BytecodeCompile, AndOrCompileToForkJoin) {
  auto p = MustCompile(Expr::Binary(
      BinaryOp::kAnd, Expr::Binary(BinaryOp::kLt, Col(0), Lit(5)),
      Expr::Binary(BinaryOp::kGt, Col(1), Lit(2))));
  ASSERT_EQ(p->num_instrs, 4u);
  EXPECT_EQ(p->instrs[0].op, bc::OpCode::kCompare);
  EXPECT_EQ(p->instrs[1].op, bc::OpCode::kFork);
  EXPECT_EQ(p->instrs[1].fork, bc::ForkMode::kNonFalse);
  EXPECT_EQ(p->instrs[2].op, bc::OpCode::kCompare);
  EXPECT_EQ(p->instrs[3].op, bc::OpCode::kJoin);
  EXPECT_EQ(p->instrs[3].fork, bc::ForkMode::kNonFalse);
  // The fork's jump lands just past its join.
  EXPECT_EQ(p->instrs[1].jump, 4u);
}

TEST(BytecodeCompile, LiteralPoolInternsExactValues) {
  // The same Int(5) in three places lands in one pool slot...
  auto p = MustCompile(Expr::Binary(
      BinaryOp::kOr, Expr::Binary(BinaryOp::kEq, Col(0), Lit(5)),
      Expr::Binary(BinaryOp::kOr, Expr::Binary(BinaryOp::kEq, Col(1), Lit(5)),
                   Expr::Binary(BinaryOp::kGt, Col(2), Lit(5)))));
  EXPECT_EQ(p->num_literals, 1u);

  // ...but Int(5) and Double(5.0) never merge (cross-kind comparison
  // semantics differ), and distinct strings stay distinct.
  auto q = MustCompile(Expr::Binary(
      BinaryOp::kAnd, Expr::Binary(BinaryOp::kEq, Col(0), Lit(5)),
      Expr::Binary(BinaryOp::kEq, Col(1),
                   Expr::Literal(Datum::Double(5.0)))));
  EXPECT_EQ(q->num_literals, 2u);

  auto r = MustCompile(Expr::Binary(
      BinaryOp::kAnd, Expr::Binary(BinaryOp::kEq, Col(0), Lit("a")),
      Expr::Binary(BinaryOp::kEq, Col(1), Lit("b"))));
  EXPECT_EQ(r->num_literals, 2u);
}

TEST(BytecodeCompile, RegisterReuseKeepsProgramsNarrow) {
  // ((c0 + 1) * (c0 + 2)) - (c0 + 3): a naive allocator needs a register
  // per node; postfix stack reuse keeps it at the expression's live width.
  ExprPtr e = Expr::Binary(
      BinaryOp::kSub,
      Expr::Binary(BinaryOp::kMul,
                   Expr::Binary(BinaryOp::kAdd, Col(0), Lit(1)),
                   Expr::Binary(BinaryOp::kAdd, Col(0), Lit(2))),
      Expr::Binary(BinaryOp::kAdd, Col(0), Lit(3)));
  auto p = MustCompile(e);
  EXPECT_LE(p->num_regs, 3u);
}

/// The opcodes of `p`, in order.
std::vector<bc::OpCode> Ops(const bc::Program& p) {
  std::vector<bc::OpCode> ops;
  for (uint32_t i = 0; i < p.num_instrs; ++i) ops.push_back(p.instrs[i].op);
  return ops;
}

TEST(BytecodeCompile, CaseAndCoalesceCompileToForkChains) {
  using bc::OpCode;
  // CASE: the condition, then the THEN arm over the TRUE lanes and the ELSE
  // arm over the rest, each a fork/join pair writing the CASE's register.
  ExprPtr c = std::make_unique<Expr>();
  c->kind = ExprKind::kCase;
  c->args.push_back(Expr::Binary(BinaryOp::kLt, Col(2), Lit(5)));
  c->args.push_back(Col(0));
  c->args.push_back(Col(2));
  auto p = MustCompile(c);
  EXPECT_EQ(Ops(*p), (std::vector<OpCode>{OpCode::kCompare, OpCode::kFork,
                                          OpCode::kJoin, OpCode::kFork,
                                          OpCode::kJoin}));
  EXPECT_EQ(p->instrs[1].fork, bc::ForkMode::kTrue);
  EXPECT_EQ(p->instrs[3].fork, bc::ForkMode::kNotTrue);
  EXPECT_EQ(p->instrs[1].dst, p->instrs[3].dst);
  EXPECT_EQ(p->result.index, p->instrs[1].dst);

  // coalesce short-circuits even when registered: the next argument runs
  // over the NULL lanes only.
  UdfRegistry udfs;
  RegisterBuiltinFunctions(&udfs);
  ExprPtr co = Expr::Function("coalesce", {});
  co->args.push_back(Col(1));
  co->args.push_back(Lit("d"));
  auto q = MustCompile(co, 4, &udfs);
  EXPECT_EQ(Ops(*q), (std::vector<OpCode>{OpCode::kFork, OpCode::kJoin}));
  EXPECT_EQ(q->instrs[0].fork, bc::ForkMode::kNull);

  // An IN list with a computed item: a non-NULL-probe fork over an OR chain.
  ExprPtr in = Expr::InList(Col(0), {}, false);
  in->args.push_back(Lit(1));
  in->args.push_back(Expr::Binary(BinaryOp::kAdd, Col(1), Lit(1)));
  auto r = MustCompile(in);
  EXPECT_EQ(Ops(*r),
            (std::vector<OpCode>{OpCode::kFork, OpCode::kCompare,
                                 OpCode::kFork, OpCode::kArith,
                                 OpCode::kCompare, OpCode::kJoin,
                                 OpCode::kJoin}));
  EXPECT_EQ(r->instrs[0].fork, bc::ForkMode::kNonNull);
  EXPECT_EQ(r->instrs[2].fork, bc::ForkMode::kNonTrue);

  // An unregistered function has no instruction form: one kRaise.
  ExprPtr unknown = Expr::Function("no_such_fn", {});
  unknown->args.push_back(Col(0));
  auto u = MustCompile(unknown, 4, &udfs);
  EXPECT_EQ(Ops(*u), (std::vector<OpCode>{OpCode::kRaise}));
}

TEST(BytecodeCompile, UncompilableShapesRaiseTheScalarStatus) {
  // Unbound and out-of-range columns and stars have no instruction form:
  // each compiles to a kRaise carrying the scalar evaluator's own status,
  // which fails over a non-empty lane set and not over an empty one.
  RowBatch b = MakeBatch(3);
  ExprPtr unbound = Expr::Binary(BinaryOp::kLt, Expr::Column("", "x"), Lit(1));
  ExprPtr out_of_range = Expr::Binary(BinaryOp::kLt, Col(7), Lit(1));
  for (const ExprPtr* e : {&unbound, &out_of_range}) {
    auto p = MustCompile(*e, 2);
    ASSERT_EQ(p->num_instrs, 2u);
    EXPECT_EQ(p->instrs[0].op, bc::OpCode::kRaise);
    bc::ExecState st;
    std::vector<uint32_t> sel = b.sel;
    Status s = bc::ExecPredicateBatch(*p, b, &st, &sel);
    DatumRow row;
    b.CopyRow(0, &row);
    Result<bool> scalar = EvalPredicate(**e, row, nullptr);
    ASSERT_FALSE(s.ok());
    ASSERT_FALSE(scalar.ok());
    EXPECT_EQ(s.ToString(), scalar.status().ToString());
    std::vector<Datum> out;
    EXPECT_TRUE(bc::ExecBatch(*p, b, {}, &st, &out).ok());
    EXPECT_TRUE(out.empty());
  }
  auto star = MustCompile(Expr::Star(""), 2);
  ASSERT_EQ(star->num_instrs, 1u);
  EXPECT_EQ(star->instrs[0].op, bc::OpCode::kRaise);
}

TEST(BytecodeExec, FusedPredicateRefinesSelection) {
  RowBatch b = MakeBatch(10);
  auto p = MustCompile(Expr::Binary(BinaryOp::kLt, Col(0), Lit(4)), 2);
  bc::ExecState st;
  std::vector<uint32_t> sel = b.sel;
  ASSERT_TRUE(bc::ExecPredicateBatch(*p, b, &st, &sel).ok());
  EXPECT_EQ(sel, (std::vector<uint32_t>{0, 1, 2, 3}));

  // NULL comparisons filter: col1 is NULL on odd lanes and text on even.
  auto q = MustCompile(Expr::Binary(BinaryOp::kGe, Col(1), Lit("t0")), 2);
  sel = b.sel;
  ASSERT_TRUE(bc::ExecPredicateBatch(*q, b, &st, &sel).ok());
  for (uint32_t lane : sel) EXPECT_EQ(lane % 2, 0u);
  EXPECT_EQ(sel.size(), 5u);
}

TEST(BytecodeExec, KleeneForkJoinMatchesTruthTable) {
  RowBatch b = MakeBatch(10);
  // col1 = 't…' (non-NULL) on even lanes: `col1 IS NULL OR col0 < 4` keeps
  // odd lanes below 10 and even lanes below 4.
  auto p = MustCompile(
      Expr::Binary(BinaryOp::kOr, Expr::IsNull(Col(1), false),
                   Expr::Binary(BinaryOp::kLt, Col(0), Lit(4))),
      2);
  bc::ExecState st;
  std::vector<uint32_t> sel = b.sel;
  ASSERT_TRUE(bc::ExecPredicateBatch(*p, b, &st, &sel).ok());
  EXPECT_EQ(sel, (std::vector<uint32_t>{0, 1, 2, 3, 5, 7, 9}));

  // NULL AND TRUE -> NULL (filtered): (col1 < 'zzz') is NULL on odd lanes.
  auto q = MustCompile(
      Expr::Binary(BinaryOp::kAnd,
                   Expr::Binary(BinaryOp::kLt, Col(1), Lit("zzz")),
                   Expr::Binary(BinaryOp::kGe, Col(0), Lit(0))),
      2);
  sel = b.sel;
  ASSERT_TRUE(bc::ExecPredicateBatch(*q, b, &st, &sel).ok());
  EXPECT_EQ(sel, (std::vector<uint32_t>{0, 2, 4, 6, 8}));
}

TEST(BytecodeExec, ShortCircuitSkipsErroringRegion) {
  RowBatch b = MakeBatch(6);
  // col0 < 0 decides every lane false, so the erroring right side (1/0 = 1)
  // must be jumped over entirely.
  auto p = MustCompile(
      Expr::Binary(
          BinaryOp::kAnd, Expr::Binary(BinaryOp::kLt, Col(0), Lit(0)),
          Expr::Binary(BinaryOp::kEq,
                       Expr::Binary(BinaryOp::kDiv, Lit(1), Lit(0)), Lit(1))),
      2);
  bc::ExecState st;
  std::vector<uint32_t> sel = b.sel;
  ASSERT_TRUE(bc::ExecPredicateBatch(*p, b, &st, &sel).ok());
  EXPECT_TRUE(sel.empty());

  // With undecided lanes the region runs and the error surfaces.
  auto q = MustCompile(
      Expr::Binary(
          BinaryOp::kAnd, Expr::Binary(BinaryOp::kGe, Col(0), Lit(0)),
          Expr::Binary(BinaryOp::kEq,
                       Expr::Binary(BinaryOp::kDiv, Lit(1), Lit(0)), Lit(1))),
      2);
  sel = b.sel;
  Status s = bc::ExecPredicateBatch(*q, b, &st, &sel);
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.ToString().find("division by zero"), std::string::npos);
}

TEST(BytecodeExec, ExprModeAndRowModeAgree) {
  // Value mode and predicate mode of the VM agree with the scalar
  // evaluator run row by row.
  RowBatch b = MakeBatch(8);
  ExprPtr e = Expr::Binary(
      BinaryOp::kAdd, Expr::Binary(BinaryOp::kMul, Col(0), Lit(3)), Lit(1));
  auto p = MustCompile(e, 2);
  bc::ExecState st;
  std::vector<Datum> out;
  ASSERT_TRUE(bc::ExecBatch(*p, b, b.sel, &st, &out).ok());
  ASSERT_EQ(out.size(), 8u);
  for (uint32_t i = 0; i < out.size(); ++i) {
    DatumRow row;
    b.CopyRow(i, &row);
    Result<Datum> scalar = EvalExpr(*e, row, nullptr);
    ASSERT_TRUE(scalar.ok());
    EXPECT_EQ(Datum::Compare(out[i], *scalar), 0) << "lane " << i;
  }

  ExprPtr pred_expr = Expr::Binary(BinaryOp::kGt, Col(0), Lit(5));
  auto pred = MustCompile(pred_expr, 2);
  std::vector<uint32_t> sel = b.sel;
  ASSERT_TRUE(bc::ExecPredicateBatch(*pred, b, &st, &sel).ok());
  EXPECT_EQ(sel, ScalarSelect(*pred_expr, b));
  EXPECT_EQ(sel, (std::vector<uint32_t>{6, 7}));
}

// ------------------------------------------------------------ typed kernels

/// A one-column batch of doubles (all lanes selected).
RowBatch DoubleBatch(std::initializer_list<double> vals) {
  RowBatch b;
  b.Reset(1);
  for (double v : vals) {
    b.cols[0].push_back(Datum::Double(v));
    b.sel.push_back(static_cast<uint32_t>(b.size++));
  }
  return b;
}

TEST(TypedKernels, ProfileColumnClassifiesValidatesAndInvalidates) {
  RowBatch b;
  b.Reset(1);
  b.cols[0] = {Datum::Int(1), Datum(), Datum::Int(3)};
  b.size = 3;
  b.sel = {0, 1, 2};
  const ColTag* t = b.ProfileColumn(0);
  ASSERT_NE(t, nullptr);
  EXPECT_EQ(t->type, ColTag::Type::kInt);
  EXPECT_TRUE(t->has_nulls);
  EXPECT_FALSE(t->IsNull(0));
  EXPECT_TRUE(t->IsNull(1));
  // Raw values stay row-dense with zero placeholders at NULL rows.
  EXPECT_EQ(t->ints, (std::vector<int64_t>{1, 0, 3}));

  // A wrong producer seed degrades to kMixed instead of lying.
  b.InvalidateTag(0);
  const ColTag* w = b.ProfileColumn(0, ColTag::Type::kDouble);
  ASSERT_NE(w, nullptr);
  EXPECT_EQ(w->type, ColTag::Type::kMixed);

  // A correct seed validates to the seeded type.
  b.InvalidateTag(0);
  const ColTag* s = b.ProfileColumn(0, ColTag::Type::kInt);
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->type, ColTag::Type::kInt);

  // Mutation drops the proof.
  b.AppendRow(DatumRow{Datum::Text("x")});
  EXPECT_EQ(b.TagFor(0), nullptr);
}

TEST(TypedKernels, MonomorphicLanesAreCountedAndMatchBoxed) {
  ExprPtr e = Expr::Binary(BinaryOp::kLt, Col(0), Lit(9));
  auto p = MustCompile(e, 2);
  RowBatch b = MakeBatch(16);
  bc::ExecState typed_st;
  std::vector<uint32_t> typed_sel = b.sel;
  ASSERT_TRUE(
      bc::ExecPredicateBatch(*p, b, &typed_st, &typed_sel).ok());
  EXPECT_EQ(typed_st.typed_lanes, 16u);
  EXPECT_EQ(typed_st.boxed_lanes, 0u);
  EXPECT_EQ(typed_sel, ScalarSelect(*e, MakeBatch(16)));
}

TEST(TypedKernels, NaNNegZeroAndPromotionMatchBoxedSemantics) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  // Datum::Compare's Cmp() sees NaN as "equal" to everything (both strict
  // orders are false) and -0.0 == 0.0; the typed kernels must reproduce
  // that, not IEEE ==. The int-vs-double shapes exercise lane promotion.
  const std::vector<ExprPtr> preds = [] {
    std::vector<ExprPtr> v;
    for (BinaryOp op : {BinaryOp::kEq, BinaryOp::kNe, BinaryOp::kLt,
                        BinaryOp::kLe, BinaryOp::kGt, BinaryOp::kGe}) {
      v.push_back(Expr::Binary(op, Col(0), Expr::Literal(Datum::Double(0.0))));
      v.push_back(Expr::Binary(op, Col(0), Expr::Literal(Datum::Int(0))));
    }
    v.push_back(Expr::Between(Col(0), Expr::Literal(Datum::Double(-1.0)),
                              Expr::Literal(Datum::Int(1)), false));
    v.push_back(Expr::Between(Col(0), Expr::Literal(Datum::Int(-1)),
                              Expr::Literal(Datum::Double(1.0)), true));
    return v;
  }();
  for (const ExprPtr& e : preds) {
    auto p = MustCompile(e, 1);
    RowBatch b = DoubleBatch({1.0, nan, -0.0, 0.0, -2.5});
    bc::ExecState st;
    std::vector<uint32_t> sel = b.sel;
    ASSERT_TRUE(bc::ExecPredicateBatch(*p, b, &st, &sel).ok())
        << e->ToString();
    EXPECT_GT(st.typed_lanes, 0u) << e->ToString();
    EXPECT_EQ(sel, ScalarSelect(*e, b)) << e->ToString();
  }
  // Spot-check one absolute verdict so kernel and reference can't be wrong
  // together: NaN "equals" 0.0 under Cmp(), so kEq keeps the NaN lane.
  auto eq = MustCompile(
      Expr::Binary(BinaryOp::kEq, Col(0), Expr::Literal(Datum::Double(0.0))),
      1);
  RowBatch b = DoubleBatch({1.0, nan, -0.0});
  bc::ExecState st;
  std::vector<uint32_t> sel = b.sel;
  ASSERT_TRUE(bc::ExecPredicateBatch(*eq, b, &st, &sel).ok());
  EXPECT_EQ(sel, (std::vector<uint32_t>{1, 2}));
}

TEST(TypedKernels, MixedColumnStaysBoxedWithIdenticalResults) {
  auto mixed_batch = [] {
    RowBatch b;
    b.Reset(1);
    b.cols[0] = {Datum::Int(1), Datum::Double(2.0), Datum::Text("3"),
                 Datum::Int(4)};
    b.size = 4;
    b.sel = {0, 1, 2, 3};
    return b;
  };
  ExprPtr e = Expr::Binary(BinaryOp::kGe, Col(0), Lit(2));
  auto p = MustCompile(e, 1);
  RowBatch b = mixed_batch();
  bc::ExecState st;
  std::vector<uint32_t> sel = b.sel;
  ASSERT_TRUE(bc::ExecPredicateBatch(*p, b, &st, &sel).ok());
  EXPECT_EQ(st.typed_lanes, 0u);  // profile cached kMixed, no typed lanes
  EXPECT_EQ(st.boxed_lanes, 4u);
  ASSERT_NE(b.TagFor(0), nullptr);
  EXPECT_EQ(b.TagFor(0)->type, ColTag::Type::kMixed);
  EXPECT_EQ(sel, ScalarSelect(*e, mixed_batch()));
}

TEST(TypedKernels, ArithmeticErrorTextMatchesBoxedPath) {
  ExprPtr e = Expr::Binary(
      BinaryOp::kEq, Expr::Binary(BinaryOp::kDiv, Col(0), Lit(0)), Lit(1));
  auto p = MustCompile(e, 2);
  RowBatch b = MakeBatch(4);
  bc::ExecState st;
  std::vector<uint32_t> sel = b.sel;
  Status s = bc::ExecPredicateBatch(*p, b, &st, &sel);
  ASSERT_FALSE(s.ok());
  DatumRow row;
  b.CopyRow(0, &row);
  Result<bool> scalar = EvalPredicate(*e, row, nullptr);
  ASSERT_FALSE(scalar.ok());
  EXPECT_EQ(s.ToString(), scalar.status().ToString());
  EXPECT_NE(s.ToString().find("division by zero"), std::string::npos);
}

TEST(TypedKernels, RegisterTagsKeepInstructionChainsTyped) {
  // (col0 + 1) < 5: the arithmetic result register carries an int tag, so
  // the comparison over it stays on the typed path — both instructions
  // count their lanes as typed.
  auto p = MustCompile(
      Expr::Binary(BinaryOp::kLt,
                   Expr::Binary(BinaryOp::kAdd, Col(0), Lit(1)), Lit(5)),
      2);
  RowBatch b = MakeBatch(8);
  bc::ExecState st;
  std::vector<uint32_t> sel = b.sel;
  ASSERT_TRUE(bc::ExecPredicateBatch(*p, b, &st, &sel).ok());
  EXPECT_EQ(sel, (std::vector<uint32_t>{0, 1, 2, 3}));
  EXPECT_EQ(st.typed_lanes, 16u);  // 8 lanes through each of 2 instructions
  EXPECT_EQ(st.boxed_lanes, 0u);
}

TEST(BytecodeExec, ResetShrinksHighWaterRegisterScratch) {
  RowBatch b = MakeBatch(512);
  auto p = MustCompile(
      Expr::Binary(BinaryOp::kAdd, Expr::Binary(BinaryOp::kMul, Col(0),
                                                Lit(3)), Lit(1)), 2);
  bc::ExecState st;
  std::vector<Datum> out;
  ASSERT_TRUE(bc::ExecBatch(*p, b, b.sel, &st, &out).ok());
  ASSERT_TRUE(bc::ExecBatch(*p, b, b.sel, &st, &out).ok());
  // Registers high-water to the widest batch executed and stay pinned.
  ASSERT_FALSE(st.regs.empty());
  size_t high_water = 0;
  for (const std::vector<Datum>& r : st.regs) {
    high_water = std::max(high_water, r.capacity());
  }
  EXPECT_GE(high_water, 512u);

  auto pred = MustCompile(Expr::Binary(BinaryOp::kLt, Col(0), Lit(4)), 2);
  std::vector<uint32_t> sel = b.sel;
  ASSERT_TRUE(bc::ExecPredicateBatch(*pred, b, &st, &sel).ok());
  ASSERT_NE(st.typed_lanes, 0u);

  // Reset releases everything above the threshold and zeroes the counters…
  st.Reset(/*shrink_threshold=*/0);
  EXPECT_TRUE(st.regs.empty());
  EXPECT_EQ(st.regs.capacity(), 0u);
  EXPECT_EQ(st.frames.capacity(), 0u);
  EXPECT_EQ(st.typed_lanes, 0u);
  EXPECT_EQ(st.boxed_lanes, 0u);

  // …and the state stays fully usable afterwards.
  ASSERT_TRUE(bc::ExecBatch(*p, b, b.sel, &st, &out).ok());
  ASSERT_EQ(out.size(), 512u);
  EXPECT_EQ(out[7].int_value(), 22);

  // A threshold above the high-water mark keeps capacity (clear, not free).
  bc::ExecState keep;
  ASSERT_TRUE(bc::ExecBatch(*p, b, b.sel, &keep, &out).ok());
  const size_t reg_count = keep.regs.size();
  keep.Reset(/*shrink_threshold=*/1 << 20);
  EXPECT_TRUE(keep.regs.empty());
  EXPECT_GE(keep.regs.capacity(), reg_count);
}

TEST(BytecodeExec, CaseArmsRunOnlyOverTheirLanes) {
  // CASE WHEN c0 = 0 THEN 0 ELSE 10 / c0 END: lane 0 takes the THEN arm, so
  // the ELSE arm's division never sees its zero.
  RowBatch b = MakeBatch(6);
  ExprPtr c = std::make_unique<Expr>();
  c->kind = ExprKind::kCase;
  c->args.push_back(Expr::Binary(BinaryOp::kEq, Col(0), Lit(0)));
  c->args.push_back(Lit(0));
  c->args.push_back(Expr::Binary(BinaryOp::kDiv, Lit(10), Col(0)));
  auto p = MustCompile(c, 2);
  bc::ExecState st;
  std::vector<Datum> out;
  ASSERT_TRUE(bc::ExecBatch(*p, b, b.sel, &st, &out).ok());
  ASSERT_EQ(out.size(), 6u);
  for (uint32_t i = 0; i < out.size(); ++i) {
    DatumRow row;
    b.CopyRow(i, &row);
    Result<Datum> scalar = EvalExpr(*c, row, nullptr);
    ASSERT_TRUE(scalar.ok());
    EXPECT_EQ(Datum::Compare(out[i], *scalar), 0) << "lane " << i;
  }
  EXPECT_EQ(out[2].int_value(), 5);

  // As a predicate: CASE WHEN c0 < 5 THEN TRUE ELSE FALSE END.
  ExprPtr pred = std::make_unique<Expr>();
  pred->kind = ExprKind::kCase;
  pred->args.push_back(Expr::Binary(BinaryOp::kLt, Col(0), Lit(5)));
  pred->args.push_back(Expr::Literal(Datum::Bool(true)));
  pred->args.push_back(Expr::Literal(Datum::Bool(false)));
  auto q = MustCompile(pred, 2);
  RowBatch ten = MakeBatch(10);
  std::vector<uint32_t> sel = ten.sel;
  ASSERT_TRUE(bc::ExecPredicateBatch(*q, ten, &st, &sel).ok());
  EXPECT_EQ(sel, (std::vector<uint32_t>{0, 1, 2, 3, 4}));
}

// ------------------------------------------------------------ IN lists

/// `c0 [NOT] IN (items...)` over literal items.
ExprPtr InLiterals(const std::vector<Datum>& items, bool negated) {
  ExprPtr in = Expr::InList(Col(0), {}, negated);
  for (const Datum& d : items) in->args.push_back(Expr::Literal(d));
  return in;
}

/// A one-column batch holding `vals`, every lane selected.
RowBatch OneColumn(const std::vector<Datum>& vals) {
  RowBatch b;
  b.Reset(1);
  for (const Datum& v : vals) {
    b.cols[0].push_back(v);
    b.sel.push_back(static_cast<uint32_t>(b.size++));
  }
  return b;
}

TEST(BytecodeExec, HashedInListMatchesComparingEveryItem) {
  // The hashed set must give the verdict the scalar tree walk gives by
  // comparing the probe with each item in turn: int/double cross-equality
  // (1 IN (1.0)), ints past 2^53 equal to a double but not to each other,
  // NaN equal to every number, -0.0 equal to 0.0, and NULL on a miss when
  // an item is NULL or of a kind the probe cannot be compared with.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const int64_t big = (int64_t{1} << 53) + 1;
  const std::vector<std::vector<Datum>> probe_sets = {
      {Datum::Int(1), Datum::Int(2), Datum::Int(big), Datum::Int(big - 1),
       Datum::Int(0), Datum()},
      {Datum::Double(1.0), Datum::Double(1.5), Datum::Double(nan),
       Datum::Double(-0.0), Datum::Double(static_cast<double>(big)), Datum()},
      {Datum::Text("a"), Datum::Text("b"), Datum::Text(""), Datum()},
      {Datum::Bool(true), Datum::Bool(false), Datum()},
      // Mixed kinds: no type proof, the boxed probe.
      {Datum::Int(1), Datum::Double(nan), Datum::Text("a"),
       Datum::Bool(true), Datum::Bytes("a"), Datum()},
  };
  const std::vector<std::vector<Datum>> lists = {
      {Datum::Double(1.0)},
      {Datum::Int(1), Datum::Int(2)},
      {Datum::Int(7), Datum()},
      {Datum::Text("a"), Datum::Int(1)},
      {Datum::Text("zz"), Datum::Int(1)},
      {Datum::Double(nan)},
      {Datum::Double(0.0)},
      {Datum::Int(0), Datum::Int(5)},
      {Datum::Int(big)},
      {Datum::Double(static_cast<double>(big))},
      {Datum::Bool(true)},
      {Datum::Bool(false), Datum::Int(3)},
      {Datum::Bytes("a"), Datum::Text("b")},
      {Datum()},
      {Datum::Text("a"), Datum::Text("")},
  };
  size_t typed_runs = 0;
  for (const std::vector<Datum>& items : lists) {
    for (bool negated : {false, true}) {
      ExprPtr in = InLiterals(items, negated);
      auto p = MustCompile(in, 1);
      ASSERT_EQ(p->num_instrs, 1u) << in->ToString();
      EXPECT_EQ(p->instrs[0].op, bc::OpCode::kInList);
      for (const std::vector<Datum>& probes : probe_sets) {
        RowBatch b = OneColumn(probes);
        bc::ExecState st;
        std::vector<Datum> out;
        ASSERT_TRUE(bc::ExecBatch(*p, b, b.sel, &st, &out).ok());
        ASSERT_EQ(out.size(), probes.size());
        if (b.TagFor(0) != nullptr && b.TagFor(0)->typed()) ++typed_runs;
        for (uint32_t i = 0; i < out.size(); ++i) {
          DatumRow row;
          b.CopyRow(i, &row);
          Result<Datum> scalar = EvalExpr(*in, row, nullptr);
          ASSERT_TRUE(scalar.ok()) << scalar.status().ToString();
          EXPECT_EQ(out[i].is_null(), scalar->is_null())
              << in->ToString() << " probe " << probes[i].ToString();
          if (!out[i].is_null() && !scalar->is_null()) {
            EXPECT_EQ(out[i].bool_value(), scalar->bool_value())
                << in->ToString() << " probe " << probes[i].ToString();
          }
        }
      }
    }
  }
  EXPECT_GT(typed_runs, 0u);  // the typed probes ran, not only the boxed one
  // Absolute spot checks, so the reference and the set cannot be wrong
  // together.
  auto verdict = [](const Datum& probe, const std::vector<Datum>& items) {
    auto p = MustCompile(InLiterals(items, false), 1);
    RowBatch b = OneColumn({probe});
    bc::ExecState st;
    std::vector<Datum> out;
    EXPECT_TRUE(bc::ExecBatch(*p, b, b.sel, &st, &out).ok());
    return out.empty() ? Datum::Text("none") : out[0];
  };
  EXPECT_TRUE(verdict(Datum::Int(1), {Datum::Double(1.0)}).bool_value());
  EXPECT_TRUE(verdict(Datum::Int(1), {Datum::Int(2), Datum()}).is_null());
  EXPECT_FALSE(verdict(Datum::Int(1), {Datum::Int(2)}).bool_value());
  EXPECT_TRUE(verdict(Datum::Int(1), {Datum::Text("x")}).is_null());
  EXPECT_FALSE(verdict(Datum::Int(big), {Datum::Int(big - 1)}).bool_value());
  EXPECT_TRUE(verdict(Datum::Double(nan), {Datum::Int(4)}).bool_value());
}

TEST(BytecodeExec, WideInListProbesEachLaneOnce) {
  // 5,000 literals: a lane costs one hash probe, not 5,000 comparisons.
  std::vector<Datum> items;
  for (int i = 0; i < 5000; ++i) items.push_back(Datum::Int(i * 3));
  ExprPtr in = InLiterals(items, false);
  auto p = MustCompile(in, 1);
  std::vector<Datum> vals;
  for (int i = 0; i < 1024; ++i) vals.push_back(Datum::Int(i));
  RowBatch b = OneColumn(vals);
  bc::ExecState st;
  uint64_t best_ns = std::numeric_limits<uint64_t>::max();
  std::vector<uint32_t> sel;
  for (int run = 0; run < 5; ++run) {
    sel = b.sel;
    const auto start = std::chrono::steady_clock::now();
    ASSERT_TRUE(bc::ExecPredicateBatch(*p, b, &st, &sel).ok());
    const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                        std::chrono::steady_clock::now() - start)
                        .count();
    best_ns = std::min<uint64_t>(best_ns, static_cast<uint64_t>(ns));
  }
  EXPECT_EQ(sel, ScalarSelect(*in, b));
  EXPECT_EQ(sel.size(), 342u);  // 0, 3, ..., 1023
  EXPECT_LT(best_ns / vals.size(), 1000u) << best_ns << " ns per batch";
}

}  // namespace
}  // namespace sinew::engine
