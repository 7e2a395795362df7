// Micro-benchmark: the compiled bytecode VM vs. its semantic reference, the
// scalar tree walk (tests/scalar_eval.h, linked from the tests' library;
// the engine itself never runs it), isolated at the expression-evaluation
// layer. Full
// queries are scan-dominated, so this harness evaluates bound expressions
// directly over pre-built synthetic RowBatches — through the executor's
// entry points (bytecode::ExecPredicateBatch / ExecBatch) and through
// EvalPredicate / EvalExpr over each lane's row — and reports ns/lane per
// shape:
//
//   colref_cmp_lit     c0 < lit                 (kCompare over a column and
//                                               a literal; the select-mode
//                                               fast path)
//   extract_cmp_lit    udf(c2, path) = lit      (fused kUdfCmpLit — the
//                                               Sinew extract-then-compare)
//   and_chain          three conjuncts          (kFork lane partitioning)
//   between            c0 BETWEEN lits          (kBetween, select mode)
//   is_null            c2 IS NULL               (kIsNull, select mode)
//   arith_project      c0 * 3 + c1              (generic kArith kernels)
//   concat_project     c2 || lit                (generic kConcat)
//   case_project       CASE WHEN ... END        (kFork/kJoin over the THEN
//                                               and ELSE lanes)
//   *_dbl              c4 variants              (monomorphic double kernels)
//   colref_cmp_lit_mixed  c5 < lit              (type-flipping column: the
//                                               profile must fail and the
//                                               boxed loop take over)
//
// Two configs per shape: "scalar" runs the reference evaluator lane by lane
// over a copy of each lane's row; "bytecode" runs the compiled program,
// measured with column tags cached (the strip-seeded steady state — the
// warm-up pass pays any profile, as the scan's ColumnStrip::type seeding
// does in the executor). compare_bench.py gates the VM against the
// reference:
//
//   ./build/bench/bench_micro_eval --bench-out=/tmp/e
//   python3 bench/compare_bench.py --configs=scalar,bytecode
//           /tmp/e/BENCH_micro_eval.json
//
// It flags any shape where the VM is >10% slower than the scalar evaluator
// (exit non-zero). --bench-out=<dir> places BENCH_micro_eval.json;
// SINEW_BENCH_SCALE scales the lane count.

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "engine/bytecode.h"
#include "engine/datum.h"
#include "engine/eval.h"
#include "engine/expr.h"
#include "engine/row_batch.h"
#include "engine/udf.h"
#include "tests/scalar_eval.h"

using sinew::bench::BenchRecord;
using sinew::bench::PrintHeader;
using sinew::bench::Scaled;
using sinew::bench::Timer;

namespace {

namespace eng = sinew::engine;
namespace bc = sinew::engine::bytecode;

constexpr size_t kBatchSize = 1024;

eng::ExprPtr Col(int slot) {
  eng::ExprPtr e = eng::Expr::Column("", "c" + std::to_string(slot));
  e->bound_slot = slot;
  return e;
}

eng::ExprPtr Lit(int64_t v) {
  return eng::Expr::Literal(eng::Datum::Int(v));
}

eng::ExprPtr Lit(std::string v) {
  return eng::Expr::Literal(eng::Datum::Text(std::move(v)));
}

eng::ExprPtr LitD(double v) {
  return eng::Expr::Literal(eng::Datum::Double(v));
}

constexpr size_t kCorpusWidth = 6;

/// Deterministic batch corpus: c0 int (uniform 0..999), c1 int, c2 text with
/// ~10% NULLs (the "reservoir bytes" stand-in the extract UDF reads), c3
/// int, c4 double (c0 + 0.5), c5 type-flipping int/double/text — the
/// poison column no per-batch monomorphism proof can cover.
std::vector<eng::RowBatch> MakeCorpus(uint64_t lanes) {
  std::vector<eng::RowBatch> corpus;
  uint64_t remaining = lanes;
  uint64_t i = 0;
  while (remaining > 0) {
    const size_t n = static_cast<size_t>(
        remaining < kBatchSize ? remaining : kBatchSize);
    eng::RowBatch b;
    b.Reset(kCorpusWidth);
    for (size_t k = 0; k < n; ++k, ++i) {
      const int64_t v = static_cast<int64_t>((i * 2654435761u) % 1000);
      b.cols[0].push_back(eng::Datum::Int(v));
      b.cols[1].push_back(eng::Datum::Int(static_cast<int64_t>(i % 97)));
      b.cols[2].push_back(i % 10 == 3
                              ? eng::Datum()
                              : eng::Datum::Text("k" + std::to_string(v)));
      b.cols[3].push_back(eng::Datum::Int(static_cast<int64_t>(i % 17)));
      b.cols[4].push_back(eng::Datum::Double(static_cast<double>(v) + 0.5));
      b.cols[5].push_back(i % 3 == 0   ? eng::Datum::Int(v)
                          : i % 3 == 1 ? eng::Datum::Double(v + 0.5)
                                       : eng::Datum::Text("m"));
      b.sel.push_back(static_cast<uint32_t>(k));
    }
    b.size = n;
    corpus.push_back(std::move(b));
    remaining -= n;
  }
  return corpus;
}

struct Shape {
  std::string name;
  bool predicate = true;  // predicate mode (refine sel) vs. expr mode
  eng::ExprPtr expr;
};

std::vector<Shape> MakeShapes() {
  std::vector<Shape> shapes;
  shapes.push_back({"colref_cmp_lit", true,
                    eng::Expr::Binary(eng::BinaryOp::kLt, Col(0), Lit(500))});
  {
    // The Sinew dominant shape: extraction UDF over the bytes column fused
    // with the literal comparison above it.
    eng::ExprPtr call = eng::Expr::Function("bench_extract", {});
    call->args.push_back(Col(2));
    call->args.push_back(Lit("path"));
    shapes.push_back({"extract_cmp_lit", true,
                      eng::Expr::Binary(eng::BinaryOp::kEq, std::move(call),
                                        Lit("k500"))});
  }
  shapes.push_back(
      {"and_chain", true,
       eng::Expr::Binary(
           eng::BinaryOp::kAnd,
           eng::Expr::Binary(eng::BinaryOp::kGe, Col(0), Lit(100)),
           eng::Expr::Binary(
               eng::BinaryOp::kAnd,
               eng::Expr::Binary(eng::BinaryOp::kLt, Col(0), Lit(900)),
               eng::Expr::Binary(eng::BinaryOp::kNe, Col(3), Lit(7))))});
  shapes.push_back(
      {"between", true, eng::Expr::Between(Col(0), Lit(200), Lit(800),
                                           false)});
  shapes.push_back({"is_null", true, eng::Expr::IsNull(Col(2), false)});
  shapes.push_back(
      {"arith_project", false,
       eng::Expr::Binary(
           eng::BinaryOp::kAdd,
           eng::Expr::Binary(eng::BinaryOp::kMul, Col(0), Lit(3)), Col(1))});
  shapes.push_back({"concat_project", false,
                    eng::Expr::Binary(eng::BinaryOp::kConcat, Col(2),
                                      Lit("-x"))});
  {
    eng::ExprPtr c = std::make_unique<eng::Expr>();
    c->kind = eng::ExprKind::kCase;
    c->args.push_back(
        eng::Expr::Binary(eng::BinaryOp::kLt, Col(0), Lit(500)));
    c->args.push_back(Lit("lo"));
    c->args.push_back(Lit("hi"));
    shapes.push_back({"case_project", false, std::move(c)});
  }
  // Monomorphic double variants of the comparison shapes, plus a
  // double arithmetic projection.
  shapes.push_back(
      {"colref_cmp_lit_dbl", true,
       eng::Expr::Binary(eng::BinaryOp::kLt, Col(4), LitD(500.0))});
  shapes.push_back({"between_dbl", true,
                    eng::Expr::Between(Col(4), LitD(200.0), LitD(800.0),
                                       false)});
  shapes.push_back(
      {"arith_project_dbl", false,
       eng::Expr::Binary(eng::BinaryOp::kAdd, Col(4), LitD(1.0))});
  // The type-flipping column: the typed config's profile fails per batch and
  // the boxed loop must hold parity (the profile cost is the overhead).
  shapes.push_back(
      {"colref_cmp_lit_mixed", true,
       eng::Expr::Binary(eng::BinaryOp::kLt, Col(5), Lit(500))});
  return shapes;
}

/// Reports a failed evaluation; returns the harness's failure time.
double Failed(const Shape& shape, const sinew::Status& st) {
  std::fprintf(stderr, "%s: %s\n", shape.name.c_str(), st.ToString().c_str());
  return -1;
}

/// Runs the scalar evaluator over every lane's row, `reps` passes over the
/// corpus; returns seconds.
double RunScalar(const Shape& shape, const std::vector<eng::RowBatch>& corpus,
                 const eng::UdfRegistry* udfs, int reps) {
  eng::DatumRow row;
  Timer timer;
  for (int r = 0; r < reps; ++r) {
    for (const eng::RowBatch& b : corpus) {
      for (uint32_t lane : b.sel) {
        b.CopyRow(lane, &row);
        if (shape.predicate) {
          sinew::Result<bool> keep = EvalPredicate(*shape.expr, row, udfs);
          if (!keep.ok()) return Failed(shape, keep.status());
        } else {
          sinew::Result<eng::Datum> v = EvalExpr(*shape.expr, row, udfs);
          if (!v.ok()) return Failed(shape, v.status());
        }
      }
    }
  }
  return timer.Seconds();
}

/// Runs the compiled program, `reps` passes over the corpus; returns
/// seconds. Column tags persist across passes: after the caller's warm-up
/// rep every batch carries cached tags, modeling the production strip-fed
/// path where the scan seeds the tag from ColumnStrip::type and no
/// profile pass runs at all. (The profile itself is one-pass O(n) and
/// amortizes over the instructions of real multi-op programs;
/// single-instruction micro shapes would overstate it.)
double RunBytecode(const Shape& shape, std::vector<eng::RowBatch>& corpus,
                   const eng::UdfRegistry* udfs, int reps) {
  std::shared_ptr<const bc::Program> prog =
      bc::Compile(*shape.expr, kCorpusWidth, udfs);
  bc::ExecState state;
  std::vector<uint32_t> sel;
  std::vector<eng::Datum> out;
  Timer timer;
  for (int r = 0; r < reps; ++r) {
    for (eng::RowBatch& b : corpus) {
      sinew::Status st;
      if (shape.predicate) {
        sel = b.sel;
        st = bc::ExecPredicateBatch(*prog, b, &state, &sel);
      } else {
        st = bc::ExecBatch(*prog, b, b.sel, &state, &out);
      }
      if (!st.ok()) return Failed(shape, st);
    }
  }
  return timer.Seconds();
}

}  // namespace

int main(int argc, char** argv) {
  const uint64_t lanes = Scaled(1 << 18);  // 256K lanes per pass
  const int reps = 8;

  std::vector<eng::RowBatch> corpus = MakeCorpus(lanes);
  eng::UdfRegistry udfs;
  // Extraction stand-in: reads the bytes column, returns the attribute text
  // (NULL source -> NULL), with a header-walk-shaped amount of work.
  udfs.Register("bench_extract",
                [](const eng::UdfArgs& args) -> sinew::Result<eng::Datum> {
                  const eng::Datum& src = *args[0];
                  if (src.is_null()) return eng::Datum();
                  return eng::Datum::Text(src.str());
                });

  std::vector<Shape> shapes = MakeShapes();

  const uint64_t total = lanes * static_cast<uint64_t>(reps);
  std::vector<BenchRecord> records;
  PrintHeader("micro_eval: scalar evaluator vs. bytecode VM (ns/lane)");
  std::printf("%-20s %10s %10s %9s\n", "shape", "scalar", "bytecode",
              "speedup");
  for (const Shape& shape : shapes) {
    // Warm-up pass per evaluator, then the measured runs.
    RunScalar(shape, corpus, &udfs, 1);
    const double scalar_s = RunScalar(shape, corpus, &udfs, reps);
    RunBytecode(shape, corpus, &udfs, 1);
    const double bytecode_s = RunBytecode(shape, corpus, &udfs, reps);
    auto per_lane = [total](double s) {
      return s > 0 ? s * 1e9 / static_cast<double>(total) : -1;
    };
    const double scalar_ns = per_lane(scalar_s);
    const double bytecode_ns = per_lane(bytecode_s);
    std::printf("%-20s %10.2f %10.2f %8.2fx\n", shape.name.c_str(), scalar_ns,
                bytecode_ns,
                scalar_ns > 0 && bytecode_ns > 0 ? scalar_ns / bytecode_ns
                                                 : 0.0);
    records.push_back({shape.name, "scalar", scalar_s * 1e3, total, 1,
                       kBatchSize});
    records.push_back({shape.name, "bytecode", bytecode_s * 1e3, total, 1,
                       kBatchSize});
  }

  sinew::bench::WriteBenchJson(sinew::bench::BenchOutDirFromArgs(argc, argv),
                               "micro_eval", records);
  return 0;
}
