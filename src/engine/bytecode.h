// Query compilation: bound expression trees flattened into postfix bytecode
// executed over RowBatch columns — the executor's only batch evaluator. The
// scalar EvalExpr (engine/eval.h) is its semantic reference.
//
// At plan time `Compile` walks a bound Expr once and emits a flat array of
// tagged-union instructions (`Instr`) that reference batch column slots,
// interned literal-pool entries and virtual registers. Execution is a single
// switch loop over the instruction array per batch — no tree recursion, no
// per-node std::vector<Datum> temporaries for the dominant shapes:
//
//   - kColCmpLit / kColBetweenLits / kColIsNull fuse the extract-then-compare
//     and colref-cmp-literal predicate forms into one opcode; in predicate
//     position a single-instruction program refines the selection vector in
//     place without materializing a boolean column at all.
//   - kUdfCmpLit fuses a simple-argument UDF call (e.g. an array
//     containment test over the reservoir column) with the literal
//     comparison above it, so the computed value is consumed where it is
//     produced.
//   - kBoolFork/kBoolJoin implement Kleene AND/OR by lane partitioning: the
//     fork evaluates the left side, writes decided lanes (false AND _,
//     true OR _) and narrows the lane set to the undecided rows for the
//     right-side region — a right-side runtime error fires for exactly the
//     rows scalar EvalExpr would evaluate it on.
//   - kFallbackLane covers everything without a vector kernel (CASE,
//     coalesce, a virtual-column reference the planner did not hoist into
//     a scan, UDF calls with non-trivial arguments, IN lists with
//     evaluable items): it runs the scalar evaluator per lane over a scratch
//     row built from compile-time-collected slots, so short-circuit order,
//     which argument's error fires and Kleene NULL handling stay exact by
//     construction. Fallback lanes are counted (ExecState::fallback_lanes,
//     `eval.fallback_lanes`) so interpreter residue is visible.
//
// All program memory — instructions, operand pools, interned literals,
// fallback slot arrays — lives in a bump-pointer arena owned by the Program
// (common/arena.h). Programs are immutable after Compile and attached to the
// PlanNode as shared_ptr<const Program>, so Gather workers building operator
// instances over the same plan share one program; all mutable execution
// scratch lives in the per-operator-instance ExecState.
//
// `Compile` always returns a program: an expression containing a shape with
// no instruction form (an unbound or out-of-range reference, a star) or
// overflowing a register/literal pool compiles to one whole-expression
// kFallbackLane, so the scalar evaluator's result or error text is the
// contract.

#ifndef SINEW_ENGINE_BYTECODE_H_
#define SINEW_ENGINE_BYTECODE_H_

#include <cstdint>
#include <memory>
#include <type_traits>
#include <vector>

#include "common/arena.h"
#include "common/result.h"
#include "engine/datum.h"
#include "engine/expr.h"
#include "engine/row_batch.h"
#include "engine/udf.h"

namespace sinew::engine::bytecode {

/// One instruction input: a virtual register (per-lane values produced by an
/// earlier instruction), a batch column slot, or a literal-pool entry.
struct Operand {
  enum class Kind : uint8_t { kNone = 0, kReg, kCol, kLit };
  Kind kind = Kind::kNone;
  uint16_t index = 0;

  bool is_reg() const { return kind == Kind::kReg; }
  bool is_col() const { return kind == Kind::kCol; }
  bool is_lit() const { return kind == Kind::kLit; }
};

enum class OpCode : uint8_t {
  // --- fused shapes ---
  kColCmpLit,       // dst = cmp(col[a], lit[b])
  kUdfCmpLit,       // dst = cmp(fn(aux...), lit[b]); aux operands are col/lit
  kColBetweenLits,  // dst = col[a] [NOT] BETWEEN lit[b] AND lit[c]
  kColIsNull,       // dst = col[a] IS [NOT] NULL
  kBoolFork,        // Kleene AND/OR: decide lanes from lhs `a`, narrow to the
                    // undecided subset; jump past the matching join when none
  kBoolJoin,        // combine saved lhs with rhs `a`, restore the lane set
  // --- generic kernels (operands may be registers) ---
  kCompare,         // dst = cmp(a, b)
  kArith,           // dst = a <cmp-as-arith-op> b (kAdd..kMod)
  kLike,            // dst = a [NOT] LIKE b  (negated unused; parser lowers)
  kConcat,          // dst = a || b
  kNot,             // dst = NOT a
  kNeg,             // dst = -a
  kBetween,         // dst = a [NOT] BETWEEN b AND c
  kIsNull,          // dst = a IS [NOT] NULL
  kInList,          // dst = a [NOT] IN (aux...); aux operands are col/lit
  kCallUdf,         // dst = fn(aux...); aux operands are col/lit
  // --- escape hatch ---
  kFallbackLane,    // dst = EvalExpr(*fallback, scratch-row) per lane
};

const char* OpCodeName(OpCode op);

/// Flat tagged-union instruction. Every field is trivially destructible so
/// the instruction array can live in the raw (unregistered) arena path.
struct Instr {
  OpCode op = OpCode::kCompare;
  BinaryOp bop = BinaryOp::kEq;  // comparison op / arithmetic op
  bool negated = false;          // BETWEEN / IN / IS NULL variants
  bool is_and = false;           // kBoolFork / kBoolJoin: AND vs OR
  uint16_t dst = 0;              // result register
  Operand a, b, c;
  uint32_t aux_begin = 0;        // kInList / kCallUdf / kUdfCmpLit arguments
  uint16_t aux_count = 0;
  uint32_t jump = 0;             // kBoolFork: pc after the matching join
  const UdfFn* fn = nullptr;     // kCallUdf / kUdfCmpLit
  const Expr* fallback = nullptr;    // kFallbackLane: the original subtree
  const int* fb_slots = nullptr;     // sorted unique bound slots of fallback
  uint32_t fb_slot_count = 0;
};

/// A compiled, immutable expression program. All referenced memory (instrs,
/// aux, literals, fallback slot arrays) is owned by `arena`; `fallback`
/// pointers alias the Expr tree the program was compiled from, which the
/// owning PlanNode keeps alive.
struct Program {
  Arena arena{512};
  const Instr* instrs = nullptr;
  uint32_t num_instrs = 0;
  const Operand* aux = nullptr;
  const Datum* literals = nullptr;
  uint16_t num_literals = 0;
  uint16_t num_regs = 0;
  /// Where the final value lives after the last instruction (may be a bare
  /// column or literal for trivial programs with num_instrs == 0).
  Operand result;
  /// Input width the program was compiled against; executing over a narrower
  /// batch is an internal error.
  uint32_t min_width = 0;

  // Static shape counters for EXPLAIN ANALYZE.
  uint32_t num_fused = 0;     // fused opcodes incl. kBoolFork
  uint32_t num_fallback = 0;  // kFallbackLane instructions
};

/// Per-operator-instance execution scratch, reused across batches so the
/// steady state allocates nothing. Not thread-safe; Gather workers each own
/// one per operator instance.
struct ExecState {
  std::vector<std::vector<Datum>> regs;

  /// Per-register type evidence within one RunProgram call: a typed kernel
  /// that fills a register with exactly one Datum kind (plus NULLs) records
  /// it so downstream kCompare/kArith can stay monomorphic on register
  /// operands. Cleared at the top of every program run and whenever an
  /// untyped instruction writes the register.
  struct RegTag {
    ColTag::Type type = ColTag::Type::kUnknown;
  };
  std::vector<RegTag> reg_tags;
  /// Did the instruction currently executing record a tag for its dst
  /// register? Set by the typed kernels, checked (and reset) by the
  /// interpreter loop after each instruction — a dst written by a boxed
  /// path must lose any stale tag, but only *after* the instruction ran,
  /// because stack discipline routinely reuses an operand register as dst.
  bool reg_tag_set = false;

  /// One kBoolFork/kBoolJoin nesting level: the undecided lane subset, each
  /// undecided lane's position in the enclosing lane set, and its saved
  /// left-side value for the join's Kleene combine.
  struct Frame {
    std::vector<uint32_t> lanes;
    std::vector<uint32_t> pos;
    std::vector<Datum> lhs;
    uint16_t dst = 0;
    bool is_and = false;
  };
  std::vector<Frame> frames;  // high-water storage; frame_depth is live size
  size_t frame_depth = 0;

  DatumRow scratch;        // kFallbackLane scratch row
  UdfArgs udf_args;        // kCallUdf / kUdfCmpLit argument pointers
  std::vector<Datum> vals; // predicate-mode value column (generic path)

  /// Lanes routed through kFallbackLane since the last flush; the owning
  /// operator drains this into its OperatorStats.
  uint64_t fallback_lanes = 0;
  /// Lanes served by monomorphic typed kernels vs. the boxed per-lane Datum
  /// loops, counted over the specializable opcodes only (kColCmpLit,
  /// kColBetweenLits, kColIsNull, kCompare, kArith). Drained like
  /// fallback_lanes.
  uint64_t typed_lanes = 0;
  uint64_t boxed_lanes = 0;

  /// Returns the state to its post-construction shape, releasing any scratch
  /// vector whose capacity exceeds `shrink_threshold` datums. Register
  /// vectors high-water to the widest batch ever executed and would
  /// otherwise pin that memory for the lifetime of a pooled operator or a
  /// long-lived session; call this at operator close (after draining the
  /// lane counters) or between queries on a reused state.
  void Reset(size_t shrink_threshold = 0) {
    frame_depth = 0;
    fallback_lanes = 0;
    typed_lanes = 0;
    boxed_lanes = 0;
    auto shrink = [shrink_threshold](auto& v) {
      if (v.capacity() > shrink_threshold) {
        // Swap with a fresh temporary: `v = {}` would pick the
        // initializer-list assignment, which clears but keeps capacity.
        std::remove_reference_t<decltype(v)>().swap(v);
      } else {
        v.clear();
      }
    };
    for (auto& reg : regs) shrink(reg);
    shrink(regs);
    for (Frame& f : frames) {
      shrink(f.lanes);
      shrink(f.pos);
      shrink(f.lhs);
    }
    shrink(frames);
    shrink(reg_tags);
    shrink(scratch);
    shrink(udf_args);
    shrink(vals);
  }
};

/// Compiles a bound expression into a program executable over batches whose
/// columns match the schema the expression was bound against (`input_width`
/// slots). `udfs` resolves function calls at compile time; the resolved
/// UdfFn pointers stay valid for the registry's lifetime (std::map nodes).
/// Never returns nullptr (see the fallback contract above).
std::shared_ptr<const Program> Compile(const Expr& expr, size_t input_width,
                                       const UdfRegistry* udfs);

/// Evaluates the program for every lane in `lanes` (physical row indices
/// into `batch`), one datum per lane into `*out`.
Status ExecBatch(const Program& program, const RowBatch& batch,
                 const std::vector<uint32_t>& lanes, const UdfRegistry* udfs,
                 ExecState* state, std::vector<Datum>* out);

/// Predicate mode: evaluates over the lanes in `*sel` and keeps only the
/// TRUE lanes (NULL filters, non-boolean errors, as in EvalPredicate),
/// preserving order. Single-instruction fused programs refine the selection
/// vector directly without materializing a boolean column.
Status ExecPredicateBatch(const Program& program, const RowBatch& batch,
                          const UdfRegistry* udfs, ExecState* state,
                          std::vector<uint32_t>* sel);

}  // namespace sinew::engine::bytecode

#endif  // SINEW_ENGINE_BYTECODE_H_
