// Query compilation: bound expression trees flattened into postfix bytecode
// executed over RowBatch columns — the engine's only evaluator. The
// executor runs compiled programs over batches; constant folding and
// INSERT VALUES run a column-free program over one lane (EvalConstant), so
// a folded literal and an executed expression always agree. The scalar
// tree walk the VM is checked against lives in tests/, not here.
//
// At plan time `Compile` walks a bound Expr once and emits a flat array of
// tagged-union instructions (`Instr`) that reference batch column slots,
// interned literal-pool entries and virtual registers. Execution is a single
// switch loop over the instruction array per batch — no tree recursion, no
// per-node std::vector<Datum> temporaries for the dominant shapes:
//
//   - kCompare / kBetween / kIsNull over a column and literals dispatch to
//     the typed kernels; in predicate position such a single-instruction
//     program refines the selection vector in place without materializing a
//     boolean column at all.
//   - kArith runs unboxed int64/double loops when both operands are proven
//     numeric and boxed Datums otherwise; both apply the one per-lane rule
//     of engine/eval.h (eval_detail::IntArith / DoubleArith), so division
//     by zero, modulo by zero and integer overflow fail the same way on
//     either path.
//   - kUdfCmpLit fuses a UDF call (e.g. an array containment test over the
//     reservoir column) with the literal comparison above it, so the
//     computed value is consumed where it is produced.
//   - kFork/kJoin narrow the lane set for a region of instructions: AND's and
//     OR's right side, COALESCE's next argument, IN's items over a non-NULL
//     probe, a CASE WHEN's THEN and the rest of the CASE. A region runs over
//     exactly the lanes a row-at-a-time evaluation would evaluate it on, so
//     its runtime errors fire for those rows only.
//
// kRaise + no pool caps: every bound expression compiles. A shape with no
// instruction form — an unknown function, an aggregate call, a star, an
// unbound or out-of-range column, an unhoisted virtual column — compiles to
// one kRaise carrying the Status for it, at the point in evaluation order
// where row-at-a-time evaluation would fail. kRaise fails only when it runs
// over a non-empty lane set, so an expression over no rows succeeds.
// Register, literal and argument indices are 32 bits wide; no expression is
// too large to compile. Literals intern through a hash of their exact kind
// and value, so a list of thousands compiles in linear time.
//
// All program memory — instructions, operand pools, interned literals,
// kRaise statuses — lives in a bump-pointer arena owned by the Program
// (common/arena.h). Programs are immutable after Compile and attached to the
// PlanNode as shared_ptr<const Program>, so Gather workers building operator
// instances over the same plan share one program; all mutable execution
// scratch lives in the per-operator-instance ExecState.

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
  uint32_t index = 0;

  bool is_reg() const { return kind == Kind::kReg; }
  bool is_col() const { return kind == Kind::kCol; }
  bool is_lit() const { return kind == Kind::kLit; }
};

enum class OpCode : uint8_t {
  kUdfCmpLit,  // dst = cmp(fn(aux...), lit[b])
  kFork,       // narrow the lane set to the lanes `fork` selects from `a`;
               // jump past the matching join when none
  kJoin,       // write the region's value `a` into dst, restore the lane set
  kCompare,    // dst = cmp(a, b)
  kArith,      // dst = a <cmp-as-arith-op> b (kAdd..kMod)
  kLike,       // dst = a [NOT] LIKE b  (negated unused; parser lowers)
  kConcat,     // dst = a || b
  kNot,        // dst = NOT a
  kNeg,        // dst = -a
  kBetween,    // dst = a [NOT] BETWEEN b AND c
  kIsNull,     // dst = a IS [NOT] NULL
  kInList,     // dst = a [NOT] IN (in_set); every item is a literal
  kCallUdf,    // dst = fn(aux...)
  kRaise,      // fail with `error` when the lane set is not empty
};

/// Which lanes of a kFork's operand enter its region, and how the matching
/// kJoin writes the region's values into dst. The first four copy the
/// operand into dst on the lanes that stay out (FALSE for AND, TRUE for OR,
/// the non-NULL value for COALESCE, NULL for IN); the CASE pair writes
/// nothing there, because the other half of the CASE covers those lanes.
enum class ForkMode : uint8_t {
  kNonFalse,  // AND's right side; the join combines with Kleene AND
  kNonTrue,   // OR's right side; the join combines with Kleene OR
  kNull,      // COALESCE's next argument; the join copies
  kNonNull,   // IN's items over a non-NULL probe; the join copies
  kTrue,      // a CASE WHEN's THEN; the join copies
  kNotTrue,   // the rest of a CASE; the join copies
};

struct InSet;

/// Flat tagged-union instruction. Every field is trivially destructible so
/// the instruction array can live in the raw (unregistered) arena path.
struct Instr {
  OpCode op = OpCode::kCompare;
  BinaryOp bop = BinaryOp::kEq;  // comparison op / arithmetic op
  bool negated = false;          // BETWEEN / IN / IS NULL variants
  ForkMode fork = ForkMode::kNonFalse;  // kFork / kJoin
  uint32_t dst = 0;                     // result register
  // kFork: `c`, a register, is gathered over the region's lanes into
  // register `b`, because a region reads no register of the enclosing one.
  Operand a, b, c;
  uint32_t aux_begin = 0;  // kCallUdf / kUdfCmpLit arguments
  uint32_t aux_count = 0;
  uint32_t jump = 0;              // kFork: pc after the matching join
  const UdfFn* fn = nullptr;      // kCallUdf / kUdfCmpLit
  const Status* error = nullptr;  // kRaise
  const InSet* in_set = nullptr;  // kInList
};

/// A literal-pool entry that is a parameter slot (Expr::param): execution
/// reads the value bound to `slot` there instead of the pooled value.
struct ParamRef {
  uint32_t literal = 0;
  uint32_t slot = 0;
};

/// A compiled, immutable expression program. All referenced memory (instrs,
/// aux, literals, kRaise statuses) is owned by `arena`.
struct Program {
  Arena arena{512};
  const Instr* instrs = nullptr;
  uint32_t num_instrs = 0;
  const Operand* aux = nullptr;
  const Datum* literals = nullptr;
  uint32_t num_literals = 0;
  /// Pool entries that are parameter slots, each its own entry: a
  /// parameter never shares one with an equal literal.
  const ParamRef* params = nullptr;
  uint32_t num_params = 0;
  uint32_t num_regs = 0;
  /// Where the final value lives after the last instruction (may be a bare
  /// column or literal for trivial programs with num_instrs == 0).
  Operand result;
  /// Input width the program was compiled against; executing over a narrower
  /// batch is an internal error.
  uint32_t min_width = 0;
};

/// Per-operator-instance execution scratch, reused across batches so the
/// steady state allocates nothing. Not thread-safe; Gather workers each own
/// one per operator instance.
struct ExecState {
  std::vector<std::vector<Datum>> regs;

  /// The execution's bound parameters, one per parameter slot, or nullptr:
  /// a program then reads the values it was planned with. Set by the owning
  /// operator; outlives every run.
  const std::vector<Datum>* params = nullptr;
  /// The literal pool of the program running: its own, or `bound` when it
  /// has parameter slots — a copy of its pool with each slot's bound value
  /// in place, kept while the same program runs again.
  const Datum* lits = nullptr;
  std::vector<Datum> bound;
  const Program* bound_program = nullptr;

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

  /// One kFork/kJoin nesting level: the region's lane subset, each region
  /// lane's position in the enclosing lane set, and (AND/OR only) its saved
  /// left-side value for the join's Kleene combine.
  struct Frame {
    std::vector<uint32_t> lanes;
    std::vector<uint32_t> pos;
    std::vector<Datum> lhs;
  };
  std::vector<Frame> frames;  // high-water storage; frame_depth is live size
  size_t frame_depth = 0;

  UdfArgs udf_args;  // kCallUdf / kUdfCmpLit argument pointers

  /// Lanes served by monomorphic typed kernels vs. the boxed per-lane Datum
  /// loops, counted over the specializable shapes only (kCompare, kArith,
  /// and kBetween / kIsNull over a column). The owning operator drains these
  /// into its OperatorStats.
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
    lits = nullptr;
    bound_program = nullptr;
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
    shrink(udf_args);
    shrink(bound);
  }
};

/// Compiles a bound expression into a program executable over batches whose
/// columns match the schema the expression was bound against (`input_width`
/// slots). `udfs` resolves function calls at compile time; the resolved
/// UdfFn pointers stay valid for the registry's lifetime (std::map nodes).
/// Never returns nullptr (see the kRaise contract above).
std::shared_ptr<const Program> Compile(const Expr& expr, size_t input_width,
                                       const UdfRegistry* udfs);

/// Evaluates a column-free expression once: compiles it for input width 0
/// and runs it over one lane. Constant folding (`udfs` = nullptr) and
/// INSERT VALUES call it. A column reference, an aggregate call or an
/// unknown function fails with its kRaise status.
Result<Datum> EvalConstant(const Expr& expr, const UdfRegistry* udfs);

/// Evaluates the program for every lane in `lanes` (physical row indices
/// into `batch`), one datum per lane into `*out`.
Status ExecBatch(const Program& program, const RowBatch& batch,
                 const std::vector<uint32_t>& lanes, ExecState* state,
                 std::vector<Datum>* out);

/// Predicate mode: evaluates over the lanes in `*sel` and keeps only the
/// TRUE lanes (NULL filters, a non-boolean value is a TypeError),
/// preserving order. A single instruction over a column and literals, or a
/// kUdfCmpLit, refines the selection vector directly without materializing
/// a boolean column.
Status ExecPredicateBatch(const Program& program, const RowBatch& batch,
                          ExecState* state, std::vector<uint32_t>* sel);

}  // namespace sinew::engine::bytecode

#endif  // SINEW_ENGINE_BYTECODE_H_
