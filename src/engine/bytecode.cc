#include "engine/bytecode.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <optional>

#include "common/metrics.h"
#include "common/str_util.h"
#include "engine/eval.h"
#include "engine/typed_kernels.h"

namespace sinew::engine::bytecode {

const char* OpCodeName(OpCode op) {
  switch (op) {
    case OpCode::kColCmpLit: return "col_cmp_lit";
    case OpCode::kUdfCmpLit: return "udf_cmp_lit";
    case OpCode::kColBetweenLits: return "col_between_lits";
    case OpCode::kColIsNull: return "col_is_null";
    case OpCode::kBoolFork: return "bool_fork";
    case OpCode::kBoolJoin: return "bool_join";
    case OpCode::kCompare: return "compare";
    case OpCode::kArith: return "arith";
    case OpCode::kLike: return "like";
    case OpCode::kConcat: return "concat";
    case OpCode::kNot: return "not";
    case OpCode::kNeg: return "neg";
    case OpCode::kBetween: return "between";
    case OpCode::kIsNull: return "is_null";
    case OpCode::kInList: return "in_list";
    case OpCode::kCallUdf: return "call_udf";
    case OpCode::kFallbackLane: return "fallback_lane";
  }
  return "?";
}

namespace {

// Register/literal pools are uint16-indexed; real expressions sit far below
// these, so hitting a cap means "run the whole expression as one fallback
// lane", not an error.
constexpr size_t kMaxRegs = 4096;
constexpr size_t kMaxLiterals = 4096;
constexpr size_t kMaxAux = 0xFFFF;

/// Interning equality: exact kind + exact value. Doubles compare bit-exact
/// so 0.0 and -0.0 (distinct in rendering) keep separate pool entries, and
/// Int(1) never merges with Double(1.0) (distinct arithmetic semantics).
bool SameLiteral(const Datum& a, const Datum& b) {
  if (a.kind() != b.kind()) return false;
  switch (a.kind()) {
    case Datum::Kind::kNull: return true;
    case Datum::Kind::kBool: return a.bool_value() == b.bool_value();
    case Datum::Kind::kInt: return a.int_value() == b.int_value();
    case Datum::Kind::kDouble:
      return std::bit_cast<uint64_t>(a.double_value()) ==
             std::bit_cast<uint64_t>(b.double_value());
    case Datum::Kind::kText:
    case Datum::Kind::kBytes: return a.str() == b.str();
  }
  return false;
}

bool IsCompareBop(BinaryOp op) {
  switch (op) {
    case BinaryOp::kEq:
    case BinaryOp::kNe:
    case BinaryOp::kLt:
    case BinaryOp::kLe:
    case BinaryOp::kGt:
    case BinaryOp::kGe: return true;
    default: return false;
  }
}

bool IsArithBop(BinaryOp op) {
  switch (op) {
    case BinaryOp::kAdd:
    case BinaryOp::kSub:
    case BinaryOp::kMul:
    case BinaryOp::kDiv:
    case BinaryOp::kMod: return true;
    default: return false;
  }
}

/// `a op b` == `b Flip(op) a` for comparisons; used to normalize lit-cmp-col
/// into the fused col-cmp-lit form.
BinaryOp FlipCompare(BinaryOp op) {
  switch (op) {
    case BinaryOp::kLt: return BinaryOp::kGt;
    case BinaryOp::kLe: return BinaryOp::kGe;
    case BinaryOp::kGt: return BinaryOp::kLt;
    case BinaryOp::kGe: return BinaryOp::kLe;
    default: return op;  // Eq / Ne are symmetric
  }
}

void CollectSlots(const Expr& e, std::vector<int>* slots) {
  if (e.kind == ExprKind::kColumnRef && e.bound_slot >= 0) {
    slots->push_back(e.bound_slot);
  }
  for (const ExprPtr& arg : e.args) CollectSlots(*arg, slots);
}

/// The fallback-free operand forms: operands that cannot error and carry no
/// evaluation-order footprint.
bool IsSimpleOperand(const Expr& e) {
  return e.kind == ExprKind::kLiteral ||
         (e.kind == ExprKind::kColumnRef && e.bound_slot >= 0);
}

class Compiler {
 public:
  Compiler(size_t input_width, const UdfRegistry* udfs)
      : width_(input_width), udfs_(udfs) {}

  /// Compiles `expr`; nullptr when it has a shape without an instruction
  /// form (a star, an unbound or out-of-range column) or overflows a pool.
  std::shared_ptr<const Program> Run(const Expr& expr) {
    std::optional<Operand> result = CompileNode(expr);
    if (!result.has_value() || failed_) return nullptr;
    return Finish(*result);
  }

  /// Compiles `expr` as a single fallback lane: the scalar evaluator then
  /// produces its exact result or error text at run time.
  std::shared_ptr<const Program> RunFallback(const Expr& expr) {
    return Finish(EmitFallback(expr));
  }

 private:
  static Operand Reg(uint16_t index) {
    return Operand{Operand::Kind::kReg, index};
  }

  /// Result register with stack discipline: consumed register operands are
  /// the top of the virtual stack; the result reuses the lowest of them (or
  /// a fresh register when all operands are columns/literals), and
  /// everything above is freed.
  uint16_t AllocResult(std::initializer_list<Operand> consumed) {
    uint16_t lowest = next_reg_;
    for (const Operand& op : consumed) {
      if (op.is_reg() && op.index < lowest) lowest = op.index;
    }
    next_reg_ = static_cast<uint16_t>(lowest + 1);
    if (next_reg_ > num_regs_) num_regs_ = next_reg_;
    if (num_regs_ > kMaxRegs) failed_ = true;
    return lowest;
  }

  uint16_t InternLiteral(const Datum& d) {
    for (size_t i = 0; i < literals_.size(); ++i) {
      if (SameLiteral(literals_[i], d)) return static_cast<uint16_t>(i);
    }
    if (literals_.size() >= kMaxLiterals) {
      failed_ = true;
      return 0;
    }
    literals_.push_back(d);
    return static_cast<uint16_t>(literals_.size() - 1);
  }

  /// Operand for a simple (literal / bound colref) expression. Bails when a
  /// bound slot lies outside the compile-time schema — the scalar evaluator
  /// owns the error text for that.
  std::optional<Operand> SimpleOperand(const Expr& e) {
    if (e.kind == ExprKind::kLiteral) {
      return Operand{Operand::Kind::kLit, InternLiteral(e.literal)};
    }
    if (e.bound_slot < 0 || static_cast<size_t>(e.bound_slot) >= width_ ||
        e.bound_slot > 0xFFFF) {
      return std::nullopt;
    }
    return Operand{Operand::Kind::kCol, static_cast<uint16_t>(e.bound_slot)};
  }

  /// Everything without a vector kernel becomes one per-lane scalar escape;
  /// the subtree's bound slots are collected once, here, at compile time.
  Operand EmitFallback(const Expr& e) {
    Instr ins;
    ins.op = OpCode::kFallbackLane;
    ins.fallback = &e;
    std::vector<int> slots;
    CollectSlots(e, &slots);
    std::sort(slots.begin(), slots.end());
    slots.erase(std::unique(slots.begin(), slots.end()), slots.end());
    fb_slot_sets_.push_back(std::move(slots));
    ins.dst = AllocResult({});
    instrs_.push_back(ins);
    return Reg(ins.dst);
  }

  std::optional<Operand> CompileBinary(const Expr& e) {
    if (e.bop == BinaryOp::kAnd || e.bop == BinaryOp::kOr) {
      std::optional<Operand> lhs = CompileNode(*e.args[0]);
      if (!lhs) return std::nullopt;
      Instr fork;
      fork.op = OpCode::kBoolFork;
      fork.is_and = e.bop == BinaryOp::kAnd;
      fork.a = *lhs;
      fork.dst = AllocResult({*lhs});
      const size_t fork_pc = instrs_.size();
      instrs_.push_back(fork);
      // The right-side region runs over the undecided lane subset; its
      // registers sit above the fork's dst, so outer per-lane values (all in
      // registers <= dst by stack discipline) survive the region.
      const uint16_t region_base = next_reg_;
      std::optional<Operand> rhs = CompileNode(*e.args[1]);
      if (!rhs) return std::nullopt;
      Instr join;
      join.op = OpCode::kBoolJoin;
      join.is_and = fork.is_and;
      join.a = *rhs;
      join.dst = instrs_[fork_pc].dst;
      instrs_.push_back(join);
      instrs_[fork_pc].jump = static_cast<uint32_t>(instrs_.size());
      next_reg_ = region_base;  // free the region's registers
      return Reg(join.dst);
    }
    std::optional<Operand> lhs = CompileNode(*e.args[0]);
    if (!lhs) return std::nullopt;
    std::optional<Operand> rhs = CompileNode(*e.args[1]);
    if (!rhs) return std::nullopt;
    Instr ins;
    ins.bop = e.bop;
    if (IsCompareBop(e.bop)) {
      if (lhs->is_col() && rhs->is_lit()) {
        ins.op = OpCode::kColCmpLit;
        ins.a = *lhs;
        ins.b = *rhs;
      } else if (lhs->is_lit() && rhs->is_col()) {
        ins.op = OpCode::kColCmpLit;
        ins.bop = FlipCompare(e.bop);
        ins.a = *rhs;
        ins.b = *lhs;
      } else if (rhs->is_lit() && lhs->is_reg() && !instrs_.empty() &&
                 instrs_.back().op == OpCode::kCallUdf &&
                 instrs_.back().dst == lhs->index) {
        // Peephole: the comparison consumes the UDF value where it is
        // produced — extract-then-compare becomes one opcode.
        Instr& udf = instrs_.back();
        udf.op = OpCode::kUdfCmpLit;
        udf.bop = e.bop;
        udf.b = *rhs;
        return Reg(udf.dst);
      } else if (lhs->is_lit() && rhs->is_reg() && !instrs_.empty() &&
                 instrs_.back().op == OpCode::kCallUdf &&
                 instrs_.back().dst == rhs->index) {
        Instr& udf = instrs_.back();
        udf.op = OpCode::kUdfCmpLit;
        udf.bop = FlipCompare(e.bop);
        udf.b = *lhs;
        return Reg(udf.dst);
      } else {
        ins.op = OpCode::kCompare;
        ins.a = *lhs;
        ins.b = *rhs;
      }
    } else if (IsArithBop(e.bop)) {
      ins.op = OpCode::kArith;
      ins.a = *lhs;
      ins.b = *rhs;
    } else if (e.bop == BinaryOp::kLike) {
      ins.op = OpCode::kLike;
      ins.a = *lhs;
      ins.b = *rhs;
    } else if (e.bop == BinaryOp::kConcat) {
      ins.op = OpCode::kConcat;
      ins.a = *lhs;
      ins.b = *rhs;
    } else {
      return std::nullopt;
    }
    ins.dst = AllocResult({*lhs, *rhs});
    instrs_.push_back(ins);
    return Reg(ins.dst);
  }

  std::optional<Operand> CompileNode(const Expr& e) {
    if (failed_) return std::nullopt;
    switch (e.kind) {
      case ExprKind::kLiteral:
      case ExprKind::kColumnRef:
        return SimpleOperand(e);
      case ExprKind::kStar:
        return std::nullopt;
      case ExprKind::kUnary: {
        std::optional<Operand> v = CompileNode(*e.args[0]);
        if (!v) return std::nullopt;
        Instr ins;
        ins.op = e.uop == UnaryOp::kNot ? OpCode::kNot : OpCode::kNeg;
        ins.a = *v;
        ins.dst = AllocResult({*v});
        instrs_.push_back(ins);
        return Reg(ins.dst);
      }
      case ExprKind::kBinary:
        return CompileBinary(e);
      case ExprKind::kBetween: {
        std::optional<Operand> t = CompileNode(*e.args[0]);
        if (!t) return std::nullopt;
        std::optional<Operand> lo = CompileNode(*e.args[1]);
        if (!lo) return std::nullopt;
        std::optional<Operand> hi = CompileNode(*e.args[2]);
        if (!hi) return std::nullopt;
        Instr ins;
        ins.op = t->is_col() && lo->is_lit() && hi->is_lit()
                     ? OpCode::kColBetweenLits
                     : OpCode::kBetween;
        ins.a = *t;
        ins.b = *lo;
        ins.c = *hi;
        ins.negated = e.negated;
        ins.dst = AllocResult({*t, *lo, *hi});
        instrs_.push_back(ins);
        return Reg(ins.dst);
      }
      case ExprKind::kInList: {
        // The scalar evaluator stops evaluating list items after a match, so
        // only items that cannot error may run eagerly.
        for (size_t i = 1; i < e.args.size(); ++i) {
          if (!IsSimpleOperand(*e.args[i])) return EmitFallback(e);
        }
        std::optional<Operand> t = CompileNode(*e.args[0]);
        if (!t) return std::nullopt;
        if (e.args.size() - 1 > kMaxAux) return std::nullopt;
        Instr ins;
        ins.op = OpCode::kInList;
        ins.a = *t;
        ins.negated = e.negated;
        ins.aux_begin = static_cast<uint32_t>(aux_.size());
        ins.aux_count = static_cast<uint16_t>(e.args.size() - 1);
        for (size_t i = 1; i < e.args.size(); ++i) {
          std::optional<Operand> item = SimpleOperand(*e.args[i]);
          if (!item) return std::nullopt;
          aux_.push_back(*item);
        }
        ins.dst = AllocResult({*t});
        instrs_.push_back(ins);
        return Reg(ins.dst);
      }
      case ExprKind::kIsNull: {
        std::optional<Operand> v = CompileNode(*e.args[0]);
        if (!v) return std::nullopt;
        Instr ins;
        ins.op = v->is_col() ? OpCode::kColIsNull : OpCode::kIsNull;
        ins.a = *v;
        ins.negated = e.negated;
        ins.dst = AllocResult({*v});
        instrs_.push_back(ins);
        return Reg(ins.dst);
      }
      case ExprKind::kFunction: {
        // coalesce short-circuits its arguments and aggregates never belong
        // here — both stay on the scalar evaluator. A registered UDF
        // compiles to a direct call only when every argument is simple
        // (cannot error), so within-lane argument evaluation order has no
        // observable footprint; anything else falls back per lane.
        if (e.fname == "coalesce" || e.IsAggregateCall()) {
          return EmitFallback(e);
        }
        const UdfFn* fn = udfs_ != nullptr ? udfs_->Find(e.fname) : nullptr;
        if (fn == nullptr) return EmitFallback(e);
        for (const ExprPtr& arg : e.args) {
          if (!IsSimpleOperand(*arg)) return EmitFallback(e);
        }
        if (e.args.size() > kMaxAux) return std::nullopt;
        Instr ins;
        ins.op = OpCode::kCallUdf;
        ins.fn = fn;
        ins.aux_begin = static_cast<uint32_t>(aux_.size());
        ins.aux_count = static_cast<uint16_t>(e.args.size());
        for (const ExprPtr& arg : e.args) {
          std::optional<Operand> a = SimpleOperand(*arg);
          if (!a) return std::nullopt;
          aux_.push_back(*a);
        }
        ins.dst = AllocResult({});
        instrs_.push_back(ins);
        return Reg(ins.dst);
      }
      case ExprKind::kCase:
      case ExprKind::kVirtual:  // an unhoisted one: scalar extraction
        return EmitFallback(e);
    }
    return std::nullopt;
  }

  std::shared_ptr<const Program> Finish(Operand result) {
    auto prog = std::make_shared<Program>();
    Arena& arena = prog->arena;
    Instr* instrs =
        arena.AllocateArray<Instr>(std::max<size_t>(instrs_.size(), 1));
    std::copy(instrs_.begin(), instrs_.end(), instrs);
    size_t next_set = 0;
    for (size_t i = 0; i < instrs_.size(); ++i) {
      Instr& ins = instrs[i];
      switch (ins.op) {
        case OpCode::kColCmpLit:
        case OpCode::kUdfCmpLit:
        case OpCode::kColBetweenLits:
        case OpCode::kColIsNull:
        case OpCode::kBoolFork:
          ++prog->num_fused;
          break;
        case OpCode::kFallbackLane: {
          ++prog->num_fallback;
          const std::vector<int>& slots = fb_slot_sets_[next_set++];
          int* arr =
              arena.AllocateArray<int>(std::max<size_t>(slots.size(), 1));
          std::copy(slots.begin(), slots.end(), arr);
          ins.fb_slots = arr;
          ins.fb_slot_count = static_cast<uint32_t>(slots.size());
          break;
        }
        default:
          break;
      }
    }
    Operand* aux =
        arena.AllocateArray<Operand>(std::max<size_t>(aux_.size(), 1));
    std::copy(aux_.begin(), aux_.end(), aux);
    Datum* literals =
        arena.CreateArray<Datum>(std::max<size_t>(literals_.size(), 1));
    for (size_t i = 0; i < literals_.size(); ++i) literals[i] = literals_[i];
    prog->instrs = instrs;
    prog->num_instrs = static_cast<uint32_t>(instrs_.size());
    prog->aux = aux;
    prog->literals = literals;
    prog->num_literals = static_cast<uint16_t>(literals_.size());
    prog->num_regs = num_regs_;
    prog->result = result;
    prog->min_width = static_cast<uint32_t>(width_);
    return prog;
  }

  size_t width_;
  const UdfRegistry* udfs_;
  std::vector<Instr> instrs_;
  std::vector<Operand> aux_;
  std::vector<Datum> literals_;
  std::vector<std::vector<int>> fb_slot_sets_;  // per kFallbackLane, in order
  uint16_t next_reg_ = 0;
  uint16_t num_regs_ = 0;
  bool failed_ = false;
};

// ----------------------------------------------------------- interpretation

/// Column access for batch execution: cols[slot][lane]. A column that may
/// be typed-primary (row_batch.h) holds its Datums only after Box, so every
/// path reading Col boxes the instruction's column operands first; the
/// typed kernels read tags and never box.
struct BatchSrc {
  const RowBatch* batch;
  const Datum& Col(size_t slot, uint32_t lane) const {
    return batch->cols[slot][lane];
  }
  size_t width() const { return batch->num_cols(); }

  void Box(const Operand& op) const {
    if (op.is_col() && op.index < batch->num_cols()) batch->Box(op.index);
  }
  /// Boxes every column an instruction reads: a, b, c, its aux arguments
  /// and a fallback lane's slots.
  void Box(const Instr& ins, const Program& prog) const {
    Box(ins.a);
    Box(ins.b);
    Box(ins.c);
    for (uint32_t j = 0; j < ins.aux_count; ++j) {
      Box(prog.aux[ins.aux_begin + j]);
    }
    for (uint32_t k = 0; k < ins.fb_slot_count; ++k) {
      const int slot = ins.fb_slots[k];
      if (slot >= 0 && static_cast<size_t>(slot) < batch->num_cols()) {
        batch->Box(static_cast<size_t>(slot));
      }
    }
  }
};

const Datum& ReadOperand(const Operand& op, const Program& prog,
                         const BatchSrc& src, const ExecState& st,
                         const std::vector<uint32_t>& lanes, size_t i) {
  switch (op.kind) {
    case Operand::Kind::kReg: return st.regs[op.index][i];
    case Operand::Kind::kCol: return src.Col(op.index, lanes[i]);
    default: return prog.literals[op.index];
  }
}

void CountFallbackLanes(ExecState* st, size_t n) {
  st->fallback_lanes += n;
  static metrics::Counter* fallback_lanes =
      metrics::GetCounter("eval.fallback_lanes");
  fallback_lanes->Add(n);
}

void CountTypedLanes(ExecState* st, size_t n) {
  st->typed_lanes += n;
  static metrics::Counter* typed_lanes =
      metrics::GetCounter("eval.typed_lanes");
  typed_lanes->Add(n);
}

void CountBoxedLanes(ExecState* st, size_t n) {
  st->boxed_lanes += n;
  static metrics::Counter* boxed_lanes =
      metrics::GetCounter("eval.boxed_lanes");
  boxed_lanes->Add(n);
}

// ------------------------------------------------------------ typed kernels
//
// Dispatch for the monomorphic kernel loops (engine/typed_kernels.h). Each
// Typed* function decides once per batch — from the column's ColTag, the
// literal's kind and (for register operands) the producing instruction's
// RegTag — whether an unboxed loop reproduces the boxed semantics exactly,
// runs it and returns true, or returns false so the caller falls through to
// the per-lane Datum loop. Error texts and NULL verdicts are byte-identical
// by construction; the only permitted deviation is which lane's runtime
// error surfaces first (same contract as batch vs. row evaluation).

/// The batch type proof for one column operand, with the profile-cost gate:
/// an unprofiled column is only worth a full-column pass when the lane set
/// covers at least half the batch (tags are cached on the batch, so any
/// later instruction or operator reuses the proof for free).
const ColTag* TagOf(const RowBatch* batch, uint16_t slot, size_t num_lanes) {
  if (batch == nullptr) return nullptr;
  if (slot >= batch->cols.size()) return nullptr;
  if (const ColTag* t = batch->TagFor(slot)) return t->typed() ? t : nullptr;
  if (num_lanes * 2 < batch->size) return nullptr;
  const ColTag* t = batch->ProfileColumn(slot);
  return t != nullptr && t->typed() ? t : nullptr;
}

void SetRegTag(ExecState* st, uint16_t reg, ColTag::Type type) {
  if (reg < st->reg_tags.size()) st->reg_tags[reg].type = type;
  st->reg_tag_set = true;
}

/// col cmp lit, select mode: refines `sel` in place. Handles every literal
/// kind against a proven column — an incomparable or NULL literal makes the
/// comparison NULL for every lane, which filters everything.
bool TypedSelCmpLit(BinaryOp bop, const ColTag& tag, const Datum& lit,
                    ExecState* st, std::vector<uint32_t>* sel) {
  const size_t n = sel->size();
  bool handled = false;
  switch (tag.type) {
    case ColTag::Type::kInt:
      if (lit.is_int()) {
        handled = typed::WithCmpPred(bop, [&](auto p) {
          typed::SelectCmp(tag.ints.data(), tag, lit.int_value(), p, sel);
        });
      } else if (lit.is_double()) {
        handled = typed::WithCmpPred(bop, [&](auto p) {
          typed::SelectCmp(tag.ints.data(), tag, lit.double_value(), p, sel);
        });
      } else {
        sel->clear();
        handled = true;
      }
      break;
    case ColTag::Type::kDouble:
      if (lit.is_numeric()) {
        handled = typed::WithCmpPred(bop, [&](auto p) {
          typed::SelectCmp(tag.doubles.data(), tag, lit.AsDouble(), p, sel);
        });
      } else {
        sel->clear();
        handled = true;
      }
      break;
    case ColTag::Type::kBool:
      if (lit.is_bool()) {
        handled = typed::WithCmpPred(bop, [&](auto p) {
          typed::SelectCmp(tag.bools.data(), tag,
                           static_cast<uint8_t>(lit.bool_value() ? 1 : 0), p,
                           sel);
        });
      } else {
        sel->clear();
        handled = true;
      }
      break;
    case ColTag::Type::kText:
      if (lit.is_text()) {
        handled = typed::WithCmpPred(bop, [&](auto p) {
          typed::SelectCmpStr(tag, lit.str(), p, sel);
        });
      } else {
        sel->clear();
        handled = true;
      }
      break;
    default:
      break;
  }
  if (handled) CountTypedLanes(st, n);
  return handled;
}

/// col cmp lit, value mode: one Bool/NULL per lane into the dst register.
bool TypedValCmpLit(const Instr& ins, const ColTag& tag, const Datum& lit,
                    const std::vector<uint32_t>& lanes, ExecState* st) {
  std::vector<Datum>& dst = st->regs[ins.dst];
  const size_t n = lanes.size();
  bool handled = false;
  auto all_null = [&]() {
    for (size_t i = 0; i < n; ++i) dst[i] = Datum::Null();
    handled = true;
  };
  switch (tag.type) {
    case ColTag::Type::kInt:
      if (lit.is_int()) {
        handled = typed::WithCmpPred(ins.bop, [&](auto p) {
          typed::ValueCmp(tag.ints.data(), tag, lit.int_value(), p, lanes,
                          &dst);
        });
      } else if (lit.is_double()) {
        handled = typed::WithCmpPred(ins.bop, [&](auto p) {
          typed::ValueCmp(tag.ints.data(), tag, lit.double_value(), p, lanes,
                          &dst);
        });
      } else {
        all_null();
      }
      break;
    case ColTag::Type::kDouble:
      if (lit.is_numeric()) {
        handled = typed::WithCmpPred(ins.bop, [&](auto p) {
          typed::ValueCmp(tag.doubles.data(), tag, lit.AsDouble(), p, lanes,
                          &dst);
        });
      } else {
        all_null();
      }
      break;
    case ColTag::Type::kBool:
      if (lit.is_bool()) {
        handled = typed::WithCmpPred(ins.bop, [&](auto p) {
          typed::ValueCmp(tag.bools.data(), tag,
                          static_cast<uint8_t>(lit.bool_value() ? 1 : 0), p,
                          lanes, &dst);
        });
      } else {
        all_null();
      }
      break;
    case ColTag::Type::kText:
      if (lit.is_text()) {
        handled = typed::WithCmpPred(ins.bop, [&](auto p) {
          typed::ValueCmpStr(tag, lit.str(), p, lanes, &dst);
        });
      } else {
        all_null();
      }
      break;
    default:
      break;
  }
  if (handled) {
    CountTypedLanes(st, n);
    SetRegTag(st, ins.dst, ColTag::Type::kBool);
  }
  return handled;
}

/// col BETWEEN lits over a proven numeric column. A NULL or non-numeric
/// bound makes one side's comparison NULL for every lane, hence the whole
/// BETWEEN NULL (negation included), so select mode drops everything and
/// value mode fills NULL.
bool TypedSelBetween(const Instr& ins, const ColTag& tag, const Datum& lo,
                     const Datum& hi, ExecState* st,
                     std::vector<uint32_t>* sel) {
  if (tag.type != ColTag::Type::kInt && tag.type != ColTag::Type::kDouble) {
    return false;
  }
  const size_t n = sel->size();
  if (!lo.is_numeric() || !hi.is_numeric()) {
    sel->clear();
  } else if (tag.type == ColTag::Type::kInt) {
    typed::SelectBetween(tag.ints.data(), tag, typed::MakeBound<int64_t>(lo),
                         typed::MakeBound<int64_t>(hi), ins.negated, sel);
  } else {
    typed::SelectBetween(tag.doubles.data(), tag, typed::MakeBound<double>(lo),
                         typed::MakeBound<double>(hi), ins.negated, sel);
  }
  CountTypedLanes(st, n);
  return true;
}

bool TypedValBetween(const Instr& ins, const ColTag& tag, const Datum& lo,
                     const Datum& hi, const std::vector<uint32_t>& lanes,
                     ExecState* st) {
  if (tag.type != ColTag::Type::kInt && tag.type != ColTag::Type::kDouble) {
    return false;
  }
  std::vector<Datum>& dst = st->regs[ins.dst];
  const size_t n = lanes.size();
  if (!lo.is_numeric() || !hi.is_numeric()) {
    for (size_t i = 0; i < n; ++i) dst[i] = Datum::Null();
  } else if (tag.type == ColTag::Type::kInt) {
    typed::ValueBetween(tag.ints.data(), tag, typed::MakeBound<int64_t>(lo),
                        typed::MakeBound<int64_t>(hi), ins.negated, lanes,
                        &dst);
  } else {
    typed::ValueBetween(tag.doubles.data(), tag, typed::MakeBound<double>(lo),
                        typed::MakeBound<double>(hi), ins.negated, lanes,
                        &dst);
  }
  CountTypedLanes(st, n);
  SetRegTag(st, ins.dst, ColTag::Type::kBool);
  return true;
}

// --- generic kCompare / kArith over register results ---

/// One numeric operand of a generic instruction, resolved once per batch:
/// a proven int/double column (raw array + bitmap), a register a typed
/// kernel filled (monomorphic Datums), or a numeric literal.
struct NumSrc {
  enum class Kind : uint8_t {
    kIntCol, kDblCol, kIntReg, kDblReg, kIntLit, kDblLit
  };
  Kind kind = Kind::kIntLit;
  const int64_t* iv = nullptr;
  const double* dv = nullptr;
  const ColTag* tag = nullptr;
  const std::vector<Datum>* reg = nullptr;
  int64_t li = 0;
  double ld = 0;

  bool is_int() const {
    return kind == Kind::kIntCol || kind == Kind::kIntReg ||
           kind == Kind::kIntLit;
  }
};

/// 1 = resolved, 0 = not provably numeric (boxed path), -1 = NULL literal
/// (the whole instruction is NULL for every lane).
int ResolveNum(const Operand& op, const Program& prog, const RowBatch* batch,
               ExecState* st, size_t num_lanes, NumSrc* out) {
  switch (op.kind) {
    case Operand::Kind::kLit: {
      const Datum& lit = prog.literals[op.index];
      if (lit.is_null()) return -1;
      if (lit.is_int()) {
        out->kind = NumSrc::Kind::kIntLit;
        out->li = lit.int_value();
        out->ld = static_cast<double>(lit.int_value());
        return 1;
      }
      if (lit.is_double()) {
        out->kind = NumSrc::Kind::kDblLit;
        out->ld = lit.double_value();
        return 1;
      }
      return 0;
    }
    case Operand::Kind::kCol: {
      const ColTag* tag = TagOf(batch, op.index, num_lanes);
      if (tag == nullptr) return 0;
      if (tag->type == ColTag::Type::kInt) {
        out->kind = NumSrc::Kind::kIntCol;
        out->iv = tag->ints.data();
        out->tag = tag;
        return 1;
      }
      if (tag->type == ColTag::Type::kDouble) {
        out->kind = NumSrc::Kind::kDblCol;
        out->dv = tag->doubles.data();
        out->tag = tag;
        return 1;
      }
      return 0;
    }
    case Operand::Kind::kReg: {
      if (op.index >= st->reg_tags.size()) return 0;
      const ColTag::Type t = st->reg_tags[op.index].type;
      if (t != ColTag::Type::kInt && t != ColTag::Type::kDouble) return 0;
      out->kind = t == ColTag::Type::kInt ? NumSrc::Kind::kIntReg
                                          : NumSrc::Kind::kDblReg;
      out->reg = &st->regs[op.index];
      return 1;
    }
    default:
      return 0;
  }
}

/// Fetches lane i as int64; only valid when is_int(). False = NULL lane.
inline bool FetchInt(const NumSrc& s, const std::vector<uint32_t>& lanes,
                     size_t i, int64_t* out) {
  switch (s.kind) {
    case NumSrc::Kind::kIntCol: {
      const uint32_t lane = lanes[i];
      if (s.tag->IsNull(lane)) return false;
      *out = s.iv[lane];
      return true;
    }
    case NumSrc::Kind::kIntReg: {
      const Datum& d = (*s.reg)[i];
      if (d.is_null()) return false;
      *out = d.int_value();
      return true;
    }
    default:  // kIntLit
      *out = s.li;
      return true;
  }
}

/// Fetches lane i promoted to double (any source kind). False = NULL lane.
inline bool FetchDouble(const NumSrc& s, const std::vector<uint32_t>& lanes,
                        size_t i, double* out) {
  switch (s.kind) {
    case NumSrc::Kind::kIntCol: {
      const uint32_t lane = lanes[i];
      if (s.tag->IsNull(lane)) return false;
      *out = static_cast<double>(s.iv[lane]);
      return true;
    }
    case NumSrc::Kind::kDblCol: {
      const uint32_t lane = lanes[i];
      if (s.tag->IsNull(lane)) return false;
      *out = s.dv[lane];
      return true;
    }
    case NumSrc::Kind::kIntReg:
    case NumSrc::Kind::kDblReg: {
      const Datum& d = (*s.reg)[i];
      if (d.is_null()) return false;
      *out = d.AsDouble();
      return true;
    }
    default:  // kIntLit / kDblLit (ld carries both)
      *out = s.ld;
      return true;
  }
}

/// Generic comparison with both operands provably numeric: int/int compares
/// exact, anything else in double — Datum::Compare's pairing.
bool TypedCompare(const Instr& ins, const Program& prog, const RowBatch* batch,
                  const std::vector<uint32_t>& lanes, ExecState* st) {
  NumSrc a, b;
  const int ra = ResolveNum(ins.a, prog, batch, st, lanes.size(), &a);
  const int rb = ResolveNum(ins.b, prog, batch, st, lanes.size(), &b);
  if (ra == 0 || rb == 0) return false;
  std::vector<Datum>& dst = st->regs[ins.dst];
  const size_t n = lanes.size();
  if (ra < 0 || rb < 0) {
    for (size_t i = 0; i < n; ++i) dst[i] = Datum::Null();
  } else if (a.is_int() && b.is_int()) {
    typed::WithCmpPred(ins.bop, [&](auto p) {
      for (size_t i = 0; i < n; ++i) {
        int64_t x, y;
        dst[i] = FetchInt(a, lanes, i, &x) && FetchInt(b, lanes, i, &y)
                     ? Datum::Bool(p(x, y))
                     : Datum::Null();
      }
    });
  } else {
    typed::WithCmpPred(ins.bop, [&](auto p) {
      for (size_t i = 0; i < n; ++i) {
        double x, y;
        dst[i] = FetchDouble(a, lanes, i, &x) && FetchDouble(b, lanes, i, &y)
                     ? Datum::Bool(p(x, y))
                     : Datum::Null();
      }
    });
  }
  CountTypedLanes(st, n);
  SetRegTag(st, ins.dst, ColTag::Type::kBool);
  return true;
}

/// Generic arithmetic with both operands provably numeric. int⊗int stays
/// int64, anything else promotes to double; division/modulo by zero carry
/// the boxed path's exact error texts. Which lane's error surfaces first is
/// the one permitted deviation.
bool TypedArith(const Instr& ins, const Program& prog, const RowBatch* batch,
                const std::vector<uint32_t>& lanes, ExecState* st,
                Status* status) {
  NumSrc a, b;
  const int ra = ResolveNum(ins.a, prog, batch, st, lanes.size(), &a);
  const int rb = ResolveNum(ins.b, prog, batch, st, lanes.size(), &b);
  if (ra == 0 || rb == 0) return false;
  std::vector<Datum>& dst = st->regs[ins.dst];
  const size_t n = lanes.size();
  const bool as_int = a.is_int() && b.is_int();
  if (ra < 0 || rb < 0) {
    for (size_t i = 0; i < n; ++i) dst[i] = Datum::Null();
    CountTypedLanes(st, n);
    SetRegTag(st, ins.dst,
              as_int ? ColTag::Type::kInt : ColTag::Type::kDouble);
    return true;
  }
  if (as_int) {
    for (size_t i = 0; i < n; ++i) {
      int64_t x, y;
      if (!FetchInt(a, lanes, i, &x) || !FetchInt(b, lanes, i, &y)) {
        dst[i] = Datum::Null();
        continue;
      }
      switch (ins.bop) {
        case BinaryOp::kAdd: dst[i] = Datum::Int(x + y); break;
        case BinaryOp::kSub: dst[i] = Datum::Int(x - y); break;
        case BinaryOp::kMul: dst[i] = Datum::Int(x * y); break;
        case BinaryOp::kDiv:
          if (y == 0) {
            *status = Status::InvalidArgument("division by zero");
            return true;
          }
          dst[i] = Datum::Int(x / y);
          break;
        default:  // kMod (the compiler only emits arithmetic bops here)
          if (y == 0) {
            *status = Status::InvalidArgument("modulo by zero");
            return true;
          }
          dst[i] = Datum::Int(x % y);
          break;
      }
    }
  } else {
    for (size_t i = 0; i < n; ++i) {
      double x, y;
      if (!FetchDouble(a, lanes, i, &x) || !FetchDouble(b, lanes, i, &y)) {
        dst[i] = Datum::Null();
        continue;
      }
      switch (ins.bop) {
        case BinaryOp::kAdd: dst[i] = Datum::Double(x + y); break;
        case BinaryOp::kSub: dst[i] = Datum::Double(x - y); break;
        case BinaryOp::kMul: dst[i] = Datum::Double(x * y); break;
        case BinaryOp::kDiv:
          if (y == 0) {
            *status = Status::InvalidArgument("division by zero");
            return true;
          }
          dst[i] = Datum::Double(x / y);
          break;
        default:  // kMod
          if (y == 0) {
            *status = Status::InvalidArgument("modulo by zero");
            return true;
          }
          dst[i] = Datum::Double(std::fmod(x, y));
          break;
      }
    }
  }
  CountTypedLanes(st, n);
  SetRegTag(st, ins.dst, as_int ? ColTag::Type::kInt : ColTag::Type::kDouble);
  return true;
}

/// The switch loop: executes every instruction over the current lane set,
/// leaving per-lane values in registers. kBoolFork narrows the lane set to
/// the undecided rows (frame stack); the matching kBoolJoin restores it.
Status RunProgram(const Program& prog, const BatchSrc& src,
                  const std::vector<uint32_t>& lanes_in,
                  const UdfRegistry* udfs, ExecState* st) {
  if (prog.min_width > src.width()) {
    return Status::Internal("bytecode program compiled for wider input");
  }
  st->regs.resize(prog.num_regs);
  st->reg_tags.assign(prog.num_regs, {});
  st->frame_depth = 0;
  auto cur_lanes = [&]() -> const std::vector<uint32_t>& {
    return st->frame_depth == 0 ? lanes_in
                                : st->frames[st->frame_depth - 1].lanes;
  };
  for (uint32_t pc = 0; pc < prog.num_instrs; ++pc) {
    const Instr& ins = prog.instrs[pc];
    st->reg_tag_set = false;
    switch (ins.op) {
      case OpCode::kColCmpLit: {
        const std::vector<uint32_t>& L = cur_lanes();
        const size_t n = L.size();
        std::vector<Datum>& dst = st->regs[ins.dst];
        dst.resize(n);
        const Datum& lit = prog.literals[ins.b.index];
        const ColTag* tag = TagOf(src.batch, ins.a.index, n);
        if (tag != nullptr && TypedValCmpLit(ins, *tag, lit, L, st)) break;
        src.Box(ins, prog);
        CountBoxedLanes(st, n);
        for (size_t i = 0; i < n; ++i) {
          dst[i] = eval_detail::CompareOp(ins.bop, src.Col(ins.a.index, L[i]),
                                          lit);
        }
        break;
      }
      case OpCode::kUdfCmpLit:
      case OpCode::kCallUdf: {
        const std::vector<uint32_t>& L = cur_lanes();
        const size_t n = L.size();
        std::vector<Datum>& dst = st->regs[ins.dst];
        dst.resize(n);
        src.Box(ins, prog);
        UdfArgs& args = st->udf_args;
        args.resize(ins.aux_count);
        const Datum* lit = ins.op == OpCode::kUdfCmpLit
                               ? &prog.literals[ins.b.index]
                               : nullptr;
        for (size_t i = 0; i < n; ++i) {
          for (uint16_t j = 0; j < ins.aux_count; ++j) {
            args[j] =
                &ReadOperand(prog.aux[ins.aux_begin + j], prog, src, *st, L, i);
          }
          ASSIGN_OR_RETURN(Datum v, (*ins.fn)(args));
          if (lit != nullptr) {
            dst[i] = eval_detail::CompareOp(ins.bop, v, *lit);
          } else {
            dst[i] = std::move(v);
          }
        }
        break;
      }
      case OpCode::kColBetweenLits: {
        const std::vector<uint32_t>& L = cur_lanes();
        const size_t n = L.size();
        std::vector<Datum>& dst = st->regs[ins.dst];
        dst.resize(n);
        const Datum& lo = prog.literals[ins.b.index];
        const Datum& hi = prog.literals[ins.c.index];
        const ColTag* tag = TagOf(src.batch, ins.a.index, n);
        if (tag != nullptr && TypedValBetween(ins, *tag, lo, hi, L, st)) {
          break;
        }
        src.Box(ins, prog);
        CountBoxedLanes(st, n);
        for (size_t i = 0; i < n; ++i) {
          const Datum& t = src.Col(ins.a.index, L[i]);
          Datum ge = eval_detail::CompareOp(BinaryOp::kGe, t, lo);
          Datum le = eval_detail::CompareOp(BinaryOp::kLe, t, hi);
          if (ge.is_null() || le.is_null()) {
            dst[i] = Datum::Null();
          } else {
            bool in_range = ge.bool_value() && le.bool_value();
            dst[i] = Datum::Bool(ins.negated ? !in_range : in_range);
          }
        }
        break;
      }
      case OpCode::kColIsNull: {
        const std::vector<uint32_t>& L = cur_lanes();
        const size_t n = L.size();
        std::vector<Datum>& dst = st->regs[ins.dst];
        dst.resize(n);
        if (const ColTag* tag = TagOf(src.batch, ins.a.index, n)) {
          typed::ValueIsNull(*tag, ins.negated, L, &dst);
          CountTypedLanes(st, n);
          SetRegTag(st, ins.dst, ColTag::Type::kBool);
          break;
        }
        src.Box(ins, prog);
        CountBoxedLanes(st, n);
        for (size_t i = 0; i < n; ++i) {
          bool null = src.Col(ins.a.index, L[i]).is_null();
          dst[i] = Datum::Bool(ins.negated ? !null : null);
        }
        break;
      }
      case OpCode::kBoolFork: {
        // Reserve the frame before binding the lane set: growing the frame
        // vector moves enclosing frames (and their lane vectors).
        if (st->frame_depth == st->frames.size()) st->frames.emplace_back();
        const std::vector<uint32_t>& L = cur_lanes();
        const size_t n = L.size();
        std::vector<Datum>& dst = st->regs[ins.dst];
        dst.resize(n);
        ExecState::Frame& f = st->frames[st->frame_depth];
        f.lanes.clear();
        f.pos.clear();
        f.lhs.clear();
        f.dst = ins.dst;
        f.is_and = ins.is_and;
        src.Box(ins, prog);
        for (size_t i = 0; i < n; ++i) {
          const Datum& l = ReadOperand(ins.a, prog, src, *st, L, i);
          if (!l.is_null() && l.is_bool() && l.bool_value() != ins.is_and) {
            dst[i] = Datum::Bool(!ins.is_and);  // false AND _, true OR _
          } else {
            f.lanes.push_back(L[i]);
            f.pos.push_back(static_cast<uint32_t>(i));
            f.lhs.push_back(l);
          }
        }
        if (f.lanes.empty()) {
          pc = ins.jump - 1;  // every lane decided: skip region and join
        } else {
          ++st->frame_depth;
        }
        break;
      }
      case OpCode::kBoolJoin: {
        ExecState::Frame& f = st->frames[st->frame_depth - 1];
        const std::vector<uint32_t>& L = f.lanes;
        std::vector<Datum>& dst = st->regs[ins.dst];
        src.Box(ins, prog);
        for (size_t k = 0; k < L.size(); ++k) {
          const Datum& r = ReadOperand(ins.a, prog, src, *st, L, k);
          const Datum& l = f.lhs[k];
          Datum& o = dst[f.pos[k]];
          if (!r.is_null() && r.is_bool() && r.bool_value() != ins.is_and) {
            o = Datum::Bool(!ins.is_and);
          } else if (l.is_null() || r.is_null()) {
            o = Datum::Null();
          } else if (!l.is_bool() || !r.is_bool()) {
            return Status::TypeError("AND/OR on non-boolean");
          } else {
            o = Datum::Bool(ins.is_and);
          }
        }
        --st->frame_depth;
        break;
      }
      case OpCode::kCompare: {
        const std::vector<uint32_t>& L = cur_lanes();
        const size_t n = L.size();
        std::vector<Datum>& dst = st->regs[ins.dst];
        dst.resize(n);
        if (TypedCompare(ins, prog, src.batch, L, st)) break;
        src.Box(ins, prog);
        CountBoxedLanes(st, n);
        for (size_t i = 0; i < n; ++i) {
          dst[i] = eval_detail::CompareOp(
              ins.bop, ReadOperand(ins.a, prog, src, *st, L, i),
              ReadOperand(ins.b, prog, src, *st, L, i));
        }
        break;
      }
      case OpCode::kArith: {
        const std::vector<uint32_t>& L = cur_lanes();
        const size_t n = L.size();
        std::vector<Datum>& dst = st->regs[ins.dst];
        dst.resize(n);
        Status typed_status = Status::OK();
        if (TypedArith(ins, prog, src.batch, L, st, &typed_status)) {
          RETURN_NOT_OK(typed_status);
          break;
        }
        src.Box(ins, prog);
        CountBoxedLanes(st, n);
        for (size_t i = 0; i < n; ++i) {
          ASSIGN_OR_RETURN(
              Datum v, eval_detail::ArithmeticOp(
                           ins.bop, ReadOperand(ins.a, prog, src, *st, L, i),
                           ReadOperand(ins.b, prog, src, *st, L, i)));
          dst[i] = std::move(v);
        }
        break;
      }
      case OpCode::kLike: {
        const std::vector<uint32_t>& L = cur_lanes();
        const size_t n = L.size();
        std::vector<Datum>& dst = st->regs[ins.dst];
        dst.resize(n);
        src.Box(ins, prog);
        for (size_t i = 0; i < n; ++i) {
          const Datum& l = ReadOperand(ins.a, prog, src, *st, L, i);
          const Datum& r = ReadOperand(ins.b, prog, src, *st, L, i);
          if (l.is_null() || r.is_null()) {
            dst[i] = Datum::Null();
          } else if (!l.is_text() || !r.is_text()) {
            return Status::TypeError("LIKE on non-text values");
          } else {
            dst[i] = Datum::Bool(LikeMatch(l.str(), r.str()));
          }
        }
        break;
      }
      case OpCode::kConcat: {
        const std::vector<uint32_t>& L = cur_lanes();
        const size_t n = L.size();
        std::vector<Datum>& dst = st->regs[ins.dst];
        dst.resize(n);
        src.Box(ins, prog);
        for (size_t i = 0; i < n; ++i) {
          const Datum& l = ReadOperand(ins.a, prog, src, *st, L, i);
          const Datum& r = ReadOperand(ins.b, prog, src, *st, L, i);
          dst[i] = l.is_null() || r.is_null()
                       ? Datum::Null()
                       : Datum::Text(l.ToString() + r.ToString());
        }
        break;
      }
      case OpCode::kNot: {
        const std::vector<uint32_t>& L = cur_lanes();
        const size_t n = L.size();
        std::vector<Datum>& dst = st->regs[ins.dst];
        dst.resize(n);
        src.Box(ins, prog);
        for (size_t i = 0; i < n; ++i) {
          const Datum& v = ReadOperand(ins.a, prog, src, *st, L, i);
          if (v.is_null()) {
            dst[i] = Datum::Null();
          } else if (!v.is_bool()) {
            return Status::TypeError("NOT on non-boolean");
          } else {
            dst[i] = Datum::Bool(!v.bool_value());
          }
        }
        break;
      }
      case OpCode::kNeg: {
        const std::vector<uint32_t>& L = cur_lanes();
        const size_t n = L.size();
        std::vector<Datum>& dst = st->regs[ins.dst];
        dst.resize(n);
        src.Box(ins, prog);
        for (size_t i = 0; i < n; ++i) {
          const Datum& v = ReadOperand(ins.a, prog, src, *st, L, i);
          if (v.is_null()) {
            dst[i] = Datum::Null();
          } else if (v.is_int()) {
            dst[i] = Datum::Int(-v.int_value());
          } else if (v.is_double()) {
            dst[i] = Datum::Double(-v.double_value());
          } else {
            return Status::TypeError("unary minus on non-numeric");
          }
        }
        break;
      }
      case OpCode::kBetween: {
        const std::vector<uint32_t>& L = cur_lanes();
        const size_t n = L.size();
        std::vector<Datum>& dst = st->regs[ins.dst];
        dst.resize(n);
        src.Box(ins, prog);
        for (size_t i = 0; i < n; ++i) {
          const Datum& t = ReadOperand(ins.a, prog, src, *st, L, i);
          Datum ge = eval_detail::CompareOp(
              BinaryOp::kGe, t, ReadOperand(ins.b, prog, src, *st, L, i));
          Datum le = eval_detail::CompareOp(
              BinaryOp::kLe, t, ReadOperand(ins.c, prog, src, *st, L, i));
          if (ge.is_null() || le.is_null()) {
            dst[i] = Datum::Null();
          } else {
            bool in_range = ge.bool_value() && le.bool_value();
            dst[i] = Datum::Bool(ins.negated ? !in_range : in_range);
          }
        }
        break;
      }
      case OpCode::kIsNull: {
        const std::vector<uint32_t>& L = cur_lanes();
        const size_t n = L.size();
        std::vector<Datum>& dst = st->regs[ins.dst];
        dst.resize(n);
        src.Box(ins, prog);
        for (size_t i = 0; i < n; ++i) {
          bool null = ReadOperand(ins.a, prog, src, *st, L, i).is_null();
          dst[i] = Datum::Bool(ins.negated ? !null : null);
        }
        break;
      }
      case OpCode::kInList: {
        const std::vector<uint32_t>& L = cur_lanes();
        const size_t n = L.size();
        std::vector<Datum>& dst = st->regs[ins.dst];
        dst.resize(n);
        src.Box(ins, prog);
        for (size_t i = 0; i < n; ++i) {
          const Datum& t = ReadOperand(ins.a, prog, src, *st, L, i);
          if (t.is_null()) {
            dst[i] = Datum::Null();
            continue;
          }
          bool matched = false, saw_null = false;
          for (uint16_t j = 0; j < ins.aux_count; ++j) {
            const Datum& item =
                ReadOperand(prog.aux[ins.aux_begin + j], prog, src, *st, L, i);
            Datum eq = eval_detail::CompareOp(BinaryOp::kEq, t, item);
            if (eq.is_null()) {
              saw_null = true;
            } else if (eq.bool_value()) {
              matched = true;
              break;
            }
          }
          if (matched) {
            dst[i] = Datum::Bool(!ins.negated);
          } else if (saw_null) {
            dst[i] = Datum::Null();
          } else {
            dst[i] = Datum::Bool(ins.negated);
          }
        }
        break;
      }
      case OpCode::kFallbackLane: {
        const std::vector<uint32_t>& L = cur_lanes();
        const size_t n = L.size();
        std::vector<Datum>& dst = st->regs[ins.dst];
        dst.resize(n);
        src.Box(ins, prog);
        CountFallbackLanes(st, n);
        DatumRow& scratch = st->scratch;
        scratch.resize(src.width());
        for (size_t i = 0; i < n; ++i) {
          for (uint32_t k = 0; k < ins.fb_slot_count; ++k) {
            const int s = ins.fb_slots[k];
            // Out-of-range slots stay uncopied; the scalar evaluator reports
            // them with its own error text.
            if (static_cast<size_t>(s) < scratch.size()) {
              scratch[s] = src.Col(static_cast<size_t>(s), L[i]);
            }
          }
          ASSIGN_OR_RETURN(Datum v, EvalExpr(*ins.fallback, scratch, udfs));
          dst[i] = std::move(v);
        }
        break;
      }
    }
    // A dst written by an untyped path loses any stale tag. This must run
    // *after* the instruction: the compiler's stack discipline routinely
    // reuses an operand register as dst, so clearing up front would erase an
    // operand's tag before the typed kernels could read it.
    if (!st->reg_tag_set && ins.dst < st->reg_tags.size()) {
      st->reg_tags[ins.dst].type = ColTag::Type::kUnknown;
    }
  }
  return Status::OK();
}

}  // namespace

std::shared_ptr<const Program> Compile(const Expr& expr, size_t input_width,
                                       const UdfRegistry* udfs) {
  static metrics::Counter* programs_total =
      metrics::GetCounter("bytecode.programs_total");
  static metrics::Counter* compile_ns_total =
      metrics::GetCounter("bytecode.compile_ns_total");
  const uint64_t start = metrics::NowNanos();
  std::shared_ptr<const Program> program =
      Compiler(input_width, udfs).Run(expr);
  if (program == nullptr) {
    program = Compiler(input_width, udfs).RunFallback(expr);
  }
  programs_total->Increment();
  compile_ns_total->Add(metrics::NowNanos() - start);
  return program;
}

Status ExecBatch(const Program& program, const RowBatch& batch,
                 const std::vector<uint32_t>& lanes, const UdfRegistry* udfs,
                 ExecState* state, std::vector<Datum>* out) {
  out->clear();
  BatchSrc src{&batch};
  RETURN_NOT_OK(RunProgram(program, src, lanes, udfs, state));
  const size_t n = lanes.size();
  if (program.result.is_reg()) {
    // The register holds exactly one datum per lane; hand the whole vector
    // over instead of moving datums one by one (the old contents of *out
    // become next call's register storage, keeping capacity warm).
    std::vector<Datum>& reg = state->regs[program.result.index];
    out->swap(reg);
  } else {
    src.Box(program.result);
    out->reserve(n);
    for (size_t i = 0; i < n; ++i) {
      out->push_back(
          ReadOperand(program.result, program, src, *state, lanes, i));
    }
  }
  return Status::OK();
}

Status ExecPredicateBatch(const Program& program, const RowBatch& batch,
                          const UdfRegistry* udfs, ExecState* state,
                          std::vector<uint32_t>* sel) {
  if (sel->empty()) return Status::OK();
  BatchSrc src{&batch};
  if (program.min_width > batch.num_cols()) {
    return Status::Internal("bytecode program compiled for wider input");
  }
  // Select mode: a single fused instruction refines the selection vector in
  // place — the dominant predicate shapes never materialize a boolean column.
  if (program.num_instrs == 1 && program.result.is_reg()) {
    const Instr& ins = program.instrs[0];
    switch (ins.op) {
      case OpCode::kColCmpLit: {
        const Datum& lit = program.literals[ins.b.index];
        if (const ColTag* tag = TagOf(&batch, ins.a.index, sel->size())) {
          if (TypedSelCmpLit(ins.bop, *tag, lit, state, sel)) {
            return Status::OK();
          }
        }
        const std::vector<Datum>& col = batch.Box(ins.a.index);
        CountBoxedLanes(state, sel->size());
        size_t kept = 0;
        for (uint32_t lane : *sel) {
          Datum v = eval_detail::CompareOp(ins.bop, col[lane], lit);
          if (!v.is_null() && v.bool_value()) (*sel)[kept++] = lane;
        }
        sel->resize(kept);
        return Status::OK();
      }
      case OpCode::kColBetweenLits: {
        const Datum& lo = program.literals[ins.b.index];
        const Datum& hi = program.literals[ins.c.index];
        if (const ColTag* tag = TagOf(&batch, ins.a.index, sel->size())) {
          if (TypedSelBetween(ins, *tag, lo, hi, state, sel)) {
            return Status::OK();
          }
        }
        const std::vector<Datum>& col = batch.Box(ins.a.index);
        CountBoxedLanes(state, sel->size());
        size_t kept = 0;
        for (uint32_t lane : *sel) {
          const Datum& t = col[lane];
          Datum ge = eval_detail::CompareOp(BinaryOp::kGe, t, lo);
          Datum le = eval_detail::CompareOp(BinaryOp::kLe, t, hi);
          if (ge.is_null() || le.is_null()) continue;
          bool in_range = ge.bool_value() && le.bool_value();
          if (ins.negated ? !in_range : in_range) (*sel)[kept++] = lane;
        }
        sel->resize(kept);
        return Status::OK();
      }
      case OpCode::kColIsNull: {
        if (const ColTag* tag = TagOf(&batch, ins.a.index, sel->size())) {
          const size_t n = sel->size();
          typed::SelectIsNull(*tag, ins.negated, sel);
          CountTypedLanes(state, n);
          return Status::OK();
        }
        const std::vector<Datum>& col = batch.Box(ins.a.index);
        CountBoxedLanes(state, sel->size());
        size_t kept = 0;
        for (uint32_t lane : *sel) {
          bool null = col[lane].is_null();
          if (ins.negated ? !null : null) (*sel)[kept++] = lane;
        }
        sel->resize(kept);
        return Status::OK();
      }
      case OpCode::kUdfCmpLit: {
        const Datum& lit = program.literals[ins.b.index];
        UdfArgs& args = state->udf_args;
        args.resize(ins.aux_count);
        src.Box(ins, program);
        size_t kept = 0;
        const size_t n = sel->size();
        for (size_t i = 0; i < n; ++i) {
          for (uint16_t j = 0; j < ins.aux_count; ++j) {
            args[j] = &ReadOperand(program.aux[ins.aux_begin + j], program,
                                   src, *state, *sel, i);
          }
          ASSIGN_OR_RETURN(Datum v, (*ins.fn)(args));
          Datum c = eval_detail::CompareOp(ins.bop, v, lit);
          if (!c.is_null() && c.bool_value()) (*sel)[kept++] = (*sel)[i];
        }
        sel->resize(kept);
        return Status::OK();
      }
      default:
        break;
    }
  }
  RETURN_NOT_OK(RunProgram(program, src, *sel, udfs, state));
  src.Box(program.result);
  size_t kept = 0;
  for (size_t i = 0; i < sel->size(); ++i) {
    const Datum& v =
        ReadOperand(program.result, program, src, *state, *sel, i);
    if (v.is_null()) continue;  // NULL filters, as in EvalPredicate
    if (!v.is_bool()) {
      return Status::TypeError("predicate did not evaluate to a boolean");
    }
    if (v.bool_value()) (*sel)[kept++] = (*sel)[i];
  }
  sel->resize(kept);
  return Status::OK();
}

}  // namespace sinew::engine::bytecode
