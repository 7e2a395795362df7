#include "engine/bytecode.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <unordered_set>

#include "common/metrics.h"
#include "common/str_util.h"
#include "engine/eval.h"
#include "engine/typed_kernels.h"

namespace sinew::engine::bytecode {

/// The literal items of a kInList, hashed so a lane probes them in O(1)
/// with its typed value. A probe's verdict is the one comparing it with
/// every item through eval_detail::CompareOp gives: ints equal ints exactly
/// and doubles as doubles (1 IN (1.0) holds), a NaN equals every number,
/// and on a miss a NULL item, or one of a kind the probe cannot be compared
/// with, makes the verdict NULL.
struct InSet {
  struct TextHash {
    using is_transparent = void;
    size_t operator()(std::string_view s) const {
      return std::hash<std::string_view>()(s);
    }
  };
  using TextSet = std::unordered_set<std::string, TextHash, std::equal_to<>>;

  std::unordered_set<int64_t> ints;
  std::unordered_set<double> ints_as_doubles;
  std::unordered_set<double> doubles;  // without NaN
  TextSet texts, bytes;
  bool has_nan = false, has_true = false, has_false = false;
  bool has_null = false;
  /// Non-NULL items, and how many of them compare with a probe of each
  /// kind: numbers, text, bytes and bools.
  uint32_t items = 0, numbers = 0, num_texts = 0, num_bytes = 0, bools = 0;

  explicit InSet(std::span<const ExprPtr> list) {
    for (const ExprPtr& item : list) {
      const Datum& d = item->literal;
      if (d.is_null()) {
        has_null = true;
        continue;
      }
      ++items;
      switch (d.kind()) {
        case Datum::Kind::kInt:
          ++numbers;
          ints.insert(d.int_value());
          ints_as_doubles.insert(static_cast<double>(d.int_value()));
          break;
        case Datum::Kind::kDouble:
          ++numbers;
          if (std::isnan(d.double_value())) {
            has_nan = true;
          } else {
            doubles.insert(d.double_value());
          }
          break;
        case Datum::Kind::kBool:
          ++bools;
          (d.bool_value() ? has_true : has_false) = true;
          break;
        case Datum::Kind::kText:
          ++num_texts;
          texts.emplace(d.str());
          break;
        default:  // kBytes
          ++num_bytes;
          bytes.emplace(d.str());
          break;
      }
    }
  }

  /// 1: some item equals the probe; 0: none does and every item compared;
  /// -1 (NULL): none does, and some item is NULL or could not be compared
  /// with a probe of whose kind `comparable` items are.
  int Verdict(bool hit, uint32_t comparable) const {
    if (hit) return 1;
    return has_null || comparable != items ? -1 : 0;
  }

  int Int(int64_t v) const {
    return Verdict(has_nan || ints.contains(v) ||
                       doubles.contains(static_cast<double>(v)),
                   numbers);
  }
  int Double(double v) const {
    if (std::isnan(v)) return Verdict(numbers != 0, numbers);
    return Verdict(has_nan || doubles.contains(v) ||
                       ints_as_doubles.contains(v),
                   numbers);
  }
  int Bool(bool v) const { return Verdict(v ? has_true : has_false, bools); }
  int Text(std::string_view v) const {
    return Verdict(texts.contains(v), num_texts);
  }
  int Bytes(std::string_view v) const {
    return Verdict(bytes.contains(v), num_bytes);
  }
  /// A non-NULL probe of any kind.
  int Probe(const Datum& d) const {
    switch (d.kind()) {
      case Datum::Kind::kInt: return Int(d.int_value());
      case Datum::Kind::kDouble: return Double(d.double_value());
      case Datum::Kind::kBool: return Bool(d.bool_value());
      case Datum::Kind::kText: return Text(d.str());
      default: return Bytes(d.str());
    }
  }
};

namespace {

/// Interning equality: exact kind + exact value. Doubles compare bit-exact
/// so 0.0 and -0.0 (distinct in rendering) keep separate pool entries, and
/// Int(1) never merges with Double(1.0) (distinct arithmetic semantics).
struct SameLiteral {
  bool operator()(const Datum& a, const Datum& b) const {
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
};

/// A hash over exactly SameLiteral's identity: the kind and the value's
/// bits or bytes (not Datum::Hash, whose ints collide past 2^53).
struct LiteralHash {
  size_t operator()(const Datum& d) const {
    uint64_t bits = 0;
    switch (d.kind()) {
      case Datum::Kind::kNull: break;
      case Datum::Kind::kBool: bits = d.bool_value(); break;
      case Datum::Kind::kInt:
        bits = static_cast<uint64_t>(d.int_value());
        break;
      case Datum::Kind::kDouble:
        bits = std::bit_cast<uint64_t>(d.double_value());
        break;
      case Datum::Kind::kText:
      case Datum::Kind::kBytes:
        bits = std::hash<std::string_view>()(d.str());
        break;
    }
    return std::hash<uint64_t>()(bits * 0x9e3779b97f4a7c15ull +
                                 static_cast<uint64_t>(d.kind()));
  }
};

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
/// into the col-cmp-lit shape the typed kernels serve.
BinaryOp FlipCompare(BinaryOp op) {
  switch (op) {
    case BinaryOp::kLt: return BinaryOp::kGt;
    case BinaryOp::kLe: return BinaryOp::kGe;
    case BinaryOp::kGt: return BinaryOp::kLt;
    case BinaryOp::kGe: return BinaryOp::kLe;
    default: return op;  // Eq / Ne are symmetric
  }
}

bool IsTrue(const Datum& v) { return v.is_bool() && v.bool_value(); }
bool IsFalse(const Datum& v) { return v.is_bool() && !v.bool_value(); }

/// Does a lane whose fork operand is `v` enter the region?
bool EntersRegion(ForkMode mode, const Datum& v) {
  switch (mode) {
    case ForkMode::kNonFalse: return !IsFalse(v);
    case ForkMode::kNonTrue:
    case ForkMode::kNotTrue: return !IsTrue(v);
    case ForkMode::kNull: return v.is_null();
    case ForkMode::kNonNull: return !v.is_null();
    case ForkMode::kTrue: return IsTrue(v);
  }
  return false;
}

bool IsKleene(ForkMode mode) {
  return mode == ForkMode::kNonFalse || mode == ForkMode::kNonTrue;
}

class Compiler {
 public:
  Compiler(size_t input_width, const UdfRegistry* udfs)
      : width_(input_width), udfs_(udfs), prog_(std::make_shared<Program>()) {}

  std::shared_ptr<const Program> Run(const Expr& expr) {
    const Operand result = CompileNode(expr);
    Arena& arena = prog_->arena;
    Instr* instrs =
        arena.AllocateArray<Instr>(std::max<size_t>(instrs_.size(), 1));
    std::copy(instrs_.begin(), instrs_.end(), instrs);
    Operand* aux =
        arena.AllocateArray<Operand>(std::max<size_t>(aux_.size(), 1));
    std::copy(aux_.begin(), aux_.end(), aux);
    Datum* literals =
        arena.CreateArray<Datum>(std::max<size_t>(literals_.size(), 1));
    std::copy(literals_.begin(), literals_.end(), literals);
    ParamRef* params =
        arena.AllocateArray<ParamRef>(std::max<size_t>(params_.size(), 1));
    std::copy(params_.begin(), params_.end(), params);
    prog_->instrs = instrs;
    prog_->num_instrs = static_cast<uint32_t>(instrs_.size());
    prog_->aux = aux;
    prog_->literals = literals;
    prog_->num_literals = static_cast<uint32_t>(literals_.size());
    prog_->params = params;
    prog_->num_params = static_cast<uint32_t>(params_.size());
    prog_->num_regs = num_regs_;
    prog_->result = result;
    prog_->min_width = static_cast<uint32_t>(width_);
    return std::move(prog_);
  }

 private:
  static Operand Reg(uint32_t index) {
    return Operand{Operand::Kind::kReg, index};
  }

  /// Result register with stack discipline: consumed register operands are
  /// the top of the virtual stack; the result reuses the lowest of them (or
  /// a fresh register when all operands are columns/literals), and
  /// everything above is freed.
  uint32_t AllocResult(const Operand* consumed, size_t n) {
    uint32_t lowest = next_reg_;
    for (size_t i = 0; i < n; ++i) {
      if (consumed[i].is_reg() && consumed[i].index < lowest) {
        lowest = consumed[i].index;
      }
    }
    next_reg_ = lowest + 1;
    num_regs_ = std::max(num_regs_, next_reg_);
    return lowest;
  }
  uint32_t AllocResult(std::initializer_list<Operand> consumed) {
    return AllocResult(consumed.begin(), consumed.size());
  }

  Operand Emit(Instr ins, std::initializer_list<Operand> consumed) {
    ins.dst = AllocResult(consumed);
    instrs_.push_back(ins);
    return Reg(ins.dst);
  }

  Operand Literal(const Datum& d) {
    const auto [it, added] = literal_index_.try_emplace(
        d, static_cast<uint32_t>(literals_.size()));
    if (added) literals_.push_back(d);
    return Operand{Operand::Kind::kLit, it->second};
  }

  /// A parameter slot: a pool entry of its own, holding the planned value,
  /// shared only by other references to the same slot.
  Operand Param(const Expr& e) {
    const auto slot = static_cast<uint32_t>(e.param);
    for (const ParamRef& p : params_) {
      if (p.slot == slot) return Operand{Operand::Kind::kLit, p.literal};
    }
    const auto index = static_cast<uint32_t>(literals_.size());
    literals_.push_back(e.literal);
    params_.push_back(ParamRef{index, slot});
    return Operand{Operand::Kind::kLit, index};
  }

  /// A shape with no instruction form fails, with the scalar evaluator's
  /// status, wherever the scalar evaluator would reach it.
  Operand Raise(Status status) {
    Instr ins;
    ins.op = OpCode::kRaise;
    ins.error = prog_->arena.Create<Status>(std::move(status));
    return Emit(ins, {});
  }

  Operand Compare(BinaryOp bop, Operand lhs, Operand rhs,
                  std::initializer_list<Operand> consumed) {
    Instr ins;
    ins.op = OpCode::kCompare;
    ins.bop = bop;
    ins.a = lhs;
    ins.b = rhs;
    if (lhs.is_lit() && rhs.is_col()) {
      ins.bop = FlipCompare(bop);
      ins.a = rhs;
      ins.b = lhs;
    }
    return Emit(ins, consumed);
  }

  /// kFork on `cond` into `dst`, the region `body` compiles over the lanes
  /// the fork selects, and the matching kJoin. The region's registers sit
  /// above every live register, so outer values survive it. A region reads
  /// no register of the enclosing lane set: `carry`, when it is a register,
  /// is gathered into a region register, and `body` receives the operand to
  /// read it through.
  template <typename Body>
  Operand Region(ForkMode mode, Operand cond, uint32_t dst, Operand carry,
                 Body&& body) {
    const uint32_t outer_top = next_reg_;
    Instr fork;
    fork.op = OpCode::kFork;
    fork.fork = mode;
    fork.a = cond;
    fork.dst = dst;
    if (carry.is_reg()) {
      fork.c = carry;
      fork.b = Reg(AllocResult({}));
      carry = fork.b;
    }
    const size_t fork_pc = instrs_.size();
    instrs_.push_back(fork);
    Instr join;
    join.op = OpCode::kJoin;
    join.fork = mode;
    join.a = body(carry);
    join.dst = dst;
    instrs_.push_back(join);
    instrs_[fork_pc].jump = static_cast<uint32_t>(instrs_.size());
    next_reg_ = outer_top;
    return Reg(dst);
  }

  /// CASE from WHEN arm `i` on: the THEN value over the lanes where the
  /// condition is TRUE, the rest of the CASE over the others.
  Operand CaseFrom(const Expr& e, size_t i) {
    if (i + 1 >= e.args.size()) {
      return i < e.args.size() ? CompileNode(*e.args[i])
                               : Literal(Datum::Null());
    }
    const uint32_t dst = AllocResult({});
    const Operand cond = CompileNode(*e.args[i]);
    Region(ForkMode::kTrue, cond, dst, {},
           [&](Operand) { return CompileNode(*e.args[i + 1]); });
    Region(ForkMode::kNotTrue, cond, dst, {},
           [&](Operand) { return CaseFrom(e, i + 2); });
    next_reg_ = dst + 1;
    return Reg(dst);
  }

  /// COALESCE from argument `i` on: the next argument runs only over the
  /// lanes where this one is NULL.
  Operand CoalesceFrom(const Expr& e, size_t i) {
    if (i >= e.args.size()) return Literal(Datum::Null());
    const Operand first = CompileNode(*e.args[i]);
    if (i + 1 == e.args.size()) return first;
    return Region(ForkMode::kNull, first, AllocResult({first}), {},
                  [&](Operand) { return CoalesceFrom(e, i + 1); });
  }

  /// `probe = item_i OR probe = item_i+1 ...`: each item runs only over the
  /// lanes no earlier item matched. The probe stays live across the chain.
  Operand InChain(const Expr& e, size_t i, Operand probe) {
    const Operand item = CompileNode(*e.args[i]);
    const Operand hit = Compare(BinaryOp::kEq, probe, item, {item});
    if (i + 1 == e.args.size()) return hit;
    return Region(ForkMode::kNonTrue, hit, hit.index, probe,
                  [&](Operand p) { return InChain(e, i + 1, p); });
  }

  Operand CompileInList(const Expr& e) {
    const Operand probe = CompileNode(*e.args[0]);
    const bool literal_items =
        std::all_of(e.args.begin() + 1, e.args.end(), [](const ExprPtr& a) {
          return a->kind == ExprKind::kLiteral && a->param < 0;
        });
    if (literal_items) {
      Instr ins;
      ins.op = OpCode::kInList;
      ins.a = probe;
      ins.negated = e.negated;
      ins.in_set = prog_->arena.Create<InSet>(
          std::span<const ExprPtr>(e.args).subspan(1));
      return Emit(ins, {probe});
    }
    // Computed items run lazily, in list order, over non-NULL probes only;
    // the OR chain is Kleene, so a NULL comparison without a match is NULL.
    const Operand in = Region(
        ForkMode::kNonNull, probe, AllocResult({probe}), probe,
        [&](Operand p) { return InChain(e, 1, p); });
    if (!e.negated) return in;
    Instr ins;
    ins.op = OpCode::kNot;
    ins.a = in;
    return Emit(ins, {in});
  }

  Operand CompileFunction(const Expr& e) {
    if (e.fname == "coalesce") return CoalesceFrom(e, 0);
    if (e.IsAggregateCall()) {
      return Raise(Status::Internal("aggregate ", e.fname,
                                    " reached the scalar evaluator"));
    }
    if (udfs_ == nullptr) {
      return Raise(Status::NotFound("no UDF registry for function ", e.fname));
    }
    const UdfFn* fn = udfs_->Find(e.fname);
    if (fn == nullptr) {
      return Raise(Status::NotFound("unknown function ", e.fname));
    }
    std::vector<Operand> args;
    args.reserve(e.args.size());
    for (const ExprPtr& arg : e.args) args.push_back(CompileNode(*arg));
    Instr ins;
    ins.op = OpCode::kCallUdf;
    ins.fn = fn;
    ins.aux_begin = static_cast<uint32_t>(aux_.size());
    ins.aux_count = static_cast<uint32_t>(args.size());
    aux_.insert(aux_.end(), args.begin(), args.end());
    ins.dst = AllocResult(args.data(), args.size());
    instrs_.push_back(ins);
    return Reg(ins.dst);
  }

  Operand CompileBinary(const Expr& e) {
    if (e.bop == BinaryOp::kAnd || e.bop == BinaryOp::kOr) {
      const Operand lhs = CompileNode(*e.args[0]);
      return Region(
          e.bop == BinaryOp::kAnd ? ForkMode::kNonFalse : ForkMode::kNonTrue,
          lhs, AllocResult({lhs}), {},
          [&](Operand) { return CompileNode(*e.args[1]); });
    }
    const Operand lhs = CompileNode(*e.args[0]);
    const Operand rhs = CompileNode(*e.args[1]);
    if (IsCompareBop(e.bop)) {
      // Peephole: a comparison of a UDF's value with a literal consumes the
      // value where it is produced — extract-then-compare is one opcode.
      const Operand& call = lhs.is_lit() ? rhs : lhs;
      const Operand& lit = lhs.is_lit() ? lhs : rhs;
      if (lit.is_lit() && call.is_reg() && !instrs_.empty() &&
          instrs_.back().op == OpCode::kCallUdf &&
          instrs_.back().dst == call.index) {
        Instr& udf = instrs_.back();
        udf.op = OpCode::kUdfCmpLit;
        udf.bop = lhs.is_lit() ? FlipCompare(e.bop) : e.bop;
        udf.b = lit;
        return call;
      }
      return Compare(e.bop, lhs, rhs, {lhs, rhs});
    }
    Instr ins;
    ins.bop = e.bop;
    ins.a = lhs;
    ins.b = rhs;
    if (IsArithBop(e.bop)) {
      ins.op = OpCode::kArith;
    } else if (e.bop == BinaryOp::kLike) {
      ins.op = OpCode::kLike;
    } else if (e.bop == BinaryOp::kConcat) {
      ins.op = OpCode::kConcat;
    } else {
      return Raise(Status::Internal("unhandled binary op"));
    }
    return Emit(ins, {lhs, rhs});
  }

  Operand CompileNode(const Expr& e) {
    switch (e.kind) {
      case ExprKind::kLiteral:
        return e.param >= 0 ? Param(e) : Literal(e.literal);
      case ExprKind::kColumnRef:
        if (e.bound_slot < 0 || static_cast<size_t>(e.bound_slot) >= width_) {
          return Raise(Status::Internal("unbound column reference ", e.column));
        }
        return Operand{Operand::Kind::kCol,
                       static_cast<uint32_t>(e.bound_slot)};
      case ExprKind::kStar:
        return Raise(Status::Internal("star expression reached the evaluator"));
      case ExprKind::kUnary: {
        const Operand v = CompileNode(*e.args[0]);
        Instr ins;
        ins.op = e.uop == UnaryOp::kNot ? OpCode::kNot : OpCode::kNeg;
        ins.a = v;
        return Emit(ins, {v});
      }
      case ExprKind::kBinary:
        return CompileBinary(e);
      case ExprKind::kBetween: {
        const Operand t = CompileNode(*e.args[0]);
        const Operand lo = CompileNode(*e.args[1]);
        const Operand hi = CompileNode(*e.args[2]);
        Instr ins;
        ins.op = OpCode::kBetween;
        ins.a = t;
        ins.b = lo;
        ins.c = hi;
        ins.negated = e.negated;
        return Emit(ins, {t, lo, hi});
      }
      case ExprKind::kInList:
        return CompileInList(e);
      case ExprKind::kIsNull: {
        const Operand v = CompileNode(*e.args[0]);
        Instr ins;
        ins.op = OpCode::kIsNull;
        ins.a = v;
        ins.negated = e.negated;
        return Emit(ins, {v});
      }
      case ExprKind::kFunction:
        return CompileFunction(e);
      case ExprKind::kCase:
        return CaseFrom(e, 0);
      case ExprKind::kVirtual:
        // The planner hoists every virtual column into its scan when a
        // batch extractor is registered; without one, reading it fails.
        return Raise(Status::NotFound("no batch extractor for virtual column ",
                                      e.column));
    }
    return Raise(Status::Internal("unreachable expression kind"));
  }

  size_t width_;
  const UdfRegistry* udfs_;
  std::shared_ptr<Program> prog_;  // owns the arena kRaise statuses live in
  std::vector<Instr> instrs_;
  std::vector<Operand> aux_;
  std::vector<Datum> literals_;
  // Pool index of each interned literal.
  std::unordered_map<Datum, uint32_t, LiteralHash, SameLiteral> literal_index_;
  std::vector<ParamRef> params_;
  uint32_t next_reg_ = 0;
  uint32_t num_regs_ = 0;
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
  /// Boxes every column an instruction reads: a, b, c and its aux
  /// arguments.
  void Box(const Instr& ins, const Program& prog) const {
    Box(ins.a);
    Box(ins.b);
    Box(ins.c);
    for (uint32_t j = 0; j < ins.aux_count; ++j) {
      Box(prog.aux[ins.aux_begin + j]);
    }
  }
};

const Datum& ReadOperand(const Operand& op, const BatchSrc& src,
                         const ExecState& st,
                         const std::vector<uint32_t>& lanes, size_t i) {
  switch (op.kind) {
    case Operand::Kind::kReg: return st.regs[op.index][i];
    case Operand::Kind::kCol: return src.Col(op.index, lanes[i]);
    default: return st.lits[op.index];
  }
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
const ColTag* TagOf(const RowBatch* batch, uint32_t slot, size_t num_lanes) {
  if (batch == nullptr) return nullptr;
  if (slot >= batch->cols.size()) return nullptr;
  if (const ColTag* t = batch->TagFor(slot)) return t->typed() ? t : nullptr;
  if (num_lanes * 2 < batch->size) return nullptr;
  const ColTag* t = batch->ProfileColumn(slot);
  return t != nullptr && t->typed() ? t : nullptr;
}

void SetRegTag(ExecState* st, uint32_t reg, ColTag::Type type) {
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
int ResolveNum(const Operand& op, const RowBatch* batch, ExecState* st,
               size_t num_lanes, NumSrc* out) {
  switch (op.kind) {
    case Operand::Kind::kLit: {
      const Datum& lit = st->lits[op.index];
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
bool TypedCompare(const Instr& ins, const RowBatch* batch,
                  const std::vector<uint32_t>& lanes, ExecState* st) {
  NumSrc a, b;
  const int ra = ResolveNum(ins.a, batch, st, lanes.size(), &a);
  const int rb = ResolveNum(ins.b, batch, st, lanes.size(), &b);
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
/// int64, anything else promotes to double; each lane applies the same
/// eval_detail rule as the boxed path, so faults carry its exact texts.
/// Which lane's error surfaces first is the one permitted deviation.
bool TypedArith(const Instr& ins, const RowBatch* batch,
                const std::vector<uint32_t>& lanes, ExecState* st,
                Status* status) {
  NumSrc a, b;
  const int ra = ResolveNum(ins.a, batch, st, lanes.size(), &a);
  const int rb = ResolveNum(ins.b, batch, st, lanes.size(), &b);
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
      int64_t x, y, v;
      if (!FetchInt(a, lanes, i, &x) || !FetchInt(b, lanes, i, &y)) {
        dst[i] = Datum::Null();
        continue;
      }
      const eval_detail::ArithFault fault =
          eval_detail::IntArith(ins.bop, x, y, &v);
      if (fault != eval_detail::ArithFault::kNone) {
        *status = eval_detail::ArithFaultStatus(fault);
        return true;
      }
      dst[i] = Datum::Int(v);
    }
  } else {
    for (size_t i = 0; i < n; ++i) {
      double x, y, v;
      if (!FetchDouble(a, lanes, i, &x) || !FetchDouble(b, lanes, i, &y)) {
        dst[i] = Datum::Null();
        continue;
      }
      const eval_detail::ArithFault fault =
          eval_detail::DoubleArith(ins.bop, x, y, &v);
      if (fault != eval_detail::ArithFault::kNone) {
        *status = eval_detail::ArithFaultStatus(fault);
        return true;
      }
      dst[i] = Datum::Double(v);
    }
  }
  CountTypedLanes(st, n);
  SetRegTag(st, ins.dst, as_int ? ColTag::Type::kInt : ColTag::Type::kDouble);
  return true;
}

/// Points st->lits at the literal pool `prog` runs with: its own, or, when
/// it has parameter slots, st->bound — rebuilt only when another program
/// ran in between.
void BindLiterals(const Program& prog, ExecState* st) {
  if (prog.num_params == 0) {
    st->lits = prog.literals;
    return;
  }
  if (st->bound_program != &prog) {
    st->bound.assign(prog.literals, prog.literals + prog.num_literals);
    if (st->params != nullptr) {
      for (uint32_t i = 0; i < prog.num_params; ++i) {
        const ParamRef& p = prog.params[i];
        if (p.slot < st->params->size()) {
          st->bound[p.literal] = (*st->params)[p.slot];
        }
      }
    }
    st->bound_program = &prog;
  }
  st->lits = st->bound.data();
}

/// The switch loop: executes every instruction over the current lane set,
/// leaving per-lane values in registers. kFork narrows the lane set to a
/// region's lanes (frame stack); the matching kJoin restores it.
Status RunProgram(const Program& prog, const BatchSrc& src,
                  const std::vector<uint32_t>& lanes_in, ExecState* st) {
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
      case OpCode::kUdfCmpLit:
      case OpCode::kCallUdf: {
        const std::vector<uint32_t>& L = cur_lanes();
        const size_t n = L.size();
        src.Box(ins, prog);
        UdfArgs& args = st->udf_args;
        args.resize(ins.aux_count);
        const Datum* lit = ins.op == OpCode::kUdfCmpLit
                               ? &st->lits[ins.b.index]
                               : nullptr;
        // dst may be an argument register: lane i's value replaces lane
        // i's argument only after the call has read it.
        std::vector<Datum>& dst = st->regs[ins.dst];
        dst.resize(n);
        for (size_t i = 0; i < n; ++i) {
          for (uint32_t j = 0; j < ins.aux_count; ++j) {
            args[j] =
                &ReadOperand(prog.aux[ins.aux_begin + j], src, *st, L, i);
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
      case OpCode::kFork: {
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
        src.Box(ins, prog);
        const bool kleene = IsKleene(ins.fork);
        const bool copy_out = ins.fork != ForkMode::kTrue &&
                              ins.fork != ForkMode::kNotTrue &&
                              !(ins.a.is_reg() && ins.a.index == ins.dst);
        std::vector<Datum>* carry =
            ins.b.is_reg() ? &st->regs[ins.b.index] : nullptr;
        if (carry != nullptr) carry->clear();
        for (size_t i = 0; i < n; ++i) {
          const Datum& v = ReadOperand(ins.a, src, *st, L, i);
          if (EntersRegion(ins.fork, v)) {
            f.lanes.push_back(L[i]);
            f.pos.push_back(static_cast<uint32_t>(i));
            if (kleene) f.lhs.push_back(v);
            if (carry != nullptr) {
              carry->push_back(ReadOperand(ins.c, src, *st, L, i));
            }
          } else if (copy_out) {
            dst[i] = v;
          }
        }
        if (carry != nullptr) {
          st->reg_tags[ins.b.index] = st->reg_tags[ins.c.index];
        }
        if (f.lanes.empty()) {
          pc = ins.jump - 1;  // no lane enters: skip region and join
        } else {
          ++st->frame_depth;
        }
        break;
      }
      case OpCode::kJoin: {
        ExecState::Frame& f = st->frames[st->frame_depth - 1];
        const std::vector<uint32_t>& L = f.lanes;
        std::vector<Datum>& dst = st->regs[ins.dst];
        src.Box(ins, prog);
        if (!IsKleene(ins.fork)) {
          if (ins.a.is_reg()) {
            std::vector<Datum>& value = st->regs[ins.a.index];
            for (size_t k = 0; k < L.size(); ++k) {
              dst[f.pos[k]] = std::move(value[k]);
            }
          } else {
            for (size_t k = 0; k < L.size(); ++k) {
              dst[f.pos[k]] = ReadOperand(ins.a, src, *st, L, k);
            }
          }
          --st->frame_depth;
          break;
        }
        const bool is_and = ins.fork == ForkMode::kNonFalse;
        for (size_t k = 0; k < L.size(); ++k) {
          const Datum& r = ReadOperand(ins.a, src, *st, L, k);
          const Datum& l = f.lhs[k];
          Datum& o = dst[f.pos[k]];
          if (is_and ? IsFalse(r) : IsTrue(r)) {
            o = Datum::Bool(!is_and);
          } else if (l.is_null() || r.is_null()) {
            o = Datum::Null();
          } else if (!l.is_bool() || !r.is_bool()) {
            return Status::TypeError("AND/OR on non-boolean");
          } else {
            o = Datum::Bool(is_and);
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
        if (ins.a.is_col() && ins.b.is_lit()) {
          const ColTag* tag = TagOf(src.batch, ins.a.index, n);
          if (tag != nullptr &&
              TypedValCmpLit(ins, *tag, st->lits[ins.b.index], L, st)) {
            break;
          }
        } else if (TypedCompare(ins, src.batch, L, st)) {
          break;
        }
        src.Box(ins, prog);
        CountBoxedLanes(st, n);
        for (size_t i = 0; i < n; ++i) {
          dst[i] = eval_detail::CompareOp(
              ins.bop, ReadOperand(ins.a, src, *st, L, i),
              ReadOperand(ins.b, src, *st, L, i));
        }
        break;
      }
      case OpCode::kArith: {
        const std::vector<uint32_t>& L = cur_lanes();
        const size_t n = L.size();
        std::vector<Datum>& dst = st->regs[ins.dst];
        dst.resize(n);
        Status typed_status = Status::OK();
        if (TypedArith(ins, src.batch, L, st, &typed_status)) {
          RETURN_NOT_OK(typed_status);
          break;
        }
        src.Box(ins, prog);
        CountBoxedLanes(st, n);
        for (size_t i = 0; i < n; ++i) {
          ASSIGN_OR_RETURN(
              Datum v, eval_detail::ArithmeticOp(
                           ins.bop, ReadOperand(ins.a, src, *st, L, i),
                           ReadOperand(ins.b, src, *st, L, i)));
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
          const Datum& l = ReadOperand(ins.a, src, *st, L, i);
          const Datum& r = ReadOperand(ins.b, src, *st, L, i);
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
          const Datum& l = ReadOperand(ins.a, src, *st, L, i);
          const Datum& r = ReadOperand(ins.b, src, *st, L, i);
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
          const Datum& v = ReadOperand(ins.a, src, *st, L, i);
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
          ASSIGN_OR_RETURN(dst[i], eval_detail::NegateOp(
                                       ReadOperand(ins.a, src, *st, L, i)));
        }
        break;
      }
      case OpCode::kBetween: {
        const std::vector<uint32_t>& L = cur_lanes();
        const size_t n = L.size();
        std::vector<Datum>& dst = st->regs[ins.dst];
        dst.resize(n);
        if (ins.a.is_col() && ins.b.is_lit() && ins.c.is_lit()) {
          const ColTag* tag = TagOf(src.batch, ins.a.index, n);
          if (tag != nullptr &&
              TypedValBetween(ins, *tag, st->lits[ins.b.index],
                              st->lits[ins.c.index], L, st)) {
            break;
          }
          CountBoxedLanes(st, n);
        }
        src.Box(ins, prog);
        for (size_t i = 0; i < n; ++i) {
          const Datum& t = ReadOperand(ins.a, src, *st, L, i);
          Datum ge = eval_detail::CompareOp(
              BinaryOp::kGe, t, ReadOperand(ins.b, src, *st, L, i));
          Datum le = eval_detail::CompareOp(
              BinaryOp::kLe, t, ReadOperand(ins.c, src, *st, L, i));
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
        if (ins.a.is_col()) {
          if (const ColTag* tag = TagOf(src.batch, ins.a.index, n)) {
            typed::ValueIsNull(*tag, ins.negated, L, &dst);
            CountTypedLanes(st, n);
            SetRegTag(st, ins.dst, ColTag::Type::kBool);
            break;
          }
          CountBoxedLanes(st, n);
        }
        src.Box(ins, prog);
        for (size_t i = 0; i < n; ++i) {
          bool null = ReadOperand(ins.a, src, *st, L, i).is_null();
          dst[i] = Datum::Bool(ins.negated ? !null : null);
        }
        break;
      }
      case OpCode::kInList: {
        const std::vector<uint32_t>& L = cur_lanes();
        const size_t n = L.size();
        std::vector<Datum>& dst = st->regs[ins.dst];
        dst.resize(n);
        const InSet& set = *ins.in_set;
        auto put = [&dst, negated = ins.negated](size_t i, int verdict) {
          dst[i] = verdict < 0 ? Datum::Null()
                               : Datum::Bool((verdict > 0) != negated);
        };
        // A typed column probes with its raw values, no Datum per lane.
        const ColTag* tag =
            ins.a.is_col() ? TagOf(src.batch, ins.a.index, n) : nullptr;
        if (tag != nullptr) {
          auto probe = [&](auto verdict_of) {
            for (size_t i = 0; i < n; ++i) {
              if (tag->IsNull(L[i])) {
                dst[i] = Datum::Null();
              } else {
                put(i, verdict_of(L[i]));
              }
            }
          };
          switch (tag->type) {
            case ColTag::Type::kInt:
              probe([&](uint32_t r) { return set.Int(tag->ints[r]); });
              break;
            case ColTag::Type::kDouble:
              probe([&](uint32_t r) { return set.Double(tag->doubles[r]); });
              break;
            case ColTag::Type::kBool:
              probe([&](uint32_t r) { return set.Bool(tag->bools[r] != 0); });
              break;
            default:  // kText
              probe([&](uint32_t r) { return set.Text(tag->views[r]); });
              break;
          }
          break;
        }
        src.Box(ins, prog);
        for (size_t i = 0; i < n; ++i) {
          const Datum& t = ReadOperand(ins.a, src, *st, L, i);
          if (t.is_null()) {
            dst[i] = Datum::Null();
          } else {
            put(i, set.Probe(t));
          }
        }
        break;
      }
      case OpCode::kRaise:
        st->regs[ins.dst].clear();
        if (!cur_lanes().empty()) return *ins.error;
        break;
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
  programs_total->Increment();
  compile_ns_total->Add(metrics::NowNanos() - start);
  return program;
}

Status ExecBatch(const Program& program, const RowBatch& batch,
                 const std::vector<uint32_t>& lanes, ExecState* state,
                 std::vector<Datum>* out) {
  out->clear();
  BindLiterals(program, state);
  BatchSrc src{&batch};
  RETURN_NOT_OK(RunProgram(program, src, lanes, state));
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
          ReadOperand(program.result, src, *state, lanes, i));
    }
  }
  return Status::OK();
}

Status ExecPredicateBatch(const Program& program, const RowBatch& batch,
                          ExecState* state, std::vector<uint32_t>* sel) {
  if (sel->empty()) return Status::OK();
  BindLiterals(program, state);
  BatchSrc src{&batch};
  if (program.min_width > batch.num_cols()) {
    return Status::Internal("bytecode program compiled for wider input");
  }
  // Select mode: a single instruction over a column and literals (or a
  // kUdfCmpLit) refines the selection vector in place, typed when the
  // column's tag proves it, boxed otherwise — the dominant predicate shapes
  // never materialize a boolean column.
  if (program.num_instrs == 1 && program.result.is_reg()) {
    const Instr& ins = program.instrs[0];
    const Datum* lits = state->lits;
    switch (ins.op) {
      case OpCode::kCompare: {
        if (!ins.a.is_col() || !ins.b.is_lit()) break;
        const Datum& lit = lits[ins.b.index];
        if (const ColTag* tag = TagOf(&batch, ins.a.index, sel->size())) {
          if (TypedSelCmpLit(ins.bop, *tag, lit, state, sel)) {
            return Status::OK();
          }
        }
        const std::vector<Datum>& col = batch.Box(ins.a.index);
        CountBoxedLanes(state, sel->size());
        size_t kept = 0;
        for (uint32_t lane : *sel) {
          if (IsTrue(eval_detail::CompareOp(ins.bop, col[lane], lit))) {
            (*sel)[kept++] = lane;
          }
        }
        sel->resize(kept);
        return Status::OK();
      }
      case OpCode::kBetween: {
        if (!ins.a.is_col() || !ins.b.is_lit() || !ins.c.is_lit()) break;
        const Datum& lo = lits[ins.b.index];
        const Datum& hi = lits[ins.c.index];
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
      case OpCode::kIsNull: {
        if (!ins.a.is_col()) break;
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
        // A single instruction has no register inputs: every argument is a
        // column or a literal.
        const Datum& lit = lits[ins.b.index];
        UdfArgs& args = state->udf_args;
        args.resize(ins.aux_count);
        src.Box(ins, program);
        size_t kept = 0;
        const size_t n = sel->size();
        for (size_t i = 0; i < n; ++i) {
          for (uint32_t j = 0; j < ins.aux_count; ++j) {
            args[j] = &ReadOperand(program.aux[ins.aux_begin + j], src,
                                   *state, *sel, i);
          }
          ASSIGN_OR_RETURN(Datum v, (*ins.fn)(args));
          if (IsTrue(eval_detail::CompareOp(ins.bop, v, lit))) {
            (*sel)[kept++] = (*sel)[i];
          }
        }
        sel->resize(kept);
        return Status::OK();
      }
      default:
        break;
    }
  }
  RETURN_NOT_OK(RunProgram(program, src, *sel, state));
  src.Box(program.result);
  size_t kept = 0;
  for (size_t i = 0; i < sel->size(); ++i) {
    const Datum& v =
        ReadOperand(program.result, src, *state, *sel, i);
    if (v.is_null()) continue;  // NULL filters
    if (!v.is_bool()) {
      return Status::TypeError("predicate did not evaluate to a boolean");
    }
    if (v.bool_value()) (*sel)[kept++] = (*sel)[i];
  }
  sel->resize(kept);
  return Status::OK();
}

Result<Datum> EvalConstant(const Expr& expr, const UdfRegistry* udfs) {
  // A column-free program over one lane of a batch with no columns: a
  // column reference compiles to kRaise, which fails on that lane with the
  // unbound-reference status.
  const std::shared_ptr<const Program> program =
      Compiler(/*input_width=*/0, udfs).Run(expr);
  RowBatch batch;
  batch.size = 1;
  batch.sel = {0};
  ExecState state;
  std::vector<Datum> out;
  RETURN_NOT_OK(ExecBatch(*program, batch, batch.sel, &state, &out));
  return std::move(out[0]);
}

}  // namespace sinew::engine::bytecode
