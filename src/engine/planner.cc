#include "engine/planner.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <set>
#include <unordered_map>

#include "common/metrics.h"
#include "common/value.h"
#include "engine/bytecode.h"
#include "engine/columnar.h"
#include "engine/eval.h"

namespace sinew::engine {

namespace {

/// Name prefix of the virtual columns the extraction hoist gives scans.
constexpr std::string_view kVirtualColumnPrefix = "$x";

/// Total order on the bound kVirtual references of one scan: by each
/// source's scan position, then the targets read from it. A one-source,
/// one-variant reference sorts like its target, in the BatchExtractFn
/// order. Zero means the two resolve identically and share one column.
std::strong_ordering CompareVirtual(const Expr& a, const Expr& b) {
  for (size_t i = 0; i < a.args.size() && i < b.args.size(); ++i) {
    if (auto c = a.args[i]->bound_slot <=> b.args[i]->bound_slot; c != 0) {
      return c;
    }
    if (auto c = (*a.virtual_sources)[i] <=> (*b.virtual_sources)[i];
        c != 0) {
      return c;
    }
  }
  return a.args.size() <=> b.args.size();
}

bool IsVirtualColumnRef(const Expr& e) {
  return e.kind == ExprKind::kColumnRef && e.table.empty() &&
         e.column.starts_with(kVirtualColumnPrefix);
}

/// True if the optimizer has no statistics for `e`: it calls a UDF or reads
/// a virtual column, hoisted into a scan or not — hoisting never moves a
/// cost estimate.
bool IsOpaque(const Expr& e) {
  if (IsVirtualColumnRef(e) || e.kind == ExprKind::kVirtual) return true;
  if (e.kind == ExprKind::kFunction && !e.IsAggregateCall()) return true;
  return std::any_of(e.args.begin(), e.args.end(),
                     [](const ExprPtr& a) { return IsOpaque(*a); });
}

/// Fraction of non-null values strictly below x, from an equi-depth
/// histogram.
double FractionBelow(const ColumnStats& stats, double x) {
  const std::vector<double>& h = stats.histogram;
  if (h.size() >= 2) {
    if (x <= h.front()) return 0.0;
    if (x >= h.back()) return 1.0;
    size_t buckets = h.size() - 1;
    for (size_t b = 0; b < buckets; ++b) {
      if (x < h[b + 1]) {
        double lo = h[b], hi = h[b + 1];
        double within = hi > lo ? (x - lo) / (hi - lo) : 0.5;
        return (static_cast<double>(b) + within) / buckets;
      }
    }
    return 1.0;
  }
  if (stats.has_minmax && stats.max > stats.min) {
    return std::clamp((x - stats.min) / (stats.max - stats.min), 0.0, 1.0);
  }
  return 0.5;
}

std::optional<double> LiteralAsDouble(const Expr& e) {
  if (e.kind != ExprKind::kLiteral || !e.literal.is_numeric()) {
    return std::nullopt;
  }
  return e.literal.AsDouble();
}

/// Plan-time constant folding (post-order): an operator node whose inputs
/// are all literals is evaluated once here, on the bytecode VM over one
/// lane, instead of per row at execution time (`1 + 1`, `'a' = 'a'`,
/// `5 BETWEEN 1 AND 9`). Subtrees that error (e.g. `1/0`, or an int64
/// overflow) stay in place so the error still surfaces at runtime, and
/// kFunction/kCase are never folded (UDFs are opaque to the planner).
/// Decided AND/OR left sides fold too — Kleene evaluation never evaluates
/// the right side of `FALSE AND x` / `TRUE OR x`, so replacing the
/// conjunction with the decided literal is exact. A parameter slot is not a
/// constant: a subtree holding one stays unfolded.
void FoldConstants(ExprPtr* expr) {
  Expr& e = **expr;
  for (ExprPtr& arg : e.args) FoldConstants(&arg);
  switch (e.kind) {
    case ExprKind::kUnary:
    case ExprKind::kBinary:
    case ExprKind::kBetween:
    case ExprKind::kInList:
    case ExprKind::kIsNull:
      break;
    default:
      return;
  }
  if (e.kind == ExprKind::kBinary &&
      (e.bop == BinaryOp::kAnd || e.bop == BinaryOp::kOr)) {
    const bool is_or = e.bop == BinaryOp::kOr;
    const Expr& lhs = *e.args[0];
    if (lhs.kind == ExprKind::kLiteral && lhs.param < 0 &&
        lhs.literal.is_bool() && lhs.literal.bool_value() == is_or) {
      *expr = Expr::Literal(Datum::Bool(is_or));
      return;
    }
  }
  for (const ExprPtr& arg : e.args) {
    if (arg->kind != ExprKind::kLiteral || arg->param >= 0) return;
  }
  Result<Datum> value = bytecode::EvalConstant(e, nullptr);
  if (!value.ok()) return;
  *expr = Expr::Literal(std::move(*value));
}

void FoldExprList(std::vector<ExprPtr>* exprs) {
  for (ExprPtr& e : *exprs) FoldConstants(&e);
}

/// Folds every expression slot of the plan tree.
void FoldPlanConstants(PlanNode* node) {
  if (node->scan_filter != nullptr) FoldConstants(&node->scan_filter);
  if (node->predicate != nullptr) FoldConstants(&node->predicate);
  FoldExprList(&node->projections);
  FoldExprList(&node->sort_keys);
  FoldExprList(&node->group_keys);
  FoldExprList(&node->left_keys);
  FoldExprList(&node->right_keys);
  for (AggSpec& agg : node->aggs) {
    if (agg.arg != nullptr) FoldConstants(&agg.arg);
  }
  for (PlanPtr& child : node->children) FoldPlanConstants(child.get());
}

/// Final planning pass: compile every expression slot — scan filters,
/// filter predicates, projections, join, sort and group keys, aggregate
/// arguments — to bytecode programs (engine/bytecode.h), the executor's
/// only evaluator. Runs after every plan rewrite (constant folding,
/// zone-filter attachment, parallelization) so every program compiles the
/// final expression and slots. A slot reads its node's first child (a scan
/// reads its own output; right join keys read the second child).
void CompilePlanPrograms(PlanNode* node, const UdfRegistry* udfs) {
  auto width_of = [node](size_t child) {
    return child < node->children.size()
               ? node->children[child]->output_schema.cols.size()
               : node->output_schema.cols.size();
  };
  auto compile = [&](const ExprPtr& e, size_t child = 0) {
    return e == nullptr ? nullptr
                        : bytecode::Compile(*e, width_of(child), udfs);
  };
  auto compile_all = [&](const std::vector<ExprPtr>& exprs, size_t child = 0) {
    std::vector<PlanNode::ProgramPtr> programs;
    for (const ExprPtr& e : exprs) programs.push_back(compile(e, child));
    return programs;
  };
  node->scan_filter_program = compile(node->scan_filter);
  node->predicate_program = compile(node->predicate);
  for (const ExprPtr& p : node->projections) {
    // A bare bound column ref needs no program: the project operator moves
    // or gathers the input column itself.
    node->projection_programs.push_back(
        p->IsBoundColumnRef() ? nullptr : compile(p));
  }
  node->left_key_programs = compile_all(node->left_keys);
  node->right_key_programs = compile_all(node->right_keys, 1);
  node->sort_key_programs = compile_all(node->sort_keys);
  node->group_key_programs = compile_all(node->group_keys);
  for (const AggSpec& agg : node->aggs) {
    node->agg_programs.push_back(compile(agg.arg));
  }
  for (PlanPtr& child : node->children) CompilePlanPrograms(child.get(), udfs);
}

}  // namespace

class Planner::SelectPlanner {
 public:
  SelectPlanner(Catalog* catalog, const UdfRegistry* udfs,
                const PlannerOptions& options, const SelectStatement& stmt)
      : catalog_(catalog), udfs_(udfs), options_(options), stmt_(stmt) {}

  Result<PlanPtr> Plan();

 private:
  struct ScanInfo {
    Table* table = nullptr;
    std::string alias;
    /// Live columns, __rid, then the columns of `virtuals`.
    ExecSchema schema;
    /// Hoisted kVirtual references, sources bound to scan positions.
    std::vector<ExprPtr> virtuals;
    TableStats stats;
    double base_rows = 0;
    size_t base = 0;  // offset of `schema` in global_schema_
    /// Projection pushdown: the schema positions the statement reads.
    std::vector<bool> needed;
  };

  struct Rel {
    PlanPtr plan;
    std::set<std::string> aliases;
  };

  // --- helpers ---
  Status BuildScans();
  void CloneStatement();
  void HoistExtraction();
  Status BindConjuncts();
  Status CollectColumnUsage();
  Result<PlanPtr> BuildJoinTree();
  Result<PlanPtr> AddAggregation(PlanPtr child);
  Result<PlanPtr> AddProjection(PlanPtr child);
  Result<PlanPtr> AddDistinct(PlanPtr child);
  Result<PlanPtr> AddOrderByAndLimit(PlanPtr child);
  void ParallelizePlan(PlanPtr* node) const;
  int ParallelDegreeFor(const PlanNode& chain) const;
  static bool IsPipelineChain(const PlanNode& node);

  double ConjunctSelectivity(const Expr& conjunct, const ScanInfo& scan) const;
  double ExprDistinct(const Expr& expr) const;

  /// Index of the scan whose columns hold global_schema_ position `slot`.
  size_t ScanOfSlot(size_t slot) const;
  /// Aliases an expression bound against global_schema_ reads.
  void CollectAliases(const Expr& e, std::set<std::string>* out) const {
    if (e.IsBoundColumnRef()) {
      out->insert(scans_[ScanOfSlot(static_cast<size_t>(e.bound_slot))].alias);
    }
    for (const ExprPtr& a : e.args) CollectAliases(*a, out);
  }

  Catalog* catalog_;
  const UdfRegistry* udfs_;
  const PlannerOptions& options_;
  const SelectStatement& stmt_;

  // The statement's expressions, cloned at plan start. The extraction hoist
  // rewrites them in place; every later step reads these, never stmt_.
  std::vector<ExprPtr> where_;  // top-level conjuncts
  std::vector<SelectItem> items_;
  std::vector<ExprPtr> group_by_;
  ExprPtr having_;
  std::vector<OrderItem> order_by_;

  std::vector<ScanInfo> scans_;
  std::vector<std::string> aliases_;
  ExecSchema global_schema_;
  // Conjuncts bound against global_schema_, classified by referenced aliases.
  std::vector<std::pair<ExprPtr, std::set<std::string>>> conjuncts_;
  // Column stats across all scans by (alias, column); columns without
  // statistics are absent.
  std::map<std::pair<std::string, std::string>, const ColumnStats*> stats_by_col_;
  std::map<std::string, double> table_rows_by_alias_;
};

Status Planner::SelectPlanner::BuildScans() {
  if (stmt_.from.empty()) {
    return Status::InvalidArgument("queries without FROM are not supported");
  }
  std::set<std::string> seen_aliases;
  for (const TableRef& ref : stmt_.from) {
    ASSIGN_OR_RETURN(Table * table, catalog_->GetTable(ref.table_name));
    ScanInfo info;
    info.table = table;
    info.alias = ref.effective_alias();
    if (!seen_aliases.insert(info.alias).second) {
      return Status::InvalidArgument("duplicate table alias ", info.alias);
    }
    // Snapshot under the latch: the background materializer may be adding
    // or dropping columns concurrently (the executor re-validates at Open).
    const Schema schema = table->SchemaSnapshot();
    for (size_t slot : schema.LiveSlots()) {
      const Column& col = schema.columns()[slot];
      info.schema.cols.push_back(
          ExecSchema::Col{info.alias, col.name, col.type});
    }
    info.schema.cols.push_back(
        ExecSchema::Col{info.alias, "__rid", ColumnType::kInt});
    info.stats = table->GetStats();
    info.base_rows = static_cast<double>(table->LiveRowCount());
    aliases_.push_back(info.alias);
    table_rows_by_alias_[info.alias] = info.base_rows;
    scans_.push_back(std::move(info));
  }
  return Status::OK();
}

void Planner::SelectPlanner::CloneStatement() {
  if (stmt_.where != nullptr) where_ = SplitConjuncts(*stmt_.where);
  items_.reserve(stmt_.items.size());
  for (const SelectItem& item : stmt_.items) {
    items_.push_back(SelectItem{item.expr->Clone(), item.alias});
  }
  for (const ExprPtr& g : stmt_.group_by) group_by_.push_back(g->Clone());
  if (stmt_.having != nullptr) having_ = stmt_.having->Clone();
  for (const OrderItem& item : stmt_.order_by) {
    order_by_.push_back(OrderItem{item.expr->Clone(), item.descending});
  }
}

// Every kVirtual reference whose sources are all columns of one FROM-list
// alias becomes a virtual column of that alias's scan, and the reference a
// column ref to it, bound to its scan position (binding against the scan,
// or against any schema that starts with it, keeps it). Identical
// references share one column; columns are appended after __rid in
// CompareVirtual order, and the $x numbering runs across the statement, so
// names are unique without qualification. From here on a virtual column is
// an ordinary scan column in every plan shape.
void Planner::SelectPlanner::HoistExtraction() {
  struct Site {
    size_t scan;
    ExprPtr* expr;  // the reference, its sources bound to the scan
  };
  std::vector<Site> sites;
  // Scan position of each source column, resolved once per (scan, name):
  // a star's references all read the same few columns.
  std::vector<std::unordered_map<std::string, std::optional<int>>> slots(
      scans_.size());
  auto bind_sources = [&](Expr* ref) -> std::optional<size_t> {
    for (size_t s = 0; s < scans_.size(); ++s) {
      if (scans_[s].alias != ref->args[0]->table) continue;
      for (ExprPtr& source : ref->args) {
        auto [slot, fresh] = slots[s].try_emplace(source->column);
        if (fresh) {
          Result<size_t> found =
              scans_[s].schema.Resolve(scans_[s].alias, source->column);
          if (found.ok()) slot->second = static_cast<int>(*found);
        }
        if (!slot->second.has_value()) return std::nullopt;
        source->bound_slot = *slot->second;
      }
      return s;
    }
    return std::nullopt;
  };
  auto visit = [&](auto&& self, ExprPtr* expr) -> void {
    if ((*expr)->kind == ExprKind::kVirtual) {
      if (std::optional<size_t> s = bind_sources(expr->get())) {
        sites.push_back(Site{*s, expr});
      }
      return;
    }
    for (ExprPtr& a : (*expr)->args) self(self, &a);
  };
  for (ExprPtr& c : where_) visit(visit, &c);
  for (SelectItem& item : items_) visit(visit, &item.expr);
  for (ExprPtr& g : group_by_) visit(visit, &g);
  if (having_ != nullptr) visit(visit, &having_);
  for (OrderItem& item : order_by_) visit(visit, &item.expr);

  // Sorted, identical references of one scan are adjacent.
  std::sort(sites.begin(), sites.end(), [](const Site& a, const Site& b) {
    if (a.scan != b.scan) return a.scan < b.scan;
    return CompareVirtual(**a.expr, **b.expr) < 0;
  });
  size_t next = 0;  // $x number
  for (size_t i = 0; i < sites.size(); ++i) {
    Site& site = sites[i];
    ScanInfo& scan = scans_[site.scan];
    std::vector<ExecSchema::Col>& cols = scan.schema.cols;
    if (i == 0 || sites[i - 1].scan != site.scan ||
        CompareVirtual(*scan.virtuals.back(), **site.expr) != 0) {
      cols.push_back(ExecSchema::Col{
          "", std::string(kVirtualColumnPrefix) + std::to_string(next++),
          InferType(**site.expr, scan.schema)});
      scan.virtuals.push_back(std::move(*site.expr));
    }
    ExprPtr ref = Expr::Column("", cols.back().name);
    ref->bound_slot = static_cast<int>(cols.size() - 1);
    *site.expr = std::move(ref);
  }
}

Status Planner::SelectPlanner::BindConjuncts() {
  for (ScanInfo& scan : scans_) {
    scan.base = global_schema_.cols.size();
    for (const ExecSchema::Col& col : scan.schema.cols) {
      global_schema_.cols.push_back(col);
      const ColumnStats* cs =
          scan.stats.analyzed ? scan.stats.Find(col.name) : nullptr;
      if (cs != nullptr) stats_by_col_[{scan.alias, col.name}] = cs;
    }
  }
  for (ExprPtr& part : where_) {
    RETURN_NOT_OK(BindExpr(part.get(), global_schema_, aliases_));
    std::set<std::string> refs;
    CollectAliases(*part, &refs);
    conjuncts_.emplace_back(std::move(part), std::move(refs));
  }
  where_.clear();
  return Status::OK();
}

size_t Planner::SelectPlanner::ScanOfSlot(size_t slot) const {
  size_t s = 0;
  while (s + 1 < scans_.size() && scans_[s + 1].base <= slot) ++s;
  return s;
}

Status Planner::SelectPlanner::CollectColumnUsage() {
  // Every virtual column is read by the expression it was hoisted from.
  for (ScanInfo& scan : scans_) {
    scan.needed.assign(scan.schema.cols.size(), false);
    std::fill(scan.needed.end() - scan.virtuals.size(), scan.needed.end(),
              true);
  }
  auto mark_all = [this](const std::string& alias_filter) {
    for (ScanInfo& scan : scans_) {
      if (alias_filter.empty() || scan.alias == alias_filter) {
        std::fill(scan.needed.begin(), scan.needed.end(), true);
      }
    }
  };
  auto note_bound_refs = [this](const Expr& bound) {
    std::vector<const Expr*> refs;
    bound.CollectColumnRefs(&refs);
    for (const Expr* ref : refs) {
      if (ref->bound_slot < 0) continue;
      const size_t slot = static_cast<size_t>(ref->bound_slot);
      ScanInfo& scan = scans_[ScanOfSlot(slot)];
      scan.needed[slot - scan.base] = true;
    }
  };
  // Clone-free best-effort resolution for the (possibly very wide) select
  // list: resolve each reference name against the scans' physical columns
  // directly, through a per-scan name index built once; an unresolvable
  // unqualified name falls back to conservative marking.
  std::vector<std::unordered_multimap<std::string_view, size_t>> positions(
      scans_.size());
  for (size_t s = 0; s < scans_.size(); ++s) {
    const std::vector<ExecSchema::Col>& cols = scans_[s].schema.cols;
    const size_t physical = cols.size() - scans_[s].virtuals.size();
    positions[s].reserve(physical);
    for (size_t i = 0; i < physical; ++i) {
      positions[s].emplace(cols[i].name, i);
    }
  }
  auto note_light = [&](auto&& self, const Expr& e) -> void {
    if (IsVirtualColumnRef(e)) return;
    if (e.kind == ExprKind::kColumnRef) {
      bool found = false;
      for (size_t s = 0; s < scans_.size(); ++s) {
        ScanInfo& scan = scans_[s];
        // Peel a leading "alias." segment off unqualified dotted names.
        std::string_view column = e.column;
        std::string_view qualifier = e.table;
        if (qualifier.empty()) {
          size_t dot = column.find('.');
          if (dot != std::string_view::npos &&
              column.substr(0, dot) == scan.alias) {
            qualifier = scan.alias;
            column = column.substr(dot + 1);
          }
        }
        if (!qualifier.empty() && qualifier != scan.alias) continue;
        auto [begin, end] = positions[s].equal_range(column);
        for (auto it = begin; it != end; ++it) {
          scan.needed[it->second] = true;
          found = true;
        }
      }
      if (!found) mark_all("");
      return;
    }
    for (const ExprPtr& a : e.args) {
      if (a->kind == ExprKind::kStar) {
        if (!e.IsAggregateCall()) mark_all(a->table);
        continue;
      }
      self(self, *a);
    }
  };
  // Stars anywhere in an expression need the whole relation — except
  // COUNT(*), which needs no columns at all (note_light marks nested ones).
  auto consider = [&](const Expr& e) {
    if (e.kind == ExprKind::kStar) {
      mark_all(e.table);
      return;
    }
    note_light(note_light, e);
  };
  for (const SelectItem& item : items_) consider(*item.expr);
  for (const ExprPtr& g : group_by_) consider(*g);
  if (having_ != nullptr) consider(*having_);
  for (const OrderItem& item : order_by_) consider(*item.expr);
  for (const auto& [conjunct, refs] : conjuncts_) {
    (void)refs;
    note_bound_refs(*conjunct);
  }
  return Status::OK();
}

double Planner::SelectPlanner::ConjunctSelectivity(
    const Expr& conjunct, const ScanInfo& scan) const {
  const double rows = std::max(scan.base_rows, 1.0);
  // Predicates routed through UDFs or reading virtual columns are opaque to
  // the optimizer: fixed absolute row estimate (the paper's observed
  // Postgres behaviour).
  if (IsOpaque(conjunct)) {
    return std::min(1.0, options_.default_udf_rows / rows);
  }
  auto col_stats = [&](const Expr& e) -> const ColumnStats* {
    if (e.kind != ExprKind::kColumnRef) return nullptr;
    auto it = stats_by_col_.find({e.table, e.column});
    return it == stats_by_col_.end() ? nullptr : it->second;
  };
  switch (conjunct.kind) {
    case ExprKind::kBinary: {
      const Expr& lhs = *conjunct.args[0];
      const Expr& rhs = *conjunct.args[1];
      switch (conjunct.bop) {
        case BinaryOp::kAnd:
          return ConjunctSelectivity(lhs, scan) *
                 ConjunctSelectivity(rhs, scan);
        case BinaryOp::kOr: {
          double a = ConjunctSelectivity(lhs, scan);
          double b = ConjunctSelectivity(rhs, scan);
          return a + b - a * b;
        }
        case BinaryOp::kEq: {
          const ColumnStats* cs = col_stats(lhs);
          const Expr* lit = &rhs;
          if (cs == nullptr) {
            cs = col_stats(rhs);
            lit = &lhs;
          }
          (void)lit;
          if (cs != nullptr && cs->ndistinct >= 1) {
            return (1.0 - cs->null_fraction()) / cs->ndistinct;
          }
          return options_.default_eq_selectivity;
        }
        case BinaryOp::kNe:
          return 1.0 - ConjunctSelectivity(
                           *Expr::Binary(BinaryOp::kEq, lhs.Clone(),
                                         rhs.Clone()),
                           scan);
        case BinaryOp::kLt:
        case BinaryOp::kLe:
        case BinaryOp::kGt:
        case BinaryOp::kGe: {
          const ColumnStats* cs = col_stats(lhs);
          std::optional<double> lit = LiteralAsDouble(rhs);
          bool flipped = false;
          if (cs == nullptr) {
            cs = col_stats(rhs);
            lit = LiteralAsDouble(lhs);
            flipped = true;
          }
          if (cs != nullptr && lit.has_value() &&
              (cs->has_minmax || cs->histogram.size() >= 2)) {
            double below = FractionBelow(*cs, *lit);
            bool less = conjunct.bop == BinaryOp::kLt ||
                        conjunct.bop == BinaryOp::kLe;
            if (flipped) less = !less;
            double sel = less ? below : 1.0 - below;
            return std::clamp(sel * (1.0 - cs->null_fraction()), 0.0, 1.0);
          }
          return options_.default_range_selectivity;
        }
        case BinaryOp::kLike:
          return options_.default_like_selectivity;
        default:
          return 0.5;
      }
    }
    case ExprKind::kBetween: {
      const ColumnStats* cs = col_stats(*conjunct.args[0]);
      std::optional<double> lo = LiteralAsDouble(*conjunct.args[1]);
      std::optional<double> hi = LiteralAsDouble(*conjunct.args[2]);
      double sel;
      if (cs != nullptr && lo.has_value() && hi.has_value() &&
          (cs->has_minmax || cs->histogram.size() >= 2)) {
        sel = std::max(0.0, FractionBelow(*cs, *hi) - FractionBelow(*cs, *lo));
        sel *= 1.0 - cs->null_fraction();
      } else {
        sel = options_.default_range_selectivity *
              options_.default_range_selectivity;
      }
      return conjunct.negated ? 1.0 - sel : sel;
    }
    case ExprKind::kInList: {
      const ColumnStats* cs = col_stats(*conjunct.args[0]);
      double eq = cs != nullptr && cs->ndistinct >= 1
                      ? (1.0 - cs->null_fraction()) / cs->ndistinct
                      : options_.default_eq_selectivity;
      double sel = std::min(
          1.0, eq * static_cast<double>(conjunct.args.size() - 1));
      return conjunct.negated ? 1.0 - sel : sel;
    }
    case ExprKind::kIsNull: {
      const ColumnStats* cs = col_stats(*conjunct.args[0]);
      double nullfrac = cs != nullptr ? cs->null_fraction() : 0.5;
      return conjunct.negated ? 1.0 - nullfrac : nullfrac;
    }
    case ExprKind::kUnary:
      if (conjunct.uop == UnaryOp::kNot) {
        return 1.0 - ConjunctSelectivity(*conjunct.args[0], scan);
      }
      return 0.5;
    case ExprKind::kLiteral:
      if (conjunct.literal.is_bool()) {
        return conjunct.literal.bool_value() ? 1.0 : 0.0;
      }
      return 0.5;
    default:
      return 0.5;
  }
}

double Planner::SelectPlanner::ExprDistinct(const Expr& expr) const {
  if (expr.kind == ExprKind::kColumnRef) {
    auto it = stats_by_col_.find({expr.table, expr.column});
    if (it != stats_by_col_.end() && it->second != nullptr &&
        it->second->ndistinct >= 1) {
      return it->second->ndistinct;
    }
  }
  // Virtual columns and other expressions (UDF calls in particular) have
  // no statistics.
  return options_.default_udf_distinct;
}

Result<PlanPtr> Planner::SelectPlanner::BuildJoinTree() {
  // Per-scan filters and base relations.
  std::vector<Rel> rels;
  std::vector<size_t> used(conjuncts_.size(), 0);
  for (ScanInfo& scan : scans_) {
    auto node = std::make_unique<PlanNode>();
    node->kind = PlanKind::kSeqScan;
    node->table = scan.table;
    node->alias = scan.alias;
    node->output_schema = scan.schema;
    node->virtual_columns = std::move(scan.virtuals);
    double rows = scan.base_rows;
    std::vector<ExprPtr> filters;
    for (size_t i = 0; i < conjuncts_.size(); ++i) {
      const auto& [expr, refs] = conjuncts_[i];
      bool single_here =
          refs.size() <= 1 && (refs.empty() || *refs.begin() == scan.alias);
      // Constant conjuncts (no refs) apply everywhere but are consumed once.
      if (refs.empty() && used[i] != 0) single_here = false;
      if (!single_here) continue;
      used[i] = 1;
      rows *= ConjunctSelectivity(*expr, scan);
      filters.push_back(expr->Clone());
    }
    if (!filters.empty()) {
      ExprPtr combined = CombineConjuncts(std::move(filters));
      RETURN_NOT_OK(BindExpr(combined.get(), scan.schema, aliases_));
      node->scan_filter = std::move(combined);
    }
    // Projection pushdown: which scan positions must be produced. A source
    // column only extraction reads is not among them — the scan extracts
    // from the row bytes in place.
    std::vector<bool> filter(scan.needed.size(), false);
    if (node->scan_filter != nullptr) {
      std::vector<const Expr*> refs;
      node->scan_filter->CollectColumnRefs(&refs);
      for (const Expr* ref : refs) filter[ref->bound_slot] = true;
    }
    for (size_t c = 0; c < filter.size(); ++c) {
      if (filter[c]) {
        node->scan_filter_cols.push_back(c);
      } else if (scan.needed[c]) {
        node->scan_output_cols.push_back(c);
      }
    }
    node->est_rows = std::max(rows, 0.0);
    Rel rel;
    rel.plan = std::move(node);
    rel.aliases.insert(scan.alias);
    rels.push_back(std::move(rel));
  }

  // Join edges: top-level equality conjuncts whose sides touch one alias
  // each.
  struct Edge {
    size_t conjunct_index;
    std::string left_alias, right_alias;  // as written (args[0]/args[1])
  };
  std::vector<Edge> edges;
  for (size_t i = 0; i < conjuncts_.size(); ++i) {
    if (used[i] != 0) continue;
    const auto& [expr, refs] = conjuncts_[i];
    if (refs.size() == 2 && expr->kind == ExprKind::kBinary &&
        expr->bop == BinaryOp::kEq) {
      std::set<std::string> lrefs, rrefs;
      CollectAliases(*expr->args[0], &lrefs);
      CollectAliases(*expr->args[1], &rrefs);
      if (lrefs.size() == 1 && rrefs.size() == 1 && *lrefs.begin() != *rrefs.begin()) {
        edges.push_back(Edge{i, *lrefs.begin(), *rrefs.begin()});
        used[i] = 2;  // will be consumed by a join
      }
    }
  }

  auto rel_of = [&rels](const std::string& alias) -> size_t {
    for (size_t i = 0; i < rels.size(); ++i) {
      if (rels[i].aliases.count(alias) != 0) return i;
    }
    return rels.size();
  };

  // Greedy join ordering: repeatedly join the connected pair with the
  // smallest estimated output.
  while (rels.size() > 1) {
    double best_cost = std::numeric_limits<double>::infinity();
    size_t best_a = 0, best_b = 1;
    std::vector<size_t> best_edges;
    bool found_connected = false;
    for (size_t a = 0; a < rels.size(); ++a) {
      for (size_t b = a + 1; b < rels.size(); ++b) {
        std::vector<size_t> connecting;
        double fanout = 1.0;
        for (const Edge& e : edges) {
          size_t ra = rel_of(e.left_alias), rb = rel_of(e.right_alias);
          if ((ra == a && rb == b) || (ra == b && rb == a)) {
            connecting.push_back(&e - edges.data());
            const Expr& eq = *conjuncts_[e.conjunct_index].first;
            double ndl = ExprDistinct(*eq.args[0]);
            double ndr = ExprDistinct(*eq.args[1]);
            fanout /= std::max({ndl, ndr, 1.0});
          }
        }
        if (connecting.empty()) continue;
        double out =
            rels[a].plan->est_rows * rels[b].plan->est_rows * fanout;
        if (out < best_cost) {
          best_cost = out;
          best_a = a;
          best_b = b;
          best_edges = connecting;
          found_connected = true;
        }
      }
    }
    if (!found_connected) {
      // Cross join the two smallest relations.
      std::vector<size_t> order(rels.size());
      for (size_t i = 0; i < order.size(); ++i) order[i] = i;
      std::sort(order.begin(), order.end(), [&](size_t x, size_t y) {
        return rels[x].plan->est_rows < rels[y].plan->est_rows;
      });
      best_a = std::min(order[0], order[1]);
      best_b = std::max(order[0], order[1]);
      best_cost = rels[best_a].plan->est_rows * rels[best_b].plan->est_rows;
      best_edges.clear();
    }

    Rel& ra = rels[best_a];
    Rel& rb = rels[best_b];
    // Probe side = larger input, build side = smaller (hash join convention:
    // right child is the build side).
    bool a_is_probe = ra.plan->est_rows >= rb.plan->est_rows;
    Rel& probe = a_is_probe ? ra : rb;
    Rel& build = a_is_probe ? rb : ra;

    auto join = std::make_unique<PlanNode>();
    join->output_schema.cols = probe.plan->output_schema.cols;
    join->output_schema.cols.insert(join->output_schema.cols.end(),
                                    build.plan->output_schema.cols.begin(),
                                    build.plan->output_schema.cols.end());
    join->est_rows = std::max(best_cost, 1.0);

    if (!best_edges.empty()) {
      for (size_t ei : best_edges) {
        const Edge& e = edges[ei];
        const Expr& eq = *conjuncts_[e.conjunct_index].first;
        // Which side of the equality belongs to the probe relation?
        bool lhs_in_probe = probe.aliases.count(e.left_alias) != 0;
        ExprPtr probe_key =
            (lhs_in_probe ? eq.args[0] : eq.args[1])->Clone();
        ExprPtr build_key =
            (lhs_in_probe ? eq.args[1] : eq.args[0])->Clone();
        RETURN_NOT_OK(
            BindExpr(probe_key.get(), probe.plan->output_schema, aliases_));
        RETURN_NOT_OK(
            BindExpr(build_key.get(), build.plan->output_schema, aliases_));
        join->left_keys.push_back(std::move(probe_key));
        join->right_keys.push_back(std::move(build_key));
      }
      bool hash_fits =
          build.plan->est_rows <= options_.hash_join_max_build_rows;
      join->kind = hash_fits ? PlanKind::kHashJoin : PlanKind::kMergeJoin;
      if (join->kind == PlanKind::kMergeJoin) {
        // Sort both inputs on the join keys.
        auto make_sort = [](PlanPtr child,
                            const std::vector<ExprPtr>& keys) -> PlanPtr {
          auto sort = std::make_unique<PlanNode>();
          sort->kind = PlanKind::kSort;
          sort->output_schema = child->output_schema;
          sort->est_rows = child->est_rows;
          for (const ExprPtr& k : keys) {
            sort->sort_keys.push_back(k->Clone());
            sort->sort_desc.push_back(false);
          }
          sort->children.push_back(std::move(child));
          return sort;
        };
        join->children.push_back(
            make_sort(std::move(probe.plan), join->left_keys));
        join->children.push_back(
            make_sort(std::move(build.plan), join->right_keys));
      } else {
        join->children.push_back(std::move(probe.plan));
        join->children.push_back(std::move(build.plan));
      }
    } else {
      join->kind = PlanKind::kNestedLoopJoin;
      join->children.push_back(std::move(probe.plan));
      join->children.push_back(std::move(build.plan));
    }

    Rel merged;
    merged.plan = std::move(join);
    merged.aliases = probe.aliases;
    merged.aliases.insert(build.aliases.begin(), build.aliases.end());
    rels.erase(rels.begin() + best_b);
    rels.erase(rels.begin() + best_a);
    rels.push_back(std::move(merged));
  }

  PlanPtr root = std::move(rels[0].plan);
  // Remaining conjuncts (multi-table non-equi residuals, or equalities not
  // consumed by a join) filter on top.
  std::vector<ExprPtr> leftovers;
  for (size_t i = 0; i < conjuncts_.size(); ++i) {
    if (used[i] == 1) continue;
    if (used[i] == 2) continue;  // consumed as a join key
    leftovers.push_back(conjuncts_[i].first->Clone());
  }
  if (!leftovers.empty()) {
    double sel = 1.0;
    for (const ExprPtr& c : leftovers) {
      // Without a single base table, use the UDF/functional defaults.
      sel *= IsOpaque(*c)
                 ? std::min(1.0, options_.default_udf_rows /
                                     std::max(root->est_rows, 1.0))
                 : 0.1;
    }
    ExprPtr combined = CombineConjuncts(std::move(leftovers));
    RETURN_NOT_OK(BindExpr(combined.get(), root->output_schema, aliases_));
    auto filter = std::make_unique<PlanNode>();
    filter->kind = PlanKind::kFilter;
    filter->predicate = std::move(combined);
    filter->output_schema = root->output_schema;
    filter->est_rows = std::max(root->est_rows * sel, 1.0);
    filter->children.push_back(std::move(root));
    root = std::move(filter);
  }
  return root;
}

namespace {

/// Replaces aggregate calls and group-key-equal subtrees in `expr` with
/// references to the aggregate node's output columns ($aN / $gN).
void RewriteAggRefs(ExprPtr* expr, const std::vector<std::string>& group_texts,
                    std::vector<const Expr*>* agg_nodes,
                    std::vector<ExprPtr>* agg_clones) {
  std::string text = (*expr)->ToString();
  for (size_t g = 0; g < group_texts.size(); ++g) {
    if (text == group_texts[g]) {
      *expr = Expr::Column("", "$g" + std::to_string(g));
      return;
    }
  }
  if ((*expr)->IsAggregateCall()) {
    // Dedupe by text.
    for (size_t i = 0; i < agg_nodes->size(); ++i) {
      if ((*agg_nodes)[i]->ToString() == text) {
        *expr = Expr::Column("", "$a" + std::to_string(i));
        return;
      }
    }
    agg_clones->push_back((*expr)->Clone());
    agg_nodes->push_back(agg_clones->back().get());
    *expr = Expr::Column("", "$a" + std::to_string(agg_nodes->size() - 1));
    return;
  }
  for (ExprPtr& arg : (*expr)->args) {
    RewriteAggRefs(&arg, group_texts, agg_nodes, agg_clones);
  }
}

}  // namespace

Result<PlanPtr> Planner::SelectPlanner::AddAggregation(PlanPtr child) {
  std::vector<std::string> group_texts;
  group_texts.reserve(group_by_.size());
  for (const ExprPtr& g : group_by_) group_texts.push_back(g->ToString());

  std::vector<const Expr*> agg_nodes;
  std::vector<ExprPtr> agg_clones;
  for (SelectItem& item : items_) {
    RewriteAggRefs(&item.expr, group_texts, &agg_nodes, &agg_clones);
  }
  if (having_ != nullptr) {
    RewriteAggRefs(&having_, group_texts, &agg_nodes, &agg_clones);
  }
  for (OrderItem& item : order_by_) {
    RewriteAggRefs(&item.expr, group_texts, &agg_nodes, &agg_clones);
  }

  auto agg = std::make_unique<PlanNode>();
  double est_groups = 1.0;
  for (size_t g = 0; g < group_by_.size(); ++g) {
    ExprPtr key = std::move(group_by_[g]);
    RETURN_NOT_OK(BindExpr(key.get(), child->output_schema, aliases_));
    est_groups *= ExprDistinct(*key);
    agg->output_schema.cols.push_back(
        ExecSchema::Col{"", "$g" + std::to_string(g),
                        InferType(*key, child->output_schema)});
    agg->group_keys.push_back(std::move(key));
  }
  est_groups = std::min(est_groups, std::max(child->est_rows, 1.0));
  for (size_t i = 0; i < agg_clones.size(); ++i) {
    const Expr& call = *agg_clones[i];
    AggSpec spec;
    spec.fn = call.fname;
    if (call.args.empty() ||
        (call.args.size() == 1 && call.args[0]->kind == ExprKind::kStar)) {
      spec.is_star = true;
      if (spec.fn != "count") {
        return Status::InvalidArgument(spec.fn, "(*) is not valid");
      }
    } else {
      spec.arg = call.args[0]->Clone();
      RETURN_NOT_OK(BindExpr(spec.arg.get(), child->output_schema, aliases_));
    }
    ColumnType out_type = ColumnType::kDouble;
    if (spec.fn == "count") {
      out_type = ColumnType::kInt;
    } else if (spec.arg != nullptr &&
               (spec.fn == "sum" || spec.fn == "min" || spec.fn == "max")) {
      out_type = InferType(*spec.arg, child->output_schema);
    }
    agg->output_schema.cols.push_back(
        ExecSchema::Col{"", "$a" + std::to_string(i), out_type});
    agg->aggs.push_back(std::move(spec));
  }

  bool hash_fits = est_groups <= options_.hash_agg_max_groups;
  agg->est_rows = group_by_.empty() ? 1.0 : est_groups;
  if (hash_fits || agg->group_keys.empty()) {
    agg->kind = PlanKind::kHashAggregate;
    agg->children.push_back(std::move(child));
  } else {
    agg->kind = PlanKind::kGroupAggregate;
    auto sort = std::make_unique<PlanNode>();
    sort->kind = PlanKind::kSort;
    sort->output_schema = child->output_schema;
    sort->est_rows = child->est_rows;
    for (const ExprPtr& k : agg->group_keys) {
      sort->sort_keys.push_back(k->Clone());
      sort->sort_desc.push_back(false);
    }
    sort->children.push_back(std::move(child));
    agg->children.push_back(std::move(sort));
  }

  PlanPtr root = std::move(agg);
  if (having_ != nullptr) {
    ExprPtr pred = std::move(having_);
    RETURN_NOT_OK(BindExpr(pred.get(), root->output_schema, aliases_));
    auto filter = std::make_unique<PlanNode>();
    filter->kind = PlanKind::kFilter;
    filter->output_schema = root->output_schema;
    filter->est_rows = std::max(root->est_rows * 0.5, 1.0);
    filter->predicate = std::move(pred);
    filter->children.push_back(std::move(root));
    root = std::move(filter);
  }
  return root;
}

Result<PlanPtr> Planner::SelectPlanner::AddProjection(PlanPtr child) {
  auto project = std::make_unique<PlanNode>();
  project->kind = PlanKind::kProject;
  project->est_rows = child->est_rows;
  for (SelectItem& item : items_) {
    if (item.expr->kind == ExprKind::kStar) {
      const std::string& want = item.expr->table;
      for (const ExecSchema::Col& col : child->output_schema.cols) {
        if (col.name == "__rid" || col.name.starts_with("$")) continue;
        if (!want.empty() && col.table != want) continue;
        ExprPtr ref = Expr::Column(col.table, col.name);
        RETURN_NOT_OK(BindExpr(ref.get(), child->output_schema, aliases_));
        project->output_schema.cols.push_back(
            ExecSchema::Col{"", col.name, col.type});
        project->projections.push_back(std::move(ref));
      }
      continue;
    }
    RETURN_NOT_OK(BindExpr(item.expr.get(), child->output_schema, aliases_));
    std::string name = item.alias;
    if (name.empty()) {
      name = item.expr->kind == ExprKind::kColumnRef ? item.expr->column
                                                     : item.expr->ToString();
    }
    project->output_schema.cols.push_back(ExecSchema::Col{
        "", std::move(name), InferType(*item.expr, child->output_schema)});
    project->projections.push_back(std::move(item.expr));
  }
  if (project->projections.empty()) {
    return Status::InvalidArgument("empty select list");
  }
  project->children.push_back(std::move(child));
  return project;
}

Result<PlanPtr> Planner::SelectPlanner::AddDistinct(PlanPtr child) {
  double est = 1.0;
  PlanNode* project = child.get();
  for (const ExprPtr& p : project->projections) {
    est *= ExprDistinct(*p);
  }
  est = std::min(est, std::max(child->est_rows, 1.0));
  if (est <= options_.hash_agg_max_groups) {
    // DISTINCT via hash aggregation over all output columns.
    auto agg = std::make_unique<PlanNode>();
    agg->kind = PlanKind::kHashAggregate;
    agg->output_schema = child->output_schema;
    agg->est_rows = est;
    for (const ExecSchema::Col& col : child->output_schema.cols) {
      ExprPtr ref = Expr::Column(col.table, col.name);
      RETURN_NOT_OK(BindExpr(ref.get(), child->output_schema, {}));
      agg->group_keys.push_back(std::move(ref));
    }
    agg->children.push_back(std::move(child));
    return PlanPtr(std::move(agg));
  }
  // Sort + Unique.
  auto sort = std::make_unique<PlanNode>();
  sort->kind = PlanKind::kSort;
  sort->output_schema = child->output_schema;
  sort->est_rows = child->est_rows;
  for (const ExecSchema::Col& col : child->output_schema.cols) {
    ExprPtr ref = Expr::Column(col.table, col.name);
    RETURN_NOT_OK(BindExpr(ref.get(), child->output_schema, {}));
    sort->sort_keys.push_back(std::move(ref));
    sort->sort_desc.push_back(false);
  }
  sort->children.push_back(std::move(child));
  auto unique = std::make_unique<PlanNode>();
  unique->kind = PlanKind::kUnique;
  unique->output_schema = sort->output_schema;
  unique->est_rows = est;
  for (const ExprPtr& k : sort->sort_keys) {
    unique->group_keys.push_back(k->Clone());
  }
  unique->children.push_back(std::move(sort));
  return PlanPtr(std::move(unique));
}

Result<PlanPtr> Planner::SelectPlanner::AddOrderByAndLimit(PlanPtr child) {
  if (!order_by_.empty()) {
    // Bind order expressions against the projection output; if a reference
    // does not exist there (ORDER BY over a non-projected column), extend
    // the projection with hidden columns and strip them afterwards.
    PlanNode* project =
        child->kind == PlanKind::kProject ? child.get() : nullptr;
    std::vector<ExprPtr> bound_keys;
    std::vector<bool> desc;
    size_t visible_cols = child->output_schema.cols.size();
    bool added_hidden = false;
    for (OrderItem& item : order_by_) {
      ExprPtr key = item.expr->Clone();
      Status st = BindExpr(key.get(), child->output_schema, aliases_);
      if (!st.ok()) {
        if (project == nullptr) return st;
        // Hidden projection column.
        ExprPtr hidden = std::move(item.expr);
        RETURN_NOT_OK(BindExpr(hidden.get(),
                               project->children[0]->output_schema, aliases_));
        std::string name =
            "$ord" + std::to_string(project->projections.size());
        project->output_schema.cols.push_back(ExecSchema::Col{
            "", name,
            InferType(*hidden, project->children[0]->output_schema)});
        project->projections.push_back(std::move(hidden));
        key = Expr::Column("", name);
        RETURN_NOT_OK(BindExpr(key.get(), child->output_schema, {}));
        added_hidden = true;
      }
      bound_keys.push_back(std::move(key));
      desc.push_back(item.descending);
    }
    auto sort = std::make_unique<PlanNode>();
    sort->kind = PlanKind::kSort;
    sort->output_schema = child->output_schema;
    sort->est_rows = child->est_rows;
    sort->sort_keys = std::move(bound_keys);
    sort->sort_desc = std::move(desc);
    sort->children.push_back(std::move(child));
    child = std::move(sort);
    if (added_hidden) {
      // Final projection strips hidden sort columns.
      auto strip = std::make_unique<PlanNode>();
      strip->kind = PlanKind::kProject;
      strip->est_rows = child->est_rows;
      for (size_t i = 0; i < visible_cols; ++i) {
        const ExecSchema::Col& col = child->output_schema.cols[i];
        ExprPtr ref = Expr::Column(col.table, col.name);
        RETURN_NOT_OK(BindExpr(ref.get(), child->output_schema, {}));
        strip->output_schema.cols.push_back(col);
        strip->projections.push_back(std::move(ref));
      }
      strip->children.push_back(std::move(child));
      child = std::move(strip);
    }
  }
  if (stmt_.limit >= 0) {
    auto limit = std::make_unique<PlanNode>();
    limit->kind = PlanKind::kLimit;
    limit->limit = stmt_.limit;
    limit->output_schema = child->output_schema;
    limit->est_rows = std::min(child->est_rows,
                               static_cast<double>(stmt_.limit));
    limit->children.push_back(std::move(child));
    child = std::move(limit);
  }
  return child;
}

namespace {

bool IsComparisonOp(BinaryOp op) {
  return op == BinaryOp::kEq || op == BinaryOp::kNe || op == BinaryOp::kLt ||
         op == BinaryOp::kLe || op == BinaryOp::kGt || op == BinaryOp::kGe;
}

BinaryOp FlipComparisonOp(BinaryOp op) {
  switch (op) {
    case BinaryOp::kLt:
      return BinaryOp::kGt;
    case BinaryOp::kLe:
      return BinaryOp::kGe;
    case BinaryOp::kGt:
      return BinaryOp::kLt;
    case BinaryOp::kGe:
      return BinaryOp::kLe;
    default:
      return op;  // kEq / kNe are symmetric
  }
}

/// The zone filter template for a scan-filter operand, when the operand is
/// a physical scalar column of the scan (its strip is keyed by column name)
/// or a virtual column reading one scalar variant, decoded, from a single
/// source — the only columns a strip's zone map can reason about (raw-bytes
/// and object/array extractions have no strip columns, and a fallback
/// source is not summarized by any zone map).
std::optional<ZoneFilter> ZoneSource(const Expr& e, const PlanNode& scan) {
  if (!e.IsBoundColumnRef()) return std::nullopt;
  // Live columns, then __rid, then the virtual columns.
  const size_t first = scan.output_schema.cols.size() -
                       scan.virtual_columns.size();
  const size_t slot = static_cast<size_t>(e.bound_slot);
  ZoneFilter zf;
  if (slot + 1 < first) {
    const ExecSchema::Col& col = scan.output_schema.cols[slot];
    zf.type_tag = static_cast<int64_t>(StripValueType(col.type));
    if (zf.type_tag == static_cast<int64_t>(ValueType::kNull)) {
      return std::nullopt;
    }
    zf.source_column = col.name;
    zf.physical = true;
    return zf;
  }
  if (slot < first) return std::nullopt;
  const Expr& v = *scan.virtual_columns[slot - first];
  if (v.args.size() != 1 || (*v.virtual_sources)[0].size() != 1) {
    return std::nullopt;
  }
  const ExtractTarget& t = (*v.virtual_sources)[0][0];
  const bool scalar = t.type_tag == static_cast<int64_t>(ValueType::kBool) ||
                      t.type_tag == static_cast<int64_t>(ValueType::kInt) ||
                      t.type_tag == static_cast<int64_t>(ValueType::kDouble) ||
                      t.type_tag == static_cast<int64_t>(ValueType::kString);
  if (!scalar || t.raw_bytes) return std::nullopt;
  zf.source_column = v.args[0]->column;
  zf.prefix_ids = t.prefix_ids;
  zf.attr_id = t.attr_id;
  zf.type_tag = t.type_tag;
  return zf;
}

ZoneFilter MakeZoneFilter(ZoneFilter zf, BinaryOp op, const Expr& literal) {
  zf.op = op;
  zf.literal = literal.literal;
  zf.param = literal.param;
  return zf;
}

/// Derives zone filters from one pushed-down conjunct. Recognized shapes:
/// column-vs-literal comparisons (either side; the op flips when the
/// literal is on the left) and non-negated BETWEEN with literal bounds.
/// Anything else contributes nothing — a zone filter is a pure accelerator
/// whose only promise is "no row of a skipped strip satisfies the conjunct".
void CollectZoneFilters(const Expr& conjunct, PlanNode* scan) {
  std::vector<ZoneFilter>* out = &scan->zone_filters;
  if (conjunct.kind == ExprKind::kBinary && IsComparisonOp(conjunct.bop) &&
      conjunct.args.size() == 2) {
    const Expr& lhs = *conjunct.args[0];
    const Expr& rhs = *conjunct.args[1];
    if (std::optional<ZoneFilter> v = ZoneSource(lhs, *scan);
        v.has_value() && rhs.kind == ExprKind::kLiteral) {
      out->push_back(MakeZoneFilter(std::move(*v), conjunct.bop, rhs));
    } else if (std::optional<ZoneFilter> u = ZoneSource(rhs, *scan);
               u.has_value() && lhs.kind == ExprKind::kLiteral) {
      out->push_back(MakeZoneFilter(
          std::move(*u), FlipComparisonOp(conjunct.bop), lhs));
    }
    return;
  }
  if (conjunct.kind == ExprKind::kBetween && !conjunct.negated &&
      conjunct.args.size() == 3 &&
      conjunct.args[1]->kind == ExprKind::kLiteral &&
      conjunct.args[2]->kind == ExprKind::kLiteral) {
    if (std::optional<ZoneFilter> v = ZoneSource(*conjunct.args[0], *scan)) {
      out->push_back(
          MakeZoneFilter(*v, BinaryOp::kGe, *conjunct.args[1]));
      out->push_back(
          MakeZoneFilter(std::move(*v), BinaryOp::kLe, *conjunct.args[2]));
    }
  }
}

/// Attaches zone filters to every base scan whose pushed-down filter
/// compares columns with literals.
void AttachZoneFiltersToScans(PlanNode* node) {
  if (node->kind == PlanKind::kSeqScan && node->scan_filter != nullptr) {
    for (const ExprPtr& part : SplitConjuncts(*node->scan_filter)) {
      CollectZoneFilters(*part, node);
    }
  }
  for (PlanPtr& child : node->children) AttachZoneFiltersToScans(child.get());
}

}  // namespace

// A scan → filter → project pipeline: the plan shape Gather workers can run
// independently over disjoint morsels (one base table, no blocking state).
bool Planner::SelectPlanner::IsPipelineChain(const PlanNode& node) {
  if (node.kind == PlanKind::kSeqScan) return true;
  if ((node.kind == PlanKind::kFilter || node.kind == PlanKind::kProject) &&
      node.children.size() == 1) {
    return IsPipelineChain(*node.children[0]);
  }
  return false;
}

int GatherDegreeFor(const PlannerOptions& options, uint64_t live_rows) {
  const double workers =
      std::ceil(static_cast<double>(live_rows) /
                std::max(options.parallel_min_rows, 1.0));
  return std::max(1, static_cast<int>(std::min(
                         static_cast<double>(options.parallelism), workers)));
}

int Planner::SelectPlanner::ParallelDegreeFor(const PlanNode& chain) const {
  const PlanNode* leaf = &chain;
  while (!leaf->children.empty()) leaf = leaf->children[0].get();
  auto it = table_rows_by_alias_.find(leaf->alias);
  const double rows = it != table_rows_by_alias_.end() ? it->second : 0.0;
  return GatherDegreeFor(options_, static_cast<uint64_t>(rows));
}

// Post-pass: wrap every maximal parallelizable subtree in a Gather node.
// Two shapes qualify — a bare scan pipeline (streaming merge) and a hash
// aggregate directly over one (per-worker partial aggregation merged at the
// barrier). Everything else recurses, so e.g. both join inputs or the
// pipeline under a Sort still go parallel.
void Planner::SelectPlanner::ParallelizePlan(PlanPtr* node) const {
  PlanNode& n = **node;
  const PlanNode* chain = nullptr;
  if (n.kind == PlanKind::kHashAggregate && n.children.size() == 1 &&
      IsPipelineChain(*n.children[0])) {
    chain = n.children[0].get();
  } else if (IsPipelineChain(n)) {
    chain = &n;
  }
  if (chain != nullptr) {
    int degree = ParallelDegreeFor(*chain);
    if (degree > 1) {
      auto gather = std::make_unique<PlanNode>();
      gather->kind = PlanKind::kGather;
      gather->output_schema = n.output_schema;
      gather->est_rows = n.est_rows;
      gather->parallel_degree = degree;
      gather->children.push_back(std::move(*node));
      *node = std::move(gather);
      return;
    }
    if (chain == &n) return;  // too small; nothing beneath to parallelize
  }
  for (PlanPtr& child : n.children) ParallelizePlan(&child);
}

Result<PlanPtr> Planner::SelectPlanner::Plan() {
  RETURN_NOT_OK(BuildScans());
  CloneStatement();
  if (udfs_ != nullptr && udfs_->batch_extract() != nullptr) {
    HoistExtraction();
  }
  RETURN_NOT_OK(BindConjuncts());
  RETURN_NOT_OK(CollectColumnUsage());
  ASSIGN_OR_RETURN(PlanPtr root, BuildJoinTree());

  bool has_agg = !group_by_.empty() || having_ != nullptr;
  for (const SelectItem& item : items_) {
    if (item.expr->ContainsAggregate()) has_agg = true;
  }
  for (const OrderItem& item : order_by_) {
    if (item.expr->ContainsAggregate()) has_agg = true;
  }

  if (has_agg) {
    ASSIGN_OR_RETURN(root, AddAggregation(std::move(root)));
  }
  ASSIGN_OR_RETURN(root, AddProjection(std::move(root)));
  if (stmt_.distinct) {
    ASSIGN_OR_RETURN(root, AddDistinct(std::move(root)));
  }
  ASSIGN_OR_RETURN(root, AddOrderByAndLimit(std::move(root)));
  FoldPlanConstants(root.get());
  AttachZoneFiltersToScans(root.get());
  if (options_.parallelism > 1) ParallelizePlan(&root);
  {
    metrics::ScopedSpan compile_span("query.compile");
    CompilePlanPrograms(root.get(), udfs_);
  }
  return root;
}

Result<PlanPtr> Planner::PlanSelect(const SelectStatement& stmt) const {
  static metrics::Counter* plans_total =
      metrics::GetCounter("planner.plans_total");
  static metrics::Counter* plan_ns_total =
      metrics::GetCounter("planner.plan_ns_total");
  // Under a query's trace, the span nests below query.execute, and the
  // compile span below it.
  metrics::ScopedSpan plan_span("query.plan");
  const uint64_t start = metrics::NowNanos();
  SelectPlanner planner(catalog_, udfs_, options_, stmt);
  Result<PlanPtr> plan = planner.Plan();
  plans_total->Increment();
  plan_ns_total->Add(metrics::NowNanos() - start);
  return plan;
}

}  // namespace sinew::engine
