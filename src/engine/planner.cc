#include "engine/planner.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <set>
#include <unordered_map>

#include "common/metrics.h"
#include "common/value.h"
#include "engine/bytecode.h"
#include "engine/eval.h"

namespace sinew::engine {

namespace {

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
/// are all literals is evaluated once here instead of per row at execution
/// time (`1 + 1`, `'a' = 'a'`, `5 BETWEEN 1 AND 9`). Subtrees that error
/// (e.g. `1/0`) stay in place so the error still surfaces at runtime, and
/// kFunction/kCase are never folded (UDFs are opaque to the planner).
/// Decided AND/OR left sides fold too — the row evaluator's Kleene logic
/// never evaluates the right side of `FALSE AND x` / `TRUE OR x`, so
/// replacing the conjunction with the decided literal is exact.
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
    if (lhs.kind == ExprKind::kLiteral && lhs.literal.is_bool() &&
        lhs.literal.bool_value() == is_or) {
      *expr = Expr::Literal(Datum::Bool(is_or));
      return;
    }
  }
  for (const ExprPtr& arg : e.args) {
    if (arg->kind != ExprKind::kLiteral) return;
  }
  Result<Datum> value = EvalExpr(e, {}, nullptr);
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
  if (node->residual != nullptr) FoldConstants(&node->residual);
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

/// Final planning pass: compile the streaming operators' expression slots —
/// scan filters, filter predicates, projections, hash-join probe keys — to
/// bytecode programs (engine/bytecode.h), the executor's only batch
/// evaluator. Runs after every plan rewrite (constant folding, zone-filter
/// attachment, extraction hoisting, parallelization) so the Expr trees the
/// programs alias, and the bound slots the compiler collects for fallback
/// lanes, are final.
void CompilePlanPrograms(PlanNode* node, const UdfRegistry* udfs) {
  switch (node->kind) {
    case PlanKind::kSeqScan:
      if (node->scan_filter != nullptr) {
        node->scan_filter_program = bytecode::Compile(
            *node->scan_filter, node->output_schema.cols.size(), udfs);
      }
      break;
    case PlanKind::kFilter:
      if (node->predicate != nullptr && !node->children.empty()) {
        node->predicate_program = bytecode::Compile(
            *node->predicate, node->children[0]->output_schema.cols.size(),
            udfs);
      }
      break;
    case PlanKind::kProject:
      if (!node->children.empty()) {
        const size_t width = node->children[0]->output_schema.cols.size();
        node->projection_programs.resize(node->projections.size());
        for (size_t i = 0; i < node->projections.size(); ++i) {
          // A bare bound column ref needs no program: the project operator
          // moves or gathers the input column itself.
          if (node->projections[i]->IsBoundColumnRef()) continue;
          node->projection_programs[i] =
              bytecode::Compile(*node->projections[i], width, udfs);
        }
      }
      break;
    case PlanKind::kHashJoin:
      if (!node->children.empty()) {
        const size_t width = node->children[0]->output_schema.cols.size();
        node->probe_key_programs.resize(node->left_keys.size());
        for (size_t i = 0; i < node->left_keys.size(); ++i) {
          node->probe_key_programs[i] =
              bytecode::Compile(*node->left_keys[i], width, udfs);
        }
      }
      break;
    default:
      break;
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
    ExecSchema schema;
    TableStats stats;
    double base_rows = 0;
  };

  struct Rel {
    PlanPtr plan;
    std::set<std::string> aliases;
  };

  // --- helpers ---
  Status BuildScans();
  Status CollectColumnUsage();
  Result<PlanPtr> BuildJoinTree();
  Result<PlanPtr> AddAggregation(PlanPtr child, std::vector<SelectItem>* items,
                                 ExprPtr* having,
                                 std::vector<OrderItem>* order_by);
  Result<PlanPtr> AddProjection(PlanPtr child,
                                std::vector<SelectItem> items);
  Result<PlanPtr> AddDistinct(PlanPtr child);
  Result<PlanPtr> AddOrderByAndLimit(PlanPtr child,
                                     std::vector<OrderItem> order_by);
  void HoistBatchedExtraction(PlanPtr* node) const;
  void TryHoistBatchedExtraction(PlanNode* cap) const;
  void ParallelizePlan(PlanPtr* node) const;
  int ParallelDegreeFor(const PlanNode& chain) const;
  static bool IsPipelineChain(const PlanNode& node);

  double ConjunctSelectivity(const Expr& conjunct, const ScanInfo& scan) const;
  double ExprDistinct(const Expr& expr, const ExecSchema& schema) const;
  const ScanInfo* FindScan(const std::string& alias) const;

  /// Aliases referenced by a bound expression.
  static void CollectAliases(const Expr& e, std::set<std::string>* out) {
    if (e.kind == ExprKind::kColumnRef && !e.table.empty()) {
      out->insert(e.table);
    }
    for (const ExprPtr& a : e.args) CollectAliases(*a, out);
  }

  Catalog* catalog_;
  const UdfRegistry* udfs_;
  const PlannerOptions& options_;
  const SelectStatement& stmt_;

  std::vector<ScanInfo> scans_;
  std::vector<std::string> aliases_;
  ExecSchema global_schema_;
  // Conjuncts bound against global_schema_, classified by referenced aliases.
  std::vector<std::pair<ExprPtr, std::set<std::string>>> conjuncts_;
  // Column stats lookup across all scans by (alias, column).
  std::map<std::pair<std::string, std::string>, const ColumnStats*> stats_by_col_;
  std::map<std::string, double> table_rows_by_alias_;
  // Projection pushdown: per-alias referenced scan positions, or "all".
  std::map<std::string, std::set<size_t>> needed_positions_;
  std::set<std::string> fully_needed_;
  std::map<std::string, size_t> scan_base_offset_;  // alias -> global offset
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
  for (const ScanInfo& scan : scans_) {
    scan_base_offset_[scan.alias] = global_schema_.cols.size();
    for (const ExecSchema::Col& col : scan.schema.cols) {
      global_schema_.cols.push_back(col);
      const ColumnStats* cs =
          scan.stats.analyzed ? scan.stats.Find(col.name) : nullptr;
      stats_by_col_[{scan.alias, col.name}] = cs;
    }
  }
  if (stmt_.where != nullptr) {
    std::vector<ExprPtr> parts = SplitConjuncts(*stmt_.where);
    for (ExprPtr& part : parts) {
      RETURN_NOT_OK(BindExpr(part.get(), global_schema_, aliases_));
      std::set<std::string> refs;
      CollectAliases(*part, &refs);
      conjuncts_.emplace_back(std::move(part), std::move(refs));
    }
  }
  return Status::OK();
}

Status Planner::SelectPlanner::CollectColumnUsage() {
  auto mark_all = [this](const std::string& alias_filter) {
    for (const ScanInfo& scan : scans_) {
      if (alias_filter.empty() || scan.alias == alias_filter) {
        fully_needed_.insert(scan.alias);
      }
    }
  };
  auto note_bound_refs = [this](const Expr& bound) {
    std::vector<const Expr*> refs;
    bound.CollectColumnRefs(&refs);
    for (const Expr* ref : refs) {
      auto base = scan_base_offset_.find(ref->table);
      if (base == scan_base_offset_.end() || ref->bound_slot < 0) continue;
      needed_positions_[ref->table].insert(
          static_cast<size_t>(ref->bound_slot) - base->second);
    }
  };
  // Clone-free best-effort resolution for the (possibly very wide) select
  // list: resolve each reference name against the scan schemas directly,
  // through a per-scan name index built once; an unresolvable unqualified
  // name falls back to conservative marking.
  std::vector<std::unordered_multimap<std::string_view, size_t>> positions(
      scans_.size());
  for (size_t s = 0; s < scans_.size(); ++s) {
    const std::vector<ExecSchema::Col>& cols = scans_[s].schema.cols;
    positions[s].reserve(cols.size());
    for (size_t i = 0; i < cols.size(); ++i) {
      positions[s].emplace(cols[i].name, i);
    }
  }
  auto note_light = [&](auto&& self, const Expr& e) -> void {
    if (e.kind == ExprKind::kColumnRef) {
      bool found = false;
      for (size_t s = 0; s < scans_.size(); ++s) {
        const ScanInfo& scan = scans_[s];
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
          needed_positions_[scan.alias].insert(it->second);
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
  for (const SelectItem& item : stmt_.items) consider(*item.expr);
  for (const ExprPtr& g : stmt_.group_by) consider(*g);
  if (stmt_.having != nullptr) consider(*stmt_.having);
  for (const OrderItem& item : stmt_.order_by) consider(*item.expr);
  for (const auto& [conjunct, refs] : conjuncts_) {
    (void)refs;
    note_bound_refs(*conjunct);
  }
  return Status::OK();
}

const Planner::SelectPlanner::ScanInfo* Planner::SelectPlanner::FindScan(
    const std::string& alias) const {
  for (const ScanInfo& scan : scans_) {
    if (scan.alias == alias) return &scan;
  }
  return nullptr;
}

double Planner::SelectPlanner::ConjunctSelectivity(
    const Expr& conjunct, const ScanInfo& scan) const {
  const double rows = std::max(scan.base_rows, 1.0);
  // Predicates routed through UDFs are opaque to the optimizer: fixed
  // absolute row estimate (the paper's observed Postgres behaviour).
  if (conjunct.ContainsNonAggregateFunction()) {
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

double Planner::SelectPlanner::ExprDistinct(const Expr& expr,
                                            const ExecSchema& schema) const {
  (void)schema;
  if (expr.kind == ExprKind::kColumnRef) {
    auto it = stats_by_col_.find({expr.table, expr.column});
    if (it != stats_by_col_.end() && it->second != nullptr &&
        it->second->ndistinct >= 1) {
      return it->second->ndistinct;
    }
    return options_.default_udf_distinct;
  }
  // Expressions (UDF extractions in particular) have no statistics.
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
    // Projection pushdown: which scan positions must be decoded.
    node->scan_projected = true;
    std::set<size_t> filter_cols;
    if (node->scan_filter != nullptr) {
      std::vector<const Expr*> refs;
      node->scan_filter->CollectColumnRefs(&refs);
      for (const Expr* ref : refs) {
        if (ref->bound_slot >= 0) {
          filter_cols.insert(static_cast<size_t>(ref->bound_slot));
        }
      }
    }
    std::set<size_t> output_cols;
    if (fully_needed_.count(scan.alias) != 0) {
      for (size_t i = 0; i < scan.schema.cols.size(); ++i) {
        output_cols.insert(i);
      }
    } else {
      auto it = needed_positions_.find(scan.alias);
      if (it != needed_positions_.end()) output_cols = it->second;
    }
    for (size_t col : filter_cols) output_cols.erase(col);
    node->scan_filter_cols.assign(filter_cols.begin(), filter_cols.end());
    node->scan_output_cols.assign(output_cols.begin(), output_cols.end());
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
            double ndl = ExprDistinct(*eq.args[0], global_schema_);
            double ndr = ExprDistinct(*eq.args[1], global_schema_);
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
      sel *= c->ContainsNonAggregateFunction()
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

Result<PlanPtr> Planner::SelectPlanner::AddAggregation(
    PlanPtr child, std::vector<SelectItem>* items, ExprPtr* having,
    std::vector<OrderItem>* order_by) {
  std::vector<std::string> group_texts;
  group_texts.reserve(stmt_.group_by.size());
  for (const ExprPtr& g : stmt_.group_by) group_texts.push_back(g->ToString());

  std::vector<const Expr*> agg_nodes;
  std::vector<ExprPtr> agg_clones;
  for (SelectItem& item : *items) {
    RewriteAggRefs(&item.expr, group_texts, &agg_nodes, &agg_clones);
  }
  if (*having != nullptr) {
    RewriteAggRefs(having, group_texts, &agg_nodes, &agg_clones);
  }
  for (OrderItem& item : *order_by) {
    RewriteAggRefs(&item.expr, group_texts, &agg_nodes, &agg_clones);
  }

  auto agg = std::make_unique<PlanNode>();
  double est_groups = 1.0;
  for (size_t g = 0; g < stmt_.group_by.size(); ++g) {
    ExprPtr key = stmt_.group_by[g]->Clone();
    RETURN_NOT_OK(BindExpr(key.get(), child->output_schema, aliases_));
    est_groups *= ExprDistinct(*key, child->output_schema);
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
  agg->est_rows = stmt_.group_by.empty() ? 1.0 : est_groups;
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
  if (*having != nullptr) {
    ExprPtr pred = std::move(*having);
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

Result<PlanPtr> Planner::SelectPlanner::AddProjection(
    PlanPtr child, std::vector<SelectItem> items) {
  auto project = std::make_unique<PlanNode>();
  project->kind = PlanKind::kProject;
  project->est_rows = child->est_rows;
  for (SelectItem& item : items) {
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
    est *= ExprDistinct(*p, project->children.empty()
                                ? project->output_schema
                                : project->children[0]->output_schema);
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
  unique->children.push_back(std::move(sort));
  return PlanPtr(std::move(unique));
}

Result<PlanPtr> Planner::SelectPlanner::AddOrderByAndLimit(
    PlanPtr child, std::vector<OrderItem> order_by) {
  if (!order_by.empty()) {
    // Bind order expressions against the projection output; if a reference
    // does not exist there (ORDER BY over a non-projected column), extend
    // the projection with hidden columns and strip them afterwards.
    PlanNode* project =
        child->kind == PlanKind::kProject ? child.get() : nullptr;
    std::vector<ExprPtr> bound_keys;
    std::vector<bool> desc;
    size_t visible_cols = child->output_schema.cols.size();
    bool added_hidden = false;
    for (OrderItem& item : order_by) {
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

/// The batch-extract implementation Sinew registers (see
/// sinew/extract_functions.cc). The hoist pass only runs when this name is
/// resolvable, so engine-only databases are unaffected.
constexpr std::string_view kBatchExtractFnName = "sinew_extract_many";

/// A document-extraction call the planner can fold into a kExtract node:
/// sinew_extract_chain[_bytes](<bound column>, <type tag>, <id>...). The
/// rewriter resolves every id literal at bind time, which is exactly what
/// makes the call hoistable — its per-row work is a pure function of the
/// source column.
bool IsHoistableChainCall(const Expr& e) {
  if (e.kind != ExprKind::kFunction) return false;
  if (e.fname != "sinew_extract_chain" &&
      e.fname != "sinew_extract_chain_bytes") {
    return false;
  }
  if (e.args.size() < 3) return false;
  if (e.args[0]->kind != ExprKind::kColumnRef || e.args[0]->bound_slot < 0) {
    return false;
  }
  for (size_t i = 1; i < e.args.size(); ++i) {
    if (e.args[i]->kind != ExprKind::kLiteral ||
        !e.args[i]->literal.is_int()) {
      return false;
    }
  }
  return true;
}

/// Collects pointers to every maximal hoistable chain-call subtree (calls
/// nested inside COALESCE etc. are found; the enclosing expression stays).
void CollectChainCallSites(ExprPtr* expr, std::vector<ExprPtr*>* sites) {
  if (IsHoistableChainCall(**expr)) {
    sites->push_back(expr);
    return;
  }
  for (ExprPtr& a : (*expr)->args) CollectChainCallSites(&a, sites);
}

ExtractTarget TargetFromCall(const Expr& call) {
  ExtractTarget t;
  t.source_slot = call.args[0]->bound_slot;
  t.type_tag = call.args[1]->literal.int_value();
  t.raw_bytes = call.fname == "sinew_extract_chain_bytes";
  for (size_t i = 2; i + 1 < call.args.size(); ++i) {
    t.prefix_ids.push_back(
        static_cast<uint32_t>(call.args[i]->literal.int_value()));
  }
  t.attr_id = static_cast<uint32_t>(call.args.back()->literal.int_value());
  return t;
}

/// Total order on extract targets: (source, prefix chain, attr id, raw
/// bytes, type tag) — the BatchExtractFn contract that lets the
/// implementation decode each source once and merge-join all wanted ids in
/// a single ascending pass.
bool TargetLess(const ExtractTarget& a, const ExtractTarget& b) {
  if (a.source_slot != b.source_slot) return a.source_slot < b.source_slot;
  if (a.prefix_ids != b.prefix_ids) return a.prefix_ids < b.prefix_ids;
  if (a.attr_id != b.attr_id) return a.attr_id < b.attr_id;
  if (a.raw_bytes != b.raw_bytes) return a.raw_bytes < b.raw_bytes;
  return a.type_tag < b.type_tag;
}

/// A hoistable decode-to-value chain call over a scalar type tag — the only
/// calls whose comparisons a column strip's zone map can reason about (the
/// _bytes variant and object/array extractions have no strip columns).
bool IsZoneEligibleChainCall(const Expr& e) {
  if (!IsHoistableChainCall(e) || e.fname != "sinew_extract_chain") {
    return false;
  }
  const int64_t tag = e.args[1]->literal.int_value();
  return tag == static_cast<int64_t>(ValueType::kBool) ||
         tag == static_cast<int64_t>(ValueType::kInt) ||
         tag == static_cast<int64_t>(ValueType::kDouble) ||
         tag == static_cast<int64_t>(ValueType::kString);
}

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

ZoneFilter ZoneFilterFromCall(const Expr& call, const ExecSchema& scan_schema,
                              BinaryOp op, const Datum& literal) {
  ExtractTarget t = TargetFromCall(call);
  ZoneFilter zf;
  zf.source_column = scan_schema.cols[static_cast<size_t>(t.source_slot)].name;
  zf.prefix_ids = std::move(t.prefix_ids);
  zf.attr_id = t.attr_id;
  zf.type_tag = t.type_tag;
  zf.op = op;
  zf.literal = literal;
  return zf;
}

/// Derives zone filters from one pushed-down conjunct. Recognized shapes:
/// chain-call-vs-literal comparisons (either side; the op flips when the
/// literal is on the left) and non-negated BETWEEN with literal bounds.
/// Anything else contributes nothing — a zone filter is a pure accelerator
/// whose only promise is "no row of a skipped strip satisfies the conjunct".
void CollectZoneFilters(const Expr& conjunct, const ExecSchema& scan_schema,
                        std::vector<ZoneFilter>* out) {
  if (conjunct.kind == ExprKind::kBinary && IsComparisonOp(conjunct.bop) &&
      conjunct.args.size() == 2) {
    const Expr& lhs = *conjunct.args[0];
    const Expr& rhs = *conjunct.args[1];
    if (IsZoneEligibleChainCall(lhs) && rhs.kind == ExprKind::kLiteral) {
      out->push_back(
          ZoneFilterFromCall(lhs, scan_schema, conjunct.bop, rhs.literal));
    } else if (IsZoneEligibleChainCall(rhs) &&
               lhs.kind == ExprKind::kLiteral) {
      out->push_back(ZoneFilterFromCall(
          rhs, scan_schema, FlipComparisonOp(conjunct.bop), lhs.literal));
    }
    return;
  }
  if (conjunct.kind == ExprKind::kBetween && !conjunct.negated &&
      conjunct.args.size() == 3 &&
      IsZoneEligibleChainCall(*conjunct.args[0]) &&
      conjunct.args[1]->kind == ExprKind::kLiteral &&
      conjunct.args[2]->kind == ExprKind::kLiteral) {
    out->push_back(ZoneFilterFromCall(*conjunct.args[0], scan_schema,
                                      BinaryOp::kGe,
                                      conjunct.args[1]->literal));
    out->push_back(ZoneFilterFromCall(*conjunct.args[0], scan_schema,
                                      BinaryOp::kLe,
                                      conjunct.args[2]->literal));
  }
}

/// Attaches zone filters to every base scan whose pushed-down filter holds
/// chain-call comparisons. Runs before extraction hoisting, while those
/// conjuncts still live in the scan filter as literal calls; the zone
/// filters stay on the scan either way, because strip skipping happens
/// there regardless of where the conjunct is ultimately evaluated.
void AttachZoneFiltersToScans(PlanNode* node) {
  if (node->kind == PlanKind::kSeqScan && node->scan_filter != nullptr &&
      node->table != nullptr) {
    for (const ExprPtr& part : SplitConjuncts(*node->scan_filter)) {
      CollectZoneFilters(*part, node->output_schema, &node->zone_filters);
    }
  }
  for (PlanPtr& child : node->children) AttachZoneFiltersToScans(child.get());
}

}  // namespace

// Post-pass: fold repeated document-extraction calls over one scan into
// kExtract nodes — predicate attributes into one node below the rebuilt
// filter (predicates and projections of the same attribute share that
// decode), projection-only attributes into one node above it (rows the
// filter drops never pay for them). Only pipelines capped by a Project or
// Aggregate are rewritten — their output schemas hide the appended columns
// from everything upstream.
void Planner::SelectPlanner::HoistBatchedExtraction(PlanPtr* node) const {
  PlanNode& n = **node;
  if ((n.kind == PlanKind::kProject || n.kind == PlanKind::kHashAggregate ||
       n.kind == PlanKind::kGroupAggregate) &&
      n.children.size() == 1) {
    TryHoistBatchedExtraction(&n);
  }
  for (PlanPtr& child : n.children) HoistBatchedExtraction(&child);
}

void Planner::SelectPlanner::TryHoistBatchedExtraction(PlanNode* cap) const {
  // Walk down through schema-preserving streaming nodes to a base scan.
  std::vector<PlanNode*> mid;
  PlanPtr* slot = &cap->children[0];
  while (((*slot)->kind == PlanKind::kFilter ||
          (*slot)->kind == PlanKind::kSort ||
          (*slot)->kind == PlanKind::kUnique ||
          (*slot)->kind == PlanKind::kLimit) &&
         (*slot)->children.size() == 1) {
    mid.push_back(slot->get());
    slot = &(*slot)->children[0];
  }
  if ((*slot)->kind != PlanKind::kSeqScan) return;
  PlanNode* scan = slot->get();
  // The scan's __rid pseudo-column lets the extract nodes map each row back
  // to its slot in the table's columnar segment (strips appended later keep
  // its position, so one resolution serves both nodes).
  int rid_slot = -1;
  for (size_t i = 0; i < scan->output_schema.cols.size(); ++i) {
    if (scan->output_schema.cols[i].name == "__rid") {
      rid_slot = static_cast<int>(i);
      break;
    }
  }

  // Conjuncts of the pushed-down scan filter that contain extraction calls
  // must move above the extract node; the rest stay pushed down.
  std::vector<ExprPtr> keep, moved;
  if (scan->scan_filter != nullptr) {
    std::vector<ExprPtr> parts = SplitConjuncts(*scan->scan_filter);
    for (ExprPtr& part : parts) {
      std::vector<ExprPtr*> in_part;
      CollectChainCallSites(&part, &in_part);
      (in_part.empty() ? keep : moved).push_back(std::move(part));
    }
  }

  // Sites referenced by a predicate must be extracted below the rebuilt
  // filter; sites referenced only by sort keys or the cap are extracted
  // above it, so rows the filter drops never pay for projection-only
  // attributes (SELECT * behind a selective virtual predicate would
  // otherwise decode the whole wide schema for every row).
  std::vector<ExprPtr*> below_sites, above_sites;
  for (ExprPtr& part : moved) CollectChainCallSites(&part, &below_sites);
  for (PlanNode* m : mid) {
    if (m->kind == PlanKind::kFilter && m->predicate != nullptr) {
      CollectChainCallSites(&m->predicate, &below_sites);
    }
    for (ExprPtr& k : m->sort_keys) CollectChainCallSites(&k, &above_sites);
  }
  if (cap->kind == PlanKind::kProject) {
    for (ExprPtr& p : cap->projections) {
      CollectChainCallSites(&p, &above_sites);
    }
  } else {
    for (ExprPtr& k : cap->group_keys) CollectChainCallSites(&k, &above_sites);
    for (AggSpec& a : cap->aggs) {
      if (a.arg != nullptr) CollectChainCallSites(&a.arg, &above_sites);
    }
  }
  // A lone call gains nothing from batching (one decode either way) and
  // would pay an extra operator hop; leave it on the scalar UDF path.
  if (below_sites.size() + above_sites.size() < 2) return;

  // A lone predicate site decodes once per row either way and is cheapest
  // evaluated inside the scan, where dropped rows are never materialized
  // through the extra operator hop. Hoist a predicate group only when it
  // batches at least two call sites into one decode.
  if (below_sites.size() < 2) {
    below_sites.clear();
    moved.clear();  // conjuncts stay in the scan filter, on the chain path
  }

  // Dedupe call sites by extract target (the call's source slot, prefix
  // chain, attr id and form): sorted by target, equal targets are adjacent
  // and share one output column, and each group is already in the
  // BatchExtractFn order (see TargetLess). A site that appears in both a
  // predicate and the projection lands in the below group: predicate and
  // projection then share one decode through the same output column.
  struct Site {
    ExtractTarget target;
    ExprPtr* expr;
    int slot = -1;  // output column, once its extract node is built
  };
  auto sort_sites = [](const std::vector<ExprPtr*>& exprs) {
    std::vector<Site> sites;
    sites.reserve(exprs.size());
    for (ExprPtr* e : exprs) sites.push_back(Site{TargetFromCall(**e), e});
    std::sort(sites.begin(), sites.end(), [](const Site& a, const Site& b) {
      return TargetLess(a.target, b.target);
    });
    return sites;
  };
  std::vector<Site> below = sort_sites(below_sites);
  auto find_below = [&below](const ExtractTarget& t) -> const Site* {
    auto it = std::lower_bound(
        below.begin(), below.end(), t,
        [](const Site& s, const ExtractTarget& x) {
          return TargetLess(s.target, x);
        });
    return it != below.end() && !TargetLess(t, it->target) ? &*it : nullptr;
  };

  // Above-group sites whose target matches a predicate target reuse its
  // output column for free. A single remaining fresh site stays on the
  // chain path for the same lone-site reason; two or more batch into one
  // decode per filter-surviving row.
  std::vector<Site> shared_above;
  std::vector<ExprPtr*> fresh_exprs;
  fresh_exprs.reserve(above_sites.size());
  for (ExprPtr* site : above_sites) {
    ExtractTarget t = TargetFromCall(**site);
    if (find_below(t) != nullptr) {
      shared_above.push_back(Site{std::move(t), site});
    } else {
      fresh_exprs.push_back(site);
    }
  }
  const bool hoist_above = fresh_exprs.size() >= 2;
  if (below.empty() && !hoist_above) return;
  std::vector<Site> fresh_above;
  if (hoist_above) fresh_above = sort_sites(fresh_exprs);

  size_t next_rank = 0;
  // Builds one kExtract node appending one output column per distinct
  // target of the (sorted) sites to in_schema, and records each site's
  // output column.
  auto make_extract = [&](std::vector<Site>* sites,
                          const ExecSchema& in_schema) -> PlanPtr {
    auto extract = std::make_unique<PlanNode>();
    extract->kind = PlanKind::kExtract;
    extract->extract_fn = std::string(kBatchExtractFnName);
    extract->extract_table = scan->table;
    extract->extract_rid_slot = rid_slot;
    extract->output_schema = in_schema;
    extract->est_rows = scan->est_rows;
    std::vector<ExecSchema::Col>& cols = extract->output_schema.cols;
    cols.reserve(in_schema.cols.size() + sites->size());
    for (size_t i = 0; i < sites->size(); ++i) {
      Site& site = (*sites)[i];
      if (i == 0 || TargetLess((*sites)[i - 1].target, site.target)) {
        cols.push_back(ExecSchema::Col{
            "", "$x" + std::to_string(next_rank++),
            InferType(**site.expr, scan->output_schema)});
        extract->extract_targets.push_back(site.target);
      }
      site.slot = static_cast<int>(cols.size() - 1);
    }
    return extract;
  };

  // Rebuild the pushed-down filter and its projection pushdown: columns a
  // moved conjunct needed (the reservoir in particular) shift from the
  // filter phase to the output phase, so the decoded set is unchanged.
  if (!moved.empty()) {
    std::set<size_t> decoded(scan->scan_filter_cols.begin(),
                             scan->scan_filter_cols.end());
    decoded.insert(scan->scan_output_cols.begin(),
                   scan->scan_output_cols.end());
    scan->scan_filter =
        keep.empty() ? nullptr : CombineConjuncts(std::move(keep));
    std::set<size_t> filter_cols;
    if (scan->scan_filter != nullptr) {
      std::vector<const Expr*> refs;
      scan->scan_filter->CollectColumnRefs(&refs);
      for (const Expr* ref : refs) {
        if (ref->bound_slot >= 0) {
          filter_cols.insert(static_cast<size_t>(ref->bound_slot));
        }
      }
    }
    for (size_t col : filter_cols) decoded.erase(col);
    scan->scan_filter_cols.assign(filter_cols.begin(), filter_cols.end());
    scan->scan_output_cols.assign(decoded.begin(), decoded.end());
  }

  // Build both nodes up front (the above node's input schema includes the
  // below node's outputs), then swap call sites while the moved conjuncts
  // are still intact, then splice.
  PlanPtr below_node, above_node;
  if (!below.empty()) below_node = make_extract(&below, scan->output_schema);
  for (Site& site : shared_above) site.slot = find_below(site.target)->slot;
  if (hoist_above) {
    above_node = make_extract(
        &fresh_above,
        below_node ? below_node->output_schema : scan->output_schema);
  }

  // Swap every call site for a reference to its extract output column.
  // Below-group outputs flow through the filter and the above node, so a
  // projection referencing a predicate attribute reuses the below decode.
  const ExecSchema& spliced_schema =
      (above_node ? above_node : below_node)->output_schema;
  for (const std::vector<Site>* group : {&below, &shared_above, &fresh_above}) {
    for (const Site& site : *group) {
      // The call node itself becomes the column ref (its arguments go).
      Expr& e = **site.expr;
      e.kind = ExprKind::kColumnRef;
      e.fname.clear();
      e.args.clear();
      e.column = spliced_schema.cols[static_cast<size_t>(site.slot)].name;
      e.bound_slot = site.slot;
    }
  }

  // Splice: scan -> extract(predicate attrs) [-> filter with the moved
  // conjuncts] [-> extract(projection-only attrs)], and widen the schemas
  // of the pass-through nodes above (rows now carry the appended columns up
  // to the cap, whose own output schema hides them).
  PlanPtr spliced = std::move(*slot);
  if (below_node) {
    below_node->children.push_back(std::move(spliced));
    spliced = std::move(below_node);
  }
  if (!moved.empty()) {
    auto filter = std::make_unique<PlanNode>();
    filter->kind = PlanKind::kFilter;
    filter->predicate = CombineConjuncts(std::move(moved));
    filter->output_schema = spliced->output_schema;
    filter->est_rows = spliced->est_rows;
    filter->children.push_back(std::move(spliced));
    spliced = std::move(filter);
  }
  if (above_node) {
    above_node->children.push_back(std::move(spliced));
    spliced = std::move(above_node);
  }

  for (PlanNode* m : mid) m->output_schema = spliced->output_schema;
  *slot = std::move(spliced);

  // Deferred-bytes pushdown: a serialized source column whose decoded bytes
  // feed *only* the hoisted extract targets can skip its per-row decode
  // whenever the table's columnar segment serves every one of those targets
  // (the scan checks at runtime; see exec.cc). Candidate positions come
  // from the extract nodes just spliced in; a position is disqualified if
  // anything else still reads the column — the pushed-down scan filter, the
  // rebuilt mid-pipeline filter, sort keys, the cap's own expressions — or
  // if a DISTINCT sits in the chain (it compares entire rows), or if a
  // raw-bytes target wants the serialized form itself.
  bool lazy_ok = true;
  for (PlanNode* m : mid) {
    if (m->kind == PlanKind::kUnique) lazy_ok = false;
  }
  if (cap->kind == PlanKind::kUnique) lazy_ok = false;
  if (lazy_ok) {
    std::vector<const Expr*> refs;
    auto collect = [&refs](const ExprPtr& e) {
      if (e != nullptr) e->CollectColumnRefs(&refs);
    };
    for (const ExprPtr& p : cap->projections) collect(p);
    for (const ExprPtr& k : cap->group_keys) collect(k);
    for (const AggSpec& a : cap->aggs) collect(a.arg);
    for (PlanNode* m : mid) {
      collect(m->predicate);
      for (const ExprPtr& k : m->sort_keys) collect(k);
    }
    std::map<int, std::vector<ExtractTarget>> candidates;
    // Only scan positions can be deferred; references to columns the
    // extract nodes appended lie beyond them.
    std::vector<bool> disqualified(scan->output_schema.cols.size(), false);
    auto disqualify = [&disqualified](int pos) {
      if (pos >= 0 && static_cast<size_t>(pos) < disqualified.size()) {
        disqualified[static_cast<size_t>(pos)] = true;
      }
    };
    for (PlanNode* n = slot->get(); n != scan;
         n = n->children[0].get()) {
      if (n->kind == PlanKind::kFilter) collect(n->predicate);
      if (n->kind != PlanKind::kExtract) continue;
      for (const ExtractTarget& t : n->extract_targets) {
        if (t.source_slot < 0) continue;
        if (t.raw_bytes) disqualify(t.source_slot);
        candidates[t.source_slot].push_back(t);
      }
    }
    collect(scan->scan_filter);
    for (const Expr* ref : refs) disqualify(ref->bound_slot);
    for (auto& [pos, targets] : candidates) {
      if (static_cast<size_t>(pos) >= disqualified.size() ||
          disqualified[static_cast<size_t>(pos)]) {
        continue;
      }
      LazyScanSource source;
      source.output_pos = pos;
      source.targets = std::move(targets);
      scan->lazy_sources.push_back(std::move(source));
    }
  }
}

// A scan → filter → project pipeline: the plan shape Gather workers can run
// independently over disjoint morsels (one base table, no blocking state).
bool Planner::SelectPlanner::IsPipelineChain(const PlanNode& node) {
  if (node.kind == PlanKind::kSeqScan) return true;
  if ((node.kind == PlanKind::kFilter || node.kind == PlanKind::kProject ||
       node.kind == PlanKind::kExtract) &&
      node.children.size() == 1) {
    return IsPipelineChain(*node.children[0]);
  }
  return false;
}

int Planner::SelectPlanner::ParallelDegreeFor(const PlanNode& chain) const {
  const PlanNode* leaf = &chain;
  while (!leaf->children.empty()) leaf = leaf->children[0].get();
  auto it = table_rows_by_alias_.find(leaf->alias);
  double rows = it != table_rows_by_alias_.end() ? it->second : 0.0;
  // Each worker should have at least parallel_min_rows rows to chew on;
  // otherwise fan-out overhead dominates and the pipeline stays serial.
  double workers = std::ceil(rows / std::max(options_.parallel_min_rows, 1.0));
  return static_cast<int>(
      std::min(static_cast<double>(options_.parallelism), workers));
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
  RETURN_NOT_OK(CollectColumnUsage());
  ASSIGN_OR_RETURN(PlanPtr root, BuildJoinTree());

  // Clone the mutable pieces of the statement.
  std::vector<SelectItem> items;
  for (const SelectItem& item : stmt_.items) {
    SelectItem copy;
    copy.expr = item.expr->Clone();
    copy.alias = item.alias;
    items.push_back(std::move(copy));
  }
  ExprPtr having = stmt_.having != nullptr ? stmt_.having->Clone() : nullptr;
  std::vector<OrderItem> order_by;
  for (const OrderItem& item : stmt_.order_by) {
    OrderItem copy;
    copy.expr = item.expr->Clone();
    copy.descending = item.descending;
    order_by.push_back(std::move(copy));
  }

  bool has_agg = !stmt_.group_by.empty() || having != nullptr;
  for (const SelectItem& item : items) {
    if (item.expr->ContainsAggregate()) has_agg = true;
  }
  for (const OrderItem& item : order_by) {
    if (item.expr->ContainsAggregate()) has_agg = true;
  }

  if (has_agg) {
    ASSIGN_OR_RETURN(root, AddAggregation(std::move(root), &items, &having,
                                          &order_by));
  }
  ASSIGN_OR_RETURN(root, AddProjection(std::move(root), std::move(items)));
  if (stmt_.distinct) {
    ASSIGN_OR_RETURN(root, AddDistinct(std::move(root)));
  }
  ASSIGN_OR_RETURN(root,
                   AddOrderByAndLimit(std::move(root), std::move(order_by)));
  FoldPlanConstants(root.get());
  AttachZoneFiltersToScans(root.get());
  if (options_.enable_batched_extraction && udfs_ != nullptr &&
      udfs_->FindBatchExtract(kBatchExtractFnName) != nullptr) {
    HoistBatchedExtraction(&root);
  }
  if (options_.parallelism > 1) ParallelizePlan(&root);
  CompilePlanPrograms(root.get(), udfs_);
  return root;
}

Result<PlanPtr> Planner::PlanSelect(const SelectStatement& stmt) const {
  static metrics::Counter* plans_total =
      metrics::GetCounter("planner.plans_total");
  static metrics::Counter* plan_ns_total =
      metrics::GetCounter("planner.plan_ns_total");
  const uint64_t start = metrics::NowNanos();
  SelectPlanner planner(catalog_, udfs_, options_, stmt);
  Result<PlanPtr> plan = planner.Plan();
  plans_total->Increment();
  plan_ns_total->Add(metrics::NowNanos() - start);
  return plan;
}

}  // namespace sinew::engine
