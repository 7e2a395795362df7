#include "sinew/rewriter.h"

#include <algorithm>
#include <set>
#include <span>
#include <unordered_set>

#include "common/metrics.h"
#include "engine/parser.h"
#include "sinew/loader.h"

namespace sinew {

namespace {

using engine::BinaryOp;
using engine::Expr;
using engine::ExprKind;
using engine::ExprPtr;

/// Type evidence propagated down the expression tree.
enum class Hint { kAny, kText, kNum, kBool, kBytes };

Hint HintFromLiteral(const engine::Datum& literal) {
  switch (literal.kind()) {
    case engine::Datum::Kind::kText:
      return Hint::kText;
    case engine::Datum::Kind::kInt:
    case engine::Datum::Kind::kDouble:
      return Hint::kNum;
    case engine::Datum::Kind::kBool:
      return Hint::kBool;
    default:
      return Hint::kAny;
  }
}

Hint HintFromExpr(const Expr& e) {
  return e.kind == ExprKind::kLiteral ? HintFromLiteral(e.literal) : Hint::kAny;
}

}  // namespace

class QueryRewriter::Impl {
 public:
  using KeyVariant = AttributeCatalog::KeyVariant;

  struct ScopeTable {
    std::string name;
    std::string alias;
    bool is_sinew = false;
    engine::Table* engine_table = nullptr;
    /// Live physical column names, snapshotted once per statement. Grows
    /// when the rewrite itself adds a column (RewriteAttribute).
    mutable std::unordered_set<std::string> columns;
  };

  Impl(engine::Database* db, AttributeCatalog* catalog,
       const TextIndexMap* indexes)
      : db_(db), catalog_(catalog), indexes_(indexes) {}

  Status AddScope(const std::string& table_name, const std::string& alias) {
    ScopeTable st;
    st.name = table_name;
    st.alias = alias;
    st.is_sinew = catalog_->HasTable(table_name);
    Result<engine::Table*> t = db_->catalog()->GetTable(table_name);
    if (t.ok()) {
      st.engine_table = *t;
      const engine::Schema schema = st.engine_table->SchemaSnapshot();
      for (size_t slot : schema.LiveSlots()) {
        st.columns.insert(schema.columns()[slot].name);
      }
    }
    scope_.push_back(std::move(st));
    return Status::OK();
  }

  const std::vector<ScopeTable>& scope() const { return scope_; }

  /// SELECT-list aliases, visible to GROUP BY / HAVING / ORDER BY: bare
  /// references to them pass through for the engine planner to resolve
  /// against the projection output.
  void set_output_aliases(std::set<std::string> aliases) {
    output_aliases_ = std::move(aliases);
  }

  /// Resolves a (possibly unqualified, possibly alias-prefixed) column
  /// reference to a scope table and a logical path.
  Result<std::pair<const ScopeTable*, std::string>> ResolveRef(
      const Expr& ref) const {
    std::string qualifier = ref.table;
    std::string path = ref.column;
    if (qualifier.empty()) {
      size_t dot = path.find('.');
      if (dot != std::string::npos) {
        std::string head = path.substr(0, dot);
        for (const ScopeTable& st : scope_) {
          if (st.alias == head) {
            qualifier = head;
            path = path.substr(dot + 1);
            break;
          }
        }
      }
    }
    if (!qualifier.empty()) {
      for (const ScopeTable& st : scope_) {
        if (st.alias == qualifier) return std::make_pair(&st, path);
      }
      return Status::NotFound("unknown table alias ", qualifier);
    }
    // Unqualified: the path must resolve in exactly one scope table.
    const ScopeTable* found = nullptr;
    for (const ScopeTable& st : scope_) {
      if (HasColumn(st, path)) {
        if (found != nullptr) {
          return Status::InvalidArgument("ambiguous column reference ", path);
        }
        found = &st;
      }
    }
    if (found == nullptr) {
      // Leave unresolved references to the single table in scope so the
      // engine reports a consistent error (or resolves computed columns).
      if (scope_.size() == 1) return std::make_pair(&scope_[0], path);
      return Status::NotFound("column ", path, " does not exist");
    }
    return std::make_pair(found, path);
  }

  static bool ColumnExists(const ScopeTable& st, const std::string& path) {
    return st.columns.count(path) != 0;
  }

  bool HasColumn(const ScopeTable& st, const std::string& path) const {
    if (IsPseudoColumn(path)) {
      return st.engine_table != nullptr;
    }
    if (st.is_sinew) {
      if (const AttributeCatalog::ResolvedPath* rp =
              FindResolved(st.name, path)) {
        for (const std::optional<AttributeState>& state : rp->states) {
          if (state.has_value()) return true;
        }
      } else {
        for (const serial::Attribute& attr : catalog_->FindAllTypes(path)) {
          if (catalog_->GetState(st.name, attr.id).has_value()) return true;
        }
      }
    }
    return ColumnExists(st, path);
  }

  // ------------------------------------------- bind-time batch resolution

  /// Collects every dotted path a statement references per sinew table.
  void CollectPaths(const Expr& e,
                    std::map<std::string, std::vector<std::string>>* out) const {
    if (e.kind == ExprKind::kColumnRef) {
      if (e.table.empty() && output_aliases_.count(e.column) != 0) return;
      Result<std::pair<const ScopeTable*, std::string>> resolved =
          ResolveRef(e);
      if (resolved.ok()) {
        const auto& [st, path] = *resolved;
        if (st->is_sinew && path != kReservoirColumn && path != "__rid") {
          (*out)[st->name].push_back(path);
        }
      }
      return;
    }
    for (const ExprPtr& a : e.args) {
      if (a != nullptr) CollectPaths(*a, out);
    }
  }

  /// Resolves every collected path with one catalog latch acquisition per
  /// table; later per-path lookups during rewriting hit this snapshot
  /// instead of re-locking the catalog per lookup kind.
  void PrefetchResolutions(
      const std::map<std::string, std::vector<std::string>>& by_table) {
    static metrics::Counter* bind_resolutions =
        metrics::GetCounter("extract.bind_time_resolutions");
    for (const auto& [table, paths] : by_table) {
      std::map<std::string, AttributeCatalog::ResolvedPath, std::less<>>
          batch = catalog_->ResolveBatch(table, paths);
      bind_resolutions->Add(batch.size());
      auto& dest = resolved_[table];
      for (auto& [path, rp] : batch) dest.insert_or_assign(path, std::move(rp));
    }
  }

  const AttributeCatalog::ResolvedPath* FindResolved(
      const std::string& table, std::string_view path) const {
    auto t = resolved_.find(table);
    if (t == resolved_.end()) return nullptr;
    auto p = t->second.find(path);
    return p == t->second.end() ? nullptr : &p->second;
  }

  // ------------------------------------------------------------ rewriting

  Status RewriteExpr(ExprPtr* e, Hint hint) {
    Expr& expr = **e;
    switch (expr.kind) {
      case ExprKind::kLiteral:
      case ExprKind::kStar:
        return Status::OK();
      case ExprKind::kColumnRef:
        return RewriteColumnRef(e, hint);
      case ExprKind::kUnary:
        return RewriteExpr(&expr.args[0],
                           expr.uop == engine::UnaryOp::kNot ? Hint::kBool
                                                             : Hint::kNum);
      case ExprKind::kBinary:
        return RewriteBinary(&expr);
      case ExprKind::kBetween: {
        Hint h = HintFromExpr(*expr.args[1]);
        if (h == Hint::kAny) h = HintFromExpr(*expr.args[2]);
        RETURN_NOT_OK(RewriteExpr(&expr.args[0], h));
        RETURN_NOT_OK(RewriteExpr(&expr.args[1], Hint::kAny));
        return RewriteExpr(&expr.args[2], Hint::kAny);
      }
      case ExprKind::kInList: {
        Hint h = expr.args.size() > 1 ? HintFromExpr(*expr.args[1]) : Hint::kAny;
        RETURN_NOT_OK(RewriteExpr(&expr.args[0], h));
        for (size_t i = 1; i < expr.args.size(); ++i) {
          RETURN_NOT_OK(RewriteExpr(&expr.args[i], Hint::kAny));
        }
        return Status::OK();
      }
      case ExprKind::kIsNull:
        return RewriteExpr(&expr.args[0], Hint::kAny);
      case ExprKind::kFunction:
        return RewriteFunction(e);
      case ExprKind::kCase: {
        size_t i = 0;
        for (; i + 1 < expr.args.size(); i += 2) {
          RETURN_NOT_OK(RewriteExpr(&expr.args[i], Hint::kBool));
          RETURN_NOT_OK(RewriteExpr(&expr.args[i + 1], Hint::kAny));
        }
        if (i < expr.args.size()) {
          RETURN_NOT_OK(RewriteExpr(&expr.args[i], Hint::kAny));
        }
        return Status::OK();
      }
    }
    return Status::OK();
  }

  Status RewriteBinary(Expr* expr) {
    switch (expr->bop) {
      case BinaryOp::kAnd:
      case BinaryOp::kOr:
        RETURN_NOT_OK(RewriteExpr(&expr->args[0], Hint::kBool));
        return RewriteExpr(&expr->args[1], Hint::kBool);
      case BinaryOp::kEq:
      case BinaryOp::kNe:
      case BinaryOp::kLt:
      case BinaryOp::kLe:
      case BinaryOp::kGt:
      case BinaryOp::kGe: {
        Hint lh = HintFromExpr(*expr->args[1]);
        Hint rh = HintFromExpr(*expr->args[0]);
        RETURN_NOT_OK(RewriteExpr(&expr->args[0], lh));
        return RewriteExpr(&expr->args[1], rh);
      }
      case BinaryOp::kAdd:
      case BinaryOp::kSub:
      case BinaryOp::kMul:
      case BinaryOp::kDiv:
      case BinaryOp::kMod:
        RETURN_NOT_OK(RewriteExpr(&expr->args[0], Hint::kNum));
        return RewriteExpr(&expr->args[1], Hint::kNum);
      case BinaryOp::kLike:
      case BinaryOp::kConcat:
        RETURN_NOT_OK(RewriteExpr(&expr->args[0], Hint::kText));
        return RewriteExpr(&expr->args[1], Hint::kText);
    }
    return Status::OK();
  }

  Status RewriteFunction(ExprPtr* e) {
    Expr& expr = **e;
    if (expr.fname == "matches") return RewriteMatches(e);
    if (expr.fname == "array_contains") return RewriteArrayContains(e);
    Hint arg_hint = Hint::kAny;
    if (expr.fname == "sum" || expr.fname == "avg") arg_hint = Hint::kNum;
    if (expr.fname == "lower" || expr.fname == "upper" ||
        expr.fname == "length" || expr.fname == "substr") {
      arg_hint = Hint::kText;
    }
    for (ExprPtr& arg : expr.args) {
      RETURN_NOT_OK(RewriteExpr(&arg, arg_hint));
    }
    return Status::OK();
  }

  /// matches('keys', 'query') -> __rid IN (...) via the text index
  /// (resolved at rewrite time, as the paper's Solr UDF does).
  Status RewriteMatches(ExprPtr* e) {
    Expr& expr = **e;
    if (expr.args.size() != 2 ||
        expr.args[0]->kind != ExprKind::kLiteral ||
        expr.args[1]->kind != ExprKind::kLiteral ||
        !expr.args[0]->literal.is_text() || !expr.args[1]->literal.is_text()) {
      return Status::InvalidArgument(
          "matches() expects two string literals: (keys, query)");
    }
    // The search applies to the (single) indexed sinew table in scope.
    const ScopeTable* target = nullptr;
    for (const ScopeTable& st : scope_) {
      if (st.is_sinew && indexes_ != nullptr &&
          indexes_->count(st.name) != 0) {
        if (target != nullptr) {
          return Status::InvalidArgument(
              "matches() is ambiguous with multiple indexed tables in scope");
        }
        target = &st;
      }
    }
    if (target == nullptr) {
      return Status::InvalidArgument(
          "matches() requires a table with a text index (call "
          "EnableTextIndex first)");
    }
    const textindex::InvertedIndex& index = *indexes_->at(target->name);
    std::vector<uint64_t> rids = index.SearchAll(expr.args[0]->literal.str(),
                                                 expr.args[1]->literal.str());
    if (rids.empty()) {
      *e = Expr::Literal(engine::Datum::Bool(false));
      return Status::OK();
    }
    std::vector<ExprPtr> list;
    list.reserve(rids.size());
    for (uint64_t rid : rids) {
      list.push_back(Expr::Literal(engine::Datum::Int(static_cast<int64_t>(rid))));
    }
    *e = Expr::InList(Expr::Column(target->alias, "__rid"), std::move(list),
                      /*negated=*/false);
    return Status::OK();
  }

  /// array_contains(col, value) -> sinew_array_contains(source, path, value).
  Status RewriteArrayContains(ExprPtr* e) {
    Expr& expr = **e;
    if (expr.args.size() != 2) {
      return Status::InvalidArgument("array_contains expects (column, value)");
    }
    RETURN_NOT_OK(RewriteExpr(&expr.args[1], Hint::kAny));
    if (expr.args[0]->kind != ExprKind::kColumnRef) {
      // Value-level containment over an already-extracted serialized array.
      RETURN_NOT_OK(RewriteExpr(&expr.args[0], Hint::kBytes));
      std::vector<ExprPtr> args;
      args.push_back(std::move(expr.args[0]));
      args.push_back(Expr::Literal(engine::Datum::Text("")));
      args.push_back(std::move(expr.args[1]));
      *e = Expr::Function("sinew_array_contains", std::move(args));
      return Status::OK();
    }
    ASSIGN_OR_RETURN(auto resolved, ResolveRef(*expr.args[0]));
    const auto& [st, path] = resolved;
    if (!st->is_sinew) {
      return Status::InvalidArgument(
          "array_contains over a non-document table");
    }
    std::optional<uint32_t> id;
    std::optional<AttributeState> state;
    const AttributeCatalog::ResolvedPath* rp = FindResolved(st->name, path);
    if (rp != nullptr) {
      for (size_t i = 0; i < rp->types.size(); ++i) {
        if (rp->types[i].type == ValueType::kArray) {
          id = rp->types[i].id;
          state = rp->states[i];
          break;
        }
      }
    } else {
      id = catalog_->FindId(path, ValueType::kArray);
      if (id.has_value()) state = catalog_->GetState(st->name, *id);
    }
    ExprPtr source;
    std::string sub_path;
    // As in ExtractionSource: materialized in the catalog but no physical
    // column yet means the first materializer pass has not run; the values
    // are still all in the reservoir.
    if (state.has_value() && state->materialized &&
        ColumnExists(*st, path)) {
      ExprPtr col = Expr::Column(st->alias, path);
      if (state->dirty) {
        std::vector<ExprPtr> extract_args;
        extract_args.push_back(Expr::Column(st->alias,
                                            std::string(kReservoirColumn)));
        extract_args.push_back(Expr::Literal(engine::Datum::Text(path)));
        std::vector<ExprPtr> coalesce_args;
        coalesce_args.push_back(std::move(col));
        coalesce_args.push_back(
            Expr::Function("sinew_extract_bytes", std::move(extract_args)));
        source = Expr::Function("coalesce", std::move(coalesce_args));
      } else {
        source = std::move(col);
      }
      sub_path = "";  // the source IS the serialized array
    } else {
      // Virtual array: static ID chain resolved at rewrite time.
      if (id.has_value()) {
        std::vector<ExprPtr> args;
        args.push_back(
            Expr::Column(st->alias, std::string(kReservoirColumn)));
        args.push_back(std::move(expr.args[1]));
        for (uint32_t pid : ChainPrefixIds(path, rp, "")) {
          args.push_back(Expr::Literal(engine::Datum::Int(pid)));
        }
        args.push_back(Expr::Literal(engine::Datum::Int(*id)));
        *e = Expr::Function("sinew_array_contains_chain", std::move(args));
        return Status::OK();
      }
      source = Expr::Column(st->alias, std::string(kReservoirColumn));
      sub_path = path;
    }
    std::vector<ExprPtr> args;
    args.push_back(std::move(source));
    args.push_back(Expr::Literal(engine::Datum::Text(sub_path)));
    args.push_back(std::move(expr.args[1]));
    *e = Expr::Function("sinew_array_contains", std::move(args));
    return Status::OK();
  }

  Status RewriteColumnRef(ExprPtr* e, Hint hint) {
    static metrics::Counter* physical_refs =
        metrics::GetCounter("rewriter.physical_refs_total");
    if ((*e)->table.empty() && output_aliases_.count((*e)->column) != 0) {
      return Status::OK();  // select-list alias; the planner resolves it
    }
    ASSIGN_OR_RETURN(auto resolved, ResolveRef(**e));
    const auto& [st, path] = resolved;
    if (!st->is_sinew) {
      (*e)->table = st->alias;
      (*e)->column = path;
      physical_refs->Increment();
      return Status::OK();
    }
    const AttributeCatalog::ResolvedPath* rp = FindResolved(st->name, path);
    std::vector<KeyVariant> variants = Variants(*st, path, rp);
    ASSIGN_OR_RETURN(*e, RewriteAttribute(*st, path, rp, variants, hint));
    return Status::OK();
  }

  /// The variants of `path` that table `st` holds, from the bind-time
  /// resolution `rp` when there is one, else from the catalog. Pseudo
  /// columns (the reservoir, __rid) have none.
  std::vector<KeyVariant> Variants(const ScopeTable& st,
                                   const std::string& path,
                                   const AttributeCatalog::ResolvedPath* rp) {
    std::vector<KeyVariant> out;
    if (IsPseudoColumn(path)) return out;
    if (rp != nullptr) {
      out.reserve(rp->types.size());
      for (size_t i = 0; i < rp->types.size(); ++i) {
        if (rp->states[i].has_value()) {
          out.push_back(KeyVariant{rp->types[i], *rp->states[i]});
        }
      }
      return out;
    }
    for (const serial::Attribute& attr : catalog_->FindAllTypes(path)) {
      std::optional<AttributeState> state =
          catalog_->GetState(st.name, attr.id);
      if (state.has_value()) out.push_back(KeyVariant{attr, *state});
    }
    return out;
  }

  static bool IsPseudoColumn(const std::string& path) {
    return path == kReservoirColumn || path == "__rid";
  }

  /// The rewrite of one reference to `path` in sinew table `st`: the single
  /// decision shared by explicit column references and SELECT * columns.
  /// `candidates` are the variants the table holds (Variants); `rp` is the
  /// path's bind-time resolution, consulted for its dotted prefixes
  /// (nullptr: ask the catalog).
  Result<ExprPtr> RewriteAttribute(const ScopeTable& st,
                                   const std::string& path,
                                   const AttributeCatalog::ResolvedPath* rp,
                                   std::span<const KeyVariant> candidates,
                                   Hint hint) {
    // Serving mix per query: a reference resolving to a physical engine
    // column counts as physical; one answered via reservoir extraction
    // (including the dirty COALESCE form) counts as virtual. This ratio is
    // the signal the paper's materializer exists to improve.
    static metrics::Counter* physical_refs =
        metrics::GetCounter("rewriter.physical_refs_total");
    static metrics::Counter* virtual_refs =
        metrics::GetCounter("rewriter.virtual_refs_total");
    if (IsPseudoColumn(path)) return Expr::Column(st.alias, path);
    bool column_exists = ColumnExists(st, path);
    if (candidates.empty()) {
      // Plain relational column of a hybrid table?
      if (column_exists) {
        physical_refs->Increment();
        return Expr::Column(st.alias, path);
      }
      return Status::NotFound("column \"", path,
                              "\" does not exist in the logical schema of ",
                              st.name);
    }
    // Single-typed attribute with data possibly split between a physical
    // column and the reservoir. Correctness at every point of incremental
    // (de)materialization (Section 3.1.4) requires:
    //  - clean physical column  -> plain column reference;
    //  - dirty (either direction) -> COALESCE(column, extract(reservoir)),
    //    which is valid no matter how many rows have moved;
    //  - if the target just flipped to physical and the engine column does
    //    not exist yet, create it (empty) NOW so the coalesce form is
    //    bindable and stays correct even if the materializer starts moving
    //    rows after this query is planned.
    if (candidates.size() == 1 && candidates[0].state.materialized &&
        !column_exists && st.engine_table != nullptr) {
      Status added = st.engine_table->AddColumn(engine::Column{
          path, engine::ColumnTypeForValueType(candidates[0].attr.type),
          false});
      if (added.ok() || added.IsAlreadyExists()) {
        column_exists = true;
        st.columns.insert(path);
      }
    }
    bool use_column =
        candidates.size() == 1 && column_exists &&
        (candidates[0].state.materialized || candidates[0].state.dirty);
    if (use_column) {
      ExprPtr col = Expr::Column(st.alias, path);
      ValueType attr_type = candidates[0].attr.type;
      bool is_collection =
          attr_type == ValueType::kObject || attr_type == ValueType::kArray;
      bool dirty =
          candidates[0].state.dirty || !candidates[0].state.materialized;
      (dirty ? virtual_refs : physical_refs)->Increment();
      if (!dirty) {
        if (is_collection && hint != Hint::kBytes) {
          // Display context: render the serialized collection as JSON, as
          // the untyped extractor does for virtual collections.
          std::vector<ExprPtr> args;
          args.push_back(std::move(col));
          return Expr::Function(attr_type == ValueType::kObject
                                    ? "sinew_render_object"
                                    : "sinew_render_array",
                                std::move(args));
        }
        return col;
      }
      if (is_collection && hint != Hint::kBytes) {
        // Dirty collection: coalesce raw bytes first, then render.
        ExprPtr extraction =
            MakeExtraction(st, path, rp, Hint::kBytes, candidates);
        std::vector<ExprPtr> cargs;
        cargs.push_back(std::move(col));
        cargs.push_back(std::move(extraction));
        std::vector<ExprPtr> rargs;
        rargs.push_back(Expr::Function("coalesce", std::move(cargs)));
        return Expr::Function(attr_type == ValueType::kObject
                                  ? "sinew_render_object"
                                  : "sinew_render_array",
                              std::move(rargs));
      }
      // Dirty scalar: COALESCE(col, extract(reservoir)) — Section 3.2.2.
      ExprPtr extraction = MakeExtraction(st, path, rp, hint, candidates);
      std::vector<ExprPtr> args;
      args.push_back(std::move(col));
      args.push_back(std::move(extraction));
      return Expr::Function("coalesce", std::move(args));
    }
    virtual_refs->Increment();
    return MakeExtraction(st, path, rp, hint, candidates);
  }

  /// Object-typed attribute ids for each dotted prefix of `path` strictly
  /// inside `ancestor` (the static descent chain, resolved at rewrite time).
  /// Served from `path`'s bind-time resolution `rp` when available: its
  /// prefix_ids array holds one entry per dot of `path`, in order.
  std::vector<uint32_t> ChainPrefixIds(
      const std::string& path, const AttributeCatalog::ResolvedPath* rp,
      const std::string& ancestor) const {
    std::vector<uint32_t> ids;
    const size_t start = ancestor.empty() ? 0 : ancestor.size() + 1;
    size_t prefix_idx = 0;
    for (size_t dot = path.find('.'); dot != std::string::npos;
         dot = path.find('.', dot + 1), ++prefix_idx) {
      if (dot < start) continue;
      std::optional<uint32_t> id =
          rp != nullptr && prefix_idx < rp->prefix_ids.size()
              ? rp->prefix_ids[prefix_idx]
              : catalog_->FindId(path.substr(0, dot), ValueType::kObject);
      if (id.has_value()) ids.push_back(*id);
    }
    return ids;
  }

  /// The serialized source holding `path`'s enclosing document: the longest
  /// materialized nested-object ancestor's column, else the reservoir.
  /// Sets *ancestor to the chosen prefix ("" for the reservoir).
  ExprPtr ExtractionSource(const ScopeTable& st, const std::string& path,
                           const AttributeCatalog::ResolvedPath* rp,
                           std::string* ancestor) {
    ancestor->clear();
    // Map each dot position to its index in the snapshot's prefix arrays.
    std::vector<size_t> dots;
    for (size_t d = path.find('.'); d != std::string::npos;
         d = path.find('.', d + 1)) {
      dots.push_back(d);
    }
    size_t dot = path.rfind('.');
    while (dot != std::string::npos) {
      std::string prefix = path.substr(0, dot);
      size_t idx = 0;
      while (idx < dots.size() && dots[idx] != dot) ++idx;
      const bool snap = rp != nullptr && idx < rp->prefix_ids.size();
      std::optional<uint32_t> pid =
          snap ? rp->prefix_ids[idx]
               : catalog_->FindId(prefix, ValueType::kObject);
      if (pid.has_value()) {
        std::optional<AttributeState> pstate =
            snap ? rp->prefix_states[idx] : catalog_->GetState(st.name, *pid);
        // The physical column only exists once the materializer's first
        // pass created it; between the analyzer flagging the ancestor
        // materialized and that point the values are all still in the
        // reservoir, so fall through to reservoir extraction.
        if (pstate.has_value() && pstate->materialized &&
            ColumnExists(st, prefix)) {
          ExprPtr col = Expr::Column(st.alias, prefix);
          *ancestor = prefix;
          if (!pstate->dirty) return col;
          // Dirty ancestor: coalesce its column with reservoir extraction.
          std::vector<uint32_t> chain =
              ChainPrefixIds(prefix, FindResolved(st.name, prefix), "");
          std::vector<ExprPtr> eargs;
          eargs.push_back(
              Expr::Column(st.alias, std::string(kReservoirColumn)));
          eargs.push_back(Expr::Literal(engine::Datum::Int(
              static_cast<int64_t>(ValueType::kObject))));
          for (uint32_t id : chain) {
            eargs.push_back(Expr::Literal(engine::Datum::Int(id)));
          }
          eargs.push_back(Expr::Literal(engine::Datum::Int(*pid)));
          std::vector<ExprPtr> cargs;
          cargs.push_back(std::move(col));
          cargs.push_back(Expr::Function("sinew_extract_chain_bytes",
                                         std::move(eargs)));
          return Expr::Function("coalesce", std::move(cargs));
        }
      }
      dot = dot == 0 ? std::string::npos : path.rfind('.', dot - 1);
    }
    return Expr::Column(st.alias, std::string(kReservoirColumn));
  }

  /// Builds one chain-extraction call for a specific typed attribute.
  ExprPtr MakeChainCall(ExprPtr source, ValueType type,
                        const std::vector<uint32_t>& prefix_ids, uint32_t id,
                        bool raw_bytes) {
    std::vector<ExprPtr> args;
    args.reserve(prefix_ids.size() + 3);
    args.push_back(std::move(source));
    args.push_back(
        Expr::Literal(engine::Datum::Int(static_cast<int64_t>(type))));
    for (uint32_t pid : prefix_ids) {
      args.push_back(Expr::Literal(engine::Datum::Int(pid)));
    }
    args.push_back(Expr::Literal(engine::Datum::Int(id)));
    return Expr::Function(
        raw_bytes ? "sinew_extract_chain_bytes" : "sinew_extract_chain",
        std::move(args));
  }

  /// Extraction over the hybrid schema: candidate attribute types filtered
  /// by the query's type evidence, each resolved to a static ID chain; the
  /// multi-typed case coalesces the typed extractions in type order —
  /// exactly sinew_extract_any's semantics, minus all dictionary lookups.
  ExprPtr MakeExtraction(const ScopeTable& st, const std::string& path,
                         const AttributeCatalog::ResolvedPath* rp, Hint hint,
                         std::span<const KeyVariant> candidates) {
    std::string ancestor;
    ExprPtr source = ExtractionSource(st, path, rp, &ancestor);
    std::vector<uint32_t> prefix_ids = ChainPrefixIds(path, rp, ancestor);

    // Filter candidates by type evidence.
    std::vector<std::pair<ValueType, uint32_t>> typed;
    typed.reserve(candidates.size());
    for (const KeyVariant& c : candidates) {
      ValueType t = c.attr.type;
      bool keep = false;
      switch (hint) {
        case Hint::kText:
          keep = t == ValueType::kString;
          break;
        case Hint::kNum:
          keep = t == ValueType::kInt || t == ValueType::kDouble;
          break;
        case Hint::kBool:
          keep = t == ValueType::kBool;
          break;
        case Hint::kBytes:
          keep = t == ValueType::kObject || t == ValueType::kArray;
          break;
        case Hint::kAny:
          keep = true;
          break;
      }
      if (keep) typed.emplace_back(t, c.attr.id);
    }
    std::sort(typed.begin(), typed.end());
    if (typed.empty()) {
      // No attribute of a compatible type was ever observed: the value is
      // NULL for every row (and stays correct if one appears later, because
      // queries are rewritten afresh each time).
      return Expr::Literal(engine::Datum::Null());
    }
    bool raw = hint == Hint::kBytes;
    if (typed.size() == 1) {
      return MakeChainCall(std::move(source), typed[0].first, prefix_ids,
                           typed[0].second, raw);
    }
    std::vector<ExprPtr> calls;
    calls.reserve(typed.size());
    for (size_t i = 0; i < typed.size(); ++i) {
      ExprPtr src = i + 1 == typed.size() ? std::move(source)
                                          : source->Clone();
      calls.push_back(MakeChainCall(std::move(src), typed[i].first,
                                    prefix_ids, typed[i].second, raw));
    }
    return Expr::Function("coalesce", std::move(calls));
  }

 private:
  engine::Database* db_;
  AttributeCatalog* catalog_;
  const TextIndexMap* indexes_;
  std::vector<ScopeTable> scope_;
  std::set<std::string> output_aliases_;
  /// Bind-time resolution snapshot, per table then path (PrefetchResolutions).
  std::map<std::string,
           std::map<std::string, AttributeCatalog::ResolvedPath, std::less<>>>
      resolved_;
};

Status QueryRewriter::RewriteSelect(engine::SelectStatement* stmt) const {
  Impl impl(db_, catalog_, indexes_);
  for (const engine::TableRef& ref : stmt->from) {
    RETURN_NOT_OK(impl.AddScope(ref.table_name, ref.effective_alias()));
  }

  // Bind-time attribute resolution: collect every path the statement
  // references explicitly and resolve them all under one catalog latch per
  // table. Star items are resolved separately, below.
  std::map<std::string, std::vector<std::string>> referenced;
  for (const engine::SelectItem& item : stmt->items) {
    if (item.expr->kind != ExprKind::kStar) {
      impl.CollectPaths(*item.expr, &referenced);
    }
  }
  if (stmt->where != nullptr) impl.CollectPaths(*stmt->where, &referenced);
  for (const ExprPtr& g : stmt->group_by) impl.CollectPaths(*g, &referenced);
  if (stmt->having != nullptr) impl.CollectPaths(*stmt->having, &referenced);
  for (const engine::OrderItem& item : stmt->order_by) {
    impl.CollectPaths(*item.expr, &referenced);
  }
  impl.PrefetchResolutions(referenced);

  // Rewrite the select list. A star over a sinew table expands in one pass:
  // one catalog call yields every top-level key with its resolution, in
  // column order, and each key goes through the same decision as an
  // explicit reference to it. A bare reference is named after its
  // attribute, as a star column is; those names are applied last, since
  // GROUP BY / HAVING / ORDER BY resolve bare names against written
  // aliases (and star columns) only.
  std::vector<engine::SelectItem> items;
  items.reserve(stmt->items.size());
  std::vector<std::pair<size_t, std::string>> implicit_names;
  for (engine::SelectItem& item : stmt->items) {
    if (item.expr->kind != ExprKind::kStar) {
      if (item.alias.empty() && item.expr->kind == ExprKind::kColumnRef) {
        ASSIGN_OR_RETURN(auto resolved, impl.ResolveRef(*item.expr));
        implicit_names.emplace_back(items.size(), resolved.second);
      }
      RETURN_NOT_OK(impl.RewriteExpr(&item.expr, Hint::kAny));
      items.push_back(std::move(item));
      continue;
    }
    const std::string& want = item.expr->table;
    bool expanded = false;
    for (const Impl::ScopeTable& st : impl.scope()) {
      if (!want.empty() && st.alias != want) continue;
      expanded = true;
      if (!st.is_sinew) {
        engine::SelectItem pass;
        pass.expr = Expr::Star(st.alias);
        items.push_back(std::move(pass));
        continue;
      }
      const AttributeCatalog::TopLevelKeys top =
          catalog_->ResolveTopLevel(st.name);
      items.reserve(items.size() + top.keys.size() + stmt->items.size());
      for (const auto& [begin, end] : top.keys) {
        std::span<const Impl::KeyVariant> variants(top.variants.data() + begin,
                                                   end - begin);
        const std::string& key = variants.front().attr.key;
        engine::SelectItem out;
        ASSIGN_OR_RETURN(out.expr, impl.RewriteAttribute(st, key, nullptr,
                                                         variants, Hint::kAny));
        out.alias = key;
        items.push_back(std::move(out));
      }
    }
    if (!expanded) {
      return Status::NotFound("star target ", want, " not in scope");
    }
  }
  stmt->items = std::move(items);

  if (stmt->where != nullptr) {
    RETURN_NOT_OK(impl.RewriteExpr(&stmt->where, Hint::kBool));
  }
  if (!stmt->group_by.empty() || stmt->having != nullptr ||
      !stmt->order_by.empty()) {
    std::set<std::string> aliases;
    for (const engine::SelectItem& item : stmt->items) {
      if (!item.alias.empty()) aliases.insert(item.alias);
    }
    impl.set_output_aliases(std::move(aliases));
    for (ExprPtr& g : stmt->group_by) {
      RETURN_NOT_OK(impl.RewriteExpr(&g, Hint::kAny));
    }
    if (stmt->having != nullptr) {
      RETURN_NOT_OK(impl.RewriteExpr(&stmt->having, Hint::kBool));
    }
    for (engine::OrderItem& item : stmt->order_by) {
      RETURN_NOT_OK(impl.RewriteExpr(&item.expr, Hint::kAny));
    }
  }
  for (auto& [i, name] : implicit_names) stmt->items[i].alias = std::move(name);
  return Status::OK();
}

Status QueryRewriter::RewriteUpdate(engine::UpdateStatement* stmt) const {
  Impl impl(db_, catalog_, indexes_);
  RETURN_NOT_OK(impl.AddScope(stmt->table, stmt->table));
  const Impl::ScopeTable& st = impl.scope()[0];
  std::map<std::string, std::vector<std::string>> referenced;
  if (stmt->where != nullptr) impl.CollectPaths(*stmt->where, &referenced);
  for (const auto& [column, rhs] : stmt->assignments) {
    impl.CollectPaths(*rhs, &referenced);
  }
  impl.PrefetchResolutions(referenced);
  if (stmt->where != nullptr) {
    RETURN_NOT_OK(impl.RewriteExpr(&stmt->where, Hint::kBool));
  }
  if (!st.is_sinew) return Status::OK();

  std::vector<std::pair<std::string, ExprPtr>> out;
  ExprPtr chain;  // pending reservoir transformation
  auto chain_source = [&]() -> ExprPtr {
    if (chain != nullptr) return std::move(chain);
    return Expr::Column(stmt->table, std::string(kReservoirColumn));
  };
  for (auto& [column, rhs] : stmt->assignments) {
    RETURN_NOT_OK(impl.RewriteExpr(&rhs, Hint::kAny));
    // Physical single-typed target?
    bool physical = false;
    bool dirty = false;
    std::vector<serial::Attribute> attrs = catalog_->FindAllTypes(column);
    int present = 0;
    for (const serial::Attribute& attr : attrs) {
      std::optional<AttributeState> state = catalog_->GetState(stmt->table, attr.id);
      if (!state.has_value()) continue;
      ++present;
      // Only treat the target as physical once the column actually exists
      // (the materializer creates it on its first pass); before that, the
      // value lives in the reservoir like any virtual column.
      if (state->materialized && Impl::ColumnExists(st, column)) {
        physical = true;
        dirty = state->dirty;
      }
    }
    if (physical && present == 1) {
      out.emplace_back(column, std::move(rhs));
      if (dirty) {
        // Clear any stale reservoir copy so COALESCE can't resurrect it.
        std::vector<ExprPtr> args;
        args.push_back(chain_source());
        args.push_back(Expr::Literal(engine::Datum::Text(column)));
        chain = Expr::Function("sinew_reservoir_remove", std::move(args));
      }
      continue;
    }
    // Virtual target: fold into the reservoir-update chain.
    if (rhs->kind == ExprKind::kLiteral && !rhs->literal.is_null()) {
      // Pre-register the attribute so subsequent queries can see it.
      Value v = rhs->literal.ToValue();
      ASSIGN_OR_RETURN(uint32_t id, catalog_->Intern(column, v.type()));
      catalog_->AddOccurrences(stmt->table, id, 0);
    }
    std::vector<ExprPtr> args;
    args.push_back(chain_source());
    args.push_back(Expr::Literal(engine::Datum::Text(column)));
    args.push_back(std::move(rhs));
    chain = Expr::Function("sinew_reservoir_set", std::move(args));
  }
  if (chain != nullptr) {
    out.emplace_back(std::string(kReservoirColumn), std::move(chain));
  }
  stmt->assignments = std::move(out);
  return Status::OK();
}

Status QueryRewriter::RewriteDelete(engine::DeleteStatement* stmt) const {
  Impl impl(db_, catalog_, indexes_);
  RETURN_NOT_OK(impl.AddScope(stmt->table, stmt->table));
  if (stmt->where != nullptr) {
    std::map<std::string, std::vector<std::string>> referenced;
    impl.CollectPaths(*stmt->where, &referenced);
    impl.PrefetchResolutions(referenced);
    RETURN_NOT_OK(impl.RewriteExpr(&stmt->where, Hint::kBool));
  }
  return Status::OK();
}

namespace {

/// Adds the elapsed nanoseconds to a counter on scope exit (any return path).
struct ScopedNsCounter {
  explicit ScopedNsCounter(metrics::Counter* counter)
      : counter_(counter), start_(metrics::NowNanos()) {}
  ~ScopedNsCounter() { counter_->Add(metrics::NowNanos() - start_); }
  metrics::Counter* counter_;
  uint64_t start_;
};

}  // namespace

Status QueryRewriter::RewriteStatement(engine::Statement* stmt) const {
  static metrics::Counter* queries_total =
      metrics::GetCounter("rewriter.queries_total");
  static metrics::Counter* rewrite_ns_total =
      metrics::GetCounter("rewriter.rewrite_ns_total");
  queries_total->Increment();
  ScopedNsCounter timer(rewrite_ns_total);
  switch (stmt->kind) {
    case engine::StatementKind::kSelect:
    case engine::StatementKind::kExplain:
      return RewriteSelect(stmt->select.get());
    case engine::StatementKind::kUpdate:
      return RewriteUpdate(stmt->update.get());
    case engine::StatementKind::kDelete:
      return RewriteDelete(stmt->del.get());
    default:
      return Status::OK();  // CREATE/INSERT/ANALYZE pass through
  }
}

Result<engine::Statement> QueryRewriter::Rewrite(std::string_view sql) const {
  ASSIGN_OR_RETURN(engine::Statement stmt, engine::ParseSql(sql));
  RETURN_NOT_OK(RewriteStatement(&stmt));
  return stmt;
}

}  // namespace sinew
