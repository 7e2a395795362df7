#include "sinew/plan_cache.h"

#include <algorithm>

#include "common/metrics.h"

namespace sinew {

namespace {

using engine::BinaryOp;
using engine::Expr;
using engine::ExprKind;

bool IsComparison(BinaryOp op) {
  switch (op) {
    case BinaryOp::kEq:
    case BinaryOp::kNe:
    case BinaryOp::kLt:
    case BinaryOp::kLe:
    case BinaryOp::kGt:
    case BinaryOp::kGe:
      return true;
    default:
      return false;
  }
}

/// A literal that may become a parameter: non-NULL, read from the text.
bool Parameterizable(const Expr& e) {
  return e.kind == ExprKind::kLiteral && e.param < 0 && e.src_end > 0 &&
         !e.literal.is_null();
}

bool IsColumn(const Expr& e) { return e.kind == ExprKind::kColumnRef; }

/// Collects, in walk order, the literals of `e` compared against a column.
void CollectParams(Expr* e, std::vector<Expr*>* out) {
  auto take = [out](Expr* lit) {
    if (Parameterizable(*lit)) out->push_back(lit);
  };
  switch (e->kind) {
    case ExprKind::kBinary:
      if (IsComparison(e->bop) && e->args.size() == 2) {
        if (IsColumn(*e->args[0])) take(e->args[1].get());
        if (IsColumn(*e->args[1])) take(e->args[0].get());
      }
      break;
    case ExprKind::kBetween:
      if (e->args.size() == 3 && IsColumn(*e->args[0])) {
        take(e->args[1].get());
        take(e->args[2].get());
      }
      break;
    case ExprKind::kFunction:
      if (!e->IsAggregateCall() &&
          std::any_of(e->args.begin(), e->args.end(),
                      [](const engine::ExprPtr& a) { return IsColumn(*a); })) {
        for (engine::ExprPtr& arg : e->args) take(arg.get());
      }
      break;
    default:
      break;
  }
  for (engine::ExprPtr& arg : e->args) CollectParams(arg.get(), out);
}

/// A call whose literal arguments are consumed before execution: matches()
/// becomes a row-id list at rewrite time, sinew_* internals are planned by
/// their literal arguments.
bool HasOpaqueCall(const Expr* e) {
  if (e == nullptr) return false;
  if (e->kind == ExprKind::kFunction &&
      (e->fname == "matches" || e->fname.starts_with("sinew_"))) {
    return true;
  }
  return std::any_of(e->args.begin(), e->args.end(),
                     [](const engine::ExprPtr& a) {
                       return HasOpaqueCall(a.get());
                     });
}

char KindTag(const engine::Datum& d) {
  switch (d.kind()) {
    case engine::Datum::Kind::kInt: return 'i';
    case engine::Datum::Kind::kDouble: return 'd';
    case engine::Datum::Kind::kBool: return 'b';
    default: return 't';
  }
}

/// The Gather degree a scan of `table` gets under `options`; a serial
/// configuration never reads the row count.
int GatherDegree(const engine::PlannerOptions& options,
                 const engine::Table& table) {
  if (options.parallelism <= 1) return 1;
  return engine::GatherDegreeFor(options, table.LiveRowCount());
}

}  // namespace

std::optional<StatementShape> ParameterizeStatement(std::string_view sql,
                                                    engine::Statement* stmt) {
  const bool cacheable =
      stmt->kind == engine::StatementKind::kSelect ||
      (stmt->kind == engine::StatementKind::kExplain && stmt->explain_analyze);
  if (!cacheable || stmt->select == nullptr) return std::nullopt;
  engine::SelectStatement& select = *stmt->select;
  if (engine::ReferencesSystemTable(select)) return std::nullopt;
  bool opaque = HasOpaqueCall(select.where.get()) ||
                HasOpaqueCall(select.having.get());
  for (const engine::SelectItem& item : select.items) {
    opaque |= HasOpaqueCall(item.expr.get());
  }
  for (const engine::ExprPtr& g : select.group_by) {
    opaque |= HasOpaqueCall(g.get());
  }
  for (const engine::OrderItem& o : select.order_by) {
    opaque |= HasOpaqueCall(o.expr.get());
  }
  if (opaque) return std::nullopt;

  std::vector<Expr*> params;
  if (select.where != nullptr) CollectParams(select.where.get(), &params);
  StatementShape shape;
  shape.params.reserve(params.size());
  shape.spans.reserve(params.size());
  for (size_t i = 0; i < params.size(); ++i) {
    params[i]->param = static_cast<int>(i);
    shape.params.push_back(params[i]->literal);
    shape.spans.emplace_back(params[i]->src_begin, params[i]->src_end);
  }
  // The key is the text with each span replaced by its tag, followed by
  // where the tags sit: equal keys then mean equal text around literals of
  // equal kinds at equal places, which lexes and parses alike.
  std::vector<size_t> order(params.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return shape.spans[a].first < shape.spans[b].first;
  });
  std::string& key = shape.key;
  key.reserve(sql.size() + 8 * params.size());
  std::string places;
  size_t at = 0;
  for (size_t i : order) {
    const auto [begin, end] = shape.spans[i];
    key.append(sql.substr(at, begin - at));
    places += std::to_string(key.size());
    places += ',';
    key += '?';
    key += KindTag(shape.params[i]);
    at = end;
  }
  key.append(sql.substr(std::min(at, sql.size())));
  key += '\x01';
  key += places;
  return shape;
}

std::optional<PlanEpochs> PlanEpochs::Snapshot(
    engine::Database* db, const AttributeCatalog& catalog,
    uint64_t text_indexes, const engine::SelectStatement& stmt) {
  PlanEpochs e;
  e.dictionary = catalog.version();
  e.engine = db->PlanEpoch();
  e.text_indexes = text_indexes;
  for (const engine::TableRef& ref : stmt.from) {
    if (std::any_of(e.tables.begin(), e.tables.end(),
                    [&](const TableEpoch& t) {
                      return t.name == ref.table_name;
                    })) {
      continue;
    }
    Result<engine::Table*> table = db->catalog()->GetTable(ref.table_name);
    if (!table.ok()) return std::nullopt;
    TableEpoch& t = e.tables.emplace_back();
    t.name = ref.table_name;
    t.table = *table;
    t.attribute_states = catalog.StateEpoch(t.name);
    t.plan_version = t.table->PlanVersion();
    t.gather_degree = GatherDegree(db->planner_options(), *t.table);
  }
  return e;
}

bool PlanEpochs::Current(engine::Database* db,
                         const AttributeCatalog& catalog,
                         uint64_t text_indexes) const {
  if (catalog.version() != dictionary || db->PlanEpoch() != engine ||
      text_indexes != this->text_indexes) {
    return false;
  }
  // The engine epoch held, so every recorded Table is still the live one.
  for (const TableEpoch& t : tables) {
    if (t.table->PlanVersion() != t.plan_version ||
        catalog.StateEpoch(t.name) != t.attribute_states ||
        GatherDegree(db->planner_options(), *t.table) != t.gather_degree) {
      return false;
    }
  }
  return true;
}

bool operator==(const PlanEpochs& a, const PlanEpochs& b) {
  if (a.dictionary != b.dictionary || a.engine != b.engine ||
      a.text_indexes != b.text_indexes || a.tables.size() != b.tables.size()) {
    return false;
  }
  for (size_t i = 0; i < a.tables.size(); ++i) {
    const PlanEpochs::TableEpoch& x = a.tables[i];
    const PlanEpochs::TableEpoch& y = b.tables[i];
    if (x.name != y.name || x.table != y.table ||
        x.attribute_states != y.attribute_states ||
        x.plan_version != y.plan_version ||
        x.gather_degree != y.gather_degree) {
      return false;
    }
  }
  return true;
}

std::shared_ptr<const PlanCache::Entry> PlanCache::Lookup(
    const std::string& key, engine::Database* db,
    const AttributeCatalog& catalog, uint64_t text_indexes) {
  static metrics::Counter* hits = metrics::GetCounter("plan_cache.hits");
  static metrics::Counter* misses = metrics::GetCounter("plan_cache.misses");
  static metrics::Counter* invalidations =
      metrics::GetCounter("plan_cache.invalidations");
  std::shared_ptr<const Entry> entry;
  {
    std::lock_guard lock(mu_);
    auto it = index_.find(key);
    if (it != index_.end()) {
      lru_.splice(lru_.begin(), lru_, it->second);
      entry = *it->second;
    }
  }
  if (entry == nullptr) {
    misses->Increment();
    return nullptr;
  }
  if (!entry->epochs.Current(db, catalog, text_indexes)) {
    Evict(*entry);
    invalidations->Increment();
    misses->Increment();
    return nullptr;
  }
  hits->Increment();
  return entry;
}

void PlanCache::Insert(std::shared_ptr<const Entry> entry) {
  static metrics::Counter* evictions =
      metrics::GetCounter("plan_cache.evictions");
  std::lock_guard lock(mu_);
  if (auto it = index_.find(entry->key); it != index_.end()) EraseLocked(it);
  lru_.push_front(std::move(entry));
  index_.emplace(lru_.front()->key, lru_.begin());
  while (lru_.size() > kCapacity) {
    EraseLocked(index_.find(lru_.back()->key));
    evictions->Increment();
  }
}

void PlanCache::Evict(const Entry& entry) {
  std::lock_guard lock(mu_);
  auto it = index_.find(entry.key);
  if (it != index_.end() && it->second->get() == &entry) EraseLocked(it);
}

void PlanCache::Clear() {
  std::lock_guard lock(mu_);
  index_.clear();
  lru_.clear();
}

void PlanCache::EraseLocked(Index::iterator it) {
  const List::iterator node = it->second;
  index_.erase(it);  // before the entry owning the key's bytes goes
  lru_.erase(node);
}

}  // namespace sinew
