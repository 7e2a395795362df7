// The differential suites' one reference: answers a SELECT over one or more
// tables without the planner, the operators, the bytecode VM, SinewExtract
// or column strips. The statement is rewritten exactly as SinewDb::Query
// rewrites it, its expressions are bound against the FROM tables' physical
// columns laid side by side, and the scalar tree walk (scalar_eval.h:
// EvalPredicate/EvalExpr) runs over nested loops of every table's stored
// rows, in FROM order. A WHERE
// conjunct that binds at an outer loop also prunes it, so a selective
// filter on an outer table keeps the inner loops short. Aggregation (COUNT,
// SUM, AVG, MIN, MAX, with or without GROUP BY, and HAVING) groups the
// passing rows in an ordered map and folds its own accumulators; the select
// list and HAVING then evaluate over each group's keys and aggregate values,
// named as the planner names them ($gN for a group key, $aN for an
// aggregate). DISTINCT dedupes the output rows. LIMIT returns
// NotImplemented; GoldenQuery then answers it with the engine itself. ORDER
// BY is ignored (suites compare multisets).

#ifndef SINEW_TESTS_SCALAR_ORACLE_H_
#define SINEW_TESTS_SCALAR_ORACLE_H_

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "engine/eval.h"
#include "scalar_eval.h"
#include "sinew/sinew_db.h"

namespace sinew::oracle {

/// Lexicographic order of rows under Datum::Compare: the equality GROUP BY
/// and DISTINCT use.
struct RowLess {
  bool operator()(const engine::DatumRow& a,
                  const engine::DatumRow& b) const {
    return std::lexicographical_compare(
        a.begin(), a.end(), b.begin(), b.end(),
        [](const engine::Datum& x, const engine::Datum& y) {
          return engine::Datum::Compare(x, y) < 0;
        });
  }
};

/// The planner's naming of aggregate outputs: a subtree whose text equals
/// GROUP BY expression g becomes column $g<g>, and an aggregate call
/// becomes $a<i>, one per distinct call text in order of appearance
/// (collected into `calls`).
inline void ReplaceAggRefs(engine::ExprPtr* e,
                           const std::vector<std::string>& group_texts,
                           std::vector<engine::ExprPtr>* calls) {
  const std::string text = (*e)->ToString();
  for (size_t g = 0; g < group_texts.size(); ++g) {
    if (text == group_texts[g]) {
      *e = engine::Expr::Column("", "$g" + std::to_string(g));
      return;
    }
  }
  if ((*e)->IsAggregateCall()) {
    size_t i = 0;
    while (i < calls->size() && (*calls)[i]->ToString() != text) ++i;
    if (i == calls->size()) calls->push_back((*e)->Clone());
    *e = engine::Expr::Column("", "$a" + std::to_string(i));
    return;
  }
  for (engine::ExprPtr& arg : (*e)->args) {
    ReplaceAggRefs(&arg, group_texts, calls);
  }
}

/// One aggregate's running state over a group's rows. COUNT(x) counts the
/// non-NULL arguments; SUM adds the numeric ones (a double among them makes
/// it a double) and is NULL only when every argument is; an integer SUM
/// whose exact total leaves int64 fails as integer arithmetic does; AVG
/// divides that sum by the non-NULL count; MIN and MAX order by
/// Datum::Compare.
struct OracleAgg {
  int64_t count = 0;
  bool any_double = false;
  engine::eval_detail::IntSum isum;
  double dsum = 0;
  engine::Datum min, max;

  void Add(const engine::Datum& v) {
    if (v.is_null()) return;
    ++count;
    if (v.is_int()) {
      isum.Add(v.int_value());
      dsum += static_cast<double>(v.int_value());
    } else if (v.is_double()) {
      any_double = true;
      dsum += v.double_value();
    }
    if (min.is_null() || engine::Datum::Compare(v, min) < 0) min = v;
    if (max.is_null() || engine::Datum::Compare(v, max) > 0) max = v;
  }

  Result<engine::Datum> Value(const std::string& fn, bool star,
                              int64_t rows) const {
    if (fn == "count") return engine::Datum::Int(star ? rows : count);
    if (fn == "min") return min;
    if (fn == "max") return max;
    if (count == 0) return engine::Datum::Null();
    const double total = any_double ? dsum : isum.AsDouble();
    if (fn == "avg") {
      return engine::Datum::Double(total / static_cast<double>(count));
    }
    if (any_double) return engine::Datum::Double(dsum);
    int64_t sum;
    const engine::eval_detail::ArithFault fault = isum.Narrow(&sum);
    if (fault != engine::eval_detail::ArithFault::kNone) {
      return engine::eval_detail::ArithFaultStatus(fault);
    }
    return engine::Datum::Int(sum);
  }
};

inline bool IsStarCall(const engine::Expr& call) {
  return call.args.empty() ||
         (call.args.size() == 1 &&
          call.args[0]->kind == engine::ExprKind::kStar);
}

inline Result<engine::QueryResult> ScalarOracleQuery(SinewDb* db,
                                                     const std::string& sql) {
  ASSIGN_OR_RETURN(engine::Statement stmt, db->rewriter().Rewrite(sql));
  const engine::SelectStatement* select = stmt.select.get();
  if (stmt.kind != engine::StatementKind::kSelect || select == nullptr ||
      select->from.empty() || select->limit >= 0) {
    return Status::NotImplemented("shape outside the scalar oracle");
  }
  bool grouped = !select->group_by.empty() || select->having != nullptr;
  for (const engine::SelectItem& item : select->items) {
    grouped |= item.expr->ContainsAggregate();
  }
  for (const engine::OrderItem& item : select->order_by) {
    grouped |= item.expr->ContainsAggregate();
  }
  // Each table's live rows, and its columns in the concatenated schema.
  engine::ExecSchema exec_schema;
  std::vector<std::string> aliases;
  std::vector<std::vector<engine::DatumRow>> tables;
  std::vector<size_t> offsets;
  for (const engine::TableRef& ref : select->from) {
    ASSIGN_OR_RETURN(engine::Table * table,
                     db->engine()->catalog()->GetTable(ref.table_name));
    const engine::Schema schema = table->SchemaSnapshot();
    const std::vector<size_t> live = schema.LiveSlots();
    aliases.push_back(ref.effective_alias());
    offsets.push_back(exec_schema.cols.size());
    for (size_t slot : live) {
      const engine::Column& col = schema.columns()[slot];
      exec_schema.cols.push_back({aliases.back(), col.name, col.type});
    }
    std::vector<engine::DatumRow>& rows = tables.emplace_back();
    for (uint64_t rid = 0; rid < table->RowSlotCount(); ++rid) {
      Result<engine::DatumRow> read = table->ReadRow(rid);
      if (read.status().IsNotFound()) continue;  // deleted
      ASSIGN_OR_RETURN(engine::DatumRow stored, std::move(read));
      engine::DatumRow row;
      row.reserve(live.size());
      for (size_t slot : live) row.push_back(std::move(stored[slot]));
      rows.push_back(std::move(row));
    }
  }
  offsets.push_back(exec_schema.cols.size());

  engine::QueryResult result;
  // A grouped query's select list and HAVING read `out_schema`: the group
  // keys ($gN) and aggregate values ($aN) of one group, not input rows.
  engine::ExecSchema out_schema = exec_schema;
  std::vector<engine::ExprPtr> group_keys;  // bound against exec_schema
  std::vector<engine::ExprPtr> agg_calls;   // arguments bound likewise
  std::vector<engine::SelectItem> items;
  engine::ExprPtr having;
  for (const engine::SelectItem& item : select->items) {
    items.push_back({item.expr->Clone(), item.alias});
  }
  if (grouped) {
    out_schema.cols.clear();
    std::vector<std::string> group_texts;
    for (const engine::ExprPtr& g : select->group_by) {
      group_texts.push_back(g->ToString());
      engine::ExprPtr key = g->Clone();
      RETURN_NOT_OK(engine::BindExpr(key.get(), exec_schema, aliases));
      out_schema.cols.push_back(
          {"", "$g" + std::to_string(group_keys.size()),
           engine::InferType(*key, exec_schema)});
      group_keys.push_back(std::move(key));
    }
    for (engine::SelectItem& item : items) {
      if (item.expr->kind == engine::ExprKind::kStar) {
        return Status::NotImplemented("star in a grouped select list");
      }
      ReplaceAggRefs(&item.expr, group_texts, &agg_calls);
    }
    if (select->having != nullptr) {
      having = select->having->Clone();
      ReplaceAggRefs(&having, group_texts, &agg_calls);
    }
    for (engine::ExprPtr& call : agg_calls) {
      engine::ColumnType type = engine::ColumnType::kDouble;
      if (IsStarCall(*call)) {
        if (call->fname != "count") {
          return Status::NotImplemented(call->fname, "(*)");
        }
      } else {
        RETURN_NOT_OK(
            engine::BindExpr(call->args[0].get(), exec_schema, aliases));
        if (call->fname != "avg") {
          type = engine::InferType(*call->args[0], exec_schema);
        }
      }
      if (call->fname == "count") type = engine::ColumnType::kInt;
      out_schema.cols.push_back(
          {"", "$a" + std::to_string(out_schema.cols.size() -
                                     group_keys.size()),
           type});
    }
    if (having != nullptr) {
      RETURN_NOT_OK(engine::BindExpr(having.get(), out_schema, aliases));
    }
  }
  std::vector<engine::ExprPtr> outputs;
  for (engine::SelectItem& item : items) {
    if (item.expr->kind == engine::ExprKind::kStar) {
      for (const engine::ExecSchema::Col& col : exec_schema.cols) {
        if (!item.expr->table.empty() && col.table != item.expr->table) {
          continue;
        }
        engine::ExprPtr e = engine::Expr::Column(col.table, col.name);
        RETURN_NOT_OK(engine::BindExpr(e.get(), exec_schema, aliases));
        result.column_names.push_back(col.name);
        result.column_types.push_back(col.type);
        outputs.push_back(std::move(e));
      }
      continue;
    }
    engine::ExprPtr e = std::move(item.expr);
    RETURN_NOT_OK(engine::BindExpr(e.get(), out_schema, aliases));
    std::string name = item.alias;
    if (name.empty()) {
      name = e->kind == engine::ExprKind::kColumnRef ? e->column
                                                     : e->ToString();
    }
    result.column_names.push_back(std::move(name));
    result.column_types.push_back(engine::InferType(*e, out_schema));
    outputs.push_back(std::move(e));
  }
  // WHERE is evaluated whole on every complete row. A conjunct that binds
  // at an outer loop level also prunes that level, dropping only rows it
  // proves FALSE or NULL (an error or a non-boolean is left for the whole
  // WHERE to report).
  engine::ExprPtr where;
  std::vector<std::vector<engine::ExprPtr>> prune(tables.size());
  if (select->where != nullptr) {
    where = select->where->Clone();
    RETURN_NOT_OK(engine::BindExpr(where.get(), exec_schema, aliases));
    for (engine::ExprPtr& part : engine::SplitConjuncts(*where)) {
      std::vector<const engine::Expr*> refs;
      part->CollectColumnRefs(&refs);
      size_t level = 0;
      for (const engine::Expr* r : refs) {
        const size_t slot = static_cast<size_t>(r->bound_slot);
        while (offsets[level + 1] <= slot) ++level;
      }
      if (level + 1 < tables.size()) prune[level].push_back(std::move(part));
    }
  }

  const engine::UdfRegistry* udfs = db->engine()->udfs();
  std::vector<engine::DatumRow> rows;
  // Appends the select list evaluated over `in` (an input row, or a
  // group's keys and aggregate values).
  auto project = [&](const engine::DatumRow& in) -> Status {
    engine::DatumRow out;
    out.reserve(outputs.size());
    for (const engine::ExprPtr& e : outputs) {
      ASSIGN_OR_RETURN(engine::Datum v, engine::EvalExpr(*e, in, udfs));
      out.push_back(std::move(v));
    }
    rows.push_back(std::move(out));
    return Status::OK();
  };
  struct Group {
    int64_t rows = 0;
    std::vector<OracleAgg> aggs;
  };
  std::map<engine::DatumRow, Group, RowLess> groups;
  // Folds a row that passed WHERE into its group.
  auto accumulate = [&](const engine::DatumRow& in) -> Status {
    engine::DatumRow keys;
    for (const engine::ExprPtr& g : group_keys) {
      ASSIGN_OR_RETURN(engine::Datum v, engine::EvalExpr(*g, in, udfs));
      keys.push_back(std::move(v));
    }
    Group& group = groups[std::move(keys)];
    group.aggs.resize(agg_calls.size());
    ++group.rows;
    for (size_t i = 0; i < agg_calls.size(); ++i) {
      if (IsStarCall(*agg_calls[i])) continue;
      ASSIGN_OR_RETURN(engine::Datum v,
                       engine::EvalExpr(*agg_calls[i]->args[0], in, udfs));
      group.aggs[i].Add(v);
    }
    return Status::OK();
  };

  engine::DatumRow row(exec_schema.cols.size());
  auto loop = [&](auto&& self, size_t level) -> Status {
    if (level == tables.size()) {
      if (where != nullptr) {
        ASSIGN_OR_RETURN(bool keep, engine::EvalPredicate(*where, row, udfs));
        if (!keep) return Status::OK();
      }
      return grouped ? accumulate(row) : project(row);
    }
    for (const engine::DatumRow& stored : tables[level]) {
      std::copy(stored.begin(), stored.end(), row.begin() + offsets[level]);
      bool keep = true;
      for (const engine::ExprPtr& check : prune[level]) {
        Result<engine::Datum> v = engine::EvalExpr(*check, row, udfs);
        if (v.ok() && (v->is_null() || (v->is_bool() && !v->bool_value()))) {
          keep = false;
          break;
        }
      }
      if (keep) RETURN_NOT_OK(self(self, level + 1));
    }
    return Status::OK();
  };
  RETURN_NOT_OK(loop(loop, 0));

  if (grouped) {
    // Without GROUP BY, empty input is still one group (COUNT(*) = 0).
    if (groups.empty() && group_keys.empty()) {
      groups[{}].aggs.resize(agg_calls.size());
    }
    for (const auto& [keys, group] : groups) {
      engine::DatumRow values = keys;
      for (size_t i = 0; i < agg_calls.size(); ++i) {
        ASSIGN_OR_RETURN(engine::Datum v,
                         group.aggs[i].Value(agg_calls[i]->fname,
                                             IsStarCall(*agg_calls[i]),
                                             group.rows));
        values.push_back(std::move(v));
      }
      if (having != nullptr) {
        ASSIGN_OR_RETURN(bool keep,
                         engine::EvalPredicate(*having, values, udfs));
        if (!keep) continue;
      }
      RETURN_NOT_OK(project(values));
    }
  }
  std::set<engine::DatumRow, RowLess> seen;
  for (engine::DatumRow& r : rows) {
    if (select->distinct && !seen.insert(r).second) continue;
    result.rows.AppendRow(std::move(r));
  }
  return result;
}

/// A differential suite's reference answer: the scalar oracle's, or `db`'s
/// own for LIMIT, the one shape outside the oracle's reach.
inline Result<engine::QueryResult> GoldenQuery(SinewDb* db,
                                               const std::string& sql) {
  Result<engine::QueryResult> oracle = ScalarOracleQuery(db, sql);
  if (!oracle.ok() && oracle.status().IsNotImplemented()) {
    return db->Query(sql);
  }
  return oracle;
}

}  // namespace sinew::oracle

#endif  // SINEW_TESTS_SCALAR_ORACLE_H_
