// The differential suites' one reference: answers a SELECT over one or more
// tables without the planner, the operators, the bytecode VM, SinewExtract
// or column strips. The statement is rewritten exactly as SinewDb::Query
// rewrites it, its expressions are bound against the FROM tables' physical
// columns laid side by side, and scalar EvalPredicate/EvalExpr run over
// nested loops of every table's stored rows, in FROM order. A WHERE
// conjunct that binds at an outer loop also prunes it, so a selective
// filter on an outer table keeps the inner loops short. Shapes outside that
// reach — aggregation, DISTINCT, LIMIT — return NotImplemented; GoldenQuery
// then answers them with the engine itself, so suites compare their
// configurations with each other. ORDER BY is ignored (suites compare
// multisets).

#ifndef SINEW_TESTS_SCALAR_ORACLE_H_
#define SINEW_TESTS_SCALAR_ORACLE_H_

#include <algorithm>
#include <string>
#include <vector>

#include "engine/eval.h"
#include "sinew/sinew_db.h"

namespace sinew::oracle {

inline Result<engine::QueryResult> ScalarOracleQuery(SinewDb* db,
                                                     const std::string& sql) {
  ASSIGN_OR_RETURN(engine::Statement stmt, db->rewriter().Rewrite(sql));
  const engine::SelectStatement* select = stmt.select.get();
  if (stmt.kind != engine::StatementKind::kSelect || select == nullptr ||
      select->from.empty() || !select->group_by.empty() ||
      select->having != nullptr || select->distinct || select->limit >= 0) {
    return Status::NotImplemented("shape outside the scalar oracle");
  }
  for (const engine::SelectItem& item : select->items) {
    if (item.expr->ContainsAggregate()) {
      return Status::NotImplemented("aggregate outside the scalar oracle");
    }
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
  std::vector<engine::ExprPtr> outputs;
  for (const engine::SelectItem& item : select->items) {
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
    engine::ExprPtr e = item.expr->Clone();
    RETURN_NOT_OK(engine::BindExpr(e.get(), exec_schema, aliases));
    std::string name = item.alias;
    if (name.empty()) {
      name = e->kind == engine::ExprKind::kColumnRef ? e->column
                                                     : e->ToString();
    }
    result.column_names.push_back(std::move(name));
    result.column_types.push_back(engine::InferType(*e, exec_schema));
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
  engine::DatumRow row(exec_schema.cols.size());
  auto loop = [&](auto&& self, size_t level) -> Status {
    if (level == tables.size()) {
      if (where != nullptr) {
        ASSIGN_OR_RETURN(bool keep, engine::EvalPredicate(*where, row, udfs));
        if (!keep) return Status::OK();
      }
      engine::DatumRow out;
      out.reserve(outputs.size());
      for (const engine::ExprPtr& e : outputs) {
        ASSIGN_OR_RETURN(engine::Datum v, engine::EvalExpr(*e, row, udfs));
        out.push_back(std::move(v));
      }
      result.rows.push_back(std::move(out));
      return Status::OK();
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
  return result;
}

/// A differential suite's reference answer: the scalar oracle's, or `db`'s
/// own for shapes outside the oracle's reach.
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
