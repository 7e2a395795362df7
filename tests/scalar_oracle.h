// The differential suites' one reference: answers a single-table SELECT
// without the planner, the operators, the bytecode VM, SinewExtract or
// column strips. The statement is rewritten exactly as SinewDb::Query
// rewrites it, its expressions are bound against the base table's physical
// columns, and scalar EvalPredicate/EvalExpr run over every stored row.
// Shapes outside that reach — joins, aggregation, DISTINCT, LIMIT — return
// NotImplemented; GoldenQuery then answers them with the engine itself, so
// suites compare their configurations with each other.

#ifndef SINEW_TESTS_SCALAR_ORACLE_H_
#define SINEW_TESTS_SCALAR_ORACLE_H_

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
      select->from.size() != 1 || !select->group_by.empty() ||
      select->having != nullptr || select->distinct || select->limit >= 0) {
    return Status::NotImplemented("shape outside the scalar oracle");
  }
  for (const engine::SelectItem& item : select->items) {
    if (item.expr->ContainsAggregate()) {
      return Status::NotImplemented("aggregate outside the scalar oracle");
    }
  }
  const engine::TableRef& ref = select->from[0];
  ASSIGN_OR_RETURN(engine::Table * table,
                   db->engine()->catalog()->GetTable(ref.table_name));
  const engine::Schema schema = table->SchemaSnapshot();
  const std::vector<size_t> live = schema.LiveSlots();
  const std::string alias = ref.effective_alias();
  engine::ExecSchema exec_schema;
  for (size_t slot : live) {
    const engine::Column& col = schema.columns()[slot];
    exec_schema.cols.push_back({alias, col.name, col.type});
  }
  const std::vector<std::string> aliases = {alias};

  engine::QueryResult result;
  std::vector<engine::ExprPtr> outputs;
  for (const engine::SelectItem& item : select->items) {
    if (item.expr->kind == engine::ExprKind::kStar) {
      for (const engine::ExecSchema::Col& col : exec_schema.cols) {
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
  engine::ExprPtr where;
  if (select->where != nullptr) {
    where = select->where->Clone();
    RETURN_NOT_OK(engine::BindExpr(where.get(), exec_schema, aliases));
  }

  const engine::UdfRegistry* udfs = db->engine()->udfs();
  for (uint64_t rid = 0; rid < table->RowSlotCount(); ++rid) {
    if (!table->IsLive(rid)) continue;
    ASSIGN_OR_RETURN(engine::DatumRow stored, table->ReadRow(rid));
    engine::DatumRow row;
    row.reserve(live.size());
    for (size_t slot : live) row.push_back(std::move(stored[slot]));
    if (where != nullptr) {
      ASSIGN_OR_RETURN(bool keep, engine::EvalPredicate(*where, row, udfs));
      if (!keep) continue;
    }
    engine::DatumRow out;
    out.reserve(outputs.size());
    for (const engine::ExprPtr& e : outputs) {
      ASSIGN_OR_RETURN(engine::Datum v, engine::EvalExpr(*e, row, udfs));
      out.push_back(std::move(v));
    }
    result.rows.push_back(std::move(out));
  }
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
