#include "workloads/nobench/runners.h"

#include <algorithm>
#include <map>

#include "json/json.h"
#include "common/str_util.h"

namespace sinew::workloads::nobench {

namespace {

Value NormalizeScalar(const Value& v);

void FlattenInto(const Value& node, const std::string& prefix, Value* out) {
  for (const auto& [key, value] : node.members()) {
    std::string path = prefix + key;
    switch (value.type()) {
      case ValueType::kNull:
        break;
      case ValueType::kObject:
        FlattenInto(value, path + ".", out);
        break;
      case ValueType::kInt:
        out->Set(path, Value::Double(static_cast<double>(value.int_value())));
        break;
      case ValueType::kArray: {
        // Empty arrays normalize away and single-element arrays normalize to
        // their element: the EAV shredding (one tuple per element) cannot
        // distinguish either from absence / a scalar.
        if (value.array().empty()) break;
        if (value.array().size() == 1) {
          out->Set(path, NormalizeScalar(value.array()[0]));
          break;
        }
        std::vector<Value> elements;
        for (const Value& e : value.array()) {
          elements.push_back(e.is_int() ? Value::Double(static_cast<double>(
                                              e.int_value()))
                                        : e);
        }
        out->Set(path, Value::Array(std::move(elements)));
        break;
      }
      default:
        out->Set(path, value);
    }
  }
}

/// Normalizes a scalar for cross-system row comparison.
Value NormalizeScalar(const Value& v) {
  if (v.is_int()) return Value::Double(static_cast<double>(v.int_value()));
  return v;
}

/// Datum -> canonical Value. Text that looks like a serialized JSON
/// object/array (Sinew's extract_any rendering of collections) is parsed so
/// it canonicalizes the same way the document stores' native values do.
Value DatumToCanonical(const engine::Datum& d) {
  Value v = d.ToValue();
  if (v.is_string() && !v.string_value().empty() &&
      (v.string_value()[0] == '{' || v.string_value()[0] == '[')) {
    Result<Value> parsed = json::Parse(v.string_value());
    if (parsed.ok()) v = std::move(*parsed);
  }
  return NormalizeScalar(v);
}

std::vector<Value> RowsFromScalars(const engine::QueryResult& result) {
  std::vector<Value> rows;
  rows.reserve(result.rows.size());
  for (const auto& row : result.rows) {
    std::vector<Value> cells;
    cells.reserve(row.size());
    for (const engine::Datum& d : row) cells.push_back(DatumToCanonical(d));
    rows.push_back(Value::Array(std::move(cells)));
  }
  return rows;
}

/// True if the row is entirely NULL (projection rows over keys the record
/// lacks are dropped before comparison, since the EAV model cannot
/// represent them).
bool AllNull(const Value& row) {
  for (const Value& cell : row.array()) {
    if (!cell.is_null()) return false;
  }
  return true;
}

void DropAllNullRows(std::vector<Value>* rows) {
  rows->erase(std::remove_if(rows->begin(), rows->end(), AllNull),
              rows->end());
}

}  // namespace

Status SystemRunner::LoadJsonLines(const std::vector<std::string>& lines) {
  std::vector<Value> docs;
  docs.reserve(lines.size());
  for (const std::string& line : lines) {
    ASSIGN_OR_RETURN(Value doc, json::Parse(line));
    docs.push_back(std::move(doc));
  }
  return Load(docs);
}

Result<uint64_t> SystemRunner::Execute(int q, const QueryParams& p) {
  ASSIGN_OR_RETURN(std::vector<Value> rows, Run(q, p));
  return static_cast<uint64_t>(rows.size());
}

Value CanonicalizeDocument(const Value& doc) {
  Value flat = Value::Object({});
  FlattenInto(doc, "", &flat);
  std::sort(flat.mutable_members().begin(), flat.mutable_members().end(),
            [](const Value::Member& a, const Value::Member& b) {
              return a.first < b.first;
            });
  return flat;
}

void SortRows(std::vector<Value>* rows) {
  std::sort(rows->begin(), rows->end(),
            [](const Value& a, const Value& b) {
              return Value::Compare(a, b) < 0;
            });
}

// ----------------------------------------------------------------- Sinew

SinewRunner::SinewRunner(sinew::SinewOptions options, std::string label)
    : db_(options), label_(std::move(label)) {}

Status SinewRunner::Load(const std::vector<Value>& docs) {
  return db_.LoadDocuments(kTableName, docs).status();
}

Status SinewRunner::Prepare() { return db_.AnalyzeAndMaterialize(kTableName); }

Result<uint64_t> SinewRunner::StorageBytes() {
  ASSIGN_OR_RETURN(engine::Table * t,
                   db_.engine()->catalog()->GetTable(kTableName));
  return t->DataBytes();
}

namespace {

/// The NoBench tasks in this repo's SQL surface (Sinew logical schema).
Result<std::string> SinewSql(int q, const QueryParams& p) {
  switch (q) {
    case 1:
      return std::string("SELECT str1, num FROM nobench_main");
    case 2:
      return std::string(
          "SELECT \"nested_obj.str\", \"nested_obj.num\" FROM nobench_main");
    case 3:
      return std::string("SELECT sparse_110, sparse_119 FROM nobench_main");
    case 4:
      return std::string("SELECT sparse_110, sparse_220 FROM nobench_main");
    case 5:
      return "SELECT * FROM nobench_main WHERE str1 = '" + p.q5_str1 + "'";
    case 6:
      return "SELECT * FROM nobench_main WHERE num BETWEEN " +
             std::to_string(p.q6_lo) + " AND " + std::to_string(p.q6_hi);
    case 7:
      return "SELECT * FROM nobench_main WHERE dyn1 BETWEEN " +
             std::to_string(p.q7_lo) + " AND " + std::to_string(p.q7_hi);
    case 8:
      return "SELECT * FROM nobench_main WHERE array_contains(nested_arr, '" +
             p.q8_arr_value + "')";
    case 9:
      return "SELECT * FROM nobench_main WHERE " + p.q9_sparse_key + " = '" +
             p.q9_value + "'";
    case 10:
      return "SELECT thousandth, COUNT(*) FROM nobench_main WHERE num "
             "BETWEEN " +
             std::to_string(p.q10_lo) + " AND " + std::to_string(p.q10_hi) +
             " GROUP BY thousandth";
    case 11:
      return "SELECT t1.num, t1.\"nested_obj.str\", t2.num "
             "FROM nobench_main t1, nobench_main t2 "
             "WHERE t1.\"nested_obj.str\" = t2.str1 AND t1.num BETWEEN " +
             std::to_string(p.q11_lo) + " AND " + std::to_string(p.q11_hi);
    case 12:
      return "UPDATE nobench_main SET " + p.q12_set_key +
             " = 'DUMMY' WHERE " + p.q12_match_key + " = '" +
             p.q12_match_value + "'";
    default:
      return Status::InvalidArgument("bad task number ", q);
  }
}

}  // namespace

Result<uint64_t> SinewRunner::Execute(int q, const QueryParams& p) {
  ASSIGN_OR_RETURN(std::string sql, SinewSql(q, p));
  ASSIGN_OR_RETURN(engine::QueryResult result, db_.Query(sql));
  if (q == 12) return static_cast<uint64_t>(result.rows[0][0].int_value());
  return static_cast<uint64_t>(result.rows.size());
}

Result<std::vector<Value>> SinewRunner::Run(int q, const QueryParams& p) {
  ASSIGN_OR_RETURN(std::string sql, SinewSql(q, p));
  const bool star = q >= 5 && q <= 9;
  ASSIGN_OR_RETURN(engine::QueryResult result, db_.Query(sql));
  std::vector<Value> rows;
  if (star) {
    rows.reserve(result.rows.size());
    for (const auto& row : result.rows) {
      Value doc = Value::Object({});
      for (size_t i = 0; i < row.size(); ++i) {
        if (row[i].is_null()) continue;
        doc.Set(result.column_names[i], DatumToCanonical(row[i]));
      }
      rows.push_back(CanonicalizeDocument(doc));
    }
  } else {
    rows = RowsFromScalars(result);
    if (q == 3 || q == 4) DropAllNullRows(&rows);
  }
  SortRows(&rows);
  return rows;
}

// ------------------------------------------------------------ MongoDB-like

namespace {

docstore::Filter MongoFilter(int q, const QueryParams& p) {
  using docstore::Condition;
  docstore::Filter filter;
  switch (q) {
    case 5:
      filter.push_back(Condition{"str1", Condition::Op::kEq,
                                 Value::String(p.q5_str1)});
      break;
    case 6:
      filter.push_back(
          Condition{"num", Condition::Op::kGe, Value::Int(p.q6_lo)});
      filter.push_back(
          Condition{"num", Condition::Op::kLe, Value::Int(p.q6_hi)});
      break;
    case 7:
      // MongoDB range predicates over a multi-typed field match only values
      // of the comparable type — same semantics as Sinew's typed extraction.
      filter.push_back(
          Condition{"dyn1", Condition::Op::kGe, Value::Int(p.q7_lo)});
      filter.push_back(
          Condition{"dyn1", Condition::Op::kLe, Value::Int(p.q7_hi)});
      break;
    case 8:
      filter.push_back(Condition{"nested_arr", Condition::Op::kContains,
                                 Value::String(p.q8_arr_value)});
      break;
    case 9:
    case 12: {
      const std::string& key = q == 9 ? p.q9_sparse_key : p.q12_match_key;
      const std::string& val = q == 9 ? p.q9_value : p.q12_match_value;
      filter.push_back(Condition{key, Condition::Op::kEq, Value::String(val)});
      break;
    }
    case 10:
    case 11: {
      int64_t lo = q == 10 ? p.q10_lo : p.q11_lo;
      int64_t hi = q == 10 ? p.q10_hi : p.q11_hi;
      filter.push_back(Condition{"num", Condition::Op::kGe, Value::Int(lo)});
      filter.push_back(Condition{"num", Condition::Op::kLe, Value::Int(hi)});
      break;
    }
    default:
      break;
  }
  return filter;
}

std::vector<std::string> MongoProjection(int q) {
  switch (q) {
    case 1:
      return {"str1", "num"};
    case 2:
      return {"nested_obj.str", "nested_obj.num"};
    case 3:
      return {"sparse_110", "sparse_119"};
    case 4:
      return {"sparse_110", "sparse_220"};
    default:
      return {};
  }
}

}  // namespace

Status MongoLikeRunner::Load(const std::vector<Value>& docs) {
  docstore::Collection* coll = store_.GetOrCreate(kTableName);
  for (const Value& doc : docs) {
    RETURN_NOT_OK(coll->Insert(doc));
  }
  return Status::OK();
}

Result<uint64_t> MongoLikeRunner::StorageBytes() {
  ASSIGN_OR_RETURN(docstore::Collection * coll, store_.Get(kTableName));
  return coll->DataBytes();
}

Result<uint64_t> MongoLikeRunner::Execute(int q, const QueryParams& p) {
  ASSIGN_OR_RETURN(docstore::Collection * coll, store_.Get(kTableName));
  docstore::Filter filter = MongoFilter(q, p);
  switch (q) {
    case 1:
    case 2:
    case 3:
    case 4: {
      ASSIGN_OR_RETURN(std::vector<Value> found,
                       coll->Find(filter, MongoProjection(q)));
      return static_cast<uint64_t>(found.size());
    }
    case 5:
    case 6:
    case 7:
    case 8:
    case 9: {
      ASSIGN_OR_RETURN(std::vector<Value> found, coll->Find(filter));
      return static_cast<uint64_t>(found.size());
    }
    case 10: {
      ASSIGN_OR_RETURN(std::vector<Value> groups,
                       coll->Aggregate(filter, "thousandth", "count", ""));
      return static_cast<uint64_t>(groups.size());
    }
    case 11: {
      ASSIGN_OR_RETURN(
          std::vector<Value> pairs,
          store_.ClientSideJoin(kTableName, "nested_obj.str", filter,
                                kTableName, "str1",
                                {"l.num", "l.nested_obj.str", "r.num"},
                                join_budget_));
      return static_cast<uint64_t>(pairs.size());
    }
    case 12:
      return coll->UpdateMany(filter,
                              {{p.q12_set_key, Value::String("DUMMY")}});
    default:
      return Status::InvalidArgument("bad task number ", q);
  }
}

Result<std::vector<Value>> MongoLikeRunner::Run(int q, const QueryParams& p) {
  ASSIGN_OR_RETURN(docstore::Collection * coll, store_.Get(kTableName));
  docstore::Filter filter = MongoFilter(q, p);

  std::vector<Value> rows;
  switch (q) {
    case 1:
    case 2:
    case 3:
    case 4: {
      std::vector<std::string> paths = MongoProjection(q);
      ASSIGN_OR_RETURN(std::vector<Value> found, coll->Find(filter, paths));
      rows.reserve(found.size());
      for (const Value& doc : found) {
        std::vector<Value> cells;
        for (const std::string& path : paths) {
          const Value* v = doc.Find(path);
          cells.push_back(v == nullptr ? Value::Null() : NormalizeScalar(*v));
        }
        rows.push_back(Value::Array(std::move(cells)));
      }
      if (q == 3 || q == 4) DropAllNullRows(&rows);
      break;
    }
    case 5:
    case 6:
    case 7:
    case 8:
    case 9: {
      ASSIGN_OR_RETURN(std::vector<Value> found, coll->Find(filter));
      rows.reserve(found.size());
      for (const Value& doc : found) {
        rows.push_back(CanonicalizeDocument(doc));
      }
      break;
    }
    case 10: {
      ASSIGN_OR_RETURN(std::vector<Value> groups,
                       coll->Aggregate(filter, "thousandth", "count", ""));
      for (const Value& g : groups) {
        std::vector<Value> cells;
        cells.push_back(NormalizeScalar(*g.Find("_id")));
        cells.push_back(NormalizeScalar(*g.Find("value")));
        rows.push_back(Value::Array(std::move(cells)));
      }
      break;
    }
    case 11: {
      ASSIGN_OR_RETURN(
          std::vector<Value> pairs,
          store_.ClientSideJoin(kTableName, "nested_obj.str", filter,
                                kTableName, "str1",
                                {"l.num", "l.nested_obj.str", "r.num"},
                                join_budget_));
      for (const Value& pair : pairs) {
        std::vector<Value> cells;
        for (const char* path : {"l.num", "l.nested_obj.str", "r.num"}) {
          const Value* v = pair.Find(path);
          cells.push_back(v == nullptr ? Value::Null() : NormalizeScalar(*v));
        }
        rows.push_back(Value::Array(std::move(cells)));
      }
      break;
    }
    case 12: {
      ASSIGN_OR_RETURN(
          uint64_t updated,
          coll->UpdateMany(filter,
                           {{p.q12_set_key, Value::String("DUMMY")}}));
      rows.push_back(Value::Array(
          {Value::Double(static_cast<double>(updated))}));
      break;
    }
    default:
      return Status::InvalidArgument("bad task number ", q);
  }
  SortRows(&rows);
  return rows;
}

// --------------------------------------------------------------------- EAV

EavRunner::EavRunner(engine::PlannerOptions planner_options,
                     engine::ExecOptions exec_options)
    : store_(planner_options, exec_options) {}

Status EavRunner::Load(const std::vector<Value>& docs) {
  return store_.Load(docs).status();
}

Status EavRunner::Prepare() { return store_.Analyze(); }

Result<uint64_t> EavRunner::StorageBytes() { return store_.StorageBytes(); }

namespace {

/// EAV mapping-layer fragments shared by Run/Execute.
std::string EavReconstructPredicate(int q, const QueryParams& p) {
  switch (q) {
    case 5:
      return "m.key = 'str1' AND m.sval = '" + p.q5_str1 + "'";
    case 6:
      return "m.key = 'num' AND m.nval BETWEEN " + std::to_string(p.q6_lo) +
             " AND " + std::to_string(p.q6_hi);
    case 7:
      return "m.key = 'dyn1' AND m.nval BETWEEN " + std::to_string(p.q7_lo) +
             " AND " + std::to_string(p.q7_hi);
    case 8:
      return "m.key = 'nested_arr' AND m.sval = '" + p.q8_arr_value + "'";
    case 9:
      return "m.key = '" + p.q9_sparse_key + "' AND m.sval = '" + p.q9_value +
             "'";
    default:
      return "";
  }
}

std::string EavScalarSql(int q, const QueryParams& p) {
  switch (q) {
    case 1:
      return "SELECT a.sval, b.nval FROM eav a, eav b "
             "WHERE a.oid = b.oid AND a.key = 'str1' AND b.key = 'num'";
    case 2:
      return "SELECT a.sval, b.nval FROM eav a, eav b "
             "WHERE a.oid = b.oid AND a.key = 'nested_obj.str' AND "
             "b.key = 'nested_obj.num'";
    case 10:
      return "SELECT b.nval, COUNT(*) FROM eav a, eav b "
             "WHERE a.oid = b.oid AND a.key = 'num' AND a.nval BETWEEN " +
             std::to_string(p.q10_lo) + " AND " + std::to_string(p.q10_hi) +
             " AND b.key = 'thousandth' GROUP BY b.nval";
    case 11:
      return "SELECT a.nval, b.sval, c.nval "
             "FROM eav a, eav b, eav d, eav c "
             "WHERE a.oid = b.oid AND a.key = 'num' AND a.nval BETWEEN " +
             std::to_string(p.q11_lo) + " AND " + std::to_string(p.q11_hi) +
             " AND b.key = 'nested_obj.str' AND b.sval = d.sval "
             "AND d.key = 'str1' AND d.oid = c.oid AND c.key = 'num'";
    default:
      return "";
  }
}

}  // namespace

Result<uint64_t> EavRunner::Execute(int q, const QueryParams& p) {
  engine::Database* db = store_.engine();
  switch (q) {
    case 1:
    case 2:
    case 10:
    case 11: {
      ASSIGN_OR_RETURN(engine::QueryResult result,
                       db->Execute(EavScalarSql(q, p)));
      return static_cast<uint64_t>(result.rows.size());
    }
    case 3:
    case 4: {
      // Two scans + merge by oid (see Run for the full mapping layer).
      ASSIGN_OR_RETURN(std::vector<Value> rows, Run(q, p));
      return static_cast<uint64_t>(rows.size());
    }
    case 5:
    case 6:
    case 7:
    case 8:
    case 9: {
      ASSIGN_OR_RETURN(std::vector<Value> docs,
                       store_.ReconstructByPredicate(
                           EavReconstructPredicate(q, p)));
      return static_cast<uint64_t>(docs.size());
    }
    case 12:
      return store_.UpdateWhere(p.q12_match_key, p.q12_match_value,
                                p.q12_set_key, "DUMMY");
    default:
      return Status::InvalidArgument("bad task number ", q);
  }
}

Result<std::vector<Value>> EavRunner::Run(int q, const QueryParams& p) {
  engine::Database* db = store_.engine();
  std::vector<Value> rows;
  auto run_scalar = [&](const std::string& sql) -> Status {
    ASSIGN_OR_RETURN(engine::QueryResult result, db->Execute(sql));
    rows = RowsFromScalars(result);
    return Status::OK();
  };
  auto reconstruct = [&](const std::string& predicate) -> Status {
    ASSIGN_OR_RETURN(std::vector<Value> docs,
                     store_.ReconstructByPredicate(predicate));
    rows.reserve(docs.size());
    for (const Value& doc : docs) rows.push_back(CanonicalizeDocument(doc));
    return Status::OK();
  };
  /// Merge-by-oid projection for sparse keys (an outer-join-free mapping;
  /// the dense projections below use the paper's self-join shape).
  auto sparse_projection = [&](const std::string& k1,
                               const std::string& k2) -> Status {
    ASSIGN_OR_RETURN(engine::QueryResult r1,
                     db->Execute("SELECT oid, sval FROM eav WHERE key = '" +
                                 k1 + "'"));
    ASSIGN_OR_RETURN(engine::QueryResult r2,
                     db->Execute("SELECT oid, sval FROM eav WHERE key = '" +
                                 k2 + "'"));
    std::map<int64_t, std::pair<Value, Value>> by_oid;
    for (const auto& row : r1.rows) {
      by_oid[row[0].int_value()].first = Value::String(row[1].str());
    }
    for (const auto& row : r2.rows) {
      by_oid[row[0].int_value()].second = Value::String(row[1].str());
    }
    for (auto& [oid, pair] : by_oid) {
      (void)oid;
      rows.push_back(Value::Array({pair.first, pair.second}));
    }
    return Status::OK();
  };

  switch (q) {
    case 1:
    case 2:
      RETURN_NOT_OK(run_scalar(EavScalarSql(q, p)));
      break;
    case 3:
      RETURN_NOT_OK(sparse_projection("sparse_110", "sparse_119"));
      break;
    case 4:
      RETURN_NOT_OK(sparse_projection("sparse_110", "sparse_220"));
      break;
    case 5:
    case 6:
    case 7:
    case 8:
    case 9:
      RETURN_NOT_OK(reconstruct(EavReconstructPredicate(q, p)));
      break;
    case 10:
    case 11:
      // Q11 is the four-way self-join: filter tuples (a), left join key
      // (b), matching right join key (d), right payload (c).
      RETURN_NOT_OK(run_scalar(EavScalarSql(q, p)));
      break;
    case 12: {
      ASSIGN_OR_RETURN(uint64_t updated,
                       store_.UpdateWhere(p.q12_match_key, p.q12_match_value,
                                          p.q12_set_key, "DUMMY"));
      rows.push_back(Value::Array(
          {Value::Double(static_cast<double>(updated))}));
      break;
    }
    default:
      return Status::InvalidArgument("bad task number ", q);
  }
  SortRows(&rows);
  return rows;
}

// ----------------------------------------------------------------- PG JSON

PgJsonRunner::PgJsonRunner(engine::PlannerOptions planner_options,
                           engine::ExecOptions exec_options)
    : db_(planner_options, exec_options) {}

Status PgJsonRunner::Load(const std::vector<Value>& docs) {
  return db_.Load(kTableName, docs).status();
}

Status PgJsonRunner::LoadJsonLines(const std::vector<std::string>& lines) {
  return db_.LoadJsonLines(kTableName, lines).status();
}

Result<uint64_t> PgJsonRunner::StorageBytes() {
  return db_.StorageBytes(kTableName);
}

namespace {

/// Builds the PG-JSON-style SQL for task q; sets *docs_from_data when the
/// query returns raw document text.
std::string PgJsonSql(int q, const QueryParams& p, bool* docs_from_data) {
  *docs_from_data = false;
  auto ex = [](const std::string& fn, const std::string& key,
               const std::string& rel = "t") {
    return fn + "(" + rel + ".data, '" + key + "')";
  };
  switch (q) {
    case 1:
      return "SELECT " + ex("json_extract_any", "str1") + ", " +
             ex("json_extract_any", "num") + " FROM nobench_main t";
    case 2:
      return "SELECT " + ex("json_extract_any", "nested_obj.str") + ", " +
             ex("json_extract_any", "nested_obj.num") +
             " FROM nobench_main t";
    case 3:
      return "SELECT " + ex("json_extract_any", "sparse_110") + ", " +
             ex("json_extract_any", "sparse_119") + " FROM nobench_main t";
    case 4:
      return "SELECT " + ex("json_extract_any", "sparse_110") + ", " +
             ex("json_extract_any", "sparse_220") + " FROM nobench_main t";
    case 5:
      *docs_from_data = true;
      return "SELECT t.data FROM nobench_main t WHERE " +
             ex("json_extract_text", "str1") + " = '" + p.q5_str1 + "'";
    case 6:
      *docs_from_data = true;
      return "SELECT t.data FROM nobench_main t WHERE " +
             ex("json_extract_int", "num") + " BETWEEN " +
             std::to_string(p.q6_lo) + " AND " + std::to_string(p.q6_hi);
    case 7:
      // Multi-typed key: the typed cast errors on string values, so the
      // query FAILS on this system — the paper's Section 6.4 anecdote.
      *docs_from_data = true;
      return "SELECT t.data FROM nobench_main t WHERE " +
             ex("json_extract_int", "dyn1") + " BETWEEN " +
             std::to_string(p.q7_lo) + " AND " + std::to_string(p.q7_hi);
    case 8:
      // The paper's "approximate, but technically incorrect LIKE predicate"
      // over the raw text (may overmatch).
      *docs_from_data = true;
      return "SELECT t.data FROM nobench_main t WHERE t.data LIKE '%\"" +
             p.q8_arr_value + "\"%'";
    case 9:
      *docs_from_data = true;
      return "SELECT t.data FROM nobench_main t WHERE " +
             ex("json_extract_text", p.q9_sparse_key) + " = '" + p.q9_value +
             "'";
    case 10:
      return "SELECT " + ex("json_extract_any", "thousandth") +
             ", COUNT(*) FROM nobench_main t WHERE " +
             ex("json_extract_int", "num") + " BETWEEN " +
             std::to_string(p.q10_lo) + " AND " + std::to_string(p.q10_hi) +
             " GROUP BY " + ex("json_extract_any", "thousandth");
    case 11:
      return "SELECT " + ex("json_extract_any", "num", "t1") + ", " +
             ex("json_extract_text", "nested_obj.str", "t1") + ", " +
             ex("json_extract_any", "num", "t2") +
             " FROM nobench_main t1, nobench_main t2 WHERE " +
             ex("json_extract_text", "nested_obj.str", "t1") + " = " +
             ex("json_extract_text", "str1", "t2") + " AND " +
             ex("json_extract_int", "num", "t1") + " BETWEEN " +
             std::to_string(p.q11_lo) + " AND " + std::to_string(p.q11_hi);
    case 12:
      return "UPDATE nobench_main SET data = json_set_text(data, '" +
             p.q12_set_key + "', 'DUMMY') WHERE json_extract_text(data, '" +
             p.q12_match_key + "') = '" + p.q12_match_value + "'";
    default:
      return "";
  }
}

}  // namespace

Result<uint64_t> PgJsonRunner::Execute(int q, const QueryParams& p) {
  bool docs_from_data = false;
  std::string sql = PgJsonSql(q, p, &docs_from_data);
  if (sql.empty()) return Status::InvalidArgument("bad task number ", q);
  ASSIGN_OR_RETURN(engine::QueryResult result, db_.Execute(sql));
  if (q == 12) return static_cast<uint64_t>(result.rows[0][0].int_value());
  return static_cast<uint64_t>(result.rows.size());
}

Result<std::vector<Value>> PgJsonRunner::Run(int q, const QueryParams& p) {
  bool docs_from_data = false;
  std::string sql = PgJsonSql(q, p, &docs_from_data);
  if (sql.empty()) return Status::InvalidArgument("bad task number ", q);
  ASSIGN_OR_RETURN(engine::QueryResult result, db_.Execute(sql));
  std::vector<Value> rows;
  if (q == 12) {
    rows.push_back(Value::Array({Value::Double(
        static_cast<double>(result.rows[0][0].int_value()))}));
    return rows;
  }
  if (docs_from_data) {
    rows.reserve(result.rows.size());
    for (const auto& row : result.rows) {
      ASSIGN_OR_RETURN(Value doc, json::Parse(row[0].str()));
      rows.push_back(CanonicalizeDocument(doc));
    }
  } else {
    rows = RowsFromScalars(result);
    if (q == 3 || q == 4) DropAllNullRows(&rows);
  }
  SortRows(&rows);
  return rows;
}

std::vector<std::unique_ptr<SystemRunner>> MakeAllRunners(
    sinew::SinewOptions sinew_options) {
  std::vector<std::unique_ptr<SystemRunner>> runners;
  runners.push_back(std::make_unique<MongoLikeRunner>());
  runners.push_back(std::make_unique<SinewRunner>(std::move(sinew_options)));
  runners.push_back(std::make_unique<EavRunner>());
  runners.push_back(std::make_unique<PgJsonRunner>());
  return runners;
}

}  // namespace sinew::workloads::nobench
