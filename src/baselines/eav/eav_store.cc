#include "baselines/eav/eav_store.h"

#include <map>
#include <set>

#include "engine/table.h"

namespace sinew::eav {

namespace {

constexpr size_t kOidSlot = 0;
constexpr size_t kKeySlot = 1;
constexpr size_t kSvalSlot = 2;
constexpr size_t kNvalSlot = 3;
constexpr size_t kBvalSlot = 4;

}  // namespace

EavStore::EavStore(engine::PlannerOptions planner_options,
                   engine::ExecOptions exec_options)
    : db_(planner_options, exec_options) {
  engine::Schema schema;
  (void)schema.AddColumn(engine::Column{"oid", engine::ColumnType::kInt});
  (void)schema.AddColumn(engine::Column{"key", engine::ColumnType::kText});
  (void)schema.AddColumn(engine::Column{"sval", engine::ColumnType::kText});
  (void)schema.AddColumn(engine::Column{"nval", engine::ColumnType::kDouble});
  (void)schema.AddColumn(engine::Column{"bval", engine::ColumnType::kBool});
  table_ = *db_.catalog()->CreateTable(kTableName, std::move(schema));
}

const char* EavStore::ValueColumnFor(ValueType type) {
  switch (type) {
    case ValueType::kString:
      return "sval";
    case ValueType::kInt:
    case ValueType::kDouble:
      return "nval";
    case ValueType::kBool:
      return "bval";
    default:
      return "sval";
  }
}

Status EavStore::ShredInto(uint64_t oid, const Value& node,
                           const std::string& prefix, uint64_t* tuples) {
  for (const auto& [key, value] : node.members()) {
    std::string path = prefix + key;
    switch (value.type()) {
      case ValueType::kNull:
        break;
      case ValueType::kObject:
        RETURN_NOT_OK(ShredInto(oid, value, path + ".", tuples));
        break;
      case ValueType::kArray: {
        for (const Value& e : value.array()) {
          if (e.is_object()) {
            RETURN_NOT_OK(ShredInto(oid, e, path + ".", tuples));
            continue;
          }
          engine::DatumRow row(5);
          row[kOidSlot] = engine::Datum::Int(static_cast<int64_t>(oid));
          row[kKeySlot] = engine::Datum::Text(path);
          if (e.is_string()) {
            row[kSvalSlot] = engine::Datum::Text(e.string_value());
          } else if (e.is_number()) {
            row[kNvalSlot] = engine::Datum::Double(e.AsDouble());
          } else if (e.is_bool()) {
            row[kBvalSlot] = engine::Datum::Bool(e.bool_value());
          }
          RETURN_NOT_OK(table_->AppendRow(row).status());
          ++*tuples;
        }
        break;
      }
      default: {
        engine::DatumRow row(5);
        row[kOidSlot] = engine::Datum::Int(static_cast<int64_t>(oid));
        row[kKeySlot] = engine::Datum::Text(path);
        if (value.is_string()) {
          row[kSvalSlot] = engine::Datum::Text(value.string_value());
        } else if (value.is_number()) {
          row[kNvalSlot] = engine::Datum::Double(value.AsDouble());
        } else if (value.is_bool()) {
          row[kBvalSlot] = engine::Datum::Bool(value.bool_value());
        }
        RETURN_NOT_OK(table_->AppendRow(row).status());
        ++*tuples;
      }
    }
  }
  return Status::OK();
}

Result<uint64_t> EavStore::Load(const std::vector<Value>& docs) {
  uint64_t tuples = 0;
  for (const Value& doc : docs) {
    if (!doc.is_object()) {
      return Status::InvalidArgument("EAV load expects objects");
    }
    RETURN_NOT_OK(ShredInto(next_oid_, doc, "", &tuples));
    ++next_oid_;
  }
  return tuples;
}

Result<uint64_t> EavStore::StorageBytes() const { return table_->DataBytes(); }

Status EavStore::Analyze() { return table_->Analyze(); }

Result<std::vector<Value>> EavStore::ReconstructByPredicate(
    const std::string& predicate_sql) {
  // Self-join: m selects matching oids, e fetches all their tuples.
  std::string sql =
      "SELECT e.oid, e.key, e.sval, e.nval, e.bval FROM eav e, eav m "
      "WHERE e.oid = m.oid AND " +
      predicate_sql + " ORDER BY e.oid";
  ASSIGN_OR_RETURN(engine::QueryResult result, db_.Execute(sql));
  std::vector<Value> docs;
  int64_t current_oid = -1;
  std::map<std::string, bool> seen_in_current;
  for (const auto& row : result.rows) {
    int64_t oid = row[0].int_value();
    const std::string& key = row[1].str();
    if (oid != current_oid) {
      docs.push_back(Value::Object({}));
      current_oid = oid;
      seen_in_current.clear();
    }
    Value v;
    if (!row[2].is_null()) {
      v = Value::String(row[2].str());
    } else if (!row[3].is_null()) {
      v = Value::Double(row[3].double_value());
    } else if (!row[4].is_null()) {
      v = Value::Bool(row[4].bool_value());
    }
    Value& doc = docs.back();
    if (seen_in_current[key]) {
      // Repeated key = array element: promote to array.
      Value* existing = nullptr;
      for (auto& [k, val] : doc.mutable_members()) {
        if (k == key) {
          existing = &val;
          break;
        }
      }
      if (existing != nullptr) {
        if (!existing->is_array()) {
          Value arr = Value::Array({*existing});
          *existing = std::move(arr);
        }
        existing->Append(std::move(v));
        continue;
      }
    }
    seen_in_current[key] = true;
    doc.Set(key, std::move(v));
  }
  return docs;
}

Result<uint64_t> EavStore::UpdateWhere(const std::string& match_key,
                                       const std::string& match_value,
                                       const std::string& set_key,
                                       const std::string& set_value) {
  // Find matching oids.
  ASSIGN_OR_RETURN(
      engine::QueryResult match,
      db_.Execute("SELECT oid FROM eav WHERE key = '" + match_key +
                  "' AND sval = '" + match_value + "'"));
  if (match.rows.empty()) return 0;
  std::string oid_list;
  for (const auto& row : match.rows) {
    if (!oid_list.empty()) oid_list += ", ";
    oid_list += std::to_string(row[0].int_value());
  }
  // Update existing tuples for the target key.
  ASSIGN_OR_RETURN(
      engine::QueryResult updated,
      db_.Execute("UPDATE eav SET sval = '" + set_value + "' WHERE key = '" +
                  set_key + "' AND oid IN (" + oid_list + ")"));
  uint64_t n = static_cast<uint64_t>(updated.rows[0][0].int_value());
  // Upsert tuples for oids that lacked the key.
  ASSIGN_OR_RETURN(
      engine::QueryResult have,
      db_.Execute("SELECT oid FROM eav WHERE key = '" + set_key +
                  "' AND oid IN (" + oid_list + ")"));
  std::set<int64_t> have_oids;
  for (const auto& row : have.rows) {
    have_oids.insert(row[0].int_value());
  }
  for (const auto& row : match.rows) {
    int64_t oid = row[0].int_value();
    if (have_oids.count(oid) != 0) continue;
    engine::DatumRow tuple(5);
    tuple[kOidSlot] = engine::Datum::Int(oid);
    tuple[kKeySlot] = engine::Datum::Text(set_key);
    tuple[kSvalSlot] = engine::Datum::Text(set_value);
    RETURN_NOT_OK(table_->AppendRow(tuple).status());
    ++n;
  }
  return n;
}

}  // namespace sinew::eav
