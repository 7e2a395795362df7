#include "harness/nobench_ops.h"

#include <algorithm>
#include <map>

#include "json/json.h"

namespace perfbench {

using sinew::Value;
using sinew::engine::Datum;
using sinew::engine::QueryResult;

namespace {

std::string StringField(const Value& doc, std::string_view key) {
  const Value* v = doc.Find(key);
  return v != nullptr && v->is_string() ? v->string_value() : std::string();
}

bool IntField(const Value& doc, std::string_view key, int64_t* out) {
  const Value* v = doc.Find(key);
  if (v == nullptr || !v->is_int()) return false;
  *out = v->int_value();
  return true;
}

int64_t Num(const Value& doc) {
  int64_t n = 0;
  IntField(doc, "num", &n);
  return n;
}

/// A random document index whose sparse group (index % 100) is `group`.
size_t DocInGroup(sinew::Rng* rng, size_t n, size_t group) {
  const size_t per_group = (n - group + 99) / 100;
  return group + 100 * static_cast<size_t>(rng->Uniform(per_group));
}

std::string Quote(const std::string& s) { return "'" + s + "'"; }

std::string SqlFor(const Op& op) {
  const std::string range =
      std::to_string(op.lo) + " AND " + std::to_string(op.hi);
  switch (op.q) {
    case 1:
      return "SELECT str1, num FROM nobench_main";
    case 2:
      return "SELECT \"nested_obj.str\", \"nested_obj.num\" FROM nobench_main";
    case 3:
      return "SELECT sparse_110, sparse_119 FROM nobench_main";
    case 4:
      return "SELECT sparse_110, sparse_220 FROM nobench_main";
    case 5:
      return "SELECT * FROM nobench_main WHERE str1 = " + Quote(op.text);
    case 6:
      return "SELECT * FROM nobench_main WHERE num BETWEEN " + range;
    case 7:
      return "SELECT * FROM nobench_main WHERE dyn1 BETWEEN " + range;
    case 8:
      return "SELECT * FROM nobench_main WHERE array_contains(nested_arr, " +
             Quote(op.text) + ")";
    case 9:
      return "SELECT * FROM nobench_main WHERE sparse_110 = " + Quote(op.text);
    case 10:
      return "SELECT thousandth, COUNT(*) FROM nobench_main WHERE num "
             "BETWEEN " + range + " GROUP BY thousandth";
    case 11:
      return "SELECT t1.num, t1.\"nested_obj.str\", t2.num "
             "FROM nobench_main t1, nobench_main t2 "
             "WHERE t1.\"nested_obj.str\" = t2.str1 AND t1.num BETWEEN " +
             range;
    case 12:
      return "UPDATE nobench_main SET sparse_588 = " + Quote(op.set_value) +
             " WHERE sparse_589 = " + Quote(op.text);
  }
  return "";
}

double AsNumber(const Datum& d) { return d.is_numeric() ? d.AsDouble() : 0; }

/// Output column summed into the checksum (-1: count non-NULLs of column
/// `NonNullColumn` instead).
int ChecksumColumn(const Op& op, const QueryResult& result) {
  switch (op.q) {
    case 1:
    case 2:
    case 10:
      return 1;
    case 11:
      return 2;
    case 12:
      return 0;
    case 3:
    case 4:
      return -1;
    default: {
      auto it = std::find(result.column_names.begin(),
                          result.column_names.end(), "num");
      return it == result.column_names.end()
                 ? -2
                 : static_cast<int>(it - result.column_names.begin());
    }
  }
}

void FlattenInto(const Value& node, const std::string& prefix, Value* out);

Value NormalizeScalar(const Value& v) {
  return v.is_int() ? Value::Double(static_cast<double>(v.int_value())) : v;
}

void FlattenInto(const Value& node, const std::string& prefix, Value* out) {
  for (const auto& [key, value] : node.members()) {
    const std::string path = prefix + key;
    if (value.is_null()) continue;
    if (value.is_object()) {
      FlattenInto(value, path + ".", out);
    } else if (value.is_array()) {
      // Same normalization as the cross-system NoBench suite: empty arrays
      // vanish and one-element arrays read as their element.
      if (value.array().empty()) continue;
      if (value.array().size() == 1) {
        out->Set(path, NormalizeScalar(value.array()[0]));
        continue;
      }
      std::vector<Value> elements;
      for (const Value& e : value.array()) {
        elements.push_back(NormalizeScalar(e));
      }
      out->Set(path, Value::Array(std::move(elements)));
    } else {
      out->Set(path, NormalizeScalar(value));
    }
  }
}

}  // namespace

Op MakeOp(int q, sinew::Rng* rng, std::span<const Value> docs,
          uint64_t num_domain) {
  Op op;
  op.q = q;
  const size_t n = docs.size();
  const int64_t domain = static_cast<int64_t>(num_domain);
  switch (q) {
    case 5:
      op.text = StringField(docs[rng->Uniform(n)], "str1");
      break;
    case 6:
    case 11: {
      const int64_t width = std::max<int64_t>(domain / 1000, 1);
      op.lo = static_cast<int64_t>(rng->Uniform(num_domain));
      op.hi = op.lo + width;
      break;
    }
    case 7:
      // dyn1 ints are uniform over [0, 1000) on half the records: a 20-wide
      // range selects ~1%.
      op.lo = rng->UniformRange(0, 980);
      op.hi = op.lo + 19;
      break;
    case 8:
      for (;;) {
        const Value* arr = docs[rng->Uniform(n)].Find("nested_arr");
        if (arr != nullptr && arr->is_array() && !arr->array().empty()) {
          op.text = arr->array()[rng->Uniform(arr->array().size())]
                        .string_value();
          break;
        }
      }
      break;
    case 9:
      op.text = StringField(docs[DocInGroup(rng, n, 11)], "sparse_110");
      break;
    case 10: {
      const int64_t width = std::max<int64_t>(domain / 10, 1);
      op.lo = static_cast<int64_t>(
          rng->Uniform(static_cast<uint64_t>(std::max<int64_t>(
              domain - width, 1))));
      op.hi = op.lo + width;
      break;
    }
    case 12:
      op.text = StringField(docs[DocInGroup(rng, n, 58)], "sparse_589");
      op.set_value = "U" + rng->AlphaNumeric(11);
      break;
    default:
      break;
  }
  op.sql = SqlFor(op);
  return op;
}

Summary Summarize(const Op& op, const QueryResult& result) {
  Summary s;
  if (op.q == 12) {
    s.rows = result.rows.empty() || !result.rows[0][0].is_int()
                 ? 0
                 : static_cast<uint64_t>(result.rows[0][0].int_value());
    return s;
  }
  s.rows = result.rows.size();
  const int col = ChecksumColumn(op, result);
  if (col == -1) {
    const size_t nn = op.q == 3 ? 0 : 1;
    for (const auto& row : result.rows) {
      if (nn < row.size() && !row[nn].is_null()) s.checksum += 1;
    }
    return s;
  }
  if (col < 0) return s;
  for (const auto& row : result.rows) {
    if (static_cast<size_t>(col) < row.size()) s.checksum += AsNumber(row[col]);
  }
  return s;
}

Summary Expected(const Op& op, std::span<const Value> docs) {
  Summary s;
  auto take = [&s](double v) {
    ++s.rows;
    s.checksum += v;
  };
  switch (op.q) {
    case 1:
      for (const Value& d : docs) take(static_cast<double>(Num(d)));
      break;
    case 2:
      for (const Value& d : docs) {
        const Value* nested = d.Find("nested_obj");
        int64_t v = 0;
        if (nested != nullptr) IntField(*nested, "num", &v);
        take(static_cast<double>(v));
      }
      break;
    case 3:
    case 4: {
      const char* key = op.q == 3 ? "sparse_110" : "sparse_220";
      for (const Value& d : docs) take(d.Find(key) != nullptr ? 1 : 0);
      break;
    }
    case 5:
      for (const Value& d : docs) {
        if (StringField(d, "str1") == op.text) take(Num(d));
      }
      break;
    case 6:
      for (const Value& d : docs) {
        const int64_t v = Num(d);
        if (v >= op.lo && v <= op.hi) take(static_cast<double>(v));
      }
      break;
    case 7:
      for (const Value& d : docs) {
        int64_t v = 0;
        if (IntField(d, "dyn1", &v) && v >= op.lo && v <= op.hi) {
          take(static_cast<double>(Num(d)));
        }
      }
      break;
    case 8:
      for (const Value& d : docs) {
        const Value* arr = d.Find("nested_arr");
        if (arr == nullptr || !arr->is_array()) continue;
        for (const Value& e : arr->array()) {
          if (e.is_string() && e.string_value() == op.text) {
            take(static_cast<double>(Num(d)));
            break;
          }
        }
      }
      break;
    case 9:
      for (const Value& d : docs) {
        if (StringField(d, "sparse_110") == op.text) {
          take(static_cast<double>(Num(d)));
        }
      }
      break;
    case 10: {
      std::map<int64_t, uint64_t> groups;
      for (const Value& d : docs) {
        const int64_t v = Num(d);
        int64_t t = 0;
        if (v >= op.lo && v <= op.hi && IntField(d, "thousandth", &t)) {
          ++groups[t];
        }
      }
      s.rows = groups.size();
      for (const auto& [t, count] : groups) {
        s.checksum += static_cast<double>(count);
      }
      break;
    }
    case 11: {
      // Hash join done the naive way: index t2 by str1, probe with t1.
      std::map<std::string, std::pair<uint64_t, double>> by_str1;
      for (const Value& d : docs) {
        auto& [count, sum] = by_str1[StringField(d, "str1")];
        ++count;
        sum += static_cast<double>(Num(d));
      }
      for (const Value& d : docs) {
        const int64_t v = Num(d);
        if (v < op.lo || v > op.hi) continue;
        const Value* nested = d.Find("nested_obj");
        if (nested == nullptr) continue;
        auto it = by_str1.find(StringField(*nested, "str"));
        if (it == by_str1.end()) continue;
        s.rows += it->second.first;
        s.checksum += it->second.second;
      }
      break;
    }
    case 12:
      for (const Value& d : docs) {
        if (StringField(d, "sparse_589") == op.text) ++s.rows;
      }
      break;
    default:
      break;
  }
  return s;
}

void ApplyUpdate(const Op& op, std::span<Value> docs,
                 std::vector<std::pair<size_t, Value>>* undo) {
  for (size_t i = 0; i < docs.size(); ++i) {
    if (StringField(docs[i], "sparse_589") == op.text) {
      undo->emplace_back(i, docs[i]);
      docs[i].Set("sparse_588", Value::String(op.set_value));
    }
  }
}

Value CanonicalDocument(const Value& doc) {
  Value flat = Value::Object({});
  FlattenInto(doc, "", &flat);
  std::sort(flat.mutable_members().begin(), flat.mutable_members().end(),
            [](const Value::Member& a, const Value::Member& b) {
              return a.first < b.first;
            });
  return flat;
}

Value CanonicalRow(const QueryResult& result, size_t row) {
  Value doc = Value::Object({});
  const auto& cells = result.rows[row];
  for (size_t i = 0; i < cells.size() && i < result.column_names.size(); ++i) {
    if (cells[i].is_null()) continue;
    Value v = cells[i].ToValue();
    // Collections come back as their JSON rendering.
    if (v.is_string() && !v.string_value().empty() &&
        (v.string_value()[0] == '{' || v.string_value()[0] == '[')) {
      sinew::Result<Value> parsed = sinew::json::Parse(v.string_value());
      if (parsed.ok()) v = std::move(*parsed);
    }
    doc.Set(result.column_names[i], std::move(v));
  }
  return CanonicalDocument(doc);
}

}  // namespace perfbench
