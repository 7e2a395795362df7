// Plan-cache reruns for the differential suites: a statement is run again
// with other values of the same kinds in its parameter slots
// (sinew/plan_cache.h), which must reuse the cached plan — the query log
// shows a hit — and still agree with the oracle.

#ifndef SINEW_TESTS_CACHED_RERUN_H_
#define SINEW_TESTS_CACHED_RERUN_H_

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "common/query_log.h"
#include "engine/parser.h"
#include "sinew/plan_cache.h"
#include "sinew/sinew_db.h"

namespace sinew::oracle {

/// A SQL literal for `d`.
inline std::string SqlLiteral(const engine::Datum& d) {
  if (d.is_text()) {
    std::string out = "'";
    for (char c : d.str()) {
      out += c;
      if (c == '\'') out += '\'';
    }
    return out + "'";
  }
  if (d.is_bool()) return d.bool_value() ? "TRUE" : "FALSE";
  if (d.is_double()) return std::to_string(d.double_value());
  return std::to_string(d.int_value());
}

/// Another value of `d`'s kind: an int plus one, a double plus a half, a
/// text with '~' appended, a bool negated.
inline engine::Datum OtherValue(const engine::Datum& d) {
  if (d.is_text()) return engine::Datum::Text(d.str() + "~");
  if (d.is_bool()) return engine::Datum::Bool(!d.bool_value());
  if (d.is_double()) return engine::Datum::Double(d.double_value() + 0.5);
  const int64_t v = d.int_value();
  return engine::Datum::Int(v == std::numeric_limits<int64_t>::max() ? v - 1
                                                                     : v + 1);
}

/// `sql` with every plan-cache parameter replaced by OtherValue of it;
/// `sql` itself when it has none or is not cacheable.
inline std::string OtherLiterals(const std::string& sql) {
  Result<engine::Statement> stmt = engine::ParseSql(sql);
  if (!stmt.ok()) return sql;
  std::optional<StatementShape> shape = ParameterizeStatement(sql, &*stmt);
  if (!shape.has_value()) return sql;
  std::string out = sql;
  // Back to front, so earlier spans keep their offsets.
  std::vector<size_t> order(shape->spans.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return shape->spans[a].first > shape->spans[b].first;
  });
  for (size_t i : order) {
    const auto [begin, end] = shape->spans[i];
    out.replace(begin, end - begin,
                SqlLiteral(OtherValue(shape->params[i])) + " ");
  }
  return out;
}

/// True when `sql` goes through the plan cache at all.
inline bool Cacheable(const std::string& sql) {
  Result<engine::Statement> stmt = engine::ParseSql(sql);
  return stmt.ok() && ParameterizeStatement(sql, &*stmt).has_value();
}

/// The plan-cache outcome ("hit", "miss", "bypass") the query log holds
/// for the latest statement, or "hit" when the log is compiled out.
inline std::string LastPlanCache() {
#if defined(SINEW_METRICS_DISABLED)
  return "hit";
#else
  const std::vector<qlog::QueryRecord> log =
      qlog::QueryLog::Global()->Records();
  return log.empty() ? "" : log.back().plan_cache;
#endif
}

/// One run of a differential suite's statement: the statement as written,
/// or its rerun with other literals (OtherLiterals).
struct CachedRun {
  std::string sql;
  bool rerun = false;

  /// db->Query(sql). A rerun of a cacheable statement comes right after the
  /// statement ran on the same database, so it must hit the plan cache.
  Result<engine::QueryResult> Query(SinewDb* db) const {
    Result<engine::QueryResult> result = db->Query(sql);
    if (rerun && result.ok() && Cacheable(sql)) {
      EXPECT_EQ(LastPlanCache(), "hit") << sql;
    }
    return result;
  }
};

/// `sql`, then its rerun with other literals of the same kinds.
inline std::vector<CachedRun> CachedRuns(const std::string& sql) {
  return {CachedRun{sql, false}, CachedRun{OtherLiterals(sql), true}};
}

}  // namespace sinew::oracle

#endif  // SINEW_TESTS_CACHED_RERUN_H_
