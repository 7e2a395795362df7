// NoBench operations with per-operation literals, and the correctness oracle
// that evaluates each one naively over the generated `Value` documents.
//
// The SQL texts are the repo's NoBench tasks (workloads/nobench/runners.cc);
// only the literals change per operation, drawn from the workload seed, so
// the exact SQL text rarely repeats while the query fingerprint does.

#ifndef PERFBENCH_HARNESS_NOBENCH_OPS_H_
#define PERFBENCH_HARNESS_NOBENCH_OPS_H_

#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/value.h"
#include "engine/exec.h"

namespace perfbench {

inline constexpr const char* kTable = "nobench_main";

/// One NoBench task instance.
struct Op {
  int q = 0;          // NoBench task number: 1..11 queries, 12 = update
  std::string text;   // string literal (str1 / array element / sparse value)
  int64_t lo = 0;     // numeric range literal
  int64_t hi = 0;
  std::string set_value;  // Q12's new value
  std::string sql;

  bool is_star() const { return q >= 5 && q <= 9; }
};

/// Draws the literals of task `q` from `rng`. Literals that must hit are
/// taken from a random document of `docs` (the current logical contents);
/// `num_domain` is the generator's record count (the `num` value domain).
Op MakeOp(int q, sinew::Rng* rng, std::span<const sinew::Value> docs,
          uint64_t num_domain);

/// What a result is checked on: its row count, and the sum of one numeric
/// output column (or a non-NULL count where the query has no number).
struct Summary {
  uint64_t rows = 0;
  double checksum = 0;
  bool operator==(const Summary& o) const {
    return rows == o.rows && checksum == o.checksum;
  }
};

/// Summary of an engine result for `op` (for Q12: the updated-row count).
Summary Summarize(const Op& op, const sinew::engine::QueryResult& result);

/// Naive evaluation of `op` over `docs` (a linear scan per operation).
Summary Expected(const Op& op, std::span<const sinew::Value> docs);

/// Applies Q12 to the oracle's documents, first saving each document it
/// changes to `undo` as (index, previous document).
void ApplyUpdate(const Op& op, std::span<sinew::Value> docs,
                 std::vector<std::pair<size_t, sinew::Value>>* undo);

/// A `SELECT *` result row as a canonical document (dotted keys, sorted,
/// numbers as doubles, NULL columns dropped), comparable with
/// CanonicalDocument of the source document.
sinew::Value CanonicalRow(const sinew::engine::QueryResult& result,
                          size_t row);
sinew::Value CanonicalDocument(const sinew::Value& doc);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_NOBENCH_OPS_H_
