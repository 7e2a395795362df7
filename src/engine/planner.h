// Cost-based planner.
//
// The statistics dependence is the point (paper Section 3.1.1 / Table 2):
// predicates and grouping keys that are plain columns with ANALYZE statistics
// get real selectivity and distinct-count estimates; anything routed through
// a UDF (i.e. Sinew virtual-column extraction, or the jsontext baseline's
// parse-per-call functions) is opaque and falls back to the fixed default of
// `default_udf_rows` rows — the "200 rows out of 10 million" behaviour the
// paper observes in Postgres. Plan-shape decisions (hash vs. sort
// aggregation, join order, hash vs. merge join) then flip with column
// materialization exactly as in the paper.

#ifndef SINEW_ENGINE_PLANNER_H_
#define SINEW_ENGINE_PLANNER_H_

#include <memory>

#include "common/result.h"
#include "engine/catalog.h"
#include "engine/plan.h"
#include "engine/statement.h"
#include "engine/udf.h"

namespace sinew::engine {

struct PlannerOptions {
  /// Fixed row estimate for predicates the optimizer has no statistics for
  /// (UDF calls over the column reservoir). The paper reports Postgres
  /// assuming 200 rows.
  double default_udf_rows = 200;
  /// Distinct-count default for stat-less grouping/join keys.
  double default_udf_distinct = 200;
  /// Fallback selectivities when a column has no ANALYZE statistics.
  double default_eq_selectivity = 0.005;
  double default_range_selectivity = 1.0 / 3.0;
  double default_like_selectivity = 0.05;
  /// work_mem proxies: estimated group/build cardinalities beyond these make
  /// the planner prefer sort-based aggregation / merge join, mirroring
  /// Postgres's memory-bounded plan choices.
  double hash_agg_max_groups = 100000;
  double hash_join_max_build_rows = 1000000;
  /// Intra-query parallelism: maximum Gather degree. 1 keeps plans serial.
  int parallelism = 1;
  /// Parallelization threshold: a scan pipeline goes parallel only when its
  /// base table has at least this many rows per worker, so the chosen degree
  /// is min(parallelism, ceil(rows / parallel_min_rows)).
  double parallel_min_rows = 8192;
};

/// The Gather degree of a scan pipeline over a base table of `live_rows`
/// rows: min(parallelism, ceil(live_rows / parallel_min_rows)), at least 1.
/// Each worker gets at least parallel_min_rows rows to chew on; otherwise
/// fan-out overhead dominates. A degree below 2 plans serially.
int GatherDegreeFor(const PlannerOptions& options, uint64_t live_rows);

class Planner {
 public:
  Planner(Catalog* catalog, const UdfRegistry* udfs,
          PlannerOptions options = {})
      : catalog_(catalog), udfs_(udfs), options_(options) {}

  /// Builds a physical plan for a SELECT.
  Result<PlanPtr> PlanSelect(const SelectStatement& stmt) const;

 private:
  class SelectPlanner;

  Catalog* catalog_;
  const UdfRegistry* udfs_;
  PlannerOptions options_;
};

}  // namespace sinew::engine

#endif  // SINEW_ENGINE_PLANNER_H_
