// Physical query plans. Produced by the planner (planner.h), consumed by the
// executor (exec.h), and printable as EXPLAIN trees — the artifact the
// paper's Table 2 compares across virtual vs. physical columns.

#ifndef SINEW_ENGINE_PLAN_H_
#define SINEW_ENGINE_PLAN_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "engine/eval.h"
#include "engine/expr.h"
#include "engine/table.h"
#include "engine/udf.h"

namespace sinew::engine {

namespace bytecode {
struct Program;
}  // namespace bytecode

enum class PlanKind : uint8_t {
  kSeqScan,
  kFilter,
  kProject,
  kNestedLoopJoin,
  kHashJoin,
  kMergeJoin,
  kSort,
  kHashAggregate,
  kGroupAggregate,  // aggregation over sorted input
  kUnique,          // DISTINCT over sorted input
  kLimit,
  kGather,          // merge of a parallel (morsel-driven) child pipeline
  kExtract,         // retired: scans produce virtual columns; never planned
};

const char* PlanKindName(PlanKind kind);

/// Rows per morsel claim in the parallel executor's shared cursor. Shared
/// between exec.cc (MorselSource) and EXPLAIN output so the printed plan
/// reflects the actual claim granularity.
inline constexpr uint64_t kMorselRows = 4096;

/// One aggregate computation (the arg expression is bound against the
/// aggregate node's child schema). COUNT(*) has is_star = true and no arg.
struct AggSpec {
  std::string fn;  // count / sum / avg / min / max
  ExprPtr arg;
  bool is_star = false;
};

/// kSeqScan zone-map pushdown: one entry per scan_filter conjunct comparing
/// a column with a literal, when the column is a physical scalar column or
/// a virtual column reading one typed scalar variant from a single source (a
/// zone map summarizes that source alone, so it proves nothing about a
/// reference with a fallback source). Before
/// decoding a strip-aligned chunk of cold rows, the scan asks the table's
/// columnar segment whether the matching strip's zone map proves no value
/// can satisfy the comparison; if so the whole strip is skipped. Purely an
/// accelerator: rows that survive still evaluate the full scan_filter.
struct ZoneFilter {
  std::string source_column;         ///< reservoir column name (e.g. "_data")
                                     ///< or the physical column
  /// A physical scalar column's strip, found by column name alone.
  bool physical = false;
  std::vector<uint32_t> prefix_ids;  ///< object-id descent chain
  uint32_t attr_id = 0;
  int64_t type_tag = 0;              ///< ValueType of the compared values
  BinaryOp op = BinaryOp::kEq;       ///< comparison with the value on the left
  Datum literal;
  /// The literal's parameter slot (Expr::param), -1 if none: the scan then
  /// compares with the value bound to it instead.
  int param = -1;
};

struct PlanNode {
  PlanKind kind;
  std::vector<std::unique_ptr<PlanNode>> children;

  /// Column layout this node emits.
  ExecSchema output_schema;
  /// Planner cardinality estimate (what EXPLAIN prints).
  double est_rows = 0;

  // kSeqScan
  Table* table = nullptr;
  std::string alias;
  ExprPtr scan_filter;  // pushed-down predicate, bound against scan schema
  /// Projection pushdown: positions (into output_schema) the scan must
  /// produce — filter columns first, then the remaining referenced columns
  /// (produced only for rows that pass the filter). Other positions are
  /// NULL.
  std::vector<size_t> scan_filter_cols;
  std::vector<size_t> scan_output_cols;  // excludes filter cols
  /// Virtual columns, one per distinct kVirtual reference the planner
  /// hoisted out of the statement, its sources bound to scan positions:
  /// column v is output position (live columns + 1 for __rid) + v,
  /// resolved by the scan — phase 1 (every probed row) when its position is
  /// a filter column, phase 2 (filter survivors) otherwise. Extraction goes
  /// through the registered batch extractor, one call per (phase, source
  /// column) over the lanes that read that source; cold rows are served
  /// from the table's columnar segment when it has a strip for every target
  /// of such a group.
  std::vector<ExprPtr> virtual_columns;

  // kFilter
  ExprPtr predicate;

  // kProject: one expression per output column, bound against the child.
  std::vector<ExprPtr> projections;

  // joins: equi-key lists bound against the left/right child schemas (a
  // nested-loop join has none; conjuncts across its inputs run as the
  // Filter above it).
  std::vector<ExprPtr> left_keys;
  std::vector<ExprPtr> right_keys;

  // kSort (also used under kMergeJoin / kGroupAggregate / kUnique)
  std::vector<ExprPtr> sort_keys;
  std::vector<bool> sort_desc;

  // kHashAggregate / kGroupAggregate; kUnique groups by every column (bare
  // refs, no aggregates).
  std::vector<ExprPtr> group_keys;
  std::vector<AggSpec> aggs;

  // kLimit
  int64_t limit = -1;

  // kGather: number of worker tasks the child pipeline runs on. The single
  // child is the template pipeline each worker instantiates over its own
  // morsel stream (see exec.cc).
  int parallel_degree = 0;

  // kSeqScan zone-map pushdown (see ZoneFilter above).
  std::vector<ZoneFilter> zone_filters;

  // Compiled bytecode programs (engine/bytecode.h), attached by the
  // planner's compile pass after every plan rewrite has run, so they
  // compile the final expressions. Immutable; Gather workers instantiate
  // operators over the same PlanNode and share them (per-instance scratch
  // lives in each operator's bytecode::ExecState). Set for every expression
  // slot, except a projection that is a bare bound column ref (its program
  // stays null; the project operator moves or gathers the input column) and
  // the missing argument of COUNT(*) (null).
  using ProgramPtr = std::shared_ptr<const bytecode::Program>;
  ProgramPtr predicate_program;                 // kFilter
  ProgramPtr scan_filter_program;               // kSeqScan
  std::vector<ProgramPtr> projection_programs;  // parallel to `projections`
  std::vector<ProgramPtr> left_key_programs;    // parallel to `left_keys`
  std::vector<ProgramPtr> right_key_programs;   // parallel to `right_keys`
  std::vector<ProgramPtr> sort_key_programs;    // parallel to `sort_keys`
  std::vector<ProgramPtr> group_key_programs;   // parallel to `group_keys`
  std::vector<ProgramPtr> agg_programs;         // parallel to `aggs`

  /// EXPLAIN rendering (multi-line tree). With `params`, parameter slots
  /// render the values bound to them.
  std::string DebugString(const std::vector<Datum>* params = nullptr) const;

  /// Root operator name plus key details on one line (test assertions).
  std::string Summary(const std::vector<Datum>* params = nullptr) const;
};

using PlanPtr = std::unique_ptr<PlanNode>;

}  // namespace sinew::engine

#endif  // SINEW_ENGINE_PLAN_H_
