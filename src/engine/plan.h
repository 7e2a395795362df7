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
  kExtract,         // batched document extraction (appends computed columns)
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

/// kSeqScan zone-map pushdown: one entry per scan_filter conjunct of shape
/// `sinew_extract_chain(col, T, ids...) <cmp> literal`. Before decoding a
/// strip-aligned chunk of cold rows, the scan asks the table's columnar
/// segment whether the matching strip's zone map proves no value can satisfy
/// the comparison; if so the whole strip is skipped. Purely an accelerator:
/// rows that survive still evaluate the full scan_filter.
struct ZoneFilter {
  std::string source_column;         ///< reservoir column name (e.g. "_data")
  std::vector<uint32_t> prefix_ids;  ///< object-id descent chain
  uint32_t attr_id = 0;
  int64_t type_tag = 0;              ///< ValueType of the extracted attribute
  BinaryOp op = BinaryOp::kEq;       ///< comparison with the value on the left
  Datum literal;
};

/// kSeqScan deferred-bytes pushdown: a serialized source column (reservoir)
/// whose decoded bytes are consumed *only* by hoisted extract targets above
/// the scan. When the attached columnar segment can serve every listed
/// target, the batch scan skips decoding the column for segment-covered
/// rows and records the deferral on the RowBatch (see row_batch.h); the
/// extract then reads the values from the strips instead. Rows past the
/// segment and chunks where any target fails to resolve decode normally.
struct LazyScanSource {
  int output_pos = -1;  ///< scan output position of the bytes column
  std::vector<ExtractTarget> targets;  ///< every target sourced from it
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
  /// decode — filter columns first, then the remaining referenced columns
  /// (decoded only for rows that pass the filter). Valid when
  /// scan_projected; otherwise the scan decodes every column.
  bool scan_projected = false;
  std::vector<size_t> scan_filter_cols;
  std::vector<size_t> scan_output_cols;  // excludes filter cols

  // kFilter
  ExprPtr predicate;

  // kProject: one expression per output column, bound against the child.
  std::vector<ExprPtr> projections;

  // joins: equi-key lists bound against left/right child schemas, plus an
  // optional residual predicate bound against the concatenated schema.
  std::vector<ExprPtr> left_keys;
  std::vector<ExprPtr> right_keys;
  ExprPtr residual;

  // kSort (also used under kMergeJoin / kGroupAggregate / kUnique)
  std::vector<ExprPtr> sort_keys;
  std::vector<bool> sort_desc;

  // kHashAggregate / kGroupAggregate
  std::vector<ExprPtr> group_keys;
  std::vector<AggSpec> aggs;

  // kLimit
  int64_t limit = -1;

  // kGather: number of worker tasks the child pipeline runs on. The single
  // child is the template pipeline each worker instantiates over its own
  // morsel stream (see exec.cc).
  int parallel_degree = 0;

  // kExtract: each target appends one output column (after the child's
  // columns) computed by the registered batch-extract function; targets
  // sharing a source column decode it once per row. Grouped by source_slot
  // and sorted by (prefix_ids, attr_id) — the BatchExtractFn contract.
  std::vector<ExtractTarget> extract_targets;
  std::string extract_fn;  // name resolved via UdfRegistry::FindBatchExtract
  /// Columnar strip serving: when the extract sits over a scan of
  /// `extract_table` and the child emits the scan's __rid pseudo-column at
  /// `extract_rid_slot`, the operator serves targets covered by the table's
  /// columnar segment straight from the strips for cold rows, falling back
  /// to the reservoir function for hot rows and uncovered targets.
  Table* extract_table = nullptr;
  int extract_rid_slot = -1;

  // kSeqScan zone-map pushdown (see ZoneFilter above).
  std::vector<ZoneFilter> zone_filters;

  // kSeqScan deferred-bytes pushdown (see LazyScanSource above).
  std::vector<LazyScanSource> lazy_sources;

  // Compiled bytecode programs (engine/bytecode.h), attached by the
  // planner's compile pass after every plan rewrite has run so the Expr
  // trees they alias are final. Immutable; Gather workers instantiate
  // operators over the same PlanNode and share them (per-instance scratch
  // lives in each operator's bytecode::ExecState). Set for every expression
  // slot of the streaming operators, except a projection that is a bare
  // bound column ref (its program stays null; the project operator moves or
  // gathers the input column).
  std::shared_ptr<const bytecode::Program> predicate_program;    // kFilter
  std::shared_ptr<const bytecode::Program> scan_filter_program;  // kSeqScan
  std::vector<std::shared_ptr<const bytecode::Program>>
      projection_programs;  // kProject, parallel to `projections`
  std::vector<std::shared_ptr<const bytecode::Program>>
      probe_key_programs;  // kHashJoin, parallel to `left_keys`

  /// EXPLAIN rendering (multi-line tree).
  std::string DebugString() const;

  /// Root operator name plus key details on one line (test assertions).
  std::string Summary() const;
};

using PlanPtr = std::unique_ptr<PlanNode>;

}  // namespace sinew::engine

#endif  // SINEW_ENGINE_PLAN_H_
