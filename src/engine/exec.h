// Volcano-style plan executor over RowBatches.
//
// Every operator reads and produces batches. Streaming operators (scan,
// filter, project, limit, Gather) pass them on; blocking operators (sort,
// joins, aggregation, DISTINCT) evaluate their keys and aggregate arguments
// once per input batch with compiled programs, and charge what they
// materialize (sorted rows, hash tables, join inputs, groups) to an
// intermediate-state memory budget. Exceeding the budget aborts
// the query with Status::Aborted — the mechanism used to reproduce the
// paper's "could not complete for lack of disk space" outcomes for the EAV
// and MongoDB joins honestly rather than by special-casing.

#ifndef SINEW_ENGINE_EXEC_H_
#define SINEW_ENGINE_EXEC_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "engine/plan.h"
#include "engine/result_rows.h"
#include "engine/udf.h"

namespace sinew {
class ThreadPool;
}  // namespace sinew

namespace sinew::engine {

/// Actuals for one plan node, accumulated during execution. All fields are
/// relaxed atomics because Gather workers instantiate clones of the same
/// plan subtree: every clone reports into the one OperatorStats of the plan
/// node it was built from, which is exactly how EXPLAIN ANALYZE aggregates
/// per-worker activity back onto the printed tree.
struct OperatorStats {
  std::atomic<uint64_t> rows{0};        // rows emitted by NextBatch()
  std::atomic<uint64_t> next_calls{0};  // NextBatch() calls (incl. EOF)
  std::atomic<uint64_t> batches{0};     // non-empty NextBatch() returns
  std::atomic<uint64_t> open_ns{0};
  std::atomic<uint64_t> next_ns{0};     // cumulative across instances
  std::atomic<uint64_t> instances{0};   // operator clones opened (loops)
  // kGather only:
  std::atomic<uint64_t> morsels{0};     // morsel claims across workers
  std::atomic<uint64_t> stalls{0};      // bounded-queue full waits
  // kSeqScan only:
  std::atomic<uint64_t> zone_skips{0};  // strips skipped via zone maps
  std::atomic<uint64_t> visited{0};     // live rows scanned (pre-filter)
  std::atomic<uint64_t> filter_walked{0};  // rows whose bytes phase 1 walked
  std::atomic<uint64_t> output_walked{0};  // survivors whose bytes phase 2 walked
  /// Covered rows walked because they were written since the segment's
  /// shred (stale), not read from strips.
  std::atomic<uint64_t> stale{0};
  /// Most columns a segment-covered chunk of each phase read from strips.
  std::atomic<uint64_t> filter_strip_cols{0};
  std::atomic<uint64_t> output_strip_cols{0};
  std::atomic<uint64_t> decodes{0};     // source documents decoded
  std::atomic<uint64_t> attrs{0};       // attributes extracted from them
  std::atomic<uint64_t> columnar_hits{0};  // values served from column strips
  std::atomic<uint64_t> extract_ns{0};  // virtual-column extraction time
  // bytecode-compiled nodes only:
  std::atomic<uint64_t> bc_typed_lanes{0};  // lanes on monomorphic kernels
  std::atomic<uint64_t> bc_boxed_lanes{0};  // specializable lanes left boxed
};

/// Side table of per-node actuals for one execution, indexed by plan node
/// identity. Built before execution (so worker threads never mutate the
/// map), read by ExplainAnalyzeText afterwards.
class PlanStats {
 public:
  explicit PlanStats(const PlanNode& root) { Index(root); }

  OperatorStats* For(const PlanNode& node) const {
    auto it = stats_.find(&node);
    return it == stats_.end() ? nullptr : it->second.get();
  }

  /// Wall clock of the whole ExecutePlan call.
  uint64_t total_ns = 0;
  /// total_ns outside the root operator's Open and NextBatch calls: the
  /// operator build, the hand-off of root batches into the result, and the
  /// teardown. Set only when ExecOptions::time_operators is on.
  uint64_t assembly_ns = 0;

 private:
  void Index(const PlanNode& node) {
    stats_.emplace(&node, std::make_unique<OperatorStats>());
    for (const auto& child : node.children) Index(*child);
  }

  std::unordered_map<const PlanNode*, std::unique_ptr<OperatorStats>> stats_;
};

/// EXPLAIN ANALYZE rendering: the plan tree with per-node actual rows,
/// loops and elapsed time appended to each estimate line; parameter slots
/// render the values in `params` when given.
std::string ExplainAnalyzeText(const PlanNode& plan, const PlanStats& stats,
                               const std::vector<Datum>* params = nullptr);

struct ExecOptions {
  /// Budget for materialized intermediate state (sort buffers, hash tables,
  /// inner relations). 0 = unlimited.
  uint64_t max_intermediate_bytes = 4ull << 30;
  /// Worker pool Gather nodes run their child pipelines on. nullptr means
  /// ThreadPool::Shared(). Serial plans (no Gather node) never touch it.
  ThreadPool* pool = nullptr;
  /// When set, every operator is wrapped to record actuals here (EXPLAIN
  /// ANALYZE). Must outlive the ExecutePlan call. nullptr = no overhead.
  PlanStats* stats = nullptr;
  /// Rows per RowBatch. Every size runs the same code; 1 makes one-row
  /// batches. 256 is the sweet spot of the bench_micro_extract
  /// --batch-size sweep: big enough to amortize per-batch dispatch, small
  /// enough that a wide batch's columns stay cache-resident (1024 measures
  /// ~8% slower on 33-column projections).
  size_t batch_size = 256;
  /// Record per-batch wall clock into OperatorStats.next_ns.
  /// Costs two steady_clock reads per call per operator, so EXPLAIN ANALYZE
  /// turns it on and steady-state queries leave it off; row and batch
  /// counts are collected whenever `stats` is set regardless.
  bool time_operators = false;
};

struct QueryResult {
  std::vector<std::string> column_names;
  std::vector<ColumnType> column_types;
  /// The root batches' columns, adopted as they came (result_rows.h).
  ResultRows rows;
};

/// Executes a plan to completion.
Result<QueryResult> ExecutePlan(const PlanNode& plan, const UdfRegistry* udfs,
                                const ExecOptions& options = {});
/// As above, with `params` bound to the plan's parameter slots
/// (Expr::param): every compiled program and zone filter reads slot i's
/// value from params[i]. nullptr runs the values the plan was built with.
/// The plan itself is not modified, so executions binding different values
/// may share it concurrently. Scans abort with "replan" once their table's
/// row-move epoch exceeds `move_epoch_bound` (QueryExecInfo).
Result<QueryResult> ExecutePlan(const PlanNode& plan, const UdfRegistry* udfs,
                                const ExecOptions& options,
                                const std::vector<Datum>* params,
                                uint64_t move_epoch_bound = UINT64_MAX);

}  // namespace sinew::engine

#endif  // SINEW_ENGINE_EXEC_H_
