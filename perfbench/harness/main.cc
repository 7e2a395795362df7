// sinew_perfbench: the repo benchmark's workload binary.
//
//   sinew_perfbench --workload <nobench_scan|nobench_select|ingest_mixed>
//                   --seed <n> --seconds <s> --trace <0|1>
//                   --work-dir <dir> [--trace-out <file>]
//
// One client drives the public SinewDb / DurableDb API in a closed loop:
// the next operation is issued only when the previous one returned. Inputs
// (documents and every SQL literal) come from --seed. Every operation's
// result is checked against a naive evaluation over the generated documents,
// outside the timed region.
//
// --trace 0 reports the end-to-end metrics. --trace 1 runs the workload
// twice on the same dataset -- once untraced, once issuing every read as
// ParseSql -> Rewrite -> PlanStatement -> ExecutePlan with spans around each
// call -- and reports the per-layer ledger, the tracing overhead and the
// residual the layer spans do not cover. The last stdout line is the JSON
// result object.

#include <array>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/metrics.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "common/wal.h"
#include "engine/parser.h"
#include "engine/table.h"
#include "harness/ledger.h"
#include "harness/nobench_ops.h"
#include "json/json.h"
#include "sinew/durable_db.h"
#include "sinew/sinew_db.h"
#include "workloads/nobench/generator.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using sinew::Result;
using sinew::metrics::NowNanos;
using sinew::Status;
using sinew::Value;
using sinew::engine::PlanKind;
using sinew::engine::PlanNode;
using sinew::engine::PlanStats;
using sinew::engine::QueryResult;

// ---------------------------------------------------------------- settings

/// Documents in the read workloads' table.
constexpr uint64_t kReadDocs = 32000;
/// Dataset builds per read-workload run (setup_s is their median).
constexpr int kReadSetups = 3;
/// ingest_mixed: base loaded and flushed at setup, then streamed documents.
constexpr uint64_t kIngestBaseDocs = 8000;
constexpr uint64_t kIngestStreamDocs = 36000;
constexpr uint64_t kIngestBatchDocs = 200;
/// One point select after every batch; one Q12 update every this many.
constexpr uint64_t kIngestUpdateEvery = 4;
/// Store set-ups per ingest cycle (setup_s is their median).
constexpr int kIngestSetups = 3;
/// Reopens per ingest cycle (each of a fresh copy of the closed store).
constexpr int kReopens = 3;
/// MachineProbeMs on the reference machine (4-vCPU VM, RelWithDebInfo) when
/// it runs at its usual speed; end-to-end durations are scaled by this over
/// each run's median probe, so machine-speed drift between runs cancels.
constexpr double kReferenceProbeMs = 3.0;
/// Documents read back and compared field by field after each reopen.
constexpr int kSampledDocs = 8;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string work_dir;
  std::string trace_out;
};

/// Fixed tail percentile per workload: the highest percentile that keeps at
/// least ten samples beyond it on the reference machine (README.md).
double TailQuantile(const std::string& workload) {
  return workload == "nobench_scan" ? 0.98 : 0.95;
}

std::string Pct(double q) {
  return "p" + std::to_string(static_cast<int>(q * 100 + 0.5));
}

[[noreturn]] void Die(const std::string& what, const Status& st) {
  std::fprintf(stderr, "perfbench: %s: %s\n", what.c_str(),
               st.ToString().c_str());
  std::exit(1);
}

void Check(const std::string& what, const Status& st) {
  if (!st.ok()) Die(what, st);
}

std::string ToJsonLines(const std::vector<Value>& docs, size_t begin,
                        size_t end) {
  std::string out;
  for (size_t i = begin; i < end; ++i) {
    out += sinew::json::Write(docs[i]);
    out += '\n';
  }
  return out;
}

// ----------------------------------------------------------- run state

/// State of one benchmark run: its arguments, span recorder, report,
/// outcome counters and machine-speed probes.
struct Run {
  explicit Run(Args a) : args(std::move(a)), tracer(false) {}

  Args args;
  Tracer tracer;
  Report report;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  bool final_checks_ok = true;
  Samples probe_ms;
  uint64_t last_probe_ns = 0;

  /// Samples the machine-speed probe at most every 200 ms; returns the
  /// time spent so the caller can keep it out of the measured phase.
  uint64_t MaybeProbe() {
    const uint64_t now = NowNanos();
    if (now - last_probe_ns < 200'000'000) return 0;
    probe_ms.Add(MachineProbeMs());
    last_probe_ns = NowNanos();
    return last_probe_ns - now;
  }

  /// Machine speed right now: the median of a short burst of probes.
  double ProbeBurst() {
    Samples burst;
    for (int i = 0; i < 3; ++i) burst.Add(MachineProbeMs());
    return burst.Median();
  }

  /// End-to-end durations and rates are reported at the reference machine
  /// speed: scaled by kReferenceProbeMs over the run's median probe, so
  /// machine-speed drift between runs cancels. Raw values are printed too.
  double SpeedFactor() const {
    return probe_ms.empty() ? 1.0 : kReferenceProbeMs / probe_ms.Median();
  }
  void Duration(const std::string& name, double raw, const std::string& unit,
                bool extra = false) {
    Add(name, raw * SpeedFactor(), unit, raw, extra);
  }
  void Rate(const std::string& name, double raw, const std::string& unit,
            bool extra = false) {
    Add(name, raw / SpeedFactor(), unit, raw, extra);
  }
  void Add(const std::string& name, double value, const std::string& unit,
           double raw, bool extra) {
    if (extra) {
      report.Extra(name, value, unit, raw);
    } else {
      report.Metric(name, value, unit, raw);
    }
  }

  void Fail(const std::string& what) {
    ++failed;
    if (failed <= 5) std::fprintf(stderr, "perfbench: FAIL %s\n", what.c_str());
  }
};

/// Wall clock of a measured phase minus the time spent in the oracle.
class PhaseClock {
 public:
  PhaseClock() : start_(NowNanos()) {}
  void PauseFor(uint64_t ns) { paused_ += ns; }
  double Seconds() const {
    return static_cast<double>(NowNanos() - start_ - paused_) / 1e9;
  }

 private:
  uint64_t start_;
  uint64_t paused_ = 0;
};

// ------------------------------------------------------- per-layer ledger

/// Per-layer accumulations over the traced reads.
struct ReadLedger {
  Samples parse_us, rewrite_us, plan_us, exec_us, total_ms;
  // Per NoBench task: parse, rewrite, plan, execute and scan-self
  // microseconds.
  std::map<int, std::array<Samples, 5>> by_query;
  uint64_t queries = 0;
  uint64_t star_queries = 0;
  uint64_t rows_scanned = 0;
  uint64_t rows_out = 0;
  // Operator self time summed over all traced queries, nanoseconds. Below a
  // Gather, operator time is summed across its workers.
  uint64_t scan_ns = 0, filter_ns = 0, extract_ns = 0, project_ns = 0,
           agg_ns = 0, join_ns = 0, gather_ns = 0, assemble_ns = 0;
  uint64_t wall_ns = 0;  // summed traced read latency (busy-share base)
  CounterSnapshot counters;
};

uint64_t Inclusive(const PlanStats& stats, const PlanNode& node) {
  const sinew::engine::OperatorStats* s = stats.For(node);
  if (s == nullptr) return 0;
  return s->open_ns.load(std::memory_order_relaxed) +
         s->next_ns.load(std::memory_order_relaxed);
}

/// Adds each node's self time (inclusive minus children's inclusive) to its
/// layer. A Gather's children run on pool workers, so the Gather's own
/// inclusive time -- the query thread waiting on them -- is its self time.
void AddSelfTimes(const PlanStats& stats, const PlanNode& node,
                  ReadLedger* L) {
  const uint64_t incl = Inclusive(stats, node);
  uint64_t children = 0;
  if (node.kind != PlanKind::kGather) {
    for (const auto& c : node.children) children += Inclusive(stats, *c);
  }
  const uint64_t self = incl > children ? incl - children : 0;
  switch (node.kind) {
    case PlanKind::kSeqScan:
      L->scan_ns += self;
      // Rows visited, not rows emitted: a pushed-down filter makes the
      // scan emit only its matches.
      if (const auto* s = stats.For(node);
          s != nullptr && node.table != nullptr &&
          s->instances.load(std::memory_order_relaxed) > 0) {
        L->rows_scanned += node.table->RowSlotCount();
      }
      break;
    case PlanKind::kFilter:
      L->filter_ns += self;
      break;
    case PlanKind::kExtract:
      L->extract_ns += self;
      break;
    case PlanKind::kProject:
      L->project_ns += self;
      break;
    case PlanKind::kHashAggregate:
    case PlanKind::kGroupAggregate:
      L->agg_ns += self;
      break;
    case PlanKind::kHashJoin:
    case PlanKind::kMergeJoin:
    case PlanKind::kNestedLoopJoin:
      L->join_ns += self;
      break;
    case PlanKind::kGather:
      L->gather_ns += self;
      break;
    default:
      break;  // sort, unique, limit: no ledger entry
  }
  for (const auto& c : node.children) AddSelfTimes(stats, *c, L);
}

/// Issues one SELECT layer by layer (ParseSql -> Rewrite -> PlanStatement
/// -> ExecutePlan) with a span around each call, as SinewDb::Query would
/// run it, and books the layer times and counter deltas into `L`.
Result<QueryResult> TracedSelect(sinew::SinewDb* db,
                                 const sinew::SinewOptions& options,
                                 const Op& op, Tracer* tracer,
                                 ReadLedger* L) {
  const CounterSnapshot before = CounterSnapshot::Take();
  tracer->BeginOp();
  Tracer::Scope root(tracer, "read.Q" + std::to_string(op.q));
  const uint64_t t0 = NowNanos();
  for (int attempt = 0;; ++attempt) {
    const uint64_t p0 = NowNanos();
    {
      // Measurement-only parse: Rewrite parses again internally, and its
      // layer time is reported net of this one.
      Tracer::Scope span(tracer, "engine.ParseSql");
      Result<sinew::engine::Statement> parsed = sinew::engine::ParseSql(op.sql);
      if (!parsed.ok()) return parsed.status();
    }
    const uint64_t p1 = NowNanos();
    std::optional<Result<sinew::engine::Statement>> stmt;
    {
      Tracer::Scope span(tracer, "sinew.QueryRewriter.Rewrite");
      stmt.emplace(db->rewriter().Rewrite(op.sql));
    }
    const uint64_t p2 = NowNanos();
    if (!stmt->ok()) return stmt->status();
    std::optional<Result<sinew::engine::PlanPtr>> plan;
    {
      Tracer::Scope span(tracer, "engine.Database.PlanStatement");
      plan.emplace(db->engine()->PlanStatement(*(*stmt)->select));
    }
    const uint64_t p3 = NowNanos();
    if (!plan->ok()) return plan->status();
    const PlanNode& root_node = ***plan;
    PlanStats stats(root_node);
    sinew::engine::ExecOptions exec = options.exec;
    exec.stats = &stats;
    exec.time_operators = true;
    std::optional<Result<QueryResult>> result;
    {
      Tracer::Scope span(tracer, "engine.ExecutePlan");
      result.emplace(sinew::engine::ExecutePlan(
          root_node, db->engine()->udfs(), exec));
    }
    const uint64_t p4 = NowNanos();
    if (!result->ok() && result->status().IsAborted() &&
        result->status().message().find("replan") != std::string::npos &&
        attempt < 3) {
      continue;  // same retry SinewDb::Query performs
    }
    if (!result->ok()) return result->status();
    root.End();
    const double parse_us = static_cast<double>(p1 - p0) / 1e3;
    const double rewrite_us =
        std::max(0.0, static_cast<double>(p2 - p1) / 1e3 - parse_us);
    const double plan_us = static_cast<double>(p3 - p2) / 1e3;
    const double exec_us = static_cast<double>(p4 - p3) / 1e3;
    L->parse_us.Add(parse_us);
    L->rewrite_us.Add(rewrite_us);
    L->plan_us.Add(plan_us);
    L->exec_us.Add(exec_us);
    L->total_ms.Add(static_cast<double>(p4 - t0) / 1e6);
    L->wall_ns += p4 - t0;
    std::array<Samples, 5>& per_q = L->by_query[op.q];
    per_q[0].Add(parse_us);
    per_q[1].Add(rewrite_us);
    per_q[2].Add(plan_us);
    per_q[3].Add(exec_us);
    const uint64_t scan_before = L->scan_ns;
    AddSelfTimes(stats, root_node, L);
    per_q[4].Add(static_cast<double>(L->scan_ns - scan_before) / 1e3);
    const uint64_t root_incl = Inclusive(stats, root_node);
    L->assemble_ns += (p4 - p3) > root_incl ? (p4 - p3) - root_incl : 0;
    ++L->queries;
    if (op.is_star()) ++L->star_queries;
    L->rows_out += (*result)->rows.size();
    L->counters.Accumulate(CounterSnapshot::Take().Minus(before));
    return std::move(**result);
  }
}

/// Per-layer metrics of the read path (zeros where a layer did not run).
void ReportReadLedger(const ReadLedger& L, Report* r) {
  const double q = static_cast<double>(std::max<uint64_t>(L.queries, 1));
  const CounterSnapshot& c = L.counters;
  auto per_query_us = [q](uint64_t ns) {
    return static_cast<double>(ns) / 1e3 / q;
  };
  auto share = [](double num, double den) { return den > 0 ? num / den : 0; };
  r->Metric("engine.parser.parse_us", L.parse_us.Median(), "us");
  r->Metric("sinew.rewriter.rewrite_us", L.rewrite_us.Median(), "us");
  r->Metric("sinew.rewriter.virtual_refs_per_query",
            static_cast<double>(c.Get("rewriter.virtual_refs_total")) / q,
            "count");
  r->Metric("engine.planner.plan_us", L.plan_us.Median(), "us");
  r->Metric("engine.bytecode.compile_us",
            per_query_us(c.Get("bytecode.compile_ns_total")), "us");
  r->Metric("engine.bytecode.programs_per_query",
            static_cast<double>(c.Get("bytecode.programs_total")) / q,
            "count");
  r->Metric("engine.exec.execute_us", L.exec_us.Median(), "us");
  r->Metric("engine.exec.scan_self_us", per_query_us(L.scan_ns), "us");
  r->Metric("engine.exec.scan_ns_per_row",
            share(static_cast<double>(L.scan_ns),
                  static_cast<double>(L.rows_scanned)),
            "ns");
  r->Metric("engine.exec.filter_self_us", per_query_us(L.filter_ns), "us");
  r->Metric("engine.exec.extract_self_us", per_query_us(L.extract_ns), "us");
  r->Metric("engine.exec.project_self_us", per_query_us(L.project_ns), "us");
  r->Metric("engine.exec.agg_self_us", per_query_us(L.agg_ns), "us");
  r->Metric("engine.exec.join_self_us", per_query_us(L.join_ns), "us");
  r->Metric("engine.exec.assemble_us", per_query_us(L.assemble_ns), "us");
  r->Metric("engine.exec.rows_scanned_per_row_out",
            share(static_cast<double>(L.rows_scanned),
                  static_cast<double>(L.rows_out)),
            "ratio");
  r->Metric("engine.exec.zone_skips_per_query",
            static_cast<double>(c.Get("strips.skipped_by_zonemap")) / q,
            "count");
  r->Metric("engine.exec.gather_wait_us", per_query_us(L.gather_ns), "us");
  r->Metric(
      "engine.exec.gather_stalls_per_query",
      static_cast<double>(c.Get("exec.gather.queue_full_stalls_total")) / q,
      "count");
  r->Metric("engine.exec.morsels_per_query",
            static_cast<double>(c.Get("exec.gather.morsels_total")) / q,
            "count");
  const double workers = static_cast<double>(
      sinew::ThreadPool::Shared()->worker_count());
  r->Metric("common.thread_pool.busy_share",
            share(static_cast<double>(c.Get("threadpool.busy_ns_total")),
                  workers * static_cast<double>(L.wall_ns)),
            "ratio");
  const double typed = static_cast<double>(c.Get("eval.typed_lanes"));
  const double boxed = static_cast<double>(c.Get("eval.boxed_lanes"));
  const double fallback = static_cast<double>(c.Get("eval.fallback_lanes"));
  r->Metric("engine.eval.typed_lane_share",
            share(typed, typed + boxed + fallback), "ratio");
  r->Metric("engine.eval.fallback_lanes_per_query", fallback / q, "count");
  r->Metric("sinew.extract.decodes_per_row_scanned",
            share(static_cast<double>(c.Get("reservoir.decodes")),
                  static_cast<double>(L.rows_scanned)),
            "ratio");
  const double hits = static_cast<double>(c.Get("extract.columnar_hits"));
  r->Metric("sinew.extract.columnar_hit_share",
            share(hits,
                  hits + static_cast<double>(
                             c.Get("reservoir.attrs_per_decode"))),
            "ratio");
  const double ph = static_cast<double>(c.Get("extract.path_cache_hits"));
  r->Metric("sinew.extract.path_cache_hit_share",
            share(ph, ph + static_cast<double>(
                               c.Get("extract.path_cache_misses"))),
            "ratio");
}

/// Per-task medians of the layer spans, for reading the ledger per query.
std::string LayersByQuery(const ReadLedger& L) {
  std::string out;
  for (const auto& [q, s] : L.by_query) {
    char buf[128];
    std::snprintf(buf, sizeof(buf),
                  "%sQ%d parse/rewrite/plan/exec/scan us="
                  "%.0f/%.0f/%.0f/%.0f/%.0f",
                  out.empty() ? "" : "; ", q, s[0].Median(), s[1].Median(),
                  s[2].Median(), s[3].Median(), s[4].Median());
    out += buf;
  }
  return out;
}

/// Tracing overhead and the residual of SinewDb::Query the layer spans do
/// not cover (query log, fingerprint, plan hash), from the untraced and
/// traced read latencies of the same run.
void ReportOverhead(const Samples& untraced_ms, const ReadLedger& L,
                    Report* r) {
  r->Metric("trace.read_p50_ms", L.total_ms.Median(), "ms");
  r->Metric("trace.untraced_read_p50_ms", untraced_ms.Median(), "ms");
  r->Metric("trace.overhead_ms", L.total_ms.Median() - untraced_ms.Median(),
            "ms");
  r->Metric("sinew.query.residual_us",
            untraced_ms.Median() * 1e3 -
                (L.parse_us.Median() + L.rewrite_us.Median() +
                 L.plan_us.Median() + L.exec_us.Median()),
            "us");
}

/// Set-up side of the ledger: loader, materializer and shredder work.
struct SetupLedger {
  Samples json_parse_us_per_doc;
  Samples load_us_per_doc;
  Samples reservoir_bytes_per_doc;
  Samples materialize_ms;
  Samples rows_backfilled;
  Samples shred_ms;
  Samples strips_written;
};

void ReportSetupLedger(const SetupLedger& S, Report* r) {
  r->Metric("json.parse_us_per_doc", S.json_parse_us_per_doc.Median(), "us");
  r->Metric("sinew.loader.load_us_per_doc", S.load_us_per_doc.Median(), "us");
  r->Metric("sinew.loader.reservoir_bytes_per_doc",
            S.reservoir_bytes_per_doc.Median(), "bytes");
  r->Metric("sinew.materializer.materialize_ms", S.materialize_ms.Median(),
            "ms");
  r->Metric("sinew.materializer.rows_backfilled", S.rows_backfilled.Median(),
            "count");
  r->Metric("sinew.columnar_shredder.build_ms", S.shred_ms.Median(), "ms");
  r->Metric("sinew.columnar_shredder.strips_written",
            S.strips_written.Median(), "count");
}

/// Write-path side of the ledger (ingest_mixed only).
struct WriteLedger {
  uint64_t commits = 0;
  uint64_t flushes = 0;
  uint64_t cycles = 0;
  Samples flush_ms;
  double flush_commit_ms_total = 0;
  double stream_wall_s = 0;
  uint64_t user_bytes = 0;
  Samples wal_bytes_per_user_byte;
  Samples replayed_records;
  CounterSnapshot counters;
};

void ReportWriteLedger(const WriteLedger& W, Report* r) {
  const CounterSnapshot& c = W.counters;
  const double commits = static_cast<double>(std::max<uint64_t>(W.commits, 1));
  const double cycles = static_cast<double>(std::max<uint64_t>(W.cycles, 1));
  auto share = [](double num, double den) { return den > 0 ? num / den : 0; };
  r->Metric("common.wal.fsyncs_per_commit",
            static_cast<double>(c.Get("wal.fsyncs_total")) / commits, "count");
  r->Metric("common.wal.bytes_per_user_byte",
            W.wal_bytes_per_user_byte.Median(), "ratio");
  r->Metric("sinew.durable_db.flushes",
            static_cast<double>(W.flushes) / cycles, "count");
  r->Metric("sinew.durable_db.flush_ms", W.flush_ms.Median(), "ms");
  r->Metric("sinew.durable_db.write_amp",
            share(static_cast<double>(c.Get("env.bytes_written_total")),
                  static_cast<double>(W.user_bytes)),
            "ratio");
  r->Metric("sinew.durable_db.stall_share",
            share(W.flush_commit_ms_total / 1e3, W.stream_wall_s), "ratio");
  r->Metric("sinew.persistence.images_saved",
            static_cast<double>(c.Get("persist.table_images_saved_total")) /
                cycles,
            "count");
  r->Metric("sinew.persistence.images_copied",
            static_cast<double>(c.Get("persist.table_images_copied_total")) /
                cycles,
            "count");
  r->Metric("sinew.persistence.replayed_records", W.replayed_records.Median(),
            "count");
}

/// End-to-end samples of ingest_mixed's cycles.
struct IngestTotals {
  Samples setup_s, read_ms, commit_ms, update_ms, recovery_s, bytes_ratio;
  Samples peak_rss_mib;  // per cycle, above the resident set at its start
  // Each set-up scaled by the probes taken just before and after it.
  Samples setup_at_ref;
  uint64_t ops = 0, docs_acked = 0;
  double stream_wall = 0, commit_wall_s = 0;
};

/// The write-path end-to-end numbers. They exist on ingest_mixed only, so
/// they are not bounded metrics of every run: the untraced run prints them
/// beside its metrics, and the traced run reports them (from its untraced
/// cycles; zero on the read workloads) in the ledger as `ingest.*`.
void ReportWritePath(const IngestTotals& t, double tail, Run* run) {
  const double docs_per_s =
      t.commit_wall_s > 0 ? static_cast<double>(t.docs_acked) / t.commit_wall_s
                          : 0;
  if (run->args.trace) {
    Report& r = run->report;
    r.Metric("ingest.ingest_docs_per_s", docs_per_s, "docs/s");
    r.Metric("ingest.commit_p50_ms", t.commit_ms.Median(), "ms");
    r.Metric("ingest.commit_tail_ms", t.commit_ms.Quantile(tail), "ms");
    r.Metric("ingest.update_p50_ms", t.update_ms.Median(), "ms");
    r.Metric("ingest.recovery_s", t.recovery_s.Median(), "s");
    return;
  }
  run->Rate("ingest_docs_per_s", docs_per_s, "docs/s", /*extra=*/true);
  run->Duration("commit_p50_ms", t.commit_ms.Median(), "ms", true);
  run->Duration("commit_tail_ms", t.commit_ms.Quantile(tail), "ms", true);
  run->Duration("update_p50_ms", t.update_ms.Median(), "ms", true);
  run->Duration("recovery_s", t.recovery_s.Median(), "s", true);
}

// ------------------------------------------------------------- checking

/// Runs `op`'s oracle and compares; returns the oracle's wall time so the
/// caller can keep it out of the measured phase. `memo` caches expected
/// results by SQL text while `docs` does not change (nullptr: no cache).
uint64_t CheckResult(Run* run, const Op& op, const Result<QueryResult>& got,
                     std::span<const Value> docs,
                     std::unordered_map<std::string, Summary>* memo) {
  const uint64_t start = NowNanos();
  ++run->attempted;
  if (!got.ok()) {
    run->Fail(op.sql + " -> " + got.status().ToString());
  } else {
    Summary want;
    if (memo == nullptr) {
      want = Expected(op, docs);
    } else {
      auto [it, fresh] = memo->try_emplace(op.sql);
      if (fresh) it->second = Expected(op, docs);
      want = it->second;
    }
    const Summary have = Summarize(op, *got);
    if (!(want == have)) {
      run->Fail(op.sql + " -> rows " + std::to_string(have.rows) + "/" +
                std::to_string(want.rows) + " checksum " +
                std::to_string(have.checksum) + "/" +
                std::to_string(want.checksum));
    }
  }
  return NowNanos() - start;
}

// ------------------------------------------------------- read workloads

void RunReadWorkload(Run* run, int parallelism, const std::vector<int>& mix) {
  const Args& args = run->args;
  sinew::workloads::nobench::Config config;
  config.num_records = kReadDocs;
  config.seed = args.seed;
  const std::vector<Value> docs = sinew::workloads::nobench::Generate(config);
  const std::string jsonl = ToJsonLines(docs, 0, docs.size());
  // The benchmark's own inputs are built; the peak above this is the
  // engine's.
  const double rss_base_mib = ResetPeakRss();

  sinew::SinewOptions options;
  options.parallelism = parallelism;

  // Set-up: empty db -> loaded, materialized and shredded, several times.
  Samples setup_s, setup_at_ref;
  SetupLedger S;
  std::unique_ptr<sinew::SinewDb> db;
  Tracer& tracer = run->tracer;
  tracer.set_enabled(args.trace);
  for (int i = 0; i < kReadSetups; ++i) {
    db.reset();  // one dataset in memory at a time
    const double probe_before = run->ProbeBurst();
    tracer.BeginOp();
    Tracer::Scope root(&tracer, "setup");
    const double n = static_cast<double>(docs.size());
    if (args.trace) {
      // Measurement-only parse: LoadJsonLines parses internally.
      Tracer::Scope span(&tracer, "json.ParseLines");
      const uint64_t t = NowNanos();
      Check("json parse", sinew::json::ParseLines(jsonl).status());
      S.json_parse_us_per_doc.Add(static_cast<double>(NowNanos() - t) / 1e3 /
                                  n);
    }
    const CounterSnapshot c0 = CounterSnapshot::Take();
    const uint64_t t0 = NowNanos();
    db = std::make_unique<sinew::SinewDb>(options);
    {
      Tracer::Scope span(&tracer, "sinew.SinewDb.LoadJsonLines");
      Check("load", db->LoadJsonLines(kTable, jsonl).status());
    }
    const uint64_t t1 = NowNanos();
    {
      Tracer::Scope span(&tracer, "sinew.SinewDb.AnalyzeAndMaterialize");
      Check("materialize", db->AnalyzeAndMaterialize(kTable));
    }
    const uint64_t t2 = NowNanos();
    {
      Tracer::Scope span(&tracer, "sinew.SinewDb.BuildColumnarSegments");
      Check("shred", db->BuildColumnarSegments(kTable));
    }
    const uint64_t t3 = NowNanos();
    const double raw_s = static_cast<double>(t3 - t0) / 1e9;
    setup_s.Add(raw_s);
    setup_at_ref.Add(raw_s * 2 * kReferenceProbeMs /
                     (probe_before + run->ProbeBurst()));
    const CounterSnapshot d = CounterSnapshot::Take().Minus(c0);
    S.load_us_per_doc.Add(static_cast<double>(d.Get("loader.load_ns_total")) /
                          1e3 / n);
    S.reservoir_bytes_per_doc.Add(
        static_cast<double>(d.Get("loader.reservoir_bytes_total")) / n);
    S.materialize_ms.Add(static_cast<double>(t2 - t1) / 1e6);
    S.rows_backfilled.Add(
        static_cast<double>(d.Get("materializer.rows_backfilled_total")));
    S.shred_ms.Add(static_cast<double>(t3 - t2) / 1e6);
    S.strips_written.Add(static_cast<double>(d.Get("strips.written")));
  }
  Result<sinew::engine::Table*> table =
      db->engine()->catalog()->GetTable(kTable);
  Check("table", table.status());
  const double bytes_ratio = static_cast<double>((*table)->DataBytes()) /
                             static_cast<double>(jsonl.size());

  // The dataset is read-only from here on, so expected results are cached.
  std::unordered_map<std::string, Summary> expected;

  // Warm-up: one round of the mix (checked, not timed).
  sinew::Rng rng(args.seed * 0x9E3779B97F4A7C15ull + 0x5eed);
  tracer.set_enabled(false);
  for (int q : mix) {
    const Op op = MakeOp(q, &rng, docs, kReadDocs);
    CheckResult(run, op, db->Query(op.sql), docs, &expected);
  }

  // Measured phase. The traced run alternates whole rounds of the mix
  // between SinewDb::Query and the layer-by-layer path, so machine-speed
  // drift cancels out of the tracing overhead.
  std::map<int, Samples> by_query;
  Samples latency_ms;  // SinewDb::Query reads; traced ones go to L
  ReadLedger L;
  PhaseClock clock;
  for (size_t i = 0; clock.Seconds() < args.seconds; ++i) {
    const bool traced = args.trace && (i / mix.size()) % 2 == 1;
    tracer.set_enabled(traced);
    const Op op = MakeOp(mix[i % mix.size()], &rng, docs, kReadDocs);
    const uint64_t t = NowNanos();
    Result<QueryResult> result =
        traced ? TracedSelect(db.get(), options, op, &tracer, &L)
               : db->Query(op.sql);
    if (!traced) {
      const double ms = static_cast<double>(NowNanos() - t) / 1e6;
      latency_ms.Add(ms);
      by_query[op.q].Add(ms);
    }
    clock.PauseFor(CheckResult(run, op, result, docs, &expected));
    clock.PauseFor(run->MaybeProbe());
  }
  tracer.set_enabled(false);
  const double wall = clock.Seconds();

  Report& r = run->report;
  const double tail = TailQuantile(args.workload);
  if (!args.trace) {
    r.Metric("setup_s", setup_at_ref.Median(), "s", setup_s.Median());
    run->Duration("read_p50_ms", latency_ms.Median(), "ms");
    run->Duration("read_tail_ms", latency_ms.Quantile(tail), "ms");
    run->Rate("ops_per_s", static_cast<double>(latency_ms.size()) / wall,
              "ops/s");
    r.Metric("bytes_per_user_byte", bytes_ratio, "ratio");
    r.Metric("peak_rss_mb", PeakRssMib() - rss_base_mib, "MiB");
    r.Info("read_samples", std::to_string(latency_ms.size()));
    r.Info("read_tail", Pct(tail) + " (" +
                            std::to_string(latency_ms.CountAbove(tail)) +
                            " samples beyond)");
    r.Info("setup_samples", std::to_string(setup_s.size()));
    std::string per_query;
    for (const auto& [q, samples] : by_query) {
      char buf[48];
      std::snprintf(buf, sizeof(buf), "%sQ%d=%.3f", per_query.empty() ? "" : " ",
                    q, samples.Median());
      per_query += buf;
    }
    r.Info("read_p50_ms_by_query", per_query);
  } else {
    if (L.queries == 0) run->final_checks_ok = false;  // nothing was traced
    ReportReadLedger(L, &r);
    ReportOverhead(latency_ms, L, &r);
    ReportSetupLedger(S, &r);
    ReportWriteLedger(WriteLedger{}, &r);
    ReportWritePath(IngestTotals{}, tail, run);
    r.Info("traced_reads", std::to_string(L.queries));
    r.Info("layers_by_query", LayersByQuery(L));
    r.Info("select_star_share",
           std::to_string(static_cast<double>(L.star_queries) /
                          static_cast<double>(std::max<uint64_t>(L.queries, 1))));
  }
  r.Info("documents", std::to_string(docs.size()));
  r.Info("input_json_bytes", std::to_string(jsonl.size()));
  r.Info("parallelism", std::to_string(parallelism));
}

// ------------------------------------------------------------ ingest_mixed

/// Engine spans (durable.flush and what it ran) recorded since `since_ns`,
/// re-parented under the benchmark's commit span.
void AdoptFlushSpans(Tracer* tracer, uint64_t since_ns, uint64_t parent,
                     double* materialize_ms, double* shred_ms) {
  for (const sinew::metrics::TraceEvent& e :
       sinew::metrics::MetricsRegistry::Global()->SpanEvents()) {
    if (e.start_ns < since_ns) continue;
    const bool materialize = e.name == "materializer.step";
    const bool shred = e.name == "shred.segment";
    if (!materialize && !shred && e.name != "durable.flush") continue;
    const double ms = static_cast<double>(e.duration_ns) / 1e6;
    if (materialize) *materialize_ms += ms;
    if (shred) *shred_ms += ms;
    tracer->AddChild("engine:" + e.name, e.start_ns,
                     e.start_ns + e.duration_ns, parent);
  }
}

void RunIngestWorkload(Run* run) {
  const Args& args = run->args;
  const uint64_t total = kIngestBaseDocs + kIngestStreamDocs;
  sinew::workloads::nobench::Config config;
  config.num_records = total;
  config.seed = args.seed;
  // Also the oracle's documents: a cycle's table holds a prefix of them,
  // with its Q12 updates applied here and undone when the cycle ends.
  std::vector<Value> all = sinew::workloads::nobench::Generate(config);
  std::vector<std::string> lines;
  lines.reserve(all.size());
  for (const Value& d : all) lines.push_back(sinew::json::Write(d) + "\n");
  auto jsonl = [&lines](size_t begin, size_t end) {
    std::string out;
    for (size_t i = begin; i < end; ++i) out += lines[i];
    return out;
  };
  const std::string base_jsonl = jsonl(0, kIngestBaseDocs);
  const uint64_t stream_bytes = jsonl(kIngestBaseDocs, total).size();

  sinew::DurableDbOptions options;
  options.wal.sync_policy = sinew::WalSyncPolicy::kGrouped;
  options.compact_on_flush = true;

  Tracer& tracer = run->tracer;
  Report& r = run->report;
  sinew::Rng rng(args.seed * 0x9E3779B97F4A7C15ull + 0x1265);
  // End-to-end samples come from the untraced cycles; traced cycles book
  // theirs into a second set that is not reported.
  IngestTotals untraced_totals, traced_totals;
  ReadLedger L;
  Samples overhead_base_ms;
  SetupLedger S;
  WriteLedger W;
  const fs::path work = fs::path(args.work_dir) / "ingest";

  const uint64_t run_start = NowNanos();
  for (uint64_t cycle = 0;; ++cycle) {
    const double elapsed = static_cast<double>(NowNanos() - run_start) / 1e9;
    if (cycle >= 2 && elapsed >= args.seconds) break;
    // The traced run traces the odd cycles, so cycle 1 always is.
    const bool traced = args.trace && cycle % 2 == 1;
    IngestTotals& e = traced ? traced_totals : untraced_totals;
    tracer.set_enabled(traced);
    const double rss_base_mib = ResetPeakRss();
    // Set-up: empty store -> base documents loaded and flushed, several
    // times; the cycle continues on the last store built.
    fs::path dir;
    std::unique_ptr<sinew::DurableDb> db;
    for (int k = 0; k < kIngestSetups; ++k) {
      if (db != nullptr) {
        Check("close", db->Close());
        db.reset();
        fs::remove_all(dir);
      }
      dir = work / ("store-" + std::to_string(k));
      fs::remove_all(dir);
      fs::create_directories(dir);
      const double probe_before = run->ProbeBurst();
      tracer.BeginOp();
      const uint64_t s0 = NowNanos();
      Tracer::Scope root(&tracer, "setup");
      Result<std::unique_ptr<sinew::DurableDb>> opened = [&] {
        Tracer::Scope span(&tracer, "sinew.DurableDb.Open");
        return sinew::DurableDb::Open(dir.string(), options);
      }();
      Check("open", opened.status());
      db = std::move(*opened);
      {
        Tracer::Scope span(&tracer, "sinew.DurableDb.LoadJsonLines");
        Check("base load", db->LoadJsonLines(kTable, base_jsonl).status());
      }
      {
        Tracer::Scope span(&tracer, "sinew.DurableDb.Flush");
        Check("base flush", db->Flush());
      }
      const double raw_s = static_cast<double>(NowNanos() - s0) / 1e9;
      root.End();
      e.setup_s.Add(raw_s);
      e.setup_at_ref.Add(raw_s * 2 * kReferenceProbeMs /
                         (probe_before + run->ProbeBurst()));
    }

    size_t acked = kIngestBaseDocs;
    std::vector<std::pair<size_t, Value>> undo;
    auto oracle = [&all, &acked] { return std::span<Value>(all).first(acked); };
    const CounterSnapshot c0 = CounterSnapshot::Take();
    const uint64_t flushes0 = db->flush_count();
    uint64_t user_bytes_since_flush = 0;
    PhaseClock clock;
    for (uint64_t b = 0; b * kIngestBatchDocs < kIngestStreamDocs; ++b) {
      const size_t begin = kIngestBaseDocs + b * kIngestBatchDocs;
      const size_t end = std::min<size_t>(begin + kIngestBatchDocs, total);
      const std::string batch = jsonl(begin, end);

      // Commit one batch of documents.
      tracer.BeginOp();
      uint64_t commit_span = 0;
      const uint64_t f0 = db->flush_count();
      const uint64_t t0 = NowNanos();
      {
        Tracer::Scope root(&tracer, "write.LoadJsonLines");
        commit_span = root.id();
        if (traced) {
          Tracer::Scope span(&tracer, "json.ParseLines");
          const uint64_t t = NowNanos();
          Check("json parse", sinew::json::ParseLines(batch).status());
          S.json_parse_us_per_doc.Add(
              static_cast<double>(NowNanos() - t) / 1e3 /
              static_cast<double>(end - begin));
        }
        const CounterSnapshot l0 = CounterSnapshot::Take();
        const uint64_t lt = NowNanos();
        Result<uint64_t> loaded = [&] {
          Tracer::Scope span(&tracer, "sinew.DurableDb.LoadJsonLines");
          return db->LoadJsonLines(kTable, batch);
        }();
        const double ms = static_cast<double>(NowNanos() - lt) / 1e6;
        ++run->attempted;
        ++e.ops;
        // The oracle is a prefix, so a batch after a failed one cannot be
        // represented and counts as failed too.
        if (!loaded.ok() || *loaded != end - begin || begin != acked) {
          run->Fail("commit of documents " + std::to_string(begin) + ".." +
                    std::to_string(end));
        } else {
          acked = end;
          e.docs_acked += end - begin;
        }
        e.commit_ms.Add(ms);
        e.commit_wall_s += ms / 1e3;
        if (traced) {
          const CounterSnapshot d = CounterSnapshot::Take().Minus(l0);
          const double n = static_cast<double>(end - begin);
          S.load_us_per_doc.Add(
              static_cast<double>(d.Get("loader.load_ns_total")) / 1e3 / n);
          S.reservoir_bytes_per_doc.Add(
              static_cast<double>(d.Get("loader.reservoir_bytes_total")) / n);
          ++W.commits;
        }
      }
      user_bytes_since_flush += batch.size();
      if (db->flush_count() != f0) {
        user_bytes_since_flush = 0;
        if (traced) {
          const double ms = static_cast<double>(NowNanos() - t0) / 1e6;
          W.flush_ms.Add(ms);
          W.flush_commit_ms_total += ms;
          double mat_ms = 0, shred_ms = 0;
          AdoptFlushSpans(&tracer, t0, commit_span, &mat_ms, &shred_ms);
          S.materialize_ms.Add(mat_ms);
          S.shred_ms.Add(shred_ms);
        }
      }

      // One point select (Q5 / Q9 alternating) after every batch. Traced
      // cycles issue every other pair layer by layer; the rest are the
      // tracing-overhead baseline.
      {
        const Op op = MakeOp(b % 2 == 0 ? 5 : 9, &rng, oracle(), total);
        const bool traced_read = traced && (b / 2) % 2 == 1;
        const uint64_t t = NowNanos();
        Result<QueryResult> result =
            traced_read
                ? TracedSelect(db->db(), options.sinew, op, &tracer, &L)
                : db->Query(op.sql);
        const double ms = static_cast<double>(NowNanos() - t) / 1e6;
        e.read_ms.Add(ms);
        if (traced && !traced_read) overhead_base_ms.Add(ms);
        ++e.ops;
        clock.PauseFor(CheckResult(run, op, result, oracle(), nullptr));
      }

      // Q12 update through the WAL every few batches.
      if (b % kIngestUpdateEvery == kIngestUpdateEvery - 1) {
        const Op op = MakeOp(12, &rng, oracle(), total);
        tracer.BeginOp();
        const uint64_t t = NowNanos();
        Result<QueryResult> result = [&] {
          Tracer::Scope root(&tracer, "write.Q12");
          Tracer::Scope span(&tracer, "sinew.DurableDb.Query");
          return db->Query(op.sql);
        }();
        e.update_ms.Add(static_cast<double>(NowNanos() - t) / 1e6);
        if (traced) ++W.commits;
        ++e.ops;
        user_bytes_since_flush += op.sql.size();
        clock.PauseFor(CheckResult(run, op, result, oracle(), nullptr));
        const uint64_t o = NowNanos();
        if (result.ok()) ApplyUpdate(op, oracle(), &undo);
        clock.PauseFor(NowNanos() - o);
      }
      clock.PauseFor(run->MaybeProbe());
    }
    const double wall = clock.Seconds();
    e.stream_wall += wall;
    const uint64_t cycle_flushes = db->flush_count() - flushes0;
    const CounterSnapshot cycle_counters = CounterSnapshot::Take().Minus(c0);
    if (traced) {
      W.stream_wall_s += wall;
      W.flushes += cycle_flushes;
      ++W.cycles;
      W.counters.Accumulate(cycle_counters);
      W.user_bytes += stream_bytes;
      const std::string wal =
          sinew::DurableDb::WalPath(dir.string(), db->current_generation());
      std::error_code ec;
      const uint64_t wal_bytes = fs::file_size(wal, ec);
      if (!ec && user_bytes_since_flush > 0) {
        W.wal_bytes_per_user_byte.Add(static_cast<double>(wal_bytes) /
                                      static_cast<double>(user_bytes_since_flush));
      }
      S.rows_backfilled.Add(static_cast<double>(
          cycle_counters.Get("materializer.rows_backfilled_total")));
      S.strips_written.Add(
          static_cast<double>(cycle_counters.Get("strips.written")));
    }
    Check("close", db->Close());
    db.reset();
    const double disk = static_cast<double>(DirectoryBytes(dir.string()));
    e.bytes_ratio.Add(disk /
                      static_cast<double>(base_jsonl.size() + stream_bytes));

    // Recovery: reopen fresh copies of the closed store, timed.
    for (int k = 0; k < kReopens; ++k) {
      const fs::path copy = work / ("reopen-" + std::to_string(k));
      fs::remove_all(copy);
      fs::copy(dir, copy, fs::copy_options::recursive);
      tracer.BeginOp();
      const CounterSnapshot r0 = CounterSnapshot::Take();
      const uint64_t t = NowNanos();
      Result<std::unique_ptr<sinew::DurableDb>> reopened = [&] {
        Tracer::Scope root(&tracer, "recover");
        Tracer::Scope span(&tracer, "sinew.DurableDb.Open");
        return sinew::DurableDb::Open(copy.string(), options);
      }();
      e.recovery_s.Add(static_cast<double>(NowNanos() - t) / 1e9);
      Check("reopen", reopened.status());
      if (traced) {
        W.replayed_records.Add(static_cast<double>(
            CounterSnapshot::Take().Minus(r0).Get("wal.replayed_records_total")));
      }
      if (k == 0) {
        // After recovery: every acknowledged document is there, and sampled
        // documents read back intact.
        sinew::DurableDb& rdb = **reopened;
        const std::span<const Value> contents = oracle();
        Result<QueryResult> count =
            rdb.Query("SELECT COUNT(*) FROM nobench_main");
        ++run->attempted;
        if (!count.ok() || count->rows.size() != 1 ||
            !count->rows[0][0].is_int() ||
            static_cast<uint64_t>(count->rows[0][0].int_value()) !=
                contents.size()) {
          run->Fail("COUNT(*) after reopen");
          run->final_checks_ok = false;
        }
        for (int s = 0; s < kSampledDocs; ++s) {
          const Value& doc = contents[rng.Uniform(contents.size())];
          Op probe;
          probe.q = 5;
          const Value* str1 = doc.Find("str1");
          const Value* num = doc.Find("num");
          probe.sql = "SELECT * FROM nobench_main WHERE str1 = '" +
                      str1->string_value() +
                      "' AND num = " + std::to_string(num->int_value());
          std::vector<Value> want;
          for (const Value& d : contents) {
            const Value* a = d.Find("str1");
            const Value* b = d.Find("num");
            if (a != nullptr && b != nullptr && *a == *str1 && *b == *num) {
              want.push_back(CanonicalDocument(d));
            }
          }
          Result<QueryResult> got = rdb.Query(probe.sql);
          ++run->attempted;
          std::vector<Value> have;
          if (got.ok()) {
            for (size_t i = 0; i < got->rows.size(); ++i) {
              have.push_back(CanonicalRow(*got, i));
            }
          }
          auto by_json = [](const Value& a, const Value& b) {
            return Value::Compare(a, b) < 0;
          };
          std::sort(want.begin(), want.end(), by_json);
          std::sort(have.begin(), have.end(), by_json);
          if (!got.ok() || want != have) {
            run->Fail("sampled document read-back after reopen: " + probe.sql);
            run->final_checks_ok = false;
          }
        }
      }
      reopened->reset();
      fs::remove_all(copy);
    }
    fs::remove_all(dir);
    e.peak_rss_mib.Add(PeakRssMib() - rss_base_mib);
    for (auto it = undo.rbegin(); it != undo.rend(); ++it) {
      all[it->first] = std::move(it->second);
    }
  }
  tracer.set_enabled(false);
  fs::remove_all(work);

  const double tail = TailQuantile(args.workload);
  const IngestTotals& t = untraced_totals;
  ReportWritePath(t, tail, run);
  if (!args.trace) {
    r.Metric("setup_s", t.setup_at_ref.Median(), "s", t.setup_s.Median());
    run->Duration("read_p50_ms", t.read_ms.Median(), "ms");
    run->Duration("read_tail_ms", t.read_ms.Quantile(tail), "ms");
    run->Rate("ops_per_s", static_cast<double>(t.ops) / t.stream_wall,
              "ops/s");
    r.Metric("bytes_per_user_byte", t.bytes_ratio.Median(), "ratio");
    r.Metric("peak_rss_mb", t.peak_rss_mib.Median(), "MiB");
    r.Info("read_samples", std::to_string(t.read_ms.size()));
    r.Info("commit_samples", std::to_string(t.commit_ms.size()));
    r.Info("update_samples", std::to_string(t.update_ms.size()));
    r.Info("tail", Pct(tail) + " (reads " +
                       std::to_string(t.read_ms.CountAbove(tail)) +
                       ", commits " +
                       std::to_string(t.commit_ms.CountAbove(tail)) +
                       " samples beyond)");
    r.Info("setup_samples", std::to_string(t.setup_s.size()));
    r.Info("recovery_samples", std::to_string(t.recovery_s.size()));
  } else {
    ReportReadLedger(L, &r);
    ReportOverhead(overhead_base_ms, L, &r);
    ReportSetupLedger(S, &r);
    ReportWriteLedger(W, &r);
    if (W.cycles == 0 || L.queries == 0) run->final_checks_ok = false;
    r.Info("traced_cycles", std::to_string(W.cycles));
    r.Info("layers_by_query", LayersByQuery(L));
  }
  r.Info("base_documents", std::to_string(kIngestBaseDocs));
  r.Info("streamed_documents_per_cycle", std::to_string(kIngestStreamDocs));
  r.Info("batch_documents", std::to_string(kIngestBatchDocs));
  r.Info("wal", "kGrouped (group_commits=" +
                    std::to_string(options.wal.group_commits) +
                    ", group_bytes=" + std::to_string(options.wal.group_bytes) +
                    ")");
  r.Info("memtable_flush_bytes", std::to_string(options.memtable_flush_bytes));
  r.Info("compact_on_flush", "true");
}

Args ParseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      a.workload = value;
    } else if (key == "--seed") {
      a.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      a.seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      a.trace = value == "1";
    } else if (key == "--work-dir") {
      a.work_dir = value;
    } else if (key == "--trace-out") {
      a.trace_out = value;
    } else {
      std::fprintf(stderr, "perfbench: unknown flag %s\n", key.c_str());
      std::exit(2);
    }
  }
  if (a.work_dir.empty() || a.seconds <= 0) {
    std::fprintf(stderr, "perfbench: --work-dir and --seconds are required\n");
    std::exit(2);
  }
  return a;
}

int Main(int argc, char** argv) {
  Run run(ParseArgs(argc, argv));
  const std::string& w = run.args.workload;
  if (w == "nobench_scan") {
    RunReadWorkload(&run, 2, {1, 2, 3, 4, 8, 10});
  } else if (w == "nobench_select") {
    RunReadWorkload(&run, 1, {5, 6, 7, 9, 11});
  } else if (w == "ingest_mixed") {
    RunIngestWorkload(&run);
  } else {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n", w.c_str());
    return 2;
  }
  Report& r = run.report;
  r.Info("workload", w);
  r.Info("machine_probe_ms", std::to_string(run.probe_ms.Median()) + " (" +
                                 std::to_string(run.probe_ms.size()) +
                                 " samples)");
  if (run.args.trace) {
    r.Metric("machine.probe_ms", run.probe_ms.Median(), "ms");
  } else {
    r.Info("speed_factor", std::to_string(run.SpeedFactor()));
  }
  r.Info("seed", std::to_string(run.args.seed));
  // Failed or wrong operations over attempted ones. It is 0 on a correct
  // build, so it is carried by the result's failed/attempted fields rather
  // than as a bounded metric.
  const double error_rate =
      static_cast<double>(run.failed) /
      static_cast<double>(std::max<uint64_t>(run.attempted, 1));
  if (!run.args.trace) r.Extra("error_rate", error_rate, "ratio");
  if (run.args.trace && !run.args.trace_out.empty()) {
    std::ofstream out(run.args.trace_out, std::ios::binary | std::ios::trunc);
    out << run.tracer.ChromeTraceJson();
    if (!out) {
      std::fprintf(stderr, "perfbench: cannot write %s\n",
                   run.args.trace_out.c_str());
      return 1;
    }
    r.Info("spans", std::to_string(run.tracer.span_count()));
  }
  std::cout << r.Table();
  std::cout << r.Json(run.failed == 0 && run.final_checks_ok, run.attempted,
                      run.failed)
            << std::endl;
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
