// Figure 6, columnar-segment ablation: NoBench Q1-Q10 on the same Sinew
// build with strip segments ON vs OFF. Both configurations keep every
// attribute virtual (no analyzer/materializer pass), so reservoir
// extraction is the whole query cost and the strip-serving path is the only
// difference: the ON db shreds its loaded rows into column strips with zone
// maps (BuildColumnarSegments) and the scan copies cold-row values out of
// the typed vectors; the OFF db decodes every row from the reservoir.
//
// Prints per-query times and the strips-off/strips-on speedup, then the
// EXPLAIN ANALYZE of a projection and a range query on the ON db so the
// columnar_hits / zone_skips actuals are visible. Emits
// BENCH_fig6_columnar.json (configs "strips" and "rows"); diff two builds
// with bench/compare_bench.py, or the two configs of one run with
// `compare_bench.py BENCH_fig6_columnar.json --configs=rows,strips`.
//
// --threads=N sets Gather parallelism; --metrics-out=<path> appends the
// metrics-registry JSON; --bench-out=<dir> places the sidecar (default .).

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "workloads/nobench/generator.h"
#include "workloads/nobench/runners.h"

namespace nb = sinew::workloads::nobench;
using sinew::bench::BenchRecord;
using sinew::bench::PrintHeader;
using sinew::bench::Scaled;
using sinew::bench::Timer;

namespace {

constexpr int kReps = 3;  // best-of: isolates steady-state from first-touch

double TimedBest(nb::SinewRunner* runner, int q, const nb::QueryParams& p) {
  (void)runner->Execute(q, p);  // warmup
  double best = -1;
  for (int rep = 0; rep < kReps; ++rep) {
    Timer timer;
    auto rows = runner->Execute(q, p);
    double ms = timer.Millis();
    if (!rows.ok()) return -1;
    if (best < 0 || ms < best) best = ms;
  }
  return best;
}

void PrintExplainAnalyze(sinew::SinewDb* db, const std::string& sql) {
  std::printf("\nEXPLAIN ANALYZE %s\n", sql.c_str());
  auto result = db->Query("EXPLAIN ANALYZE " + sql);
  if (!result.ok()) {
    std::printf("  failed: %s\n", result.status().ToString().c_str());
    return;
  }
  for (const auto& row : result->rows) {
    std::printf("  %s\n", row[0].str().c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  const int threads = sinew::bench::ThreadsFromArgs(argc, argv);
  const std::string metrics_out = sinew::bench::MetricsOutFromArgs(argc, argv);
  PrintHeader("Figure 6 ablation: columnar strips on vs off (all-virtual)");
  std::printf("Sinew parallelism: %d thread%s (--threads=N to change)\n",
              threads, threads == 1 ? "" : "s");

  nb::Config config;
  config.num_records = Scaled(32000);
  std::vector<sinew::Value> docs = nb::Generate(config);
  nb::QueryParams params = nb::MakeQueryParams(config);

  sinew::SinewOptions on_options;
  on_options.parallelism = threads;
  on_options.enable_columnar_segments = true;
  sinew::SinewOptions off_options = on_options;
  off_options.enable_columnar_segments = false;

  nb::SinewRunner strips(on_options, "Sinew-strips");
  nb::SinewRunner rows(off_options, "Sinew-rows");
  for (nb::SinewRunner* runner : {&strips, &rows}) {
    sinew::Status st = runner->Load(docs);
    // No Prepare(): attributes stay virtual so extraction dominates. The
    // shred is a no-op on the rows runner (segments disabled).
    if (st.ok()) st = runner->db()->BuildColumnarSegments("nobench_main");
    if (!st.ok()) {
      std::printf("load failed for %s: %s\n",
                  std::string(runner->name()).c_str(), st.ToString().c_str());
      return 1;
    }
  }

  std::printf("\n--- %llu records, best of %d ---\n",
              static_cast<unsigned long long>(config.num_records), kReps);
  std::printf("%-4s %12s %12s %9s   (ms; lower is better)\n", "Q", "strips",
              "rows", "speedup");
  std::vector<BenchRecord> records;
  double q1_q4_worst = -1;
  for (int q = 1; q <= 10; ++q) {
    const double on_ms = TimedBest(&strips, q, params);
    const double off_ms = TimedBest(&rows, q, params);
    records.push_back({"Q" + std::to_string(q), "strips", on_ms,
                       config.num_records, threads, 0});
    records.push_back({"Q" + std::to_string(q), "rows", off_ms,
                       config.num_records, threads, 0});
    if (on_ms < 0 || off_ms < 0) {
      std::printf("Q%-3d %12s %12s\n", q, on_ms < 0 ? "FAILED" : "-",
                  off_ms < 0 ? "FAILED" : "-");
      continue;
    }
    const double speedup = off_ms / on_ms;
    std::printf("Q%-3d %12.2f %12.2f %8.2fx\n", q, on_ms, off_ms, speedup);
    if (q <= 4 && (q1_q4_worst < 0 || speedup < q1_q4_worst)) {
      q1_q4_worst = speedup;
    }
  }
  if (q1_q4_worst > 0) {
    std::printf("\nprojection queries Q1-Q4: worst strips speedup %.2fx "
                "(acceptance floor 1.3x)\n",
                q1_q4_worst);
  }

  // The actuals behind the numbers: strip-served extraction lanes on a
  // projection, zone-map pruning on a rid-correlated range (num is uniform,
  // so Q6's own zone maps never prune; "seq" below is monotone).
  PrintExplainAnalyze(strips.db(),
                      "SELECT str1, num FROM nobench_main");
  {
    sinew::SinewDb seq_db(on_options);
    std::string jsonl;
    for (uint64_t i = 0; i < config.num_records; ++i) {
      jsonl += "{\"seq\": " + std::to_string(i) + "}\n";
    }
    if (seq_db.LoadJsonLines("seq_docs", jsonl).ok() &&
        seq_db.BuildColumnarSegments("seq_docs").ok()) {
      PrintExplainAnalyze(&seq_db,
                          "SELECT seq FROM seq_docs WHERE seq BETWEEN 5000 "
                          "AND 5100");
    }
  }

  sinew::bench::MaybeWriteMetrics(metrics_out, "fig6_columnar");
  sinew::bench::WriteBenchJson(sinew::bench::BenchOutDirFromArgs(argc, argv),
                               "fig6_columnar", records);
  sinew::bench::MaybeWriteTrace(sinew::bench::TraceOutFromArgs(argc, argv));
  return 0;
}
