// Figures 6a/6b: NoBench query performance (Q1-Q10) across the four
// systems, at two dataset scales ("small" fits the paper's in-memory case,
// "large" is 4x). Prints one row per query with per-system execution time in
// milliseconds — the series plotted in Figures 6a and 6b — plus Sinew's
// first execution of each query, which plans it (a plan-cache miss; the
// best of N is a hit), so the figure cannot hide planning. Diff two runs'
// sidecars with
//   python3 bench/compare_bench.py base/BENCH_fig6_nobench.json
//           new/BENCH_fig6_nobench.json
//
// --threads=N sets Sinew's Gather parallelism; --metrics-out=<path> appends
// the metrics-registry JSON; --bench-out=<dir> places the
// BENCH_fig6_nobench.json records (default .).

#include <cstdio>
#include <memory>
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

void RunScale(const char* label, const char* tag, uint64_t records,
              int threads, int reps, const std::string& metrics_out,
              std::vector<BenchRecord>* bench_records) {
  nb::Config config;
  config.num_records = records;
  std::vector<sinew::Value> docs = nb::Generate(config);
  nb::QueryParams params = nb::MakeQueryParams(config);

  sinew::SinewOptions sinew_options;
  sinew_options.parallelism = threads;
  auto runners = nb::MakeAllRunners(sinew_options);
  for (auto& runner : runners) {
    sinew::Status st = runner->Load(docs);
    if (st.ok()) st = runner->Prepare();
    // Sinew's table as a flush leaves it: materialized, then shredded.
    if (auto* sinew_runner = dynamic_cast<nb::SinewRunner*>(runner.get());
        st.ok() && sinew_runner != nullptr) {
      st = sinew_runner->db()->BuildColumnarSegments(nb::kTableName);
    }
    if (!st.ok()) {
      std::printf("load failed for %s: %s\n",
                  std::string(runner->name()).c_str(), st.ToString().c_str());
      return;
    }
  }

  std::printf("\n--- %s: %llu records ---\n", label,
              static_cast<unsigned long long>(records));
  std::printf("%-4s", "Q");
  for (auto& runner : runners) {
    std::printf(" %16s", std::string(runner->name()).c_str());
  }
  std::printf(" %16s   (ms; lower is better)\n", "Sinew 1st run");
  for (int q = 1; q <= 10; ++q) {
    std::printf("Q%-3d", q);
    double sinew_first = -1;
    for (auto& runner : runners) {
      // Best of `reps` runs: a single scheduler hiccup must not read as a
      // regression in the compare_bench.py gate. The first run also stands
      // alone: for Sinew it is the one that rewrites and plans.
      double ms = -1;
      double first = -1;
      bool ok = true;
      for (int r = 0; r < reps && ok; ++r) {
        Timer timer;
        auto rows = runner->Execute(q, params);
        const double run_ms = timer.Millis();
        ok = rows.ok();
        if (ok && r == 0) first = run_ms;
        if (ok && (ms < 0 || run_ms < ms)) ms = run_ms;
      }
      if (!ok) {
        std::printf(" %16s", "FAILED");
        ms = -1;
        first = -1;
      } else {
        std::printf(" %16.1f", ms);
      }
      const std::string name(runner->name());
      const uint64_t batch =
          name == "Sinew" ? sinew_options.exec.batch_size : 0;
      bench_records->push_back({"Q" + std::to_string(q),
                                std::string(tag) + "." + name, ms, records,
                                threads, batch});
      if (name == "Sinew") {
        sinew_first = first;
        bench_records->push_back({"Q" + std::to_string(q),
                                  std::string(tag) + ".Sinew.first", first,
                                  records, threads, batch});
      }
    }
    if (sinew_first < 0) {
      std::printf(" %16s\n", "FAILED");
    } else {
      std::printf(" %16.1f\n", sinew_first);
    }
  }
  sinew::bench::MaybeWriteMetrics(metrics_out, std::string("fig6.") + tag);
}

}  // namespace

int main(int argc, char** argv) {
  const int threads = sinew::bench::ThreadsFromArgs(argc, argv);
  const int reps = sinew::bench::RepsFromArgs(argc, argv, 3);
  const std::string metrics_out = sinew::bench::MetricsOutFromArgs(argc, argv);
  PrintHeader("Figure 6: NoBench Q1-Q10 execution time");
  std::printf("Sinew parallelism: %d thread%s (--threads=N to change); "
              "best of %d rep%s (--reps=N)\n",
              threads, threads == 1 ? "" : "s", reps, reps == 1 ? "" : "s");
  std::vector<BenchRecord> records;
  RunScale("small (Figure 6a)", "small", Scaled(8000), threads, reps,
           metrics_out, &records);
  RunScale("large (Figure 6b)", "large", Scaled(32000), threads, reps,
           metrics_out, &records);
  sinew::bench::WriteBenchJson(sinew::bench::BenchOutDirFromArgs(argc, argv),
                               "fig6_nobench", records);
  sinew::bench::MaybeWriteTrace(sinew::bench::TraceOutFromArgs(argc, argv));
  std::printf(
      "\nPaper shape: Sinew fastest or tied on every query; PG-JSON and EAV\n"
      "an order of magnitude slower on projections/selections; MongoDB-like\n"
      "competitive on sparse projections, behind Sinew elsewhere.\n");
  return 0;
}
