// Micro-benchmark: single-pass batched reservoir extraction vs. the
// per-attribute chain-UDF baseline, at 1, 8 and 32 extracted attributes.
//
// Every document carries 32 scalar attributes plus a nested object, so the
// 32-attribute query touches the whole header. The per-attribute path
// re-decodes the row's reservoir once per referenced attribute; the batched
// path (planner kExtract + DocumentView::ExtractMany) walks the header once
// per row and merge-joins all wanted ids. `reservoir.decodes` makes the
// difference observable: decodes/row == 1 batched, == k per-attribute.
// --batch-size=N sweeps the executor's batch size.
//
// --threads=N runs all configurations under Gather parallelism;
// --metrics-out=<path> appends the metrics-registry JSON sidecar;
// --bench-out=<dir> places the BENCH_micro_extract.json records (default .).

#include <cstdio>
#include <cstdint>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "sinew/sinew_db.h"

using sinew::bench::BenchRecord;
using sinew::bench::PrintHeader;
using sinew::bench::Scaled;
using sinew::bench::Timer;

namespace {

std::string GenerateDocs(uint64_t rows) {
  std::string out;
  out.reserve(rows * 512);
  for (uint64_t i = 0; i < rows; ++i) {
    out += "{";
    for (int a = 0; a < 24; ++a) {
      out += "\"a" + std::to_string(a) + "\": " +
             std::to_string((i * 31 + static_cast<uint64_t>(a) * 7) % 1000) +
             ", ";
    }
    for (int a = 24; a < 32; ++a) {
      out += "\"a" + std::to_string(a) + "\": \"v" +
             std::to_string((i + static_cast<uint64_t>(a)) % 100) + "\", ";
    }
    out += "\"meta\": {\"kind\": \"m" + std::to_string(i % 5) +
           "\", \"weight\": " + std::to_string(i % 17) + "}}\n";
  }
  return out;
}

std::string ProjectionSql(int attrs) {
  std::string sql = "SELECT ";
  for (int a = 0; a < attrs; ++a) {
    if (a > 0) sql += ", ";
    sql += "a" + std::to_string(a);
  }
  return sql + " FROM docs";
}

double BestOfRuns(sinew::SinewDb* db, const std::string& sql, int runs) {
  double best = -1;
  for (int i = 0; i < runs; ++i) {
    Timer timer;
    auto result = db->Query(sql);
    if (!result.ok()) {
      std::fprintf(stderr, "query failed: %s\n",
                   result.status().ToString().c_str());
      return -1;
    }
    double ms = timer.Millis();
    if (best < 0 || ms < best) best = ms;
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  const int threads = sinew::bench::ThreadsFromArgs(argc, argv);
  const uint64_t rows = Scaled(20000);
  PrintHeader("Micro: batched vs. per-attribute reservoir extraction");

  sinew::SinewOptions batched_options;  // batched extract
  batched_options.parallelism = threads;
  if (uint64_t bs = sinew::bench::BatchSizeFromArgs(argc, argv)) {
    batched_options.exec.batch_size = bs;
  }
  sinew::SinewOptions per_attr_options = batched_options;
  per_attr_options.planner.enable_batched_extraction = false;
  sinew::SinewDb batched_db(batched_options);
  sinew::SinewDb per_attr_db(per_attr_options);
  const std::string docs = GenerateDocs(rows);
  if (!batched_db.LoadJsonLines("docs", docs).ok() ||
      !per_attr_db.LoadJsonLines("docs", docs).ok()) {
    std::printf("load failed\n");
    return 1;
  }

  const uint64_t batch_rows = batched_options.exec.batch_size;
  std::printf("%llu docs x 32 attrs; %d thread%s; batch_size=%llu; best of 5 "
              "runs\n",
              static_cast<unsigned long long>(rows), threads,
              threads == 1 ? "" : "s",
              static_cast<unsigned long long>(batch_rows));
  sinew::metrics::Counter* decodes =
      sinew::metrics::GetCounter("reservoir.decodes");
  const int kRuns = 5;
  std::vector<BenchRecord> records;
  auto record = [&](const std::string& query, const std::string& config,
                    double ms, uint64_t batch) {
    records.push_back({query, config, ms, rows, threads, batch});
  };
  std::printf("%-8s %11s %12s %9s | %12s %12s\n", "Attrs", "Batch(ms)",
              "Per-attr(ms)", "b/attr", "decodes/r(b)", "decodes/r(p)");
  for (int attrs : {1, 8, 32}) {
    const std::string sql = ProjectionSql(attrs);
    const std::string query = "project" + std::to_string(attrs);
    uint64_t before = decodes->value();
    double b = BestOfRuns(&batched_db, sql, kRuns);
    double b_decodes =
        static_cast<double>(decodes->value() - before) / kRuns / rows;
    before = decodes->value();
    double p = BestOfRuns(&per_attr_db, sql, kRuns);
    double p_decodes =
        static_cast<double>(decodes->value() - before) / kRuns / rows;
    std::printf("%-8d %11.1f %12.1f %8.2fx | %12.2f %12.2f\n", attrs, b, p,
                b > 0 ? p / b : 0.0, b_decodes, p_decodes);
    record(query, "batch" + std::to_string(batch_rows), b, batch_rows);
    record(query, "per-attr", p, batch_rows);
  }

  // Nested-object descent shares the projection decode too: meta.kind and
  // meta.weight descend once per filter-surviving row, while the lone
  // predicate site stays on the scan's chain path (~1.5 decodes/row at 50%
  // selectivity).
  const std::string nested_sql =
      "SELECT \"meta.kind\", \"meta.weight\", a0 FROM docs WHERE a1 < 500";
  uint64_t before = decodes->value();
  double nested = BestOfRuns(&batched_db, nested_sql, kRuns);
  double nested_decodes =
      static_cast<double>(decodes->value() - before) / kRuns / rows;
  std::printf("%-8s %11.1f %12s %9s | %12.2f\n", "nested", nested, "-", "-",
              nested_decodes);
  record("nested", "batch" + std::to_string(batch_rows), nested, batch_rows);
  std::printf("b/attr = batched-extraction speedup over per-attribute UDFs.\n");

  sinew::bench::WriteBenchJson(sinew::bench::BenchOutDirFromArgs(argc, argv),
                               "micro_extract", records);
  sinew::bench::MaybeWriteMetrics(sinew::bench::MetricsOutFromArgs(argc, argv),
                                  "micro_extract");
  return 0;
}
