// Micro-benchmark: single-pass batched reservoir extraction at 1, 8 and 32
// extracted attributes.
//
// Every document carries 32 scalar attributes plus a nested object, so the
// 32-attribute query touches the whole header. The scan produces every
// virtual column itself (DocumentView::ExtractMany over a view of the row
// bytes): it walks the header once per row and merge-joins all wanted ids.
// `reservoir.decodes` makes the decode-once invariant observable:
// decodes/row == 1 at every width. --batch-size=N sweeps the executor's
// batch size.
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
  PrintHeader("Micro: batched reservoir extraction by width");

  sinew::SinewOptions options;
  options.parallelism = threads;
  if (uint64_t bs = sinew::bench::BatchSizeFromArgs(argc, argv)) {
    options.exec.batch_size = bs;
  }
  sinew::SinewDb db(options);
  if (!db.LoadJsonLines("docs", GenerateDocs(rows)).ok()) {
    std::printf("load failed\n");
    return 1;
  }

  const uint64_t batch_rows = options.exec.batch_size;
  std::printf("%llu docs x 32 attrs; %d thread%s; batch_size=%llu; best of 5 "
              "runs\n",
              static_cast<unsigned long long>(rows), threads,
              threads == 1 ? "" : "s",
              static_cast<unsigned long long>(batch_rows));
  sinew::metrics::Counter* decodes =
      sinew::metrics::GetCounter("reservoir.decodes");
  const int kRuns = 5;
  std::vector<BenchRecord> records;
  auto run = [&](const std::string& label, const std::string& query,
                 const std::string& sql) {
    const uint64_t before = decodes->value();
    const double ms = BestOfRuns(&db, sql, kRuns);
    const double per_row =
        static_cast<double>(decodes->value() - before) / kRuns / rows;
    std::printf("%-8s %11.1f | %12.2f\n", label.c_str(), ms, per_row);
    records.push_back({query, "batch" + std::to_string(batch_rows), ms, rows,
                       threads, batch_rows});
  };
  std::printf("%-8s %11s | %12s\n", "Attrs", "Time(ms)", "decodes/row");
  for (int attrs : {1, 8, 32}) {
    run(std::to_string(attrs), "project" + std::to_string(attrs),
        ProjectionSql(attrs));
  }
  // Nested-object descent shares the decode too: a1 is extracted for every
  // row before the filter runs, meta.kind, meta.weight and a0 once per
  // surviving row (~1.5 decodes/row at 50% selectivity).
  run("nested", "nested",
      "SELECT \"meta.kind\", \"meta.weight\", a0 FROM docs WHERE a1 < 500");

  sinew::bench::WriteBenchJson(sinew::bench::BenchOutDirFromArgs(argc, argv),
                               "micro_extract", records);
  sinew::bench::MaybeWriteMetrics(sinew::bench::MetricsOutFromArgs(argc, argv),
                                  "micro_extract");
  return 0;
}
