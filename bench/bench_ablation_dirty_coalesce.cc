// Ablation (Section 3.1.4 claim): queries against a partially materialized
// ("dirty") column read it as COALESCE(col, extract(reservoir)) — one
// virtual-column reference whose sources are the column, then the
// reservoir, which the scan extracts only where the column is NULL — and
// should see at most a modest slowdown (the paper observed <=10%). We
// freeze the materializer at several completion fractions and measure the
// same query.

#include <cstdio>

#include "bench/bench_util.h"
#include "sinew/sinew_db.h"
#include "workloads/nobench/generator.h"
#include "workloads/nobench/runners.h"

namespace nb = sinew::workloads::nobench;
using sinew::bench::PrintHeader;
using sinew::bench::Scaled;
using sinew::bench::Timer;

int main() {
  PrintHeader("Ablation: query cost vs. materialization progress (dirty "
              "columns read column-then-reservoir)");
  nb::Config config;
  config.num_records = Scaled(40000);
  std::vector<sinew::Value> docs = nb::Generate(config);

  sinew::SinewDb db;
  if (!db.LoadDocuments(nb::kTableName, docs).ok()) {
    std::printf("load failed\n");
    return 1;
  }
  if (!db.ForceMaterialization(nb::kTableName, "num", true).ok()) {
    std::printf("force materialization failed\n");
    return 1;
  }

  const std::string query =
      "SELECT COUNT(*) FROM nobench_main WHERE num BETWEEN 100 AND " +
      std::to_string(config.num_records / 2);
  const double fractions[] = {0.0, 0.25, 0.5, 0.75, 1.0};
  std::printf("%-14s %12s %10s\n", "materialized", "query (ms)", "rows");
  uint64_t done = 0;
  for (double f : fractions) {
    uint64_t target = static_cast<uint64_t>(f * config.num_records);
    while (done < target) {
      auto step = db.MaterializeStep(nb::kTableName,
                                     std::min<uint64_t>(4096, target - done));
      if (!step.ok() || *step == 0) break;
      done += *step;
    }
    // Median of 3.
    double best = -1;
    int64_t count = 0;
    for (int r = 0; r < 3; ++r) {
      Timer timer;
      auto result = db.Query(query);
      double ms = timer.Millis();
      if (!result.ok()) {
        std::printf("query failed: %s\n", result.status().ToString().c_str());
        return 1;
      }
      count = result->rows[0][0].int_value();
      if (best < 0 || ms < best) best = ms;
    }
    std::printf("%13.0f%% %12.1f %10lld\n", f * 100, best,
                static_cast<long long>(count));
  }
  std::printf(
      "\nPaper shape: the column-then-reservoir (COALESCE) read of a\n"
      "partially materialized column costs at most ~10%% versus the fully\n"
      "materialized column, so the materializer can stop and resume at any\n"
      "point.\n");
  return 0;
}
