// Table 5 (Appendix B): virtual vs. physical column access overhead.
//
// The same three queries run against the same tweets, with the referenced
// attribute stored (a) serialized in the column reservoir and (b) in a
// physical column. The paper measures <5% overhead for projection and <2%
// for selection / ORDER BY, concluding the serialization is cheap but the
// hybrid schema is still necessary for the optimizer (Table 2).

#include <cstdio>
#include <string>

#include "bench/bench_util.h"
#include "sinew/sinew_db.h"
#include "workloads/twitter/twitter.h"

namespace tw = sinew::workloads::twitter;
using sinew::bench::PrintHeader;
using sinew::bench::Scaled;
using sinew::bench::Timer;

namespace {

/// Minimum over several runs: the most noise-resistant point estimate on a
/// shared machine (we compare two code paths over identical data).
double BestOfRuns(sinew::SinewDb* db, const std::string& sql, int runs) {
  double best = -1;
  for (int i = 0; i < runs; ++i) {
    Timer timer;
    auto result = db->Query(sql);
    if (!result.ok()) return -1;
    double ms = timer.Millis();
    if (best < 0 || ms < best) best = ms;
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  const int threads = sinew::bench::ThreadsFromArgs(argc, argv);
  PrintHeader("Table 5: virtual vs. physical column overhead (Appendix B)");
  std::printf("Sinew parallelism: %d thread%s (--threads=N to change)\n",
              threads, threads == 1 ? "" : "s");
  tw::Config config;
  config.num_tweets = Scaled(40000);
  config.num_deletes = 0;

  sinew::SinewOptions options;
  options.parallelism = threads;
  sinew::SinewDb virtual_db(options);
  sinew::SinewDb physical_db(options);
  auto tweets = tw::GenerateTweets(config);
  if (!virtual_db.LoadDocuments("tweets", tweets).ok() ||
      !physical_db.LoadDocuments("tweets", tweets).ok()) {
    std::printf("load failed\n");
    return 1;
  }
  for (const char* col :
       {"user", "user.id", "user.lang", "user.friends_count"}) {
    (void)physical_db.ForceMaterialization("tweets", col, true);
  }
  if (!physical_db.MaterializeAll("tweets").ok()) {
    std::printf("materialization failed\n");
    return 1;
  }

  struct Q {
    const char* label;
    const char* sql;
  } queries[] = {
      {"projection", "SELECT \"user.id\" FROM tweets"},
      {"selection", "SELECT * FROM tweets WHERE \"user.lang\" = 'en'"},
      {"order by",
       "SELECT * FROM tweets ORDER BY \"user.friends_count\" DESC LIMIT 100"},
  };
  std::printf("%llu tweets; best of 5 runs, times in ms\n",
              static_cast<unsigned long long>(config.num_tweets));
  std::printf("%-12s %12s %12s %10s\n", "Query", "Virtual", "Physical",
              "overhead");
  for (const Q& q : queries) {
    double v = BestOfRuns(&virtual_db, q.sql, 5);
    double p = BestOfRuns(&physical_db, q.sql, 5);
    std::printf("%-12s %12.1f %12.1f %9.1f%%\n", q.label, v, p,
                p > 0 ? (v / p - 1.0) * 100.0 : 0.0);
  }

  // Multi-attribute queries: the scan decodes each row's reservoir once for
  // all referenced attributes (predicate attributes for every row, the rest
  // for survivors only). `reservoir.decodes` makes the decode-once invariant
  // observable: decodes/row <= 1.
  PrintHeader("Multi-attribute extraction (decode once per row)");
  const Q multi_queries[] = {
      {"proj x5",
       "SELECT \"user.id\", \"user.lang\", \"user.friends_count\", "
       "\"user.screen_name\", retweet_count FROM tweets"},
      {"filter+proj",
       "SELECT \"user.id\", \"user.screen_name\", text FROM tweets "
       "WHERE \"user.lang\" = 'en' AND retweet_count > 10"},
  };
  sinew::metrics::Counter* decodes =
      sinew::metrics::GetCounter("reservoir.decodes");
  const double rows = static_cast<double>(config.num_tweets);
  std::printf("%-12s %12s | %12s\n", "Query", "Virtual", "decodes/row");
  for (const Q& q : multi_queries) {
    const uint64_t before = decodes->value();
    double v = BestOfRuns(&virtual_db, q.sql, 5);
    double v_decodes = static_cast<double>(decodes->value() - before) / 5.0;
    std::printf("%-12s %12.1f | %12.2f\n", q.label, v, v_decodes / rows);
  }
  sinew::bench::MaybeWriteMetrics(sinew::bench::MetricsOutFromArgs(argc, argv),
                                  "table5.virtual_overhead");
  std::printf(
      "\nPaper shape: virtual-column access costs only a few percent over\n"
      "physical columns (one extra dereference + header binary search),\n"
      "shrinking further as fixed query costs grow.\n");
  return 0;
}
