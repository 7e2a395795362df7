// DurableDb (sinew/durable_db.h): the crash-safe LSM write path. Covers
// WAL replay on reopen, DML replay determinism, flush-threshold compaction,
// compaction-time materialization, verbatim image copies for cold tables,
// torn-tail tolerance, mid-log corruption refusal, double-recovery
// idempotence, and exhaustive crash-point sweeps (op / byte / sync
// granularity) asserting prefix consistency: recovery yields a contiguous
// prefix of the committed history that contains every acknowledged commit,
// with no partial batch visible.

#include "sinew/durable_db.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "common/env.h"
#include "common/fault_env.h"
#include "common/metrics.h"
#include "common/wal.h"
#include "sinew/persistence.h"

namespace sinew {
namespace {

namespace fs = std::filesystem;

// Pid-qualified so concurrent ctest processes never share a directory.
std::string TempDir(const std::string& name) {
  std::string dir = (fs::temp_directory_path() /
                     ("sinew_durable_" + std::to_string(::getpid()) + "_" +
                      name))
                        .string();
  fs::remove_all(dir);
  return dir;
}

int64_t Count(SinewDb* db, const std::string& sql) {
  auto result = db->Query(sql);
  EXPECT_TRUE(result.ok()) << sql << ": " << result.status().ToString();
  return result.ok() ? result->rows[0][0].int_value() : -1;
}

// ---- basic replay / flush lifecycle ----

TEST(DurableDb, ReopenReplaysUnflushedCommits) {
  std::string dir = TempDir("replay");
  {
    auto db = DurableDb::Open(dir);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    EXPECT_EQ((*db)->open_info().replayed_records, 0u);
    ASSERT_TRUE((*db)->LoadJsonLines("t", "{\"g\": 1}\n{\"g\": 2}").ok());
    ASSERT_TRUE((*db)->LoadJsonLines("t", "{\"g\": 3}").ok());
    EXPECT_EQ((*db)->memtable_records(), 2u);
    EXPECT_GT((*db)->memtable_bytes(), 0u);
    EXPECT_EQ(Count((*db)->db(), "SELECT COUNT(*) FROM t"), 3);
    ASSERT_TRUE((*db)->Close().ok());  // no flush: durability is WAL-only
  }
  {
    auto db = DurableDb::Open(dir);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    EXPECT_EQ((*db)->open_info().replayed_records, 2u);
    EXPECT_EQ(Count((*db)->db(), "SELECT COUNT(*) FROM t"), 3);
    // Replay triggered recovery's own flush: the delta is now an image and
    // the log was truncated.
    EXPECT_GE((*db)->open_info().generation, 1u);
    EXPECT_EQ((*db)->memtable_records(), 0u);
    ASSERT_TRUE((*db)->Close().ok());
  }
  {
    auto db = DurableDb::Open(dir);
    ASSERT_TRUE(db.ok());
    EXPECT_EQ((*db)->open_info().replayed_records, 0u);  // replay-free restart
    EXPECT_EQ(Count((*db)->db(), "SELECT COUNT(*) FROM t"), 3);
  }
  fs::remove_all(dir);
}

TEST(DurableDb, DmlReplaysDeterministically) {
  std::string dir = TempDir("dml");
  {
    auto db = DurableDb::Open(dir);
    ASSERT_TRUE(db.ok());
    ASSERT_TRUE((*db)
                    ->LoadJsonLines("t",
                                    "{\"g\": 1, \"v\": 10}\n"
                                    "{\"g\": 2, \"v\": 20}\n"
                                    "{\"g\": 3, \"v\": 30}")
                    .ok());
    ASSERT_TRUE((*db)->Query("UPDATE t SET v = 99 WHERE g = 2").ok());
    ASSERT_TRUE((*db)->Query("DELETE FROM t WHERE g = 3").ok());
    EXPECT_EQ(Count((*db)->db(), "SELECT COUNT(*) FROM t"), 2);
    EXPECT_EQ(Count((*db)->db(), "SELECT COUNT(*) FROM t WHERE v = 99"), 1);
    ASSERT_TRUE((*db)->Close().ok());
  }
  {
    auto db = DurableDb::Open(dir);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    EXPECT_EQ((*db)->open_info().replayed_records, 3u);
    EXPECT_EQ(Count((*db)->db(), "SELECT COUNT(*) FROM t"), 2);
    EXPECT_EQ(Count((*db)->db(), "SELECT COUNT(*) FROM t WHERE v = 99"), 1);
    EXPECT_EQ(Count((*db)->db(), "SELECT COUNT(*) FROM t WHERE g = 3"), 0);
  }
  fs::remove_all(dir);
}

TEST(DurableDb, CreateTableAndInsertSurviveReplayAndImages) {
  std::string dir = TempDir("create");
  {
    auto db = DurableDb::Open(dir);
    ASSERT_TRUE(db.ok());
    ASSERT_TRUE((*db)->Query("CREATE TABLE plain (a INT, b TEXT)").ok());
    ASSERT_TRUE((*db)->Query("INSERT INTO plain VALUES (1, 'x')").ok());
    ASSERT_TRUE((*db)->Query("INSERT INTO plain VALUES (2, 'y')").ok());
    ASSERT_TRUE((*db)->Close().ok());
  }
  {
    // First reopen applies the log (and flushes an image including `plain`).
    auto db = DurableDb::Open(dir);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    EXPECT_EQ((*db)->open_info().replayed_records, 3u);
    EXPECT_EQ(Count((*db)->db(), "SELECT COUNT(*) FROM plain"), 2);
    ASSERT_TRUE((*db)->Close().ok());
  }
  {
    // Second reopen loads `plain` purely from the generation image.
    auto db = DurableDb::Open(dir);
    ASSERT_TRUE(db.ok());
    EXPECT_EQ((*db)->open_info().replayed_records, 0u);
    EXPECT_EQ(Count((*db)->db(), "SELECT COUNT(*) FROM plain WHERE a = 2"), 1);
  }
  fs::remove_all(dir);
}

TEST(DurableDb, FlushThresholdTriggersCompaction) {
  std::string dir = TempDir("threshold");
  DurableDbOptions options;
  options.memtable_flush_bytes = 256;
  auto db = DurableDb::Open(dir, options);
  ASSERT_TRUE(db.ok());
  uint64_t runs_before = metrics::GetCounter("compaction.runs_total")->value();
  for (int i = 0; i < 40; ++i) {
    ASSERT_TRUE((*db)
                    ->LoadJsonLines("t", "{\"g\": " + std::to_string(i) +
                                             ", \"pad\": \"0123456789\"}")
                    .ok());
  }
  EXPECT_GE((*db)->flush_count(), 2u) << "threshold flushes did not happen";
  EXPECT_LT((*db)->memtable_bytes(), options.memtable_flush_bytes);
#if !defined(SINEW_METRICS_DISABLED)
  EXPECT_GE(metrics::GetCounter("compaction.runs_total")->value(),
            runs_before + 2);
#else
  (void)runs_before;
#endif
  EXPECT_EQ(Count((*db)->db(), "SELECT COUNT(*) FROM t"), 40);
  ASSERT_TRUE((*db)->Close().ok());

  auto reopened = DurableDb::Open(dir);
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ(Count((*reopened)->db(), "SELECT COUNT(*) FROM t"), 40);
  fs::remove_all(dir);
}

TEST(DurableDb, FlushMaterializesTouchedTables) {
  // Compaction-time materialization: the flush runs the analyzer +
  // materializer, so a dense, low-cardinality attribute comes out of the
  // reservoir as a physical column without any explicit maintenance call.
  std::string dir = TempDir("materialize");
  auto db = DurableDb::Open(dir);
  ASSERT_TRUE(db.ok());
  // Dense (every row) and high-cardinality (unique per row): exactly the
  // shape the analyzer promotes to a physical column.
  std::string jsonl;
  for (int i = 0; i < 300; ++i) {
    jsonl += "{\"a\": " + std::to_string(i) + "}\n";
  }
  ASSERT_TRUE((*db)->LoadJsonLines("t", jsonl).ok());
  ASSERT_TRUE((*db)->Flush().ok());
  auto schema = (*db)->db()->LogicalSchema("t");
  ASSERT_TRUE(schema.ok());
  bool materialized = false;
  for (const auto& col : *schema) {
    if (col.name == "a") materialized = col.materialized;
  }
  EXPECT_TRUE(materialized) << "flush did not materialize column a";
  EXPECT_EQ(Count((*db)->db(), "SELECT COUNT(*) FROM t WHERE a < 50"), 50);
  fs::remove_all(dir);
}

TEST(DurableDb, UnchangedTablesAreCopiedNotReserialized) {
  std::string dir = TempDir("copy");
  auto db = DurableDb::Open(dir);
  ASSERT_TRUE(db.ok());
  ASSERT_TRUE((*db)->LoadJsonLines("hot", "{\"h\": 1}").ok());
  ASSERT_TRUE((*db)->LoadJsonLines("cold", "{\"c\": 1}\n{\"c\": 2}").ok());
  ASSERT_TRUE((*db)->Flush().ok());

  uint64_t copied_before =
      metrics::GetCounter("persist.table_images_copied_total")->value();
  ASSERT_TRUE((*db)->LoadJsonLines("hot", "{\"h\": 2}").ok());
  ASSERT_TRUE((*db)->Flush().ok());
#if !defined(SINEW_METRICS_DISABLED)
  EXPECT_GE(metrics::GetCounter("persist.table_images_copied_total")->value(),
            copied_before + 1)
      << "cold table image was not copied verbatim";
#else
  (void)copied_before;
#endif
  ASSERT_TRUE((*db)->Close().ok());

  auto reopened = DurableDb::Open(dir);
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ(Count((*reopened)->db(), "SELECT COUNT(*) FROM hot"), 2);
  EXPECT_EQ(Count((*reopened)->db(), "SELECT COUNT(*) FROM cold"), 2);
  fs::remove_all(dir);
}

// ---- WAL edge shapes at the DurableDb level ----

TEST(DurableDb, TornWalTailIsToleratedAtOpen) {
  std::string dir = TempDir("torn");
  {
    auto db = DurableDb::Open(dir);
    ASSERT_TRUE(db.ok());
    ASSERT_TRUE((*db)->LoadJsonLines("t", "{\"g\": 1}").ok());
    ASSERT_TRUE((*db)->LoadJsonLines("t", "{\"g\": 2}").ok());
    ASSERT_TRUE((*db)->Close().ok());
  }
  {
    // Simulate a crash mid-append: a few garbage bytes after the last
    // complete record (an incomplete fragment header).
    std::ofstream wal(DurableDb::WalPath(dir, 0),
                      std::ios::binary | std::ios::app);
    wal.write("\xAB\xCD\xEF", 3);
  }
  auto db = DurableDb::Open(dir);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  EXPECT_TRUE(db->get()->open_info().wal_truncated_tail);
  EXPECT_EQ((*db)->open_info().replayed_records, 2u);
  EXPECT_EQ(Count((*db)->db(), "SELECT COUNT(*) FROM t"), 2);
  fs::remove_all(dir);
}

TEST(DurableDb, MidLogCorruptionFailsOpen) {
  std::string dir = TempDir("midlog");
  {
    auto db = DurableDb::Open(dir);
    ASSERT_TRUE(db.ok());
    ASSERT_TRUE((*db)->LoadJsonLines("t", "{\"g\": 1, \"pad\": \"aaaa\"}").ok());
    ASSERT_TRUE((*db)->LoadJsonLines("t", "{\"g\": 2, \"pad\": \"bbbb\"}").ok());
    ASSERT_TRUE((*db)->Close().ok());
  }
  {
    // Flip a payload byte of the FIRST record; the second record stays
    // valid, so this is mid-log damage, not a torn tail.
    std::string path = DurableDb::WalPath(dir, 0);
    auto data = Env::Default()->ReadFileToString(path);
    ASSERT_TRUE(data.ok());
    (*data)[kWalHeaderSize + 4] ^= 0x20;
    ASSERT_TRUE(AtomicWriteFile(Env::Default(), path, *data).ok());
  }
  auto db = DurableDb::Open(dir);
  ASSERT_FALSE(db.ok()) << "open must refuse a mid-log-corrupted WAL";
  EXPECT_TRUE(db.status().IsIOError());
  fs::remove_all(dir);
}

// ---- crash sweeps ----
//
// Workload: kSweepCommits commits against table t. Commit i is either a
// two-document batch tagged g=i, or (every fifth commit) a DELETE of group
// i-2. With a tiny flush threshold the run crosses several full
// write -> flush -> compact cycles. After a crash at any point, recovery
// must yield the state of some contiguous commit prefix [0, m] with
// m + 1 >= acked commits, and every group either complete (2 rows) or
// absent — never partial.

constexpr int kSweepCommits = 18;

bool IsDeleteCommit(int i) { return i % 5 == 4; }

bool GroupDeletedBy(int g, int upto) {
  for (int j = 0; j <= upto; ++j) {
    if (IsDeleteCommit(j) && j - 2 == g) return true;
  }
  return false;
}

/// Runs the workload; returns the number of acknowledged commits (the first
/// failed commit stops the run, as a crashed process would).
int RunWorkload(const std::string& dir, Env* env) {
  DurableDbOptions options;
  options.memtable_flush_bytes = 1500;
  auto db = DurableDb::Open(dir, options, env);
  if (!db.ok()) return 0;
  for (int i = 0; i < kSweepCommits; ++i) {
    Status st;
    if (IsDeleteCommit(i)) {
      st = (*db)->Query("DELETE FROM t WHERE g = " + std::to_string(i - 2))
               .status();
    } else {
      std::string g = std::to_string(i);
      st = (*db)
               ->LoadJsonLines("t", "{\"g\": " + g + ", \"p\": 0}\n{\"g\": " +
                                        g + ", \"p\": 1}")
               .status();
    }
    if (!st.ok()) return i;
  }
  (void)(*db)->Close();
  return kSweepCommits;
}

/// Reboots (clean env), recovers, and asserts prefix consistency.
void ExpectPrefixConsistent(const std::string& dir, int acked) {
  auto db = DurableDb::Open(dir);
  ASSERT_TRUE(db.ok()) << "recovery failed: " << db.status().ToString();
  std::vector<int64_t> counts(kSweepCommits, 0);
  auto has_table = (*db)->db()->Query("SELECT COUNT(*) FROM t");
  if (has_table.ok()) {
    for (int g = 0; g < kSweepCommits; ++g) {
      counts[g] = Count((*db)->db(),
                        "SELECT COUNT(*) FROM t WHERE g = " + std::to_string(g));
    }
  }
  int matched = -2;
  for (int m = kSweepCommits - 1; m >= -1 && matched == -2; --m) {
    bool match = true;
    for (int g = 0; g < kSweepCommits && match; ++g) {
      int64_t expect = 0;
      if (!IsDeleteCommit(g) && g <= m && !GroupDeletedBy(g, m)) expect = 2;
      if (counts[g] != expect) match = false;
    }
    if (match) matched = m;
  }
  ASSERT_NE(matched, -2)
      << "recovered state is not any contiguous commit prefix";
  // Every acknowledged commit must be durable: acked commits 0..acked-1.
  EXPECT_GE(matched, acked - 1) << "acknowledged commit lost by recovery";
}

TEST(DurableCrashSweep, EveryOpCrashOffsetRecoversPrefixConsistent) {
  std::string dir = TempDir("sweep_ops_dry");
  FaultInjectionEnv dry(Env::Default());
  ASSERT_EQ(RunWorkload(dir, &dry), kSweepCommits);
  int64_t total_ops = dry.ops_issued();
  ASSERT_GT(total_ops, 20);
  fs::remove_all(dir);

  // Bounded op budget: stride caps the sweep at ~90 crash points while a
  // small workload keeps every point hit at stride 1.
  int64_t stride = std::max<int64_t>(1, total_ops / 90);
  for (int64_t crash_at = 0; crash_at <= total_ops; crash_at += stride) {
    SCOPED_TRACE("crash after " + std::to_string(crash_at) + " ops");
    std::string it_dir = TempDir("sweep_ops");
    FaultInjectionEnv env(Env::Default());
    env.CrashAfterOps(crash_at);
    int acked = RunWorkload(it_dir, &env);
    ExpectPrefixConsistent(it_dir, acked);
    fs::remove_all(it_dir);
  }
}

TEST(DurableCrashSweep, ByteGranularCrashOffsetsRecoverPrefixConsistent) {
  std::string dir = TempDir("sweep_bytes_dry");
  FaultInjectionEnv dry(Env::Default());
  ASSERT_EQ(RunWorkload(dir, &dry), kSweepCommits);
  int64_t total_bytes = dry.bytes_appended();
  ASSERT_GT(total_bytes, 0);
  fs::remove_all(dir);

  // An odd stride lands cuts at every byte alignment across files: WAL
  // headers, image payloads, footers, the MANIFEST.
  int64_t stride = std::max<int64_t>(7, (total_bytes / 70) | 1);
  for (int64_t cut = 0; cut <= total_bytes; cut += stride) {
    SCOPED_TRACE("crash after " + std::to_string(cut) + " bytes");
    std::string it_dir = TempDir("sweep_bytes");
    FaultInjectionEnv env(Env::Default());
    env.CrashAfterBytes(cut);
    int acked = RunWorkload(it_dir, &env);
    ExpectPrefixConsistent(it_dir, acked);
    fs::remove_all(it_dir);
  }
}

TEST(DurableCrashSweep, PowerFailureAtEverySyncBoundaryKeepsAckedCommits) {
  // CrashAfterSyncs models a power cut: appends buffered past the last
  // fsync never happened. Under the default kEveryCommit policy every
  // acknowledged commit has been fsynced, so none may be lost.
  std::string dir = TempDir("sweep_syncs_dry");
  FaultInjectionEnv dry(Env::Default());
  ASSERT_EQ(RunWorkload(dir, &dry), kSweepCommits);
  int64_t total_syncs = dry.syncs_completed();
  ASSERT_GT(total_syncs, kSweepCommits / 2);
  fs::remove_all(dir);

  for (int64_t n = 0; n <= total_syncs; ++n) {
    SCOPED_TRACE("power cut after " + std::to_string(n) + " fsyncs");
    std::string it_dir = TempDir("sweep_syncs");
    FaultInjectionEnv env(Env::Default());
    env.CrashAfterSyncs(n);
    int acked = RunWorkload(it_dir, &env);
    ExpectPrefixConsistent(it_dir, acked);
    fs::remove_all(it_dir);
  }
}

// ---- double recovery: crash during recovery's own flush ----

TEST(DurableCrashSweep, CrashDuringRecoveryFlushThenRecoverAgain) {
  // Stage: a committed generation plus a WAL with unflushed commits — the
  // state recovery's own flush starts from.
  std::string stage = TempDir("double_stage");
  {
    DurableDbOptions options;  // huge threshold: no spontaneous flush
    auto db = DurableDb::Open(stage, options);
    ASSERT_TRUE(db.ok());
    ASSERT_TRUE((*db)->LoadJsonLines("t", "{\"g\": 0, \"p\": 0}").ok());
    ASSERT_TRUE((*db)->Flush().ok());  // generation 1
    for (int i = 1; i <= 4; ++i) {
      ASSERT_TRUE((*db)
                      ->LoadJsonLines("t", "{\"g\": " + std::to_string(i) +
                                               ", \"p\": 0}")
                      .ok());
    }
    ASSERT_TRUE((*db)->Close().ok());  // 4 commits live only in wal-000001
  }

  // Dry-run recovery to size the sweep (recovery = image load + replay +
  // recovery flush).
  int64_t total_ops;
  {
    std::string dir = TempDir("double_dry");
    fs::copy(stage, dir, fs::copy_options::recursive);
    FaultInjectionEnv env(Env::Default());
    auto db = DurableDb::Open(dir, {}, &env);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    EXPECT_EQ((*db)->open_info().replayed_records, 4u);
    total_ops = env.ops_issued();
    fs::remove_all(dir);
  }

  for (int64_t crash_at = 0; crash_at <= total_ops; ++crash_at) {
    SCOPED_TRACE("crash after " + std::to_string(crash_at) +
                 " ops of recovery");
    std::string dir = TempDir("double_run");
    fs::copy(stage, dir, fs::copy_options::recursive);
    {
      // First recovery, killed at an arbitrary point (possibly inside its
      // own flush).
      FaultInjectionEnv env(Env::Default());
      env.CrashAfterOps(crash_at);
      auto crashed = DurableDb::Open(dir, {}, &env);
      (void)crashed;  // success or failure both fine; the crash decides
    }
    // Second recovery must land on the complete state: every commit was
    // acknowledged before the first crash.
    auto db = DurableDb::Open(dir);
    ASSERT_TRUE(db.ok()) << "second recovery failed: "
                         << db.status().ToString();
    EXPECT_EQ(Count((*db)->db(), "SELECT COUNT(*) FROM t"), 5);
    for (int g = 0; g <= 4; ++g) {
      EXPECT_EQ(Count((*db)->db(),
                      "SELECT COUNT(*) FROM t WHERE g = " + std::to_string(g)),
                1)
          << "group " << g;
    }
    fs::remove_all(dir);
  }
  fs::remove_all(stage);
}

// ---- columnar strips across crashes and reopens ----
//
// Strips are an in-memory index: a flush shreds the tables it touched, and
// every Open shreds each table once over its recovered rows. Nothing about
// them reaches disk, so a crash anywhere must leave a store that reopens
// with identical query results, served from strips again.

constexpr int kStripRows2 = 2600;  // ~2.5 strips of 1024 rows

/// EXPLAIN ANALYZE of a projection of `columns` over all of `table`.
std::string AnalyzeScan(SinewDb* db, const std::string& table,
                        const std::string& columns) {
  auto analyzed =
      db->Query("EXPLAIN ANALYZE SELECT " + columns + " FROM " + table);
  EXPECT_TRUE(analyzed.ok()) << analyzed.status().ToString();
  std::string text;
  if (analyzed.ok()) {
    for (const auto& row : analyzed->rows) text += row[0].str() + "\n";
  }
  return text;
}

/// `table`'s seq and cat come from strips for every row: the scan walks no
/// row bytes.
void ExpectServesStrips(SinewDb* db, const std::string& table) {
  const std::string text = AnalyzeScan(db, table, "seq, cat");
  EXPECT_NE(text.find("(walked=0+0 strip_cols=0+"), std::string::npos)
      << text;
  EXPECT_EQ(text.find("strip_cols=0+0"), std::string::npos) << text;
}

/// JSON lines of rid-correlated "seq"/"cat" documents `[first, first + n)`.
std::string SeqCatDocs(int first, int n) {
  std::string jsonl;
  for (int i = first; i < first + n; ++i) {
    jsonl += "{\"seq\": " + std::to_string(i) + ", \"cat\": \"c" +
             std::to_string(i % 5) + "\"}\n";
  }
  return jsonl;
}

/// Loads a rid-correlated corpus and flushes. compact_on_flush is off so
/// "seq"/"cat" stay reservoir-resident and the flush shreds them into
/// strips. Returns acknowledged steps: 0 = nothing, 1 = load acked,
/// 2 = flush acked, 3 = clean close.
int RunStripWorkload(const std::string& dir, Env* env) {
  DurableDbOptions options;
  options.compact_on_flush = false;  // keep attributes virtual -> shredded
  auto db = DurableDb::Open(dir, options, env);
  if (!db.ok()) return 0;
  if (!(*db)->LoadJsonLines("t", SeqCatDocs(0, kStripRows2)).ok()) return 0;
  if (!(*db)->Flush().ok()) return 1;
  if (!(*db)->Close().ok()) return 2;
  return 3;
}

/// Recovery invariant after a crash anywhere in RunStripWorkload: Open
/// succeeds, and once the load was acked, every query — zone-skippable
/// range, string equality, full aggregate — returns exactly the loaded
/// data from the strips the Open shredded.
void ExpectStripWorkloadConsistent(const std::string& dir, int acked) {
  auto db = DurableDb::Open(dir);
  ASSERT_TRUE(db.ok()) << "recovery failed: " << db.status().ToString();
  if (acked < 1) return;  // the load never committed; any prefix is fine
  EXPECT_EQ(Count((*db)->db(), "SELECT COUNT(*) FROM t"), kStripRows2);
  // Zone-skippable shape: seq is rid-correlated, so strips outside the
  // range prune — a torn strip surviving to the executor would lose or
  // invent rows here.
  EXPECT_EQ(Count((*db)->db(),
                  "SELECT COUNT(*) FROM t WHERE seq BETWEEN 1500 AND 1599"),
            100);
  EXPECT_EQ(Count((*db)->db(), "SELECT COUNT(*) FROM t WHERE cat = 'c3'"),
            kStripRows2 / 5);
  auto sum = (*db)->db()->Query("SELECT SUM(seq) AS s FROM t");
  ASSERT_TRUE(sum.ok()) << sum.status().ToString();
  EXPECT_DOUBLE_EQ(
      sum->rows[0][0].AsDouble(),
      static_cast<double>(static_cast<int64_t>(kStripRows2) *
                          (kStripRows2 - 1) / 2));
}

TEST(DurableCrashSweep, StripSidecarSurvivesCrashesDuringFlush) {
  // Dry run: the reopened store must actually serve strips, or the sweep
  // below proves nothing about them.
  std::string dir = TempDir("strips_dry");
  FaultInjectionEnv dry(Env::Default());
  ASSERT_EQ(RunStripWorkload(dir, &dry), 3);
  ExpectStripWorkloadConsistent(dir, 3);
  {
    auto db = DurableDb::Open(dir);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    ExpectServesStrips((*db)->db(), "t");
  }
  int64_t total_ops = dry.ops_issued();
  ASSERT_GT(total_ops, 10);
  fs::remove_all(dir);

  int64_t stride = std::max<int64_t>(1, total_ops / 60);
  for (int64_t crash_at = 0; crash_at <= total_ops; crash_at += stride) {
    SCOPED_TRACE("crash after " + std::to_string(crash_at) + " ops");
    std::string it_dir = TempDir("strips_sweep");
    FaultInjectionEnv env(Env::Default());
    env.CrashAfterOps(crash_at);
    int acked = RunStripWorkload(it_dir, &env);
    ExpectStripWorkloadConsistent(it_dir, acked);
    fs::remove_all(it_dir);
  }
}

TEST(DurableCrashSweep, StripSidecarByteTornWritesNeverServeWrongValues) {
  // Byte-granular cuts land mid-record in the WAL and mid-image in the
  // flush; the Open after each one shreds whatever rows survived.
  std::string dir = TempDir("strips_bytes_dry");
  FaultInjectionEnv dry(Env::Default());
  ASSERT_EQ(RunStripWorkload(dir, &dry), 3);
  int64_t total_bytes = dry.bytes_appended();
  ASSERT_GT(total_bytes, 0);
  fs::remove_all(dir);

  int64_t stride = std::max<int64_t>(7, (total_bytes / 50) | 1);
  for (int64_t cut = 0; cut <= total_bytes; cut += stride) {
    SCOPED_TRACE("crash after " + std::to_string(cut) + " bytes");
    std::string it_dir = TempDir("strips_bytes");
    FaultInjectionEnv env(Env::Default());
    env.CrashAfterBytes(cut);
    int acked = RunStripWorkload(it_dir, &env);
    ExpectStripWorkloadConsistent(it_dir, acked);
    fs::remove_all(it_dir);
  }
}

// ---- stale rows: covered-row updates around generation saves ----
//
// An UPDATE of a row the segment covers leaves the segment attached and
// the row stale. A generation is saved after covered-row updates, more
// updates stay in its WAL, and a crash may land anywhere: the reopened
// store must hold every acknowledged update and no wrong strip value, and
// serve strips again over the updated rows.

/// RunStripWorkload's corpus and flush, then covered-row updates: one
/// batch flushed into the next generation, one left in its WAL. Returns
/// acknowledged steps: 2 = RunStripWorkload's flush, 3 = first update,
/// 4 = its flush, 5 = second update, 6 = clean close.
int RunStaleWorkload(const std::string& dir, Env* env) {
  const int acked = RunStripWorkload(dir, env);
  if (acked < 3) return std::min(acked, 2);
  DurableDbOptions options;
  options.compact_on_flush = false;
  auto db = DurableDb::Open(dir, options, env);
  if (!db.ok()) return 2;
  if (!(*db)->Query("UPDATE t SET cat = 'u1' WHERE seq IN (10, 1500, 2595)")
           .ok()) {
    return 2;
  }
  if (!(*db)->Flush().ok()) return 3;
  if (!(*db)->Query("UPDATE t SET cat = 'u2' WHERE seq IN (20, 1030, 2045)")
           .ok()) {
    return 4;
  }
  if (!(*db)->Close().ok()) return 5;
  return 6;
}

/// Each update batch is all there or all absent, and there once acked. The
/// updated rows are all of category c0, whose count is left unchecked.
void ExpectStaleWorkloadConsistent(const std::string& dir, int acked) {
  ExpectStripWorkloadConsistent(dir, acked);
  if (acked < 2) return;
  auto db = DurableDb::Open(dir);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  for (const auto& [tag, ack] : {std::pair<std::string, int>{"u1", 3},
                                 std::pair<std::string, int>{"u2", 5}}) {
    const int64_t n = Count(
        (*db)->db(), "SELECT COUNT(*) FROM t WHERE cat = '" + tag + "'");
    if (acked >= ack) {
      EXPECT_EQ(n, 3) << tag;
    } else {
      EXPECT_TRUE(n == 0 || n == 3) << tag << ": " << n;
    }
  }
  // The untouched rows keep their category, strip-served or not.
  EXPECT_EQ(Count((*db)->db(), "SELECT COUNT(*) FROM t WHERE cat = 'c1' OR "
                               "cat = 'c2' OR cat = 'c4'"),
            kStripRows2 / 5 * 3);
}

TEST(DurableCrashSweep, GenerationSavedAfterCoveredRowUpdates) {
  std::string dir = TempDir("stale_dry");
  FaultInjectionEnv dry(Env::Default());
  ASSERT_EQ(RunStaleWorkload(dir, &dry), 6);
  ExpectStaleWorkloadConsistent(dir, 6);
  {
    auto db = DurableDb::Open(dir);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    ExpectServesStrips((*db)->db(), "t");
  }
  const int64_t total_ops = dry.ops_issued();
  fs::remove_all(dir);

  const int64_t stride = std::max<int64_t>(1, total_ops / 40);
  for (int64_t crash_at = 0; crash_at <= total_ops; crash_at += stride) {
    SCOPED_TRACE("crash after " + std::to_string(crash_at) + " ops");
    std::string it_dir = TempDir("stale_sweep");
    FaultInjectionEnv env(Env::Default());
    env.CrashAfterOps(crash_at);
    const int acked = RunStaleWorkload(it_dir, &env);
    ExpectStaleWorkloadConsistent(it_dir, acked);
    fs::remove_all(it_dir);
  }
}

TEST(DurableDb, ReopenAfterCoveredRowUpdatesServesStrips) {
  // A generation saved while a covered row is stale, then a covered-row
  // update left in the next WAL. Each reopen holds every update and serves
  // every row from strips again: Open shreds the recovered rows.
  std::string dir = TempDir("stale_reopen");
  {
    SinewDb db;
    ASSERT_TRUE(db.LoadJsonLines("t", SeqCatDocs(0, kStripRows2)).ok());
    ASSERT_TRUE(db.BuildColumnarSegments("t").ok());
    ASSERT_TRUE(db.Query("UPDATE t SET seq = 7000 WHERE seq = 1200").ok());
    EXPECT_NE(AnalyzeScan(&db, "t", "seq, cat").find("stale=1)"),
              std::string::npos);
    ASSERT_TRUE(SaveDatabaseGeneration(&db, dir, Env::Default()).ok());
  }
  DurableDbOptions options;
  options.compact_on_flush = false;
  for (int pass = 0; pass < 3; ++pass) {
    SCOPED_TRACE("reopen " + std::to_string(pass));
    auto db = DurableDb::Open(dir, options);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    EXPECT_EQ((*db)->open_info().replayed_records, pass == 1 ? 1u : 0u);
    ExpectServesStrips((*db)->db(), "t");
    EXPECT_NE(AnalyzeScan((*db)->db(), "t", "seq, cat").find("stale=0)"),
              std::string::npos);
    EXPECT_EQ(Count((*db)->db(), "SELECT COUNT(*) FROM t WHERE seq = 7000"),
              1);
    EXPECT_EQ(Count((*db)->db(), "SELECT COUNT(*) FROM t WHERE seq = 1200"),
              0);
    EXPECT_EQ(Count((*db)->db(), "SELECT COUNT(*) FROM t WHERE seq > 2590"),
              10);
    if (pass == 0) {
      // The first reopen leaves one covered-row update in its WAL.
      ASSERT_TRUE(
          (*db)->Query("UPDATE t SET cat = 'u' WHERE seq = 2500").ok());
    } else {
      EXPECT_EQ(Count((*db)->db(), "SELECT COUNT(*) FROM t WHERE cat = 'u'"),
                1);
    }
    ASSERT_TRUE((*db)->Close().ok());
  }
  fs::remove_all(dir);
}

TEST(DurableDb, CleanReopenServesStrips) {
  // Nothing to replay: no flush runs, and Open shreds the loaded rows.
  std::string dir = TempDir("clean_reopen");
  ASSERT_EQ(RunStripWorkload(dir, Env::Default()), 3);
  auto db = DurableDb::Open(dir);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  EXPECT_EQ((*db)->open_info().replayed_records, 0u);
  ExpectServesStrips((*db)->db(), "t");
  EXPECT_EQ(Count((*db)->db(),
                  "SELECT COUNT(*) FROM t WHERE seq BETWEEN 1500 AND 1599"),
            100);
  fs::remove_all(dir);
}

TEST(DurableDb, WalTailOverOneTableStillShredsBoth) {
  // Two flushed tables, then a WAL tail that touches only "a". After Open,
  // "a" (replayed) and "b" (only loaded) both serve strips.
  std::string dir = TempDir("two_tables");
  DurableDbOptions options;
  options.compact_on_flush = false;
  {
    auto db = DurableDb::Open(dir, options);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    ASSERT_TRUE((*db)->LoadJsonLines("a", SeqCatDocs(0, 2000)).ok());
    ASSERT_TRUE((*db)->LoadJsonLines("b", SeqCatDocs(0, 1500)).ok());
    ASSERT_TRUE((*db)->Flush().ok());
    ASSERT_TRUE((*db)->LoadJsonLines("a", SeqCatDocs(2000, 300)).ok());
    ASSERT_TRUE((*db)->Close().ok());
  }
  auto db = DurableDb::Open(dir, options);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  EXPECT_EQ((*db)->open_info().replayed_records, 1u);
  ExpectServesStrips((*db)->db(), "a");
  ExpectServesStrips((*db)->db(), "b");
  EXPECT_EQ(Count((*db)->db(), "SELECT COUNT(*) FROM a"), 2300);
  EXPECT_EQ(Count((*db)->db(), "SELECT COUNT(*) FROM b"), 1500);
  fs::remove_all(dir);
}

#if !defined(SINEW_METRICS_DISABLED)
TEST(DurableDb, ReplayedOpenShredsOnce) {
  // An Open that replays and flushes writes exactly the strips of one shred
  // of the table: neither the recovery flush nor a second pass re-shreds.
  std::string dir = TempDir("shred_once");
  DurableDbOptions options;
  options.compact_on_flush = false;
  {
    auto db = DurableDb::Open(dir, options);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    ASSERT_TRUE((*db)->LoadJsonLines("t", SeqCatDocs(0, 2600)).ok());
    ASSERT_TRUE((*db)->Flush().ok());
    ASSERT_TRUE((*db)->LoadJsonLines("t", SeqCatDocs(2600, 100)).ok());
    ASSERT_TRUE((*db)->Query("UPDATE t SET cat = 'u' WHERE seq = 7").ok());
    ASSERT_TRUE((*db)->Close().ok());
  }
  metrics::Counter* written = metrics::GetCounter("strips.written");
  const uint64_t before_open = written->value();
  auto db = DurableDb::Open(dir, options);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  ASSERT_EQ((*db)->open_info().replayed_records, 2u);
  const uint64_t by_open = written->value() - before_open;
  const uint64_t before_shred = written->value();
  ASSERT_TRUE((*db)->db()->BuildColumnarSegments("t").ok());
  const uint64_t one_shred = written->value() - before_shred;
  EXPECT_GT(one_shred, 0u);
  EXPECT_EQ(by_open, one_shred);
  fs::remove_all(dir);
}
#endif

}  // namespace
}  // namespace sinew
