// Concurrency stress tests: readers querying while the materializer promotes
// columns, the loader appends batches, and a writer updates shredded rows
// and re-shreds them. Run under SINEW_SANITIZE=thread
// these catch data races on the catalog, table schema and row storage; in a
// plain build they still verify that concurrent maintenance never produces a
// wrong or failed query result.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/metrics.h"
#include "sinew/sinew_db.h"
#include "workloads/nobench/generator.h"

namespace sinew {
namespace {

namespace nb = workloads::nobench;

SinewOptions StressOptions() {
  SinewOptions options;
  options.parallelism = 2;  // parallel scans race with maintenance DDL
  options.planner.parallel_min_rows = 1;
  return options;
}

int64_t ExpectedNumSum(const std::vector<Value>& docs) {
  int64_t sum = 0;
  for (const Value& doc : docs) {
    const Value* num = doc.Find("num");
    if (num != nullptr && num->is_int()) sum += num->int_value();
  }
  return sum;
}

Result<int64_t> QuerySum(SinewDb* db, const std::string& table) {
  ASSIGN_OR_RETURN(engine::QueryResult r,
                   db->Query("SELECT SUM(num) FROM " + table));
  if (r.rows.size() != 1 || r.rows[0].empty()) {
    return Status::Internal("bad aggregate shape");
  }
  return r.rows[0][0].is_null() ? 0 : r.rows[0][0].int_value();
}

TEST(ConcurrencyStressTest, ReadersDuringMaterializerPromotion) {
  nb::Config config;
  config.num_records = 1200;
  config.seed = 7;
  std::vector<Value> docs = nb::Generate(config);
  const int64_t expected_sum = ExpectedNumSum(docs);

  SinewDb db(StressOptions());
  ASSERT_TRUE(db.LoadDocuments("t", docs).ok());
  // Flag the analyzer's picks dirty; promotion happens below, concurrently
  // with the readers.
  ASSERT_TRUE(db.AnalyzeSchema("t").ok());

  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};
  auto reader = [&](int salt) {
    const std::vector<std::string> queries = {
        "SELECT SUM(num) FROM t",
        "SELECT COUNT(*) FROM t WHERE str1 IS NOT NULL",
        "SELECT thousandth, COUNT(*) FROM t GROUP BY thousandth",
        "SELECT \"nested_obj.num\" FROM t WHERE num < 200",
    };
    for (int i = 0; !stop.load() || i < 8; ++i) {
      const std::string& sql = queries[(i + salt) % queries.size()];
      Result<engine::QueryResult> r = db.Query(sql);
      if (!r.ok()) {
        ADD_FAILURE() << sql << " -> " << r.status().ToString();
        failures.fetch_add(1);
        return;
      }
      // Aggregates over a column mid-promotion must still see every value
      // exactly once (each row moves atomically).
      if (sql == "SELECT SUM(num) FROM t" &&
          r->rows[0][0].int_value() != expected_sum) {
        ADD_FAILURE() << "SUM(num) = " << r->rows[0][0].int_value()
                      << ", want " << expected_sum;
        failures.fetch_add(1);
        return;
      }
      if (i >= 200) break;  // bound runtime even if materialization is slow
    }
  };

  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) readers.emplace_back(reader, t);
  // Promote in small increments so the dirty window readers race with stays
  // open for many scheduling points.
  while (true) {
    Result<uint64_t> examined = db.MaterializeStep("t", 64);
    ASSERT_TRUE(examined.ok()) << examined.status().ToString();
    if (*examined == 0) break;
    std::this_thread::yield();
  }
  stop.store(true);
  for (std::thread& t : readers) t.join();
  EXPECT_EQ(failures.load(), 0);

  Result<int64_t> final_sum = QuerySum(&db, "t");
  ASSERT_TRUE(final_sum.ok());
  EXPECT_EQ(*final_sum, expected_sum);
}

TEST(ConcurrencyStressTest, LoaderInsertsDuringReadsAndMaterialization) {
  nb::Config config;
  config.num_records = 1600;
  config.seed = 11;
  std::vector<Value> docs = nb::Generate(config);
  constexpr uint64_t kInitial = 800;
  constexpr uint64_t kBatch = 100;
  std::vector<Value> initial(docs.begin(), docs.begin() + kInitial);

  SinewDb db(StressOptions());
  ASSERT_TRUE(db.LoadDocuments("t", initial).ok());
  ASSERT_TRUE(db.AnalyzeSchema("t").ok());

  std::atomic<bool> stop{false};

  std::thread loader([&] {
    for (uint64_t lo = kInitial; lo < docs.size(); lo += kBatch) {
      std::vector<Value> batch(docs.begin() + lo, docs.begin() + lo + kBatch);
      Result<uint64_t> loaded = db.LoadDocuments("t", batch);
      if (!loaded.ok()) {
        ADD_FAILURE() << "load: " << loaded.status().ToString();
        return;
      }
      EXPECT_EQ(*loaded, kBatch);
    }
  });

  std::thread materializer([&] {
    while (!stop.load()) {
      Result<uint64_t> examined = db.MaterializeStep("t", 64);
      if (!examined.ok()) {
        ADD_FAILURE() << "step: " << examined.status().ToString();
        return;
      }
      std::this_thread::yield();
    }
  });

  // Readers: COUNT(*) is monotonically non-decreasing and row-exact (the
  // loader appends whole batches but each row lands atomically).
  std::vector<std::thread> readers;
  std::atomic<int> failures{0};
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&] {
      uint64_t last = 0;
      for (int i = 0; i < 60; ++i) {
        Result<engine::QueryResult> r = db.Query("SELECT COUNT(*) FROM t");
        if (!r.ok()) {
          ADD_FAILURE() << r.status().ToString();
          failures.fetch_add(1);
          return;
        }
        uint64_t count = static_cast<uint64_t>(r->rows[0][0].int_value());
        if (count < last || count > docs.size()) {
          ADD_FAILURE() << "COUNT(*) went from " << last << " to " << count;
          failures.fetch_add(1);
          return;
        }
        last = count;
      }
    });
  }

  loader.join();
  for (std::thread& t : readers) t.join();
  stop.store(true);
  materializer.join();
  EXPECT_EQ(failures.load(), 0);

  ASSERT_TRUE(db.MaterializeAll("t").ok());
  Result<engine::QueryResult> count = db.Query("SELECT COUNT(*) FROM t");
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(count->rows[0][0].int_value(),
            static_cast<int64_t>(docs.size()));
  Result<int64_t> sum = QuerySum(&db, "t");
  ASSERT_TRUE(sum.ok());
  EXPECT_EQ(*sum, ExpectedNumSum(docs));
}

TEST(ConcurrencyStressTest, BackgroundMaintenanceUnderLoad) {
  nb::Config config;
  config.num_records = 1000;
  config.seed = 13;
  std::vector<Value> docs = nb::Generate(config);

  SinewDb db(StressOptions());
  ASSERT_TRUE(
      db.LoadDocuments("t", {docs.begin(), docs.begin() + 200}).ok());
  db.StartBackgroundMaintenance(std::chrono::milliseconds(5));

  std::thread loader([&] {
    for (size_t lo = 200; lo < docs.size(); lo += 200) {
      std::vector<Value> batch(docs.begin() + lo, docs.begin() + lo + 200);
      Result<uint64_t> loaded = db.LoadDocuments("t", batch);
      EXPECT_TRUE(loaded.ok()) << loaded.status().ToString();
    }
  });
  for (int i = 0; i < 40; ++i) {
    Result<engine::QueryResult> r =
        db.Query("SELECT str1, num FROM t WHERE num >= 0");
    EXPECT_TRUE(r.ok()) << r.status().ToString();
  }
  loader.join();
  db.StopBackgroundMaintenance();

  ASSERT_TRUE(db.AnalyzeAndMaterialize("t").ok());
  Result<int64_t> sum = QuerySum(&db, "t");
  ASSERT_TRUE(sum.ok());
  EXPECT_EQ(*sum, ExpectedNumSum(docs));
}

TEST(ConcurrencyStressTest, LoaderAppendsWhileColumnsAreAdded) {
  // A query's rewriter adds physical columns without the maintenance latch
  // the loader holds, so columns can appear between any two appends of a
  // load. Every row must still be sized to the schema it lands in.
  nb::Config config;
  config.num_records = 2000;
  config.seed = 17;
  std::vector<Value> docs = nb::Generate(config);

  SinewDb db(StressOptions());
  ASSERT_TRUE(db.LoadDocuments("t", {docs.begin(), docs.begin() + 1}).ok());
  Result<engine::Table*> table = db.engine()->catalog()->GetTable("t");
  ASSERT_TRUE(table.ok());

  std::atomic<bool> stop{false};
  std::thread adder([&] {
    for (int i = 0; i < 2000 && !stop.load(); ++i) {
      Status added = (*table)->AddColumn(engine::Column{
          "added_" + std::to_string(i), engine::ColumnType::kInt, false});
      EXPECT_TRUE(added.ok()) << added.ToString();
      std::this_thread::sleep_for(std::chrono::microseconds(20));
    }
  });
  uint64_t loaded = 1;
  for (int round = 0; round < 3; ++round) {
    Result<uint64_t> n =
        db.LoadDocuments("t", {docs.begin() + 1, docs.end()});
    EXPECT_TRUE(n.ok()) << n.status().ToString();
    if (n.ok()) loaded += *n;
  }
  stop.store(true);
  adder.join();

  Result<engine::QueryResult> count = db.Query("SELECT COUNT(*) FROM t");
  ASSERT_TRUE(count.ok()) << count.status().ToString();
  EXPECT_EQ(count->rows[0][0].int_value(), static_cast<int64_t>(loaded));
  EXPECT_EQ(loaded, 1 + 3 * (docs.size() - 1));
}

/// Every document keeps b == "s<a>" and c == 2a, and the writer rewrites
/// all three together, so a row assembled from strips and row bytes of
/// different table states would break the invariant. Readers run
/// strip-served projections and SELECT * behind a predicate on a, b or c
/// while the writer UPDATEs rows the segment covers (detaching it) and
/// re-shreds (attaching a new one). Every read must succeed first time —
/// the scan serves each latch chunk from the segment attached under that
/// latch, so there is no drift to replan for. With `physical`, a, b and c
/// are materialized columns, so the filters read their physical strips;
/// otherwise they are virtual and read reservoir strips.
void StripServedReadsDuringUpdatesAndReshred(bool physical) {
  constexpr int kRows = 2048;  // two strips
  std::ostringstream jsonl;
  for (int i = 0; i < kRows; ++i) {
    jsonl << "{\"id\": " << i << ", \"a\": " << i << ", \"b\": \"s" << i
          << "\", \"c\": " << 2 * i << "}\n";
  }
  SinewDb db(StressOptions());
  ASSERT_TRUE(db.LoadJsonLines("t", jsonl.str()).ok());
  if (physical) {
    for (const char* key : {"a", "b", "c"}) {
      ASSERT_TRUE(db.ForceMaterialization("t", key, true).ok());
    }
    ASSERT_TRUE(db.MaterializeAll("t").ok());
  }
  ASSERT_TRUE(db.BuildColumnarSegments("t").ok());
  // The query log is process-wide: look only at this test's records.
  Result<engine::QueryResult> first =
      db.Query("SELECT MAX(ordinal) FROM sinew_query_log");
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  const int64_t since =
      first->rows[0][0].is_null() ? 0 : first->rows[0][0].int_value();

  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};
  auto reader = [&](int salt) {
    const std::vector<std::string> queries = {
        "SELECT id, a, b, c FROM t",
        "SELECT * FROM t WHERE a >= 0",
        "SELECT b, c, a FROM t WHERE c >= 0",
        "SELECT a, c, b FROM t WHERE b >= 's' AND c BETWEEN 0 AND 1000000",
    };
    for (int i = 0; (!stop.load() || i < 6) && i < 60; ++i) {
      const std::string& sql = queries[(i + salt) % queries.size()];
      Result<engine::QueryResult> r = db.Query(sql);
      if (!r.ok() || r->rows.size() != static_cast<size_t>(kRows)) {
        ADD_FAILURE() << sql << " -> "
                      << (r.ok() ? std::to_string(r->rows.size()) + " rows"
                                 : r.status().ToString());
        failures.fetch_add(1);
        return;
      }
      int a = -1, b = -1, c = -1;
      for (size_t k = 0; k < r->column_names.size(); ++k) {
        if (r->column_names[k] == "a") a = static_cast<int>(k);
        if (r->column_names[k] == "b") b = static_cast<int>(k);
        if (r->column_names[k] == "c") c = static_cast<int>(k);
      }
      ASSERT_TRUE(a >= 0 && b >= 0 && c >= 0) << sql;
      for (const auto& row : r->rows) {
        const int64_t av = row[a].int_value();
        if (row[b].str() != "s" + std::to_string(av) ||
            row[c].int_value() != 2 * av) {
          ADD_FAILURE() << sql << ": torn row a=" << av << " b="
                        << row[b].ToString() << " c=" << row[c].ToString();
          failures.fetch_add(1);
          return;
        }
      }
    }
  };

  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) readers.emplace_back(reader, t);
  for (int round = 0; round < 20; ++round) {
    const int v = 100000 + round;
    const int id = (round * 97) % kRows;
    Result<engine::QueryResult> updated = db.Query(
        "UPDATE t SET a = " + std::to_string(v) + ", b = 's" +
        std::to_string(v) + "', c = " + std::to_string(2 * v) +
        " WHERE id = " + std::to_string(id));
    ASSERT_TRUE(updated.ok()) << updated.status().ToString();
    std::this_thread::yield();
    ASSERT_TRUE(db.BuildColumnarSegments("t").ok());
  }
  stop.store(true);
  for (std::thread& t : readers) t.join();
  EXPECT_EQ(failures.load(), 0);

  Result<engine::QueryResult> log =
      db.Query("SELECT COUNT(*), MAX(replans) FROM sinew_query_log "
               "WHERE ordinal > " + std::to_string(since));
  ASSERT_TRUE(log.ok()) << log.status().ToString();
  EXPECT_GT(log->rows[0][0].int_value(), 0);
  EXPECT_EQ(log->rows[0][1].int_value(), 0);
  // The last re-shred attached a segment the projections are served from:
  // with `physical`, a, b and c from their physical strips and the virtual
  // id from its reservoir strip, all four filled typed.
  Result<engine::QueryResult> analyzed =
      db.Query("EXPLAIN ANALYZE SELECT id, a, b, c FROM t");
  ASSERT_TRUE(analyzed.ok()) << analyzed.status().ToString();
  std::string text;
  for (const auto& row : analyzed->rows) text += row[0].str();
  if (physical) {
    EXPECT_NE(text.find("strip_cols=0+4"), std::string::npos) << text;
  } else {
    EXPECT_NE(text.find("columnar_hits="), std::string::npos) << text;
    EXPECT_EQ(text.find("columnar_hits=0"), std::string::npos) << text;
  }
  // The updates landed: the last round's row reads back consistently.
  Result<engine::QueryResult> last =
      db.Query("SELECT a, b, c FROM t WHERE id = " +
               std::to_string((19 * 97) % kRows));
  ASSERT_TRUE(last.ok()) << last.status().ToString();
  ASSERT_EQ(last->rows.size(), 1u);
  EXPECT_EQ(last->rows[0][0].int_value(), 100019);
  EXPECT_EQ(last->rows[0][1].str(), "s100019");
}

TEST(ConcurrencyStressTest, StripServedReadsDuringUpdatesAndReshred) {
  StripServedReadsDuringUpdatesAndReshred(/*physical=*/false);
}

TEST(ConcurrencyStressTest, PhysicalStripFiltersDuringUpdatesAndReshred) {
  StripServedReadsDuringUpdatesAndReshred(/*physical=*/true);
}

TEST(ConcurrencyStressTest, UpdatesWhileColumnsAreAdded) {
  // The rewriter and the materializer add columns without excluding
  // queries. An UPDATE writes each row under one exclusive latch
  // acquisition, decoding and re-encoding it against the schema of that
  // moment, so a column added while rows are being written must neither
  // fail the statement nor leave it half applied. The adder adds a column
  // whenever it sees rows written since its last add: it lands among the
  // UPDATE's writes, not in the gap between planning and scanning (where
  // the statement would replan before writing anything).
  constexpr int kRows = 8000;
  constexpr int kUpdates = 12;
  std::ostringstream jsonl;
  for (int i = 0; i < kRows; ++i) {
    jsonl << "{\"id\": " << i << ", \"a\": 0, \"b\": \""
          << (i % 2 == 0 ? "x" : "y") << "\"}\n";
  }
  SinewDb db(StressOptions());
  ASSERT_TRUE(db.LoadJsonLines("t", jsonl.str()).ok());
  Result<engine::Table*> table = db.engine()->catalog()->GetTable("t");
  ASSERT_TRUE(table.ok());

  std::atomic<bool> stop{false};
  std::atomic<int> added{0};
  std::thread adder([&] {
    uint64_t seen = (*table)->MutationVersion();
    for (int i = 0; i < 400 && !stop.load(); ++i) {
      while (!stop.load() && (*table)->MutationVersion() == seen) {
        std::this_thread::yield();
      }
      if (stop.load()) break;
      Status st = (*table)->AddColumn(engine::Column{
          "added_" + std::to_string(i), engine::ColumnType::kInt, false});
      EXPECT_TRUE(st.ok()) << st.ToString();
      added.fetch_add(1);
      seen = (*table)->MutationVersion();
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  });
  for (int round = 0; round < kUpdates; ++round) {
    Result<engine::QueryResult> updated =
        db.Query("UPDATE t SET a = a + 1 WHERE b = 'x'");
    ASSERT_TRUE(updated.ok()) << "round " << round << ": "
                              << updated.status().ToString();
    EXPECT_EQ(updated->rows[0][0].int_value(), kRows / 2) << round;
  }
  stop.store(true);
  adder.join();
  EXPECT_GT(added.load(), 0);

  Result<engine::QueryResult> r = db.Query(
      "SELECT b, MIN(a), MAX(a), COUNT(*) FROM t GROUP BY b ORDER BY b");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->rows.size(), 2u);
  EXPECT_EQ(r->rows[0][0].str(), "x");
  EXPECT_EQ(r->rows[0][1].int_value(), kUpdates);
  EXPECT_EQ(r->rows[0][2].int_value(), kUpdates);
  EXPECT_EQ(r->rows[0][3].int_value(), kRows / 2);
  EXPECT_EQ(r->rows[1][0].str(), "y");
  EXPECT_EQ(r->rows[1][1].int_value(), 0);
  EXPECT_EQ(r->rows[1][2].int_value(), 0);
  EXPECT_EQ(r->rows[1][3].int_value(), kRows / 2);
}

/// A text value longer than std::string's inline capacity; group `g` of
/// row `id` is id % 10, and `upper` flips its case (same length).
std::string GroupText(int id, bool upper) {
  return std::string(upper ? "VALUE-FOR-GROUP-" : "value-for-group-") +
         std::to_string(id % 10);
}

/// Reader invariants over a table whose rows hold `s` = GroupText(id, *):
/// an equality filter returns only rows of its group holding that exact
/// text, and a LIKE on the case-free suffix always counts the whole group.
/// The scan compares both as views into the row bytes under its latch, so
/// a view outliving the latch reads freed or rewritten bytes.
void CheckTextFilters(SinewDb* db, int rows, int salt,
                      std::atomic<int>* failures) {
  const int group = salt % 10;
  const std::string want = GroupText(group, false);
  Result<engine::QueryResult> eq =
      db->Query("SELECT id, s FROM t WHERE s = '" + want + "'");
  Result<engine::QueryResult> like = db->Query(
      "SELECT COUNT(*) FROM t WHERE s LIKE '%-" + std::to_string(group) +
      "'");
  if (!eq.ok() || !like.ok()) {
    ADD_FAILURE() << (eq.ok() ? like.status() : eq.status()).ToString();
    failures->fetch_add(1);
    return;
  }
  for (const auto& row : eq->rows) {
    if (row[1].str() != want || row[0].int_value() % 10 != group) {
      ADD_FAILURE() << "s = '" << want << "' returned id="
                    << row[0].ToString() << " s=" << row[1].ToString();
      failures->fetch_add(1);
      return;
    }
  }
  if (like->rows[0][0].int_value() != rows / 10) {
    ADD_FAILURE() << "LIKE counted " << like->rows[0][0].ToString()
                  << " rows of group " << group << ", want " << rows / 10;
    failures->fetch_add(1);
  }
}

TEST(ConcurrencyStressTest, TextViewFiltersDuringUpdates) {
  // A physical TEXT column filtered while a writer rewrites its rows: each
  // UPDATE replaces a row's bytes under the exclusive latch, freeing the
  // ones a scan chunk's text views pointed into.
  constexpr int kRows = 3000;
  SinewDb db(StressOptions());
  ASSERT_TRUE(db.Query("CREATE TABLE t (id INT, s TEXT)").ok());
  std::string insert = "INSERT INTO t VALUES ";
  for (int i = 0; i < kRows; ++i) {
    insert += (i == 0 ? "(" : ", (") + std::to_string(i) + ", '" +
              GroupText(i, false) + "')";
  }
  ASSERT_TRUE(db.Query(insert).ok());

  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};
  auto reader = [&](int salt) {
    for (int i = 0; (!stop.load() || i < 4) && i < 80; ++i) {
      CheckTextFilters(&db, kRows, salt + i, &failures);
      if (failures.load() != 0) return;
    }
  };
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) readers.emplace_back(reader, t);
  for (int round = 0; round < 40; ++round) {
    const int group = round % 10;
    Result<engine::QueryResult> updated = db.Query(
        "UPDATE t SET s = '" + GroupText(group, round % 20 < 10) +
        "' WHERE id % 10 = " + std::to_string(group));
    ASSERT_TRUE(updated.ok()) << updated.status().ToString();
    EXPECT_EQ(updated->rows[0][0].int_value(), kRows / 10);
    std::this_thread::yield();
  }
  stop.store(true);
  for (std::thread& t : readers) t.join();
  EXPECT_EQ(failures.load(), 0);
}

TEST(ConcurrencyStressTest, TextViewFiltersDuringMaterializerMoves) {
  // The same filters while the materializer moves `s` out of the reservoir
  // into its own column row by row: mid-promotion a row holds its text in
  // one place or the other, and the scan reads whichever, as a view.
  constexpr int kRows = 3000;
  std::ostringstream jsonl;
  for (int i = 0; i < kRows; ++i) {
    jsonl << "{\"id\": " << i << ", \"s\": \"" << GroupText(i, i % 3 == 0)
          << "\"}\n";
  }
  SinewDb db(StressOptions());
  ASSERT_TRUE(db.LoadJsonLines("t", jsonl.str()).ok());
  ASSERT_TRUE(db.AnalyzeSchema("t").ok());

  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};
  auto reader = [&](int salt) {
    for (int i = 0; (!stop.load() || i < 4) && i < 80; ++i) {
      CheckTextFilters(&db, kRows, salt + i, &failures);
      if (failures.load() != 0) return;
    }
  };
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) readers.emplace_back(reader, t);
  while (true) {
    Result<uint64_t> examined = db.MaterializeStep("t", 64);
    ASSERT_TRUE(examined.ok()) << examined.status().ToString();
    if (*examined == 0) break;
    std::this_thread::yield();
  }
  stop.store(true);
  for (std::thread& t : readers) t.join();
  EXPECT_EQ(failures.load(), 0);
}

TEST(ConcurrencyStressTest, CachedPlanHitsWhileMaterializerFlipsStates) {
  // Readers run one statement shape with varying literals, so they share
  // one cached plan, while the materializer flips `v` between reservoir
  // and column: each flip (materialized, dirty, clean, dematerialized)
  // invalidates the entry, and a reader either re-plans or runs the shared
  // plan, whose answer must stay exact. Readers do not wait for a flip to
  // be seen before rows move: a query planned before it aborts with
  // "replan" at the first chunk after the materializer's first move
  // (Table::RaiseMoveEpoch) and runs again, so it never counts a value
  // that left the one place its plan reads.
  constexpr int kRows = 1000;
  constexpr int kGroups = 20;
  constexpr int kReaders = 3;
  std::ostringstream jsonl;
  for (int i = 0; i < kRows; ++i) {
    jsonl << "{\"id\": " << i << ", \"v\": " << i % kGroups << "}\n";
  }
  SinewDb db(StressOptions());
  ASSERT_TRUE(db.LoadJsonLines("t", jsonl.str()).ok());

  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};
  auto reader = [&](int salt) {
    for (int i = 0; !stop.load() && failures.load() == 0 && i < 2000; ++i) {
      // A pause between queries leaves the materializer's exclusive row
      // latches a gap: back-to-back readers can starve it.
      std::this_thread::sleep_for(std::chrono::microseconds(200));
      const int group = (salt * 7 + i) % kGroups;
      const std::string sql = "SELECT COUNT(*) FROM t WHERE v = " +
                              std::to_string(group) + " AND id >= 0";
      Result<engine::QueryResult> r = db.Query(sql);
      if (!r.ok()) {
        ADD_FAILURE() << sql << " -> " << r.status().ToString();
        failures.fetch_add(1);
        return;
      }
      if (r->rows.size() != 1 || r->rows[0][0].int_value() != kRows / kGroups) {
        ADD_FAILURE() << sql << " counted " << r->rows[0][0].ToString();
        failures.fetch_add(1);
        return;
      }
    }
  };
  const uint64_t hits_before =
      metrics::GetCounter("plan_cache.hits")->value();
  std::vector<std::thread> readers;
  for (int t = 0; t < kReaders; ++t) readers.emplace_back(reader, t);
  for (int flip = 0; flip < 4 && failures.load() == 0; ++flip) {
    ASSERT_TRUE(db.ForceMaterialization("t", "v", flip % 2 == 0).ok());
    while (true) {
      Result<uint64_t> examined = db.MaterializeStep("t", 128);
      ASSERT_TRUE(examined.ok()) << examined.status().ToString();
      if (*examined == 0) break;
      std::this_thread::yield();
    }
    // Let the readers run some queries over the settled state.
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  stop.store(true);
  for (std::thread& t : readers) t.join();
  EXPECT_EQ(failures.load(), 0);
#if !defined(SINEW_METRICS_DISABLED)
  EXPECT_GT(metrics::GetCounter("plan_cache.hits")->value(), hits_before);
#endif
}

/// Rows {id, a: 1000 + id, b: "old", c: 0}, with `a` in its column when
/// `a_in_column`, else in the reservoir. `move_then(x)` returns x; its first
/// call moves `a` to the other place for every row. An UPDATE whose SET
/// calls it computes its values when it finds the rows, so the move lands
/// after the find's scan has read them and before the patch writes them.
class MoveBetweenFindAndPatch {
 public:
  static constexpr int kRows = 300;

  explicit MoveBetweenFindAndPatch(bool a_in_column) : db_(Options()) {
    std::ostringstream jsonl;
    for (int i = 0; i < kRows; ++i) {
      jsonl << "{\"id\": " << i << ", \"a\": " << 1000 + i
            << ", \"b\": \"old\", \"c\": 0}\n";
    }
    EXPECT_TRUE(db_.LoadJsonLines("t", jsonl.str()).ok());
    if (a_in_column) {
      EXPECT_TRUE(db_.ForceMaterialization("t", "a", true).ok());
      EXPECT_TRUE(db_.MaterializeAll("t").ok());
    }
    db_.engine()->udfs()->Register(
        "move_then",
        [this, a_in_column](
            const engine::UdfArgs& args) -> Result<engine::Datum> {
          if (calls_.fetch_add(1) == 0) {
            moved_ = db_.ForceMaterialization("t", "a", !a_in_column);
            if (moved_.ok()) moved_ = db_.MaterializeAll("t");
          }
          return *args[0];
        });
  }

  /// Runs `update`, which must update rows id < 100, and checks that the
  /// move happened inside it and that every row keeps its `a`.
  void Update(const std::string& update) {
    Result<engine::QueryResult> updated = db_.Query(update);
    ASSERT_TRUE(updated.ok()) << updated.status().ToString();
    ASSERT_TRUE(moved_.ok()) << moved_.ToString();
    ASSERT_GT(calls_.load(), 0);
    EXPECT_EQ(updated->rows[0][0].int_value(), 100) << update;
    Result<engine::QueryResult> rows = db_.Query("SELECT id, a FROM t");
    ASSERT_TRUE(rows.ok()) << rows.status().ToString();
    ASSERT_EQ(rows->rows.size(), static_cast<size_t>(kRows));
    for (const auto& row : rows->rows) {
      EXPECT_EQ(row[1].ToString(), std::to_string(1000 + row[0].int_value()))
          << "id " << row[0].int_value();
    }
  }

  /// `column` of every row, as "id=value" lines in id order.
  std::string Column(const std::string& column) {
    Result<engine::QueryResult> rows =
        db_.Query("SELECT id, " + column + " FROM t ORDER BY id");
    EXPECT_TRUE(rows.ok()) << rows.status().ToString();
    std::string out;
    if (!rows.ok()) return out;
    for (const auto& row : rows->rows) {
      out += row[0].ToString() + "=" + row[1].ToString() + "\n";
    }
    return out;
  }

 private:
  static SinewOptions Options() {
    SinewOptions options;
    options.parallelism = 1;
    return options;
  }

  SinewDb db_;
  std::atomic<int> calls_{0};
  Status moved_ = Status::OK();
};

std::string Expected(const std::function<std::string(int)>& value) {
  std::string out;
  for (int id = 0; id < MoveBetweenFindAndPatch::kRows; ++id) {
    out += std::to_string(id) + "=" + value(id) + "\n";
  }
  return out;
}

TEST(ConcurrencyStressTest, MaterializerMoveBetweenFindAndPatch) {
  // The materializer dematerializes `a` (column -> reservoir) between the
  // find and the patch. The patch must not write the reservoir image it
  // computed before the move, which lacks `a`: the moved rows are updated
  // again from what they hold now, so `a` survives.
  MoveBetweenFindAndPatch t(/*a_in_column=*/true);
  t.Update("UPDATE t SET b = move_then('new') WHERE id < 100");
  EXPECT_EQ(t.Column("b"), Expected([](int id) {
              return std::string(id < 100 ? "new" : "old");
            }));
}

TEST(ConcurrencyStressTest, MaterializerMoveUnderWhereOnMovedAttribute) {
  // The WHERE reads the attribute that moves. The moved rows are updated by
  // a WHERE rewritten for where `a` is now: one rewritten for where it was
  // reads NULL there and leaves them out.
  for (bool a_in_column : {true, false}) {
    SCOPED_TRACE(a_in_column ? "column -> reservoir" : "reservoir -> column");
    MoveBetweenFindAndPatch t(a_in_column);
    t.Update("UPDATE t SET b = move_then('new') WHERE a < 1100");
    EXPECT_EQ(t.Column("b"), Expected([](int id) {
                return std::string(id < 100 ? "new" : "old");
              }));
  }
}

TEST(ConcurrencyStressTest, MaterializerMoveUnderSetFromMovedAttribute) {
  // The SET computes from the attribute that moves: the moved rows get
  // a + 1 read from where `a` is now, not NULL from where it was.
  for (bool a_in_column : {true, false}) {
    SCOPED_TRACE(a_in_column ? "column -> reservoir" : "reservoir -> column");
    MoveBetweenFindAndPatch t(a_in_column);
    t.Update("UPDATE t SET c = move_then(a + 1) WHERE id < 100");
    EXPECT_EQ(t.Column("c"), Expected([](int id) {
                return std::to_string(id < 100 ? 1001 + id : 0);
              }));
  }
}

}  // namespace
}  // namespace sinew
