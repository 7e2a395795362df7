// Bytecode differential tests: every query must return the same multiset
// of rows (and surface the same errors) as the scalar oracle
// (tests/scalar_oracle.h), which evaluates the rewritten statement with
// scalar EvalExpr row by row and no executor at all; shapes beyond the
// oracle's reach diff the configurations against each other. Every
// configuration runs the compiled bytecode VM, the only batch evaluator, at
// batch sizes 1/3/256/1024, serially and under Gather. The corpus is the
// NoBench generator's and the query set is every NoBench task shape plus
// targeted shapes where a compiled evaluator classically drifts from an
// interpreter: Kleene AND/OR over NULL-producing sparse attributes,
// short-circuit regions guarding runtime errors (the right side of a decided
// AND must never fire), BETWEEN / IS NULL / IN forms and their NOT
// variants, CASE, COALESCE and computed-item IN lists (lane-narrowing fork
// chains whose arms must run only where the scalar evaluator runs them),
// typed-kernel edge values, and error queries whose message text must match
// exactly.
//
// Batch size 3 is adversarial (every morsel ends in a partial batch), 256 is
// the production default, 1024 oversized and 1 makes one-row batches.
// SINEW_DIFF_PARALLELISM overrides the Gather degree (default 4); CMake
// registers the suite a second time at degree 2. Under SINEW_SANITIZE=thread
// the suite doubles as a race detector for the shared Program attached to
// the plan node.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "common/metrics.h"
#include "common/value.h"
#include "cached_rerun.h"
#include "scalar_oracle.h"
#include "typed_scan_corpus.h"
#include "sinew/sinew_db.h"
#include "workloads/nobench/generator.h"
#include "workloads/nobench/runners.h"

namespace sinew {
namespace {

namespace nb = workloads::nobench;

int ParallelDegree() {
  if (const char* env = std::getenv("SINEW_DIFF_PARALLELISM")) {
    int parsed = std::atoi(env);
    if (parsed > 1) return parsed;
  }
  return 4;
}

/// Poison corpus for the typed kernels: documents whose attributes defeat
/// every per-batch monomorphism proof the VM can attempt.
///   v   — flips int -> double -> string on consecutive rows, so every batch
///         (even size 3) is multi-typed and must stay boxed;
///   d   — monomorphic double salted with NaN, -0.0 and +0.0, the values
///         where an IEEE-== kernel would drift from SQL comparison;
///   big — monomorphic int holding INT64_MIN / INT64_MAX among ordinary
///         values (compared only: arithmetic that leaves int64 fails with
///         "integer out of range", pinned by fold_differential_test);
///   k   — a small clean int domain for BETWEEN shapes.
std::vector<Value> MakePoisonDocs(int n) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  std::vector<Value> docs;
  docs.reserve(n);
  for (int i = 0; i < n; ++i) {
    Value v = i % 3 == 0   ? Value::Int(i)
              : i % 3 == 1 ? Value::Double(i + 0.5)
                           : Value::String("s" + std::to_string(i % 7));
    Value d = i % 7 == 0   ? Value::Double(nan)
              : i % 7 == 1 ? Value::Double(-0.0)
              : i % 7 == 2 ? Value::Double(0.0)
                           : Value::Double((i - 80) + 0.25);
    Value big = i % 5 == 0
                    ? Value::Int(std::numeric_limits<int64_t>::min())
                : i % 5 == 1 ? Value::Int(std::numeric_limits<int64_t>::max())
                             : Value::Int((i - 80) * int64_t{1000001});
    docs.push_back(Value::Object({{"id", Value::Int(i)},
                                  {"v", std::move(v)},
                                  {"d", std::move(d)},
                                  {"big", std::move(big)},
                                  {"k", Value::Int(i % 10)}}));
  }
  return docs;
}

/// Canonical row text: "name=value" pairs sorted by column name, NULLs
/// dropped — insensitive to row and column order. Doubles rounded to 9
/// significant digits.
std::string CanonicalRow(const engine::QueryResult& result,
                         const engine::ResultRows::Row& row) {
  std::vector<std::string> parts;
  for (size_t i = 0; i < row.size(); ++i) {
    const engine::Datum& d = row[i];
    if (d.is_null()) continue;
    std::string value;
    if (d.is_double()) {
      char buf[64];
      std::snprintf(buf, sizeof(buf), "%.9g", d.double_value());
      value = buf;
    } else {
      value = d.ToString();
    }
    parts.push_back(result.column_names[i] + "=" + value);
  }
  std::sort(parts.begin(), parts.end());
  std::string out;
  for (const std::string& p : parts) {
    out += p;
    out += '|';
  }
  return out;
}

std::vector<std::string> CanonicalRows(const engine::QueryResult& result) {
  std::vector<std::string> rows;
  rows.reserve(result.rows.size());
  for (const auto& row : result.rows) {
    rows.push_back(CanonicalRow(result, row));
  }
  std::sort(rows.begin(), rows.end());
  return rows;
}

std::vector<std::string> RenderValues(const std::vector<Value>& rows) {
  std::vector<std::string> out;
  out.reserve(rows.size());
  for (const Value& v : rows) out.push_back(v.ToJson());
  return out;
}

class BytecodeDifferentialTest : public ::testing::Test {
 protected:
  static constexpr uint64_t kRecords = 2000;
  static constexpr size_t kBatch256Serial = 2;  // index into configs_

  struct NamedRunner {
    std::string label;
    size_t batch_size = 1;
    int parallelism = 1;
    nb::SinewRunner* runner = nullptr;
  };

  static void SetUpTestSuite() {
    nb::Config config;
    config.num_records = kRecords;
    config.seed = 20140622;  // deterministic corpus, same as the batch suite
    docs_ = new std::vector<Value>(nb::Generate(config));
    params_ = new nb::QueryParams(nb::MakeQueryParams(config));

    const int deg = ParallelDegree();
    configs_ = new std::vector<NamedRunner>{
        // Index 0 answers LIMIT, the one shape outside the oracle.
        {"batch1-serial", 1, 1},
        {"batch3-serial", 3, 1},
        {"batch256-serial", 256, 1},
        {"batch1024-serial", 1024, 1},
        {"batch1-parallel", 1, deg},
        {"batch3-parallel", 3, deg},
        {"batch256-parallel", 256, deg},
    };
    const std::vector<Value> poison = MakePoisonDocs(160);
    for (NamedRunner& c : *configs_) {
      SinewOptions options;
      options.parallelism = c.parallelism;
      options.planner.parallel_min_rows = 1;  // force Gather at test scale
      options.exec.batch_size = c.batch_size;
      c.runner = new nb::SinewRunner(options);
      ASSERT_TRUE(c.runner->Load(*docs_).ok()) << c.label;
      auto loaded = c.runner->db()->LoadDocuments("poison", poison);
      ASSERT_TRUE(loaded.ok()) << c.label << ": "
                               << loaded.status().ToString();
      ASSERT_TRUE(c.runner->Prepare().ok()) << c.label;
    }
  }

  static void TearDownTestSuite() {
    for (NamedRunner& c : *configs_) delete c.runner;
    delete configs_;
    configs_ = nullptr;
    delete params_;
    params_ = nullptr;
    delete docs_;
    docs_ = nullptr;
  }

  /// The reference answer, asked of configuration 0's database.
  static Result<engine::QueryResult> Golden(const std::string& sql) {
    return oracle::GoldenQuery((*configs_)[0].runner->db(), sql);
  }

  /// Asserts every configuration returns the golden multiset.
  /// Each statement runs twice, the second time with other literals
  /// through the plan cache (tests/cached_rerun.h). Other literals may
  /// reach the rows a guard kept from an error (`num < 1 AND 1 / 0 = 1`):
  /// a rerun the golden fails must fail alike everywhere.
  void ExpectSameAcrossConfigs(const std::string& sql) {
    for (const oracle::CachedRun& run : oracle::CachedRuns(sql)) {
      SCOPED_TRACE(run.sql);
      Result<engine::QueryResult> golden = Golden(run.sql);
      ASSERT_TRUE(golden.ok() || run.rerun) << golden.status().ToString();
      for (NamedRunner& c : *configs_) {
        Result<engine::QueryResult> got = run.Query(c.runner->db());
        if (!golden.ok()) {
          ASSERT_FALSE(got.ok()) << c.label << " unexpectedly succeeded";
          EXPECT_EQ(got.status().ToString(), golden.status().ToString())
              << c.label << " drifted";
          continue;
        }
        ASSERT_TRUE(got.ok()) << c.label << ": " << got.status().ToString();
        EXPECT_EQ(CanonicalRows(*got), CanonicalRows(*golden))
            << c.label << " drifted";
      }
    }
  }

  /// Asserts every configuration fails the query with the golden's status
  /// text. (The permitted deviation from the scalar evaluator is only *which
  /// lane's* error surfaces first; these queries error identically on every
  /// lane.)
  void ExpectSameErrorAcrossConfigs(const std::string& sql) {
    SCOPED_TRACE(sql);
    Result<engine::QueryResult> golden = Golden(sql);
    ASSERT_FALSE(golden.ok()) << "golden unexpectedly succeeded";
    for (NamedRunner& c : *configs_) {
      // Twice: the second run fails the same way from the cached plan.
      for (int run = 0; run < 2; ++run) {
        Result<engine::QueryResult> got = c.runner->db()->Query(sql);
        ASSERT_FALSE(got.ok()) << c.label << " unexpectedly succeeded";
        EXPECT_EQ(got.status().ToString(), golden.status().ToString())
            << c.label << " drifted";
      }
    }
  }

  static std::vector<Value>* docs_;
  static nb::QueryParams* params_;
  static std::vector<NamedRunner>* configs_;
};

std::vector<Value>* BytecodeDifferentialTest::docs_ = nullptr;
nb::QueryParams* BytecodeDifferentialTest::params_ = nullptr;
std::vector<BytecodeDifferentialTest::NamedRunner>*
    BytecodeDifferentialTest::configs_ = nullptr;

TEST_F(BytecodeDifferentialTest, AllNoBenchQueryShapes) {
  // Q12 is the random-update task; it mutates the table, so the differential
  // stops at Q11 to keep every configuration's data identical.
  for (int q = 1; q < nb::kNumTasks; ++q) {
    SCOPED_TRACE("Q" + std::to_string(q));
    Result<std::vector<Value>> golden =
        (*configs_)[0].runner->Run(q, *params_);
    ASSERT_TRUE(golden.ok()) << golden.status().ToString();
    std::vector<std::string> golden_rows = RenderValues(*golden);
    for (size_t i = 1; i < configs_->size(); ++i) {
      NamedRunner& c = (*configs_)[i];
      Result<std::vector<Value>> got = c.runner->Run(q, *params_);
      ASSERT_TRUE(got.ok()) << c.label << ": " << got.status().ToString();
      EXPECT_EQ(RenderValues(*got), golden_rows) << c.label << " drifted";
    }
  }
}

TEST_F(BytecodeDifferentialTest, FusedComparisonShapes) {
  // The colref-cmp-literal forms the typed kernels serve — both operand
  // orders (the compiler flips `lit cmp col`), every comparison op, and
  // string comparison.
  ExpectSameAcrossConfigs("SELECT num AS n FROM nobench_main WHERE num < 40");
  ExpectSameAcrossConfigs("SELECT num AS n FROM nobench_main WHERE 40 > num");
  ExpectSameAcrossConfigs(
      "SELECT num AS n FROM nobench_main WHERE num >= 1990");
  ExpectSameAcrossConfigs(
      "SELECT thousandth AS t FROM nobench_main WHERE thousandth = 7");
  ExpectSameAcrossConfigs(
      "SELECT thousandth AS t FROM nobench_main WHERE thousandth <> 7");
  ExpectSameAcrossConfigs(
      "SELECT str2 AS s FROM nobench_main WHERE str2 <= 'GBRDC'");
}

TEST_F(BytecodeDifferentialTest, FusedBetweenIsNullAndInShapes) {
  ExpectSameAcrossConfigs(
      "SELECT num AS n FROM nobench_main WHERE num BETWEEN 100 AND 140");
  ExpectSameAcrossConfigs(
      "SELECT num AS n FROM nobench_main WHERE num NOT BETWEEN 5 AND 1990");
  // Sparse attributes are absent from ~99% of records, so IS NULL / IS NOT
  // NULL split the corpus unevenly in both directions.
  ExpectSameAcrossConfigs(
      "SELECT num AS n FROM nobench_main WHERE sparse_110 IS NOT NULL");
  ExpectSameAcrossConfigs(
      "SELECT num AS n FROM nobench_main WHERE sparse_110 IS NULL AND "
      "num < 50");
  ExpectSameAcrossConfigs(
      "SELECT num AS n FROM nobench_main WHERE thousandth IN (3, 700, 999)");
  ExpectSameAcrossConfigs(
      "SELECT num AS n FROM nobench_main "
      "WHERE thousandth NOT IN (3, 700, 999) AND num < 60");
}

TEST_F(BytecodeDifferentialTest, KleeneNullLogic) {
  // dyn1 is int/string/bool by distribution and sparse_XXX is NULL on ~99%
  // of rows, so these predicates exercise every row of the Kleene tables:
  // NULL AND TRUE -> NULL (filtered), NULL OR TRUE -> TRUE (kept), and the
  // NOT of each. The fork/join lane partitioning must agree with the
  // scalar evaluator lane for lane.
  ExpectSameAcrossConfigs(
      "SELECT num AS n FROM nobench_main "
      "WHERE sparse_110 = 'GBRDCMJR' OR num < 100");
  ExpectSameAcrossConfigs(
      "SELECT num AS n FROM nobench_main "
      "WHERE sparse_110 = 'GBRDCMJR' AND num >= 0");
  ExpectSameAcrossConfigs(
      "SELECT num AS n FROM nobench_main "
      "WHERE NOT (sparse_110 = 'GBRDCMJR' OR num >= 100)");
  ExpectSameAcrossConfigs(
      "SELECT num AS n FROM nobench_main "
      "WHERE (sparse_110 = 'x' AND sparse_119 = 'y') OR num < 40");
  ExpectSameAcrossConfigs(
      "SELECT num AS n FROM nobench_main "
      "WHERE dyn1 = 5 OR dyn1 = 'five' OR num < 30");
}

TEST_F(BytecodeDifferentialTest, ShortCircuitGuardsRuntimeErrors) {
  // num is non-negative corpus-wide, so the left side decides every lane and
  // the erroring right side must never run — in the bytecode engine the fork
  // leaves no undecided lanes and jumps the whole right-side region.
  ExpectSameAcrossConfigs(
      "SELECT num AS n FROM nobench_main WHERE num < 0 AND 1 / 0 = 1");
  ExpectSameAcrossConfigs(
      "SELECT num AS n FROM nobench_main WHERE num >= 0 OR 1 / 0 = 1");
  // The guard only covers the decided lanes: here the right side fires for
  // num < 3 and is error-free, the rest short-circuit.
  ExpectSameAcrossConfigs(
      "SELECT num AS n FROM nobench_main WHERE num >= 3 OR num * 10 < 25");
}

TEST_F(BytecodeDifferentialTest, ErrorsSurfaceIdentically) {
  // Every lane errors, so the permitted which-lane-first deviation cannot
  // change the surfaced status; message text must match the scalar
  // evaluator's.
  ExpectSameErrorAcrossConfigs(
      "SELECT num / 0 AS x FROM nobench_main WHERE num < 10");
  ExpectSameErrorAcrossConfigs(
      "SELECT num AS n FROM nobench_main WHERE num % 0 = 1");
  // Non-boolean predicate: same type error from both engines.
  ExpectSameErrorAcrossConfigs(
      "SELECT num AS n FROM nobench_main WHERE num + 1");
  // Type error on the right side of an undecided AND (str1 is a string, so
  // `str1 AND ...` lanes are undecided non-bools).
  ExpectSameErrorAcrossConfigs(
      "SELECT num AS n FROM nobench_main WHERE num >= 0 AND num + 2");
}

TEST_F(BytecodeDifferentialTest, FallbackShapesStayExact) {
  // CASE, coalesce and UDF calls over computed arguments compile to
  // fork/join regions and register operands; results must be bit-identical.
  ExpectSameAcrossConfigs(
      "SELECT CASE WHEN num < 1000 THEN 'lo' ELSE 'hi' END AS bucket, "
      "num AS n FROM nobench_main WHERE num < 300");
  ExpectSameAcrossConfigs(
      "SELECT num AS n FROM nobench_main "
      "WHERE CASE WHEN thousandth < 500 THEN num < 100 ELSE num < 50 END");
  ExpectSameAcrossConfigs(
      "SELECT coalesce(sparse_110, str2) AS v FROM nobench_main "
      "WHERE num < 200");
  ExpectSameAcrossConfigs(
      "SELECT num AS n FROM nobench_main "
      "WHERE length(str2) + 0 > 4 AND num < 300");
}

TEST_F(BytecodeDifferentialTest, LazyArmsNeverRunOnGuardedRows) {
  // Each arm below would fail on some row; it must run only on the rows
  // where the scalar evaluator evaluates it, which never include those.
  // num = 0 takes the THEN arm, so ELSE never divides by it.
  const std::string guarded =
      "SELECT CASE WHEN num = 0 THEN 0 ELSE 10 / num END AS x, num AS n "
      "FROM nobench_main WHERE num < 50";
  Result<engine::QueryResult> golden = Golden(guarded);
  ASSERT_TRUE(golden.ok()) << golden.status().ToString();
  const std::vector<std::string> rows = CanonicalRows(*golden);
  ASSERT_NE(std::find(rows.begin(), rows.end(), "n=0|x=0|"), rows.end());
  ExpectSameAcrossConfigs(guarded);
  // str1 is never NULL, so COALESCE never reaches its erroring argument.
  ExpectSameAcrossConfigs(
      "SELECT coalesce(str1, num / 0) AS v FROM nobench_main "
      "WHERE num < 100");
  // Every non-NULL probe matches its first item.
  ExpectSameAcrossConfigs(
      "SELECT num AS n FROM nobench_main WHERE num IN (num, num / 0)");
  // A NULL probe evaluates no item, IN or NOT IN.
  ExpectSameAcrossConfigs(
      "SELECT sparse_110 NOT IN ('x', num / 0) AS v, num AS n "
      "FROM nobench_main WHERE sparse_110 IS NULL AND num < 300");
  ExpectSameAcrossConfigs(
      "SELECT sparse_110 IN (num / 0) AS v, num AS n "
      "FROM nobench_main WHERE sparse_110 IS NULL AND num < 300");
  // Computed items with every Kleene outcome: match, no match, and a NULL
  // comparison (text against int) without a match.
  ExpectSameAcrossConfigs(
      "SELECT num NOT IN (num + 1, 5) AS v, num IN (num - 1, sparse_110) AS "
      "w, num AS n FROM nobench_main WHERE num < 40");
  // An erroring item that some probes do reach fails as it does row by row.
  ExpectSameErrorAcrossConfigs(
      "SELECT num AS n FROM nobench_main WHERE num IN (7, num / 0)");
}

TEST_F(BytecodeDifferentialTest, ComputedUdfArgumentsAndWideInLists) {
  // UDF arguments computed by other instructions, nested calls included.
  ExpectSameAcrossConfigs(
      "SELECT length(str1 || str2) AS l, upper(lower(str2) || 'x') AS u, "
      "abs(num - 1000) AS a FROM nobench_main WHERE num < 300");
  ExpectSameAcrossConfigs(
      "SELECT num AS n FROM nobench_main "
      "WHERE length(substr(str1, 1, num % 5)) = 3");
  // 5,000 distinct literals: past any fixed literal pool width.
  std::string list;
  for (int i = 0; i < 5000; ++i) {
    list += (i == 0 ? "" : ", ") + std::to_string(i * 3);
  }
  ExpectSameAcrossConfigs("SELECT num AS n FROM nobench_main WHERE num IN (" +
                          list + ")");
  ExpectSameAcrossConfigs(
      "SELECT num AS n FROM nobench_main WHERE num NOT IN (" + list +
      ") AND num < 500");
}

TEST_F(BytecodeDifferentialTest, LiteralInListsMatchComparingEveryItem) {
  // A literal list probes a hashed set; its verdicts must be the
  // item-by-item comparison's: int/double cross-equality, the NULL-item
  // rule, incomparable kinds, and probes that are columns (typed) or
  // computed (boxed).
  for (const std::string& list :
       {std::string("7.0, 12, 300.0"), std::string("7, NULL"),
        std::string("NULL"), std::string("'x', 12"), std::string("2.5"),
        std::string("TRUE, 12")}) {
    ExpectSameAcrossConfigs("SELECT num IN (" + list + ") AS v, num NOT IN (" +
                            list + ") AS w, num AS n FROM nobench_main "
                            "WHERE num < 400");
    ExpectSameAcrossConfigs("SELECT num / 2.0 IN (" + list +
                            ") AS v, num AS n FROM nobench_main "
                            "WHERE num < 400");
  }
  ExpectSameAcrossConfigs("SELECT num AS n FROM nobench_main WHERE str1 IN ('" +
                          params_->q5_str1 + "', 'nope', 3)");
  ExpectSameAcrossConfigs("SELECT num AS n FROM nobench_main WHERE str1 NOT IN "
                          "('" + params_->q5_str1 + "', NULL)");
  ExpectSameAcrossConfigs(
      "SELECT num AS n, bool IN (TRUE) AS b, sparse_110 IN ('a', NULL) AS s "
      "FROM nobench_main WHERE num < 2000");
}

TEST_F(BytecodeDifferentialTest, UnknownFunctionFailsOnlyOverRows) {
  // An unknown function compiles to one instruction that fails with the
  // scalar evaluator's status when it runs over rows, and not at all when
  // there are none.
  for (NamedRunner& c : *configs_) {
    engine::Database* db = c.runner->db()->engine();
    if (!db->catalog()->GetTable("empty_t").ok()) {
      ASSERT_TRUE(db->Execute("CREATE TABLE empty_t (a INT)").ok()) << c.label;
    }
  }
  ExpectSameAcrossConfigs("SELECT no_such_fn(a) AS x FROM empty_t");
  ExpectSameAcrossConfigs(
      "SELECT no_such_fn(num) AS x FROM nobench_main WHERE num < 0");
  ExpectSameErrorAcrossConfigs(
      "SELECT no_such_fn(num) AS x FROM nobench_main");
  ExpectSameErrorAcrossConfigs(
      "SELECT num AS n FROM nobench_main WHERE no_such_fn(num) = 1");
}

TEST_F(BytecodeDifferentialTest, ProjectionShapes) {
  // Arithmetic / concat / mixed projections over the batch path, including
  // expressions whose program shares interned literals.
  ExpectSameAcrossConfigs(
      "SELECT num + 1 AS a, num * 2 AS b, num - num AS z "
      "FROM nobench_main WHERE num < 500");
  ExpectSameAcrossConfigs(
      "SELECT str2 || '-' || str2 AS s FROM nobench_main WHERE num < 100");
  ExpectSameAcrossConfigs(
      "SELECT num + 10 AS a, thousandth + 10 AS b FROM nobench_main "
      "WHERE num < 100");
  ExpectSameAcrossConfigs(
      "SELECT -num AS neg, NOT (num < 1000) AS flip FROM nobench_main "
      "WHERE num < 2000");
}

TEST_F(BytecodeDifferentialTest, ExtractionChainsUnderBytecode) {
  // Virtual-attribute access routed through extraction (scan-produced
  // columns feeding compiled colref comparisons, or — with deep paths — UDF
  // chains): the dominant Sinew shape the typed kernels exist for.
  ExpectSameAcrossConfigs(
      "SELECT \"nested_obj.num\" AS nn FROM nobench_main "
      "WHERE \"nested_obj.num\" BETWEEN 10 AND 300");
  ExpectSameAcrossConfigs(
      "SELECT \"nested_obj.str\" AS ns, num AS n FROM nobench_main "
      "WHERE \"nested_obj.str\" = str1");
  ExpectSameAcrossConfigs(
      "SELECT sparse_110 AS a, sparse_119 AS b FROM nobench_main "
      "WHERE sparse_110 IS NOT NULL OR sparse_220 IS NOT NULL");
}

TEST_F(BytecodeDifferentialTest, PoisonMixedTypeColumnsStayExact) {
  // `v` changes Datum kind on consecutive rows, so no batch is ever
  // monomorphic: the typed profile must classify it kMixed and the boxed
  // loops must produce the scalar evaluator's exact Kleene/comparability
  // verdicts (string lanes compare NULL against numeric literals and are
  // filtered).
  ExpectSameAcrossConfigs("SELECT id AS i FROM poison WHERE v < 100");
  ExpectSameAcrossConfigs("SELECT id AS i FROM poison WHERE v = 33");
  ExpectSameAcrossConfigs(
      "SELECT id AS i FROM poison WHERE v BETWEEN 10 AND 40");
  ExpectSameAcrossConfigs("SELECT id AS i FROM poison WHERE v IS NOT NULL");
  ExpectSameAcrossConfigs(
      "SELECT v AS x, id AS i FROM poison WHERE id < 50");
  ExpectSameAcrossConfigs(
      "SELECT id AS i FROM poison WHERE v = 's3' OR v < 10");
}

TEST_F(BytecodeDifferentialTest, PoisonDoubleEdgeValuesStayExact) {
  // `d` is monomorphic double, so the typed kernels DO run — over lanes
  // holding NaN, -0.0 and +0.0. SQL comparison treats NaN as equal to
  // everything and -0.0 == +0.0, so `d = 0` keeps the NaN and both zero
  // lanes, and BETWEEN keeps NaN (both bound checks "tie"). A kernel built
  // on IEEE == / < would drift here; these pin it against the oracle.
  ExpectSameAcrossConfigs("SELECT id AS i FROM poison WHERE d = 0");
  ExpectSameAcrossConfigs("SELECT id AS i FROM poison WHERE d < 1.5");
  ExpectSameAcrossConfigs("SELECT id AS i FROM poison WHERE d >= 0");
  ExpectSameAcrossConfigs(
      "SELECT id AS i FROM poison WHERE d BETWEEN -0.5 AND 0.5");
  ExpectSameAcrossConfigs(
      "SELECT id AS i FROM poison WHERE d NOT BETWEEN -0.5 AND 0.5");
  // Int column vs double literal promotes per-lane; double col vs int lit
  // promotes the literal. Both cross-domain col-cmp-literal forms.
  ExpectSameAcrossConfigs("SELECT id AS i FROM poison WHERE k < 4.5");
  ExpectSameAcrossConfigs("SELECT id AS i FROM poison WHERE d < 1");
  // NaN flows through typed arithmetic unchanged.
  ExpectSameAcrossConfigs("SELECT d + 1.0 AS x FROM poison WHERE id < 40");
}

TEST_F(BytecodeDifferentialTest, PoisonInt64ExtremesCompareExact) {
  // INT64_MIN / INT64_MAX lanes in comparison shapes only — arithmetic or
  // negation on them is signed-overflow UB on the scalar evaluator too, so
  // the differential keeps to the comparison domain where behavior is
  // defined. The int64 kernels must compare exactly (no double rounding:
  // 2^63 - 1 is not representable as a double).
  ExpectSameAcrossConfigs("SELECT id AS i FROM poison WHERE big < 0");
  ExpectSameAcrossConfigs(
      "SELECT id AS i FROM poison WHERE big >= 9223372036854775807");
  ExpectSameAcrossConfigs(
      "SELECT id AS i FROM poison WHERE big <= -9223372036854775807");
  ExpectSameAcrossConfigs(
      "SELECT id AS i FROM poison "
      "WHERE big BETWEEN -9223372036854775807 AND 1000");
  ExpectSameAcrossConfigs("SELECT id AS i FROM poison WHERE big <> 0");
  ExpectSameAcrossConfigs(
      "SELECT big AS x FROM poison WHERE id BETWEEN 3 AND 120");
}

TEST_F(BytecodeDifferentialTest, TypedNoBenchShapesMatchScalarOracle) {
  // The monomorphic NoBench shapes where the typed kernels actually fire,
  // pinned against the scalar oracle.
  ExpectSameAcrossConfigs("SELECT num AS n FROM nobench_main WHERE num < 40");
  ExpectSameAcrossConfigs(
      "SELECT num AS n FROM nobench_main WHERE num BETWEEN 100 AND 140");
  ExpectSameAcrossConfigs(
      "SELECT num AS n FROM nobench_main WHERE sparse_110 IS NOT NULL");
  ExpectSameAcrossConfigs(
      "SELECT num + 1 AS a, num * 2 AS b FROM nobench_main WHERE num < 500");
  ExpectSameErrorAcrossConfigs(
      "SELECT num / 0 AS x FROM nobench_main WHERE num < 10");
}

TEST_F(BytecodeDifferentialTest, ScalarOracleAnswersSingleTableShapes) {
  // Guard against the golden silently degrading to configuration 0: the
  // oracle answers a filtered single-table projection itself.
  Result<engine::QueryResult> got = oracle::ScalarOracleQuery(
      (*configs_)[0].runner->db(),
      "SELECT num AS n, str1 AS s FROM nobench_main WHERE num < 100");
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_FALSE(got->rows.empty());
  EXPECT_LT(got->rows.size(), kRecords);
}

#if !defined(SINEW_METRICS_DISABLED)
TEST_F(BytecodeDifferentialTest, TypedLanesCountedOnlyForMonomorphicColumns) {
  // A monomorphic int projection grows eval.typed_lanes; the poison table's
  // kind-flipping `v` can never be proven monomorphic, so its comparison
  // grows eval.boxed_lanes and not eval.typed_lanes.
  metrics::Counter* typed_lanes = metrics::GetCounter("eval.typed_lanes");
  metrics::Counter* boxed_lanes = metrics::GetCounter("eval.boxed_lanes");
  SinewDb* db = (*configs_)[kBatch256Serial].runner->db();
  const uint64_t typed_before = typed_lanes->value();
  ASSERT_TRUE(
      db->Query("SELECT num + 1 AS x FROM nobench_main WHERE num >= 0").ok());
  EXPECT_GT(typed_lanes->value(), typed_before) << "typed lanes uncounted";

  const uint64_t typed_mid = typed_lanes->value();
  const uint64_t boxed_mid = boxed_lanes->value();
  ASSERT_TRUE(db->Query("SELECT id AS i FROM poison WHERE v < 100").ok());
  EXPECT_EQ(typed_lanes->value(), typed_mid) << "mixed column ran typed";
  EXPECT_GT(boxed_lanes->value(), boxed_mid) << "boxed lanes uncounted";
}

TEST_F(BytecodeDifferentialTest, BytecodeConfigsActuallyCompile) {
  // Every configuration compiles its expressions at plan time. The shape
  // is one no other case runs: a plan-cache hit compiles nothing.
  metrics::Counter* programs = metrics::GetCounter("bytecode.programs_total");
  for (NamedRunner& c : *configs_) {
    const uint64_t before = programs->value();
    ASSERT_TRUE(
        c.runner->db()
            ->Query("SELECT num AS compiled FROM nobench_main WHERE num < 10")
            .ok());
    EXPECT_GT(programs->value(), before) << c.label << " never compiled";
  }
}

TEST_F(BytecodeDifferentialTest, CasePredicateRunsOnTypedKernels) {
  // A CASE predicate runs on the VM: its condition over the monomorphic
  // `num` column is a typed comparison, and its arms only copy values, so
  // no specializable lane is left boxed.
  metrics::Counter* typed_lanes = metrics::GetCounter("eval.typed_lanes");
  metrics::Counter* boxed_lanes = metrics::GetCounter("eval.boxed_lanes");
  const uint64_t typed_before = typed_lanes->value();
  const uint64_t boxed_before = boxed_lanes->value();
  ASSERT_TRUE((*configs_)[kBatch256Serial]
                  .runner->db()
                  ->Query("SELECT num AS n FROM nobench_main "
                          "WHERE CASE WHEN num < 500 THEN 1 = 1 "
                          "ELSE 1 = 2 END")
                  .ok());
  EXPECT_GE(typed_lanes->value() - typed_before, kRecords);
  EXPECT_EQ(boxed_lanes->value(), boxed_before);
}
#endif

TEST_F(BytecodeDifferentialTest, TypedScanOverPhysicalColumns) {
  // The scan walks filter columns into typed arrays (text as views) and
  // boxes only survivors. Every physical type and data shape of
  // tests/typed_scan_corpus.h — NULL-heavy and all-NULL batches, short and
  // long text, NaN, -0.0, INT64_MIN, short-arity rows, a dropped middle
  // column, survivors overflowing the batch — through the typed kernels and
  // the boxed paths, against the scalar oracle in every configuration.
  for (NamedRunner& c : *configs_) {
    Status built = typed_scan::Build(c.runner->db()->engine());
    ASSERT_TRUE(built.ok()) << c.label << ": " << built.ToString();
  }
  for (const std::string& sql : typed_scan::Queries()) {
    Result<engine::QueryResult> answer =
        oracle::ScalarOracleQuery((*configs_)[0].runner->db(), sql);
    ASSERT_TRUE(answer.ok()) << sql << ": " << answer.status().ToString();
    ExpectSameAcrossConfigs(sql);
  }
}

}  // namespace
}  // namespace sinew
