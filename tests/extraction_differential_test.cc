// Extraction-equivalence differential tests: every query must return the
// scalar oracle's multiset of rows (tests/scalar_oracle.h; the per-attribute
// configuration's for shapes outside its reach) whether virtual attributes
// are extracted through the batched SinewExtract node (planner hoist +
// DocumentView::ExtractMany, the default) or through one chain-UDF call per
// reference (enable_batched_extraction = false). The corpus is NoBench-shaped:
// multi-typed keys, nested objects, arrays, sparse/absent paths — plus a
// dirty partially-materialized column so the COALESCE(column, extract(...))
// form runs above the batched node.
//
// Each equivalence is checked serially AND under Gather (parallel clones of
// the extraction operator share one plan); SINEW_DIFF_PARALLELISM overrides
// the parallel degree (default 4), and CMake registers the suite a second
// time at degree 2.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "scalar_oracle.h"
#include "sinew/sinew_db.h"
#include "workloads/nobench/generator.h"

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

/// Canonical row text: "name=value" pairs sorted by column name, NULLs
/// dropped — insensitive to row order, column order and (via aliases in the
/// corpus) attribute-id interning order. Doubles rounded to 9 significant
/// digits.
std::string CanonicalRow(const engine::QueryResult& result,
                         const engine::DatumRow& row) {
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
  for (const engine::DatumRow& row : result.rows) {
    rows.push_back(CanonicalRow(result, row));
  }
  std::sort(rows.begin(), rows.end());
  return rows;
}

class ExtractionDifferentialTest : public ::testing::Test {
 protected:
  static constexpr uint64_t kRecords = 2000;
  static constexpr const char* kTable = "docs";

  static void SetUpTestSuite() {
    nb::Config config;
    config.num_records = kRecords;
    config.seed = 20140622;  // deterministic corpus
    docs_ = new std::vector<Value>(nb::Generate(config));
    params_ = new nb::QueryParams(nb::MakeQueryParams(config));

    batched_serial_ = new SinewDb(MakeOptions(1, /*batched=*/true));
    per_attr_serial_ = new SinewDb(MakeOptions(1, /*batched=*/false));
    batched_parallel_ =
        new SinewDb(MakeOptions(ParallelDegree(), /*batched=*/true));
    per_attr_parallel_ =
        new SinewDb(MakeOptions(ParallelDegree(), /*batched=*/false));
    for (SinewDb* db : AllDbs()) {
      ASSERT_TRUE(db->LoadDocuments(kTable, *docs_).ok());
      // Identical physical design everywhere, chosen to exercise the dirty
      // COALESCE path: str1 is partially materialized (a bounded
      // materializer step moves only a prefix of the rows, leaving the
      // attribute dirty), num fully materialized and clean.
      ASSERT_TRUE(db->ForceMaterialization(kTable, "num", true).ok());
      ASSERT_TRUE(db->ForceMaterialization(kTable, "str1", true).ok());
      Result<uint64_t> moved = db->MaterializeStep(kTable, kRecords / 4);
      ASSERT_TRUE(moved.ok()) << moved.status().ToString();
    }
  }

  static void TearDownTestSuite() {
    for (SinewDb* db : AllDbs()) delete db;
    batched_serial_ = per_attr_serial_ = nullptr;
    batched_parallel_ = per_attr_parallel_ = nullptr;
    delete params_;
    delete docs_;
    params_ = nullptr;
    docs_ = nullptr;
  }

  static std::vector<SinewDb*> AllDbs() {
    return {batched_serial_, per_attr_serial_, batched_parallel_,
            per_attr_parallel_};
  }

  static SinewOptions MakeOptions(int parallelism, bool batched) {
    SinewOptions options;
    options.parallelism = parallelism;
    options.planner.enable_batched_extraction = batched;
    // Force parallel plans at test scale.
    options.planner.parallel_min_rows = 1;
    return options;
  }

  /// Asserts the batched and per-attribute paths, serially and under
  /// Gather, all return the golden multiset.
  void ExpectSameResults(const std::string& sql) {
    SCOPED_TRACE(sql);
    Result<engine::QueryResult> golden =
        oracle::GoldenQuery(per_attr_serial_, sql);
    Result<engine::QueryResult> bs = batched_serial_->Query(sql);
    Result<engine::QueryResult> ps = per_attr_serial_->Query(sql);
    Result<engine::QueryResult> bp = batched_parallel_->Query(sql);
    Result<engine::QueryResult> pp = per_attr_parallel_->Query(sql);
    ASSERT_TRUE(golden.ok()) << golden.status().ToString();
    ASSERT_TRUE(bs.ok()) << bs.status().ToString();
    ASSERT_TRUE(ps.ok()) << ps.status().ToString();
    ASSERT_TRUE(bp.ok()) << bp.status().ToString();
    ASSERT_TRUE(pp.ok()) << pp.status().ToString();
    const std::vector<std::string> golden_rows = CanonicalRows(*golden);
    EXPECT_EQ(CanonicalRows(*bs), golden_rows) << "batched, serial";
    EXPECT_EQ(CanonicalRows(*ps), golden_rows) << "per-attr, serial";
    EXPECT_EQ(CanonicalRows(*bp), golden_rows) << "batched, parallel";
    EXPECT_EQ(CanonicalRows(*pp), golden_rows) << "per-attr, parallel";
  }

  static std::vector<Value>* docs_;
  static nb::QueryParams* params_;
  static SinewDb* batched_serial_;
  static SinewDb* per_attr_serial_;
  static SinewDb* batched_parallel_;
  static SinewDb* per_attr_parallel_;
};

std::vector<Value>* ExtractionDifferentialTest::docs_ = nullptr;
nb::QueryParams* ExtractionDifferentialTest::params_ = nullptr;
SinewDb* ExtractionDifferentialTest::batched_serial_ = nullptr;
SinewDb* ExtractionDifferentialTest::per_attr_serial_ = nullptr;
SinewDb* ExtractionDifferentialTest::batched_parallel_ = nullptr;
SinewDb* ExtractionDifferentialTest::per_attr_parallel_ = nullptr;

TEST_F(ExtractionDifferentialTest, ConfigurationsActuallyDiffer) {
  // Guard against comparing the batched path to itself: the batched plan
  // must contain the SinewExtract node, the per-attribute plan must not.
  const char* sql = "SELECT str2 AS a, thousandth AS b FROM docs";
  Result<std::string> batched = batched_serial_->Explain(sql);
  ASSERT_TRUE(batched.ok()) << batched.status().ToString();
  EXPECT_NE(batched->find("SinewExtract"), std::string::npos) << *batched;
  Result<std::string> per_attr = per_attr_serial_->Explain(sql);
  ASSERT_TRUE(per_attr.ok()) << per_attr.status().ToString();
  EXPECT_EQ(per_attr->find("SinewExtract"), std::string::npos) << *per_attr;
  // And the parallel batched plan keeps the node below Gather.
  Result<std::string> parallel = batched_parallel_->Explain(sql);
  ASSERT_TRUE(parallel.ok());
  EXPECT_NE(parallel->find("Gather (workers="), std::string::npos)
      << *parallel;
  EXPECT_NE(parallel->find("SinewExtract"), std::string::npos) << *parallel;
}

TEST_F(ExtractionDifferentialTest, MultiAttributeProjection) {
  ExpectSameResults("SELECT str2 AS a, bool AS b, thousandth AS c FROM docs");
}

TEST_F(ExtractionDifferentialTest, NestedObjectProjection) {
  ExpectSameResults(
      "SELECT \"nested_obj.str\" AS ns, \"nested_obj.num\" AS nn, "
      "str2 AS s FROM docs");
}

TEST_F(ExtractionDifferentialTest, MultiTypedKeyProjectionAndFilter) {
  // dyn1 is int / string / bool across rows; dyn2 is string / int.
  ExpectSameResults("SELECT dyn1 AS d1, dyn2 AS d2 FROM docs");
  ExpectSameResults("SELECT dyn1 AS d, str2 AS s FROM docs WHERE dyn1 BETWEEN " +
                    std::to_string(params_->q7_lo) + " AND " +
                    std::to_string(params_->q7_hi));
}

TEST_F(ExtractionDifferentialTest, SparseAndAbsentPaths) {
  // Sparse keys are absent in most rows; a never-interned path is absent in
  // all of them and must come back NULL everywhere, not error.
  ExpectSameResults(
      "SELECT sparse_110 AS a, sparse_119 AS b, str2 AS s FROM docs");
  ExpectSameResults("SELECT " + params_->q9_sparse_key +
                    " AS k, thousandth AS t FROM docs WHERE " +
                    params_->q9_sparse_key + " IS NOT NULL");
}

TEST_F(ExtractionDifferentialTest, FilterSharesDecodeWithProjection) {
  // str2 and thousandth appear in the predicate (two sites, extracted below
  // the rebuilt filter); the projection reuses str2's output column while
  // bool, a lone projection-only site, stays on the chain path.
  ExpectSameResults("SELECT str2 AS s, bool AS b FROM docs WHERE str2 = '" +
                    params_->q5_str1 + "' OR thousandth < 100");
}

TEST_F(ExtractionDifferentialTest, ArraysAndContainment) {
  ExpectSameResults(
      "SELECT nested_arr AS arr, str2 AS s FROM docs "
      "WHERE array_contains(nested_arr, '" +
      params_->q8_arr_value + "')");
}

TEST_F(ExtractionDifferentialTest, DirtyColumnCoalesce) {
  // str1 is materialized but dirty: readers COALESCE the physical column
  // with reservoir extraction, and the extraction feeding the COALESCE is
  // itself hoisted into the batched node.
  ExpectSameResults("SELECT str1 AS s, num AS n FROM docs WHERE str1 = '" +
                    params_->q5_str1 + "'");
  ExpectSameResults(
      "SELECT str1 AS s, str2 AS t, thousandth AS k FROM docs "
      "WHERE num >= 0");
}

TEST_F(ExtractionDifferentialTest, AggregationOverVirtualAttributes) {
  ExpectSameResults(
      "SELECT thousandth AS g, COUNT(*) AS c, SUM(num) AS s FROM docs "
      "GROUP BY thousandth");
  ExpectSameResults(
      "SELECT \"nested_obj.str\" AS g, COUNT(*) AS c FROM docs "
      "GROUP BY \"nested_obj.str\"");
}

TEST_F(ExtractionDifferentialTest, OrderByVirtualAttribute) {
  ExpectSameResults(
      "SELECT str2 AS s, thousandth AS t FROM docs "
      "ORDER BY thousandth, str2 LIMIT 50");
}

}  // namespace
}  // namespace sinew
