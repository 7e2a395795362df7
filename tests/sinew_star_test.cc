// SELECT * over a Sinew table (paper Section 3: the universal relation).
//
// The star expands to the table's top-level keys in one catalog pass, and
// each key goes through the same rewrite decision as an explicit reference
// to it. `SELECT *` must therefore be indistinguishable from the explicit
// list of every top-level key (column names, column order and rows) in
// every storage state an attribute can be in. A width guard pins the
// per-column front-end cost: a star compiles no bytecode program per column
// and makes every virtual key a column of one scan (one SinewExtract).

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "engine/table.h"
#include "sinew/sinew_db.h"

namespace sinew {
namespace {

constexpr int kDocs = 1500;
constexpr int kSparseKeys = 5;

/// Every top-level key the generated documents carry.
const std::set<std::string>& TopLevelKeys() {
  static const std::set<std::string> keys = [] {
    std::set<std::string> k = {"id", "str", "num", "dyn1", "obj", "arr",
                               "flag"};
    for (int s = 0; s < kSparseKeys; ++s) {
      k.insert("sparse_" + std::to_string(s));
    }
    return k;
  }();
  return keys;
}

/// Documents covering every value shape: scalars, a multi-typed key (dyn1
/// alternates int and string), a nested object, an array and sparse keys.
std::string Documents() {
  std::ostringstream out;
  for (int i = 0; i < kDocs; ++i) {
    out << "{\"id\": " << i << ", \"str\": \"s" << i % 37 << "\", \"num\": "
        << i * 3 << ", \"dyn1\": ";
    if (i % 2 == 0) {
      out << i;
    } else {
      out << "\"d" << i << "\"";
    }
    out << ", \"obj\": {\"x\": " << i % 11 << ", \"y\": \"o" << i % 5
        << "\"}, \"arr\": [" << i % 7 << ", " << i % 13 << "]";
    if (i % 3 == 0) out << ", \"flag\": " << (i % 2 == 0 ? "true" : "false");
    out << ", \"sparse_" << i % kSparseKeys << "\": \"v" << i << "\"}\n";
  }
  return out.str();
}

std::string Quoted(const std::string& name) { return "\"" + name + "\""; }

/// Rows rendered cell by cell, sorted (row order is not part of the
/// contract of a query without ORDER BY).
std::vector<std::string> SortedRows(const engine::QueryResult& result) {
  std::vector<std::string> rows;
  for (const auto& row : result.rows) {
    std::string text;
    for (const engine::Datum& cell : row) text += cell.ToString() + "|";
    rows.push_back(std::move(text));
  }
  std::sort(rows.begin(), rows.end());
  return rows;
}

class StarTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(db_.LoadJsonLines("t", Documents()).ok());
  }

  engine::QueryResult Q(const std::string& sql) {
    Result<engine::QueryResult> r = db_.Query(sql);
    EXPECT_TRUE(r.ok()) << sql << " -> " << r.status().ToString();
    return r.ok() ? std::move(*r) : engine::QueryResult{};
  }

  /// A star (optionally qualified by `prefix`) against the explicit list
  /// of the star's own column names, in order, with the same FROM/WHERE
  /// `tail`; the star's columns must be exactly `keys`.
  void ExpectStarIsExplicitList(const std::string& prefix,
                                const std::string& tail,
                                const std::set<std::string>& keys =
                                    TopLevelKeys()) {
    const engine::QueryResult star = Q("SELECT " + prefix + "* " + tail);
    const std::set<std::string> names(star.column_names.begin(),
                                      star.column_names.end());
    EXPECT_EQ(names, keys);
    EXPECT_EQ(names.size(), star.column_names.size()) << "duplicate column";
    std::string list;
    for (const std::string& name : star.column_names) {
      list += (list.empty() ? "" : ", ") + prefix + Quoted(name);
    }
    const engine::QueryResult explicit_list =
        Q("SELECT " + list + " " + tail);
    EXPECT_EQ(explicit_list.column_names, star.column_names);
    EXPECT_FALSE(star.rows.empty());
    EXPECT_EQ(SortedRows(explicit_list), SortedRows(star));
  }

  void ExpectStarIsExplicitList() {
    ExpectStarIsExplicitList("", "FROM t");
    ExpectStarIsExplicitList("", "FROM t WHERE num >= 300 AND str <> 's3'");
  }

  SinewDb db_;
};

TEST_F(StarTest, AllVirtual) {
  ExpectStarIsExplicitList();
  // First-observed key order: the first document's keys, then later ones.
  const engine::QueryResult star = Q("SELECT * FROM t WHERE id = 0");
  ASSERT_GE(star.column_names.size(), 7u);
  EXPECT_EQ(std::vector<std::string>(star.column_names.begin(),
                                     star.column_names.begin() + 7),
            (std::vector<std::string>{"id", "str", "num", "dyn1", "obj", "arr",
                                      "flag"}));
}

TEST_F(StarTest, MaterializedInCatalogWithoutColumn) {
  // The analyzer flipped num to physical but the materializer has not run:
  // the star itself must create the (empty) column so its COALESCE form
  // binds, exactly as an explicit reference does.
  ASSERT_TRUE(db_.ForceMaterialization("t", "num", true).ok());
  Result<engine::Table*> table = db_.engine()->catalog()->GetTable("t");
  ASSERT_TRUE(table.ok());
  ASSERT_FALSE((*table)->FindColumnLatched("num").has_value());
  ASSERT_EQ(Q("SELECT * FROM t").rows.size(), static_cast<size_t>(kDocs));
  EXPECT_TRUE((*table)->FindColumnLatched("num").has_value());
  ExpectStarIsExplicitList();
}

TEST_F(StarTest, DirtyMidMaterialization) {
  for (const char* key : {"num", "str", "obj", "arr"}) {
    ASSERT_TRUE(db_.ForceMaterialization("t", key, true).ok()) << key;
  }
  Result<uint64_t> moved = db_.MaterializeStep("t", kDocs / 3);
  ASSERT_TRUE(moved.ok()) << moved.status().ToString();
  ASSERT_FALSE(db_.catalog()->DirtyAttributes("t").empty());
  ExpectStarIsExplicitList();
}

TEST_F(StarTest, Materialized) {
  for (const char* key : {"num", "str", "obj", "arr", "flag"}) {
    ASSERT_TRUE(db_.ForceMaterialization("t", key, true).ok()) << key;
  }
  ASSERT_TRUE(db_.MaterializeAll("t").ok());
  ASSERT_TRUE(db_.catalog()->DirtyAttributes("t").empty());
  ExpectStarIsExplicitList();
}

TEST_F(StarTest, StripServed) {
  ASSERT_TRUE(db_.BuildColumnarSegments("t").ok());
  Result<engine::Table*> table = db_.engine()->catalog()->GetTable("t");
  ASSERT_TRUE(table.ok());
  ASSERT_NE((*table)->ColumnarSegmentSnapshot(), nullptr);
  ExpectStarIsExplicitList();

  // Collections and the multi-typed key have no strips, so t's star reads
  // rows. A table of single-typed scalars is served from strips outright.
  std::ostringstream jsonl;
  for (int i = 0; i < kDocs; ++i) {
    jsonl << "{\"a\": " << i << ", \"b\": \"s" << i % 7 << "\"";
    if (i % 4 == 0) jsonl << ", \"c\": " << i + 0.25;
    jsonl << "}\n";
  }
  ASSERT_TRUE(db_.LoadJsonLines("s", jsonl.str()).ok());
  ASSERT_TRUE(db_.BuildColumnarSegments("s").ok());
  const engine::QueryResult analyze = Q("EXPLAIN ANALYZE SELECT * FROM s");
  std::string text;
  for (const auto& row : analyze.rows) {
    text += row[0].ToString() + "\n";
  }
  EXPECT_EQ(text.find("columnar_hits=0"), std::string::npos) << text;
  EXPECT_NE(text.find("columnar_hits="), std::string::npos) << text;
  ExpectStarIsExplicitList("", "FROM s", {"a", "b", "c"});
  ExpectStarIsExplicitList("", "FROM s WHERE a > 100", {"a", "b", "c"});
}

TEST_F(StarTest, HybridTableWithRelationalColumn) {
  // A relational column outside the logical schema: the star lists only
  // the document keys, and the column stays addressable explicitly.
  Result<engine::Table*> table = db_.engine()->catalog()->GetTable("t");
  ASSERT_TRUE(table.ok());
  ASSERT_TRUE((*table)
                  ->AddColumn(engine::Column{"rel", engine::ColumnType::kInt,
                                             false})
                  .ok());
  ExpectStarIsExplicitList();
  const engine::QueryResult rel = Q("SELECT rel, id FROM t WHERE id = 4");
  ASSERT_EQ(rel.rows.size(), 1u);
  EXPECT_TRUE(rel.rows[0][0].is_null());
}

TEST_F(StarTest, QualifiedStarInSelfJoin) {
  ASSERT_TRUE(db_.ForceMaterialization("t", "num", true).ok());
  ASSERT_TRUE(db_.MaterializeAll("t").ok());
  ExpectStarIsExplicitList("t1.",
                           "FROM t t1, t t2 WHERE t1.id = t2.num AND "
                           "t2.id < 200");
}

TEST_F(StarTest, OrderByStarColumn) {
  const engine::QueryResult star = Q("SELECT * FROM t ORDER BY id DESC");
  ASSERT_EQ(star.rows.size(), static_cast<size_t>(kDocs));
  EXPECT_EQ(star.column_names[0], "id");
  EXPECT_EQ(star.rows[0][0].int_value(), kDocs - 1);
  EXPECT_EQ(star.rows.back()[0].int_value(), 0);
}

TEST(StarWidthTest, WideStarCompilesNoPerColumnProgram) {
  // ~2000 single-typed virtual keys: every one is a column of the scan
  // (one SinewExtract on its line), and every projection is then a bare
  // column ref, which compiles to no program. The only non-column-ref
  // expression left in the plan is the pushed-down scan filter.
  constexpr int kWideKeys = 2000;
  constexpr int kKeysPerDoc = 20;
  std::ostringstream jsonl;
  for (int d = 0; d < kWideKeys / kKeysPerDoc; ++d) {
    jsonl << "{\"id\": " << d;
    for (int k = 0; k < kKeysPerDoc; ++k) {
      jsonl << ", \"k" << d * kKeysPerDoc + k << "\": " << k;
    }
    jsonl << "}\n";
  }
  SinewDb db;
  ASSERT_TRUE(db.LoadJsonLines("wide", jsonl.str()).ok());
  const std::string sql = "SELECT * FROM wide WHERE id >= 0";

  Result<std::string> plan = db.Explain(sql);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  size_t extracts = 0;
  for (size_t at = plan->find("SinewExtract"); at != std::string::npos;
       at = plan->find("SinewExtract", at + 1)) {
    ++extracts;
  }
  EXPECT_EQ(extracts, 1u) << *plan;
  // Every virtual key, id included (the predicate and the projection share
  // id's column).
  EXPECT_NE(plan->find("attrs=" + std::to_string(kWideKeys + 1)),
            std::string::npos)
      << *plan;

#if !defined(SINEW_METRICS_DISABLED)
  metrics::Counter* programs = metrics::GetCounter("bytecode.programs_total");
  const uint64_t before = programs->value();
  Result<engine::QueryResult> result = db.Query(sql);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->column_names.size(), static_cast<size_t>(kWideKeys + 1));
  EXPECT_LE(programs->value() - before, 1u);
#endif
}

}  // namespace
}  // namespace sinew
