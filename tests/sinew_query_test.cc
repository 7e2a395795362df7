// End-to-end behaviour of the full Sinew stack through the public API.

#include <gtest/gtest.h>

#include "sinew/sinew_db.h"

namespace sinew {
namespace {

class SinewQueryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(db_.LoadJsonLines("logs", R"(
{"url": "a.com", "hits": 22, "avg_visit": 128.5, "country": "pl"}
{"url": "b.com", "hits": 15, "date": "8/19/13", "ip": "1.1.1.1", "owner": "John P. Smith"}
{"url": "c.com", "hits": 7, "country": "pl", "owner": "Ann"}
{"url": "d.com", "hits": 41, "country": "de", "tags": ["alpha", "beta"]}
{"url": "e.com", "hits": 22, "dyn": 5}
{"url": "f.com", "hits": 3, "dyn": "five"}
)")
                    .ok());
  }

  engine::QueryResult Q(const std::string& sql) {
    auto result = db_.Query(sql);
    EXPECT_TRUE(result.ok()) << sql << " -> " << result.status().ToString();
    return result.ok() ? std::move(*result) : engine::QueryResult{};
  }

  SinewDb db_;
};

TEST_F(SinewQueryTest, PaperExampleQueries) {
  // Section 3.1.1: the universal-relation query.
  auto r = Q("SELECT url FROM logs WHERE hits > 20");
  EXPECT_EQ(r.rows.size(), 3u);
  // Section 3.2.2: virtual projection + IS NOT NULL.
  auto r2 = Q("SELECT url, owner FROM logs WHERE ip IS NOT NULL");
  ASSERT_EQ(r2.rows.size(), 1u);
  EXPECT_EQ(r2.rows[0][1].str(), "John P. Smith");
}

TEST_F(SinewQueryTest, MultiTypedKeySemantics) {
  // Numeric context matches only the int-typed rows (never errors).
  EXPECT_EQ(Q("SELECT url FROM logs WHERE dyn BETWEEN 1 AND 9").rows.size(),
            1u);
  // Text context matches only string-typed rows.
  EXPECT_EQ(Q("SELECT url FROM logs WHERE dyn = 'five'").rows.size(), 1u);
  // Projection returns each row's natural type.
  auto r = Q("SELECT dyn FROM logs WHERE dyn IS NOT NULL ORDER BY url");
  ASSERT_EQ(r.rows.size(), 2u);
  EXPECT_TRUE(r.rows[0][0].is_int());
  EXPECT_TRUE(r.rows[1][0].is_text());
}

TEST_F(SinewQueryTest, AggregationOverVirtualColumns) {
  auto r = Q("SELECT country, COUNT(*) c FROM logs "
             "WHERE country IS NOT NULL GROUP BY country ORDER BY c DESC");
  ASSERT_EQ(r.rows.size(), 2u);
  EXPECT_EQ(r.rows[0][0].str(), "pl");
  EXPECT_EQ(r.rows[0][1].int_value(), 2);
  auto sums = Q("SELECT SUM(hits), AVG(hits) FROM logs");
  EXPECT_EQ(sums.rows[0][0].int_value(), 110);
}

TEST_F(SinewQueryTest, SelfJoinOnVirtualColumns) {
  auto r = Q("SELECT a.url, b.url FROM logs a, logs b "
             "WHERE a.hits = b.hits AND a.url < b.url");
  ASSERT_EQ(r.rows.size(), 1u);  // a.com and e.com both have 22
  EXPECT_EQ(r.rows[0][0].str(), "a.com");
  EXPECT_EQ(r.rows[0][1].str(), "e.com");
}

TEST_F(SinewQueryTest, UpdateVirtualColumnAndReadBack) {
  auto updated = Q("UPDATE logs SET owner = 'DUMMY' WHERE country = 'pl'");
  EXPECT_EQ(updated.rows[0][0].int_value(), 2);
  EXPECT_EQ(Q("SELECT url FROM logs WHERE owner = 'DUMMY'").rows.size(), 2u);
  // The update changed types nowhere; other owners untouched.
  EXPECT_EQ(Q("SELECT url FROM logs WHERE owner = 'John P. Smith'")
                .rows.size(),
            1u);
}

TEST_F(SinewQueryTest, UpdateCreatesNewAttribute) {
  // Setting a key never seen before extends the logical schema.
  (void)Q("UPDATE logs SET reviewed = 'yes' WHERE hits > 20");
  EXPECT_EQ(Q("SELECT url FROM logs WHERE reviewed = 'yes'").rows.size(), 3u);
  auto schema = db_.LogicalSchema("logs");
  bool found = false;
  for (const auto& col : *schema) found |= col.name == "reviewed";
  EXPECT_TRUE(found);
}

TEST_F(SinewQueryTest, UpdateTypeChangeReplacesAttribute) {
  (void)Q("UPDATE logs SET dyn = 'now text' WHERE url = 'e.com'");
  // e.com's dyn was int 5; now it is text.
  EXPECT_EQ(Q("SELECT url FROM logs WHERE dyn BETWEEN 1 AND 9").rows.size(),
            0u);
  EXPECT_EQ(Q("SELECT url FROM logs WHERE dyn = 'now text'").rows.size(), 1u);
}

TEST_F(SinewQueryTest, UpdatePhysicalColumnWhileDirty) {
  ASSERT_TRUE(db_.ForceMaterialization("logs", "hits", true).ok());
  (void)db_.MaterializeStep("logs", 3);  // partially materialized -> dirty
  auto updated = Q("UPDATE logs SET hits = 100 WHERE url = 'f.com'");
  EXPECT_EQ(updated.rows[0][0].int_value(), 1);
  EXPECT_EQ(Q("SELECT hits FROM logs WHERE url = 'f.com'")
                .rows[0][0]
                .int_value(),
            100);
  ASSERT_TRUE(db_.MaterializeAll("logs").ok());
  EXPECT_EQ(Q("SELECT hits FROM logs WHERE url = 'f.com'")
                .rows[0][0]
                .int_value(),
            100);
}

TEST_F(SinewQueryTest, DeleteThroughLogicalSchema) {
  auto deleted = Q("DELETE FROM logs WHERE country = 'de'");
  EXPECT_EQ(deleted.rows[0][0].int_value(), 1);
  EXPECT_EQ(Q("SELECT COUNT(*) FROM logs").rows[0][0].int_value(), 5);
}

TEST_F(SinewQueryTest, TextSearchIntegration) {
  ASSERT_TRUE(db_.EnableTextIndex("logs").ok());
  // Field-scoped search.
  auto r = Q("SELECT url FROM logs WHERE matches('owner', 'smith')");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0].str(), "b.com");
  // '*' searches every field, combined with a relational predicate.
  auto r2 = Q("SELECT url FROM logs WHERE matches('*', 'pl') AND hits < 10");
  ASSERT_EQ(r2.rows.size(), 1u);
  EXPECT_EQ(r2.rows[0][0].str(), "c.com");
  // No hits -> empty result, not an error.
  EXPECT_EQ(Q("SELECT url FROM logs WHERE matches('*', 'zzzzz')").rows.size(),
            0u);
}

TEST_F(SinewQueryTest, TextIndexCoversMaterializedArraysAndObjects) {
  // Regression: EnableTextIndex must decode materialized BYTES columns per
  // their catalog type (array vs object), not assume every blob is a
  // document.
  ASSERT_TRUE(db_.ForceMaterialization("logs", "tags", true).ok());
  ASSERT_TRUE(db_.MaterializeAll("logs").ok());
  ASSERT_TRUE(db_.EnableTextIndex("logs").ok());
  auto r = db_.Query("SELECT url FROM logs WHERE matches('tags', 'alpha')");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r.value().rows.size(), 1u);
  EXPECT_EQ(r.value().rows[0][0].str(), "d.com");
}

TEST_F(SinewQueryTest, ExplainShowsRewrittenPlan) {
  // Every virtual attribute is a column the scan produces: the predicate
  // attribute (extracted for every row, before the pushed-down filter runs)
  // and the projection attributes (extracted for survivors) alike. No
  // unhoisted virtual-column reference is left in the plan.
  auto plan = db_.Explain("SELECT owner, url FROM logs WHERE hits > 20");
  ASSERT_TRUE(plan.ok());
  EXPECT_NE(plan->find("Seq Scan on logs (filter: (\"$x1\" > 20)) "
                       "SinewExtract (attrs=3, sources=1)"),
            std::string::npos)
      << *plan;
  EXPECT_EQ(plan->find("->["), std::string::npos) << *plan;
  // An attribute referenced by BOTH predicate and projection (owner) is
  // one column: extracted once, before the filter, and projected from there.
  auto shared = db_.Explain(
      "SELECT owner, url, country FROM logs "
      "WHERE hits > 20 AND owner IS NOT NULL");
  ASSERT_TRUE(shared.ok());
  EXPECT_NE(shared->find("SinewExtract (attrs=4, sources=1)"),
            std::string::npos)
      << *shared;
  EXPECT_NE(shared->find("(\"$x1\" > 20) AND (\"$x3\" IS NOT NULL)"),
            std::string::npos)
      << *shared;
  EXPECT_NE(shared->find("Project [\"$x3\", "), std::string::npos) << *shared;
  EXPECT_EQ(shared->find("Filter ("), std::string::npos) << *shared;
  // A single extraction site, and a lone predicate with a lone projection,
  // are scan columns too.
  for (const char* sql :
       {"SELECT owner FROM logs", "SELECT owner FROM logs WHERE hits > 20"}) {
    auto single = db_.Explain(sql);
    ASSERT_TRUE(single.ok());
    EXPECT_NE(single->find("SinewExtract (attrs="), std::string::npos)
        << *single;
    EXPECT_EQ(single->find("->["), std::string::npos)
        << *single;
  }
}

TEST_F(SinewQueryTest, ColumnTypesInvariantUnderMaterialization) {
  // A virtual column reports its attribute's type, so the result's column
  // types are the same whether the attributes are virtual, dirty (COALESCE
  // of column and extraction) or physical.
  ASSERT_TRUE(db_.LoadJsonLines("scores", R"(
{"a": 1, "c": 1.5, "d": true}
{"a": 2, "c": 2.5, "d": false}
{"a": 1, "c": 1.5, "d": true}
{"a": 3, "c": 0.5, "d": false}
)")
                  .ok());
  const std::string sql =
      "SELECT a, c, d, SUM(a) FROM scores GROUP BY a, c, d";
  const std::vector<engine::ColumnType> want = {
      engine::ColumnType::kInt, engine::ColumnType::kDouble,
      engine::ColumnType::kBool, engine::ColumnType::kInt};
  EXPECT_EQ(Q(sql).column_types, want) << "virtual";
  for (const char* key : {"a", "c", "d"}) {
    ASSERT_TRUE(db_.ForceMaterialization("scores", key, true).ok());
  }
  ASSERT_TRUE(db_.MaterializeStep("scores", 2).ok());
  auto plan = db_.Explain(sql);
  ASSERT_TRUE(plan.ok());
  ASSERT_NE(plan->find("coalesce"), std::string::npos) << *plan;
  EXPECT_EQ(Q(sql).column_types, want) << "dirty";
  ASSERT_TRUE(db_.MaterializeAll("scores").ok());
  plan = db_.Explain(sql);
  ASSERT_TRUE(plan.ok());
  ASSERT_EQ(plan->find("SinewExtract"), std::string::npos) << *plan;
  EXPECT_EQ(Q(sql).column_types, want) << "physical";
}

TEST_F(SinewQueryTest, MaterializedKeyGainingASecondType) {
  // k is materialized and its values moved to the column; then a document
  // gives k an int variant. Reads resolve the column before the reservoir,
  // in every context, and an UPDATE keeps each value in one place.
  std::string jsonl;
  for (int i = 0; i < 10; ++i) {
    jsonl += "{\"k\": \"s" + std::to_string(i) + "\", \"n\": " +
             std::to_string(i) + "}\n";
  }
  ASSERT_TRUE(db_.LoadJsonLines("keys", jsonl).ok());
  ASSERT_TRUE(db_.ForceMaterialization("keys", "k", true).ok());
  ASSERT_TRUE(db_.MaterializeAll("keys").ok());
  ASSERT_TRUE(db_.LoadJsonLines("keys", R"({"k": 7, "n": 100})").ok());
  auto column = [&](const std::string& sql) {
    std::vector<std::string> out;
    for (const auto& row : Q(sql).rows) out.push_back(row[0].ToString());
    return out;
  };
  auto count = [&](const std::string& where) {
    return Q("SELECT COUNT(*) FROM keys WHERE " + where).rows[0][0].int_value();
  };
  EXPECT_EQ(column("SELECT k FROM keys WHERE n < 3 ORDER BY n"),
            (std::vector<std::string>{"s0", "s1", "s2"}));
  EXPECT_EQ(column("SELECT k FROM keys WHERE n = 100"),
            (std::vector<std::string>{"7"}));
  EXPECT_EQ(count("k = 's1'"), 1);
  EXPECT_EQ(count("k = 7"), 1);
  EXPECT_EQ(count("k IS NOT NULL"), 11);

  ASSERT_TRUE(db_.Query("UPDATE keys SET k = 'new' WHERE n = 1").ok());
  ASSERT_TRUE(db_.Query("UPDATE keys SET k = 5 WHERE k = 's2'").ok());
  EXPECT_EQ(column("SELECT k FROM keys WHERE n < 3 ORDER BY n"),
            (std::vector<std::string>{"s0", "new", "5"}));
  EXPECT_EQ(count("k = 's1'"), 0);
  EXPECT_EQ(count("k = 'new'"), 1);
  EXPECT_EQ(count("k = 's2'"), 0);
  EXPECT_EQ(count("k BETWEEN 5 AND 7"), 2);
  EXPECT_EQ(count("k IS NOT NULL"), 11);

  // A materialized object beside a scalar variant: the column's objects
  // render as JSON, the reservoir's scalar comes back as is.
  ASSERT_TRUE(db_.LoadJsonLines("objs", R"(
{"o": {"a": 1}, "n": 1}
{"o": {"a": 2}, "n": 2}
)")
                  .ok());
  ASSERT_TRUE(db_.ForceMaterialization("objs", "o", true).ok());
  ASSERT_TRUE(db_.MaterializeAll("objs").ok());
  ASSERT_TRUE(db_.LoadJsonLines("objs", R"({"o": 3, "n": 3})").ok());
  EXPECT_EQ(column("SELECT o FROM objs ORDER BY n"),
            (std::vector<std::string>{R"({"a":1})", R"({"a":2})", "3"}));
  EXPECT_EQ(column("SELECT \"o.a\" FROM objs ORDER BY n"),
            (std::vector<std::string>{"1", "2", "NULL"}));
}

TEST_F(SinewQueryTest, ResultsInvariantUnderMaterialization) {
  // The defining property of the hybrid schema: any physical design returns
  // the same logical answers.
  const char* queries[] = {
      "SELECT url FROM logs WHERE hits > 20 ORDER BY url",
      "SELECT country, COUNT(*) FROM logs GROUP BY country ORDER BY country",
      "SELECT owner FROM logs WHERE owner IS NOT NULL ORDER BY owner",
  };
  std::vector<std::string> before;
  for (const char* sql : queries) {
    std::string rows;
    for (const auto& row : Q(sql).rows) {
      for (const auto& cell : row) rows += cell.ToString() + "|";
    }
    before.push_back(rows);
  }
  ASSERT_TRUE(db_.AnalyzeAndMaterialize("logs").ok());
  for (size_t i = 0; i < 3; ++i) {
    std::string rows;
    for (const auto& row : Q(queries[i]).rows) {
      for (const auto& cell : row) rows += cell.ToString() + "|";
    }
    EXPECT_EQ(rows, before[i]) << queries[i];
  }
}

TEST_F(SinewQueryTest, ArrayContainsUnderMaterializedAncestor) {
  // o.arr is a virtual array inside the object o. Containment must find
  // the same rows wherever o's bytes live: all in the reservoir, split
  // between o's dirty column and the reservoir, or all in o's clean column.
  ASSERT_TRUE(db_.LoadJsonLines("nest", R"(
{"id": 1, "o": {"arr": [1, 2]}}
{"id": 2, "o": {"arr": [3]}}
{"id": 3, "o": {"x": 3}}
)")
                  .ok());
  auto ids = [&](const std::string& where) {
    std::vector<int64_t> out;
    for (const auto& row :
         Q("SELECT id FROM nest WHERE " + where + " ORDER BY id").rows) {
      out.push_back(row[0].int_value());
    }
    return out;
  };
  auto expect_answers = [&](const char* state) {
    SCOPED_TRACE(state);
    EXPECT_EQ(ids("array_contains(\"o.arr\", 1)"), std::vector<int64_t>{1});
    EXPECT_EQ(ids("array_contains(\"o.arr\", 3)"), std::vector<int64_t>{2});
    EXPECT_TRUE(ids("array_contains(\"o.arr\", 9)").empty());
    auto r = Q("SELECT id, \"o.arr\" FROM nest WHERE id = 1");
    ASSERT_EQ(r.rows.size(), 1u);
    EXPECT_EQ(r.rows[0][1].ToString(), "[1,2]");
  };
  expect_answers("all virtual");
  ASSERT_TRUE(db_.ForceMaterialization("nest", "o", true).ok());
  Result<uint64_t> moved = db_.MaterializeStep("nest", 1);
  ASSERT_TRUE(moved.ok()) << moved.status().ToString();
  expect_answers("dirty ancestor");
  ASSERT_TRUE(db_.MaterializeAll("nest").ok());
  expect_answers("clean ancestor");
}

}  // namespace
}  // namespace sinew
