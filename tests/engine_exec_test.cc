// End-to-end SQL behaviour of the microdb engine.

#include <gtest/gtest.h>

#include "engine/database.h"

namespace sinew::engine {
namespace {

class ExecTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(db_.Execute("CREATE TABLE people (id int, name text, "
                            "age int, city text, score double)")
                    .ok());
    ASSERT_TRUE(db_.Execute(
                       "INSERT INTO people VALUES "
                       "(1, 'ann', 34, 'nyc', 1.5), "
                       "(2, 'bob', 28, 'sf', 2.5), "
                       "(3, 'cat', 34, 'nyc', 3.5), "
                       "(4, 'dan', 51, 'la', NULL), "
                       "(5, 'eve', 28, NULL, 0.5)")
                    .ok());
  }

  QueryResult Q(const std::string& sql) {
    auto result = db_.Execute(sql);
    EXPECT_TRUE(result.ok()) << sql << " -> " << result.status().ToString();
    return result.ok() ? std::move(*result) : QueryResult{};
  }

  Database db_;
};

TEST_F(ExecTest, ProjectionAndFilter) {
  QueryResult r = Q("SELECT name FROM people WHERE age = 34 ORDER BY name");
  ASSERT_EQ(r.rows.size(), 2u);
  EXPECT_EQ(r.rows[0][0].str(), "ann");
  EXPECT_EQ(r.rows[1][0].str(), "cat");
  EXPECT_EQ(r.column_names[0], "name");
}

TEST_F(ExecTest, SelectStarSkipsRowIds) {
  QueryResult r = Q("SELECT * FROM people WHERE id = 1");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.column_names.size(), 5u);
}

TEST_F(ExecTest, ArithmeticAndAliases) {
  QueryResult r = Q("SELECT id * 10 + 1 AS computed FROM people WHERE id = 3");
  EXPECT_EQ(r.column_names[0], "computed");
  EXPECT_EQ(r.rows[0][0].int_value(), 31);
  EXPECT_EQ(Q("SELECT 7 % 3 x FROM people LIMIT 1").rows[0][0].int_value(), 1);
  EXPECT_EQ(Q("SELECT score / 2 x FROM people WHERE id = 2")
                .rows[0][0]
                .double_value(),
            1.25);
}

TEST_F(ExecTest, ThreeValuedLogic) {
  // NULL never matches comparisons...
  EXPECT_EQ(Q("SELECT id FROM people WHERE city = 'nyc'").rows.size(), 2u);
  EXPECT_EQ(Q("SELECT id FROM people WHERE city <> 'nyc'").rows.size(), 2u);
  // ...but IS NULL does.
  EXPECT_EQ(Q("SELECT id FROM people WHERE city IS NULL").rows.size(), 1u);
  EXPECT_EQ(Q("SELECT id FROM people WHERE city IS NOT NULL").rows.size(), 4u);
  // NOT(NULL) is NULL -> filtered.
  EXPECT_EQ(Q("SELECT id FROM people WHERE NOT (city = 'nyc')").rows.size(),
            2u);
  // OR with one true side survives a NULL side.
  EXPECT_EQ(
      Q("SELECT id FROM people WHERE city = 'nyc' OR age = 51").rows.size(),
      3u);
}

TEST_F(ExecTest, PredicateForms) {
  EXPECT_EQ(Q("SELECT id FROM people WHERE age BETWEEN 28 AND 34").rows.size(),
            4u);
  EXPECT_EQ(
      Q("SELECT id FROM people WHERE age NOT BETWEEN 28 AND 34").rows.size(),
      1u);
  EXPECT_EQ(Q("SELECT id FROM people WHERE name IN ('ann', 'eve', 'zzz')")
                .rows.size(),
            2u);
  EXPECT_EQ(Q("SELECT id FROM people WHERE name LIKE '%a%'").rows.size(), 3u);
  EXPECT_EQ(Q("SELECT id FROM people WHERE name NOT LIKE 'a%'").rows.size(),
            4u);
}

TEST_F(ExecTest, OrderByMultipleKeysAndLimit) {
  QueryResult r = Q("SELECT name FROM people ORDER BY age ASC, name DESC");
  ASSERT_EQ(r.rows.size(), 5u);
  EXPECT_EQ(r.rows[0][0].str(), "eve");  // 28, desc name
  EXPECT_EQ(r.rows[1][0].str(), "bob");
  EXPECT_EQ(r.rows[4][0].str(), "dan");
  EXPECT_EQ(Q("SELECT name FROM people ORDER BY id LIMIT 2").rows.size(), 2u);
  EXPECT_EQ(Q("SELECT name FROM people LIMIT 0").rows.size(), 0u);
}

TEST_F(ExecTest, OrderByNonProjectedColumn) {
  QueryResult r = Q("SELECT name FROM people ORDER BY score DESC LIMIT 1");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0].str(), "cat");
  EXPECT_EQ(r.column_names.size(), 1u);  // hidden sort column stripped
}

TEST_F(ExecTest, Aggregates) {
  QueryResult r = Q("SELECT COUNT(*), COUNT(score), SUM(age), AVG(age), "
                    "MIN(name), MAX(name) FROM people");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0].int_value(), 5);
  EXPECT_EQ(r.rows[0][1].int_value(), 4);  // one NULL score
  EXPECT_EQ(r.rows[0][2].int_value(), 34 + 28 + 34 + 51 + 28);
  EXPECT_DOUBLE_EQ(r.rows[0][3].double_value(), 35.0);
  EXPECT_EQ(r.rows[0][4].str(), "ann");
  EXPECT_EQ(r.rows[0][5].str(), "eve");
}

TEST_F(ExecTest, AggregateOverEmptyInput) {
  QueryResult r = Q("SELECT COUNT(*), SUM(age) FROM people WHERE id > 100");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0].int_value(), 0);
  EXPECT_TRUE(r.rows[0][1].is_null());
}

TEST_F(ExecTest, GroupByAndHaving) {
  QueryResult r = Q(
      "SELECT age, COUNT(*) c FROM people GROUP BY age ORDER BY age");
  ASSERT_EQ(r.rows.size(), 3u);
  EXPECT_EQ(r.rows[0][0].int_value(), 28);
  EXPECT_EQ(r.rows[0][1].int_value(), 2);
  QueryResult h = Q(
      "SELECT age FROM people GROUP BY age HAVING COUNT(*) > 1 ORDER BY age");
  ASSERT_EQ(h.rows.size(), 2u);
  // NULL group keys group together.
  QueryResult n = Q("SELECT city, COUNT(*) FROM people GROUP BY city");
  EXPECT_EQ(n.rows.size(), 4u);  // nyc, sf, la, NULL
}

TEST_F(ExecTest, Distinct) {
  EXPECT_EQ(Q("SELECT DISTINCT age FROM people").rows.size(), 3u);
  EXPECT_EQ(Q("SELECT DISTINCT age, city FROM people").rows.size(), 4u);
}

TEST_F(ExecTest, JoinsProduceCorrectPairs) {
  ASSERT_TRUE(db_.Execute("CREATE TABLE cities (city text, pop int)").ok());
  ASSERT_TRUE(db_.Execute("INSERT INTO cities VALUES ('nyc', 8), ('sf', 1), "
                          "('austin', 2)")
                  .ok());
  QueryResult r = Q(
      "SELECT p.name, c.pop FROM people p, cities c "
      "WHERE p.city = c.city ORDER BY p.name");
  ASSERT_EQ(r.rows.size(), 3u);  // dan (la) and eve (NULL) drop out
  EXPECT_EQ(r.rows[0][0].str(), "ann");
  EXPECT_EQ(r.rows[0][1].int_value(), 8);
  // JOIN ... ON syntax gives identical results.
  QueryResult r2 = Q(
      "SELECT p.name, c.pop FROM people p JOIN cities c ON p.city = c.city "
      "ORDER BY p.name");
  EXPECT_EQ(r2.rows.size(), r.rows.size());
  // Self join.
  QueryResult self = Q(
      "SELECT a.name, b.name FROM people a, people b "
      "WHERE a.age = b.age AND a.id < b.id");
  EXPECT_EQ(self.rows.size(), 2u);  // (ann,cat), (bob,eve)
}

TEST_F(ExecTest, CrossJoinWithoutEquiKeys) {
  ASSERT_TRUE(db_.Execute("CREATE TABLE tiny (x int)").ok());
  ASSERT_TRUE(db_.Execute("INSERT INTO tiny VALUES (1), (2)").ok());
  QueryResult r = Q(
      "SELECT p.id, t.x FROM people p, tiny t WHERE p.id + t.x = 3");
  EXPECT_EQ(r.rows.size(), 2u);  // (1,2) and (2,1)
}

TEST_F(ExecTest, UpdateAndDelete) {
  QueryResult u = Q("UPDATE people SET age = age + 1 WHERE city = 'nyc'");
  EXPECT_EQ(u.rows[0][0].int_value(), 2);
  EXPECT_EQ(Q("SELECT age FROM people WHERE id = 1").rows[0][0].int_value(),
            35);
  QueryResult d = Q("DELETE FROM people WHERE age > 50");
  EXPECT_EQ(d.rows[0][0].int_value(), 1);
  EXPECT_EQ(Q("SELECT COUNT(*) FROM people").rows[0][0].int_value(), 4);
  // Update to NULL.
  (void)Q("UPDATE people SET city = NULL WHERE id = 2");
  EXPECT_EQ(Q("SELECT id FROM people WHERE city IS NULL").rows.size(), 2u);
  // An aggregate has no group to range over in a per-row SET or WHERE:
  // rejected up front, before anything is planned or written.
  for (const char* sql : {"UPDATE people SET age = COUNT(*)",
                          "UPDATE people SET age = 1 WHERE COUNT(*) > 0",
                          "DELETE FROM people WHERE SUM(age) > 0"}) {
    Result<QueryResult> r = db_.Execute(sql);
    ASSERT_FALSE(r.ok()) << sql;
    EXPECT_TRUE(r.status().IsInvalidArgument())
        << sql << " -> " << r.status().ToString();
  }
  EXPECT_EQ(Q("SELECT COUNT(*) FROM people").rows[0][0].int_value(), 4);
  EXPECT_EQ(Q("SELECT id FROM people WHERE age = 1").rows.size(), 0u);
}

TEST_F(ExecTest, CaseExpression) {
  QueryResult r = Q(
      "SELECT name, CASE WHEN age < 30 THEN 'young' ELSE 'senior' END tag "
      "FROM people WHERE id IN (1, 2) ORDER BY id");
  EXPECT_EQ(r.rows[0][1].str(), "senior");
  EXPECT_EQ(r.rows[1][1].str(), "young");
}

TEST_F(ExecTest, Coalesce) {
  QueryResult r = Q(
      "SELECT coalesce(city, 'unknown') FROM people ORDER BY id");
  EXPECT_EQ(r.rows[4][0].str(), "unknown");
}

TEST_F(ExecTest, BuiltinScalarFunctions) {
  EXPECT_EQ(Q("SELECT upper(name) FROM people WHERE id = 1")
                .rows[0][0]
                .str(),
            "ANN");
  EXPECT_EQ(Q("SELECT length(name) FROM people WHERE id = 1")
                .rows[0][0]
                .int_value(),
            3);
  EXPECT_EQ(Q("SELECT substr(name, 2, 2) FROM people WHERE id = 1")
                .rows[0][0]
                .str(),
            "nn");
  EXPECT_EQ(Q("SELECT abs(0 - age) FROM people WHERE id = 1")
                .rows[0][0]
                .int_value(),
            34);
}

TEST_F(ExecTest, ErrorCases) {
  EXPECT_FALSE(db_.Execute("SELECT nope FROM people").ok());
  EXPECT_FALSE(db_.Execute("SELECT id FROM missing_table").ok());
  EXPECT_FALSE(db_.Execute("SELECT 1 / 0 FROM people").ok());
  EXPECT_FALSE(db_.Execute("SELECT unknown_fn(id) FROM people").ok());
  // Ambiguous unqualified column across two tables.
  ASSERT_TRUE(db_.Execute("CREATE TABLE other (id int)").ok());
  ASSERT_TRUE(db_.Execute("INSERT INTO other VALUES (1)").ok());
  EXPECT_FALSE(
      db_.Execute("SELECT id FROM people, other WHERE people.id = other.id")
          .ok());
}

TEST_F(ExecTest, IntermediateMemoryBudgetAborts) {
  // Every operator that materializes charges the budget: the hash-join
  // build, sort, merge join, the nested-loop inner, hash aggregation and
  // Gather's partial aggregation. Each query completes under the default
  // budget and aborts under an absurdly small one.
  PlannerOptions hashy;
  PlannerOptions sorty;
  sorty.hash_join_max_build_rows = 0;
  PlannerOptions parallel;
  parallel.parallelism = 2;
  parallel.parallel_min_rows = 1;
  struct Case {
    const char* sql;
    const PlannerOptions* planner;
    const char* plan_has;
  };
  const Case cases[] = {
      {"SELECT a.id FROM people a, people b WHERE a.name = b.name", &hashy,
       "Hash Join"},
      {"SELECT name FROM people ORDER BY age", &hashy, "Sort"},
      {"SELECT a.id FROM people a, people b WHERE a.name = b.name", &sorty,
       "Merge Join"},
      {"SELECT a.id FROM people a, people b WHERE a.age < b.age", &hashy,
       "Nested Loop"},
      {"SELECT city, COUNT(*) FROM people GROUP BY city", &hashy,
       "HashAggregate"},
      {"SELECT city, COUNT(*) FROM people GROUP BY city", &parallel,
       "merge=partial-agg"},
  };
  ExecOptions tight;
  tight.max_intermediate_bytes = 256;
  for (const Case& c : cases) {
    SCOPED_TRACE(c.sql);
    db_.set_planner_options(*c.planner);
    db_.set_exec_options(ExecOptions{});
    auto plan = db_.Explain(c.sql);
    ASSERT_TRUE(plan.ok()) << plan.status().ToString();
    EXPECT_NE(plan->find(c.plan_has), std::string::npos) << *plan;
    EXPECT_TRUE(db_.Execute(c.sql).ok());
    db_.set_exec_options(tight);
    auto r = db_.Execute(c.sql);
    ASSERT_FALSE(r.ok());
    EXPECT_TRUE(r.status().IsAborted()) << r.status().ToString();
  }
}

TEST_F(ExecTest, ExplainProducesPlanText) {
  auto text = db_.Explain("SELECT name FROM people WHERE age > 30");
  ASSERT_TRUE(text.ok());
  EXPECT_NE(text->find("Seq Scan on people"), std::string::npos);
  EXPECT_NE(text->find("Project"), std::string::npos);
}

}  // namespace
}  // namespace sinew::engine
