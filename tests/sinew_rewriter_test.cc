// Query-rewriter tests (paper Section 3.2.2): logical SQL -> physical SQL.

#include <gtest/gtest.h>

#include "sinew/rewriter.h"
#include "sinew/sinew_db.h"

namespace sinew {
namespace {

class RewriterTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(db_.LoadJsonLines("webrequests", R"(
{"url": "a.com", "hits": 22, "owner": "ann", "ip": "1.2.3.4", "user": {"id": 7, "lang": "en"}, "tags": ["x", "y"]}
{"url": "b.com", "hits": 5, "dyn": 3}
{"url": "c.com", "hits": 9, "dyn": "three"}
)")
                    .ok());
  }

  /// Rewrites and returns the canonical text of the first select item.
  std::string FirstItem(const std::string& sql) {
    auto stmt = db_.rewriter().Rewrite(sql);
    EXPECT_TRUE(stmt.ok()) << stmt.status().ToString();
    return stmt->select->items[0].expr->ToString();
  }

  std::string Where(const std::string& sql) {
    auto stmt = db_.rewriter().Rewrite(sql);
    EXPECT_TRUE(stmt.ok()) << stmt.status().ToString();
    return stmt->select->where->ToString();
  }

  SinewDb db_;
};

TEST_F(RewriterTest, VirtualColumnBecomesChainExtraction) {
  // One virtual-column reference reading the reservoir.
  std::string item = FirstItem("SELECT owner FROM webrequests");
  EXPECT_NE(item.find("webrequests.\"_data\"->["), std::string::npos) << item;
}

TEST_F(RewriterTest, TypedEvidenceSelectsTypedExtraction) {
  // Numeric comparison -> int-typed variant (type tag 2 = kInt).
  std::string w = Where("SELECT url FROM webrequests WHERE hits > 20");
  EXPECT_NE(w.find("->[2:"), std::string::npos) << w;
  // Text comparison -> string-typed variant (type tag 4 = kString).
  std::string t = Where("SELECT url FROM webrequests WHERE owner = 'ann'");
  EXPECT_NE(t.find("->[4:"), std::string::npos) << t;
}

TEST_F(RewriterTest, MultiTypedKeyCoalescesTypedExtractions) {
  // One reference carries both typed variants (int, string); a row reads
  // the one it holds.
  std::string item = FirstItem("SELECT dyn FROM webrequests");
  EXPECT_NE(item.find("->[2:"), std::string::npos) << item;
  EXPECT_NE(item.find("|4:"), std::string::npos) << item;
  // A typed context narrows to the single matching attribute.
  std::string w = Where("SELECT url FROM webrequests WHERE dyn = 3");
  EXPECT_NE(w.find("->[2:"), std::string::npos) << w;
  EXPECT_EQ(w.find("|"), std::string::npos) << w;
}

TEST_F(RewriterTest, TypeEvidenceWithNoMatchingAttributeIsNullLiteral) {
  // 'owner' only exists as a string; a numeric context can never match.
  std::string w = Where("SELECT url FROM webrequests WHERE owner > 5");
  EXPECT_NE(w.find("NULL"), std::string::npos) << w;
}

TEST_F(RewriterTest, NestedPathExtractsThroughDescentChain) {
  std::string item = FirstItem("SELECT \"user.id\" FROM webrequests");
  // Chain has two ids: user (object), then user.id.
  uint32_t user_id = *db_.catalog()->FindId("user", ValueType::kObject);
  uint32_t leaf_id = *db_.catalog()->FindId("user.id", ValueType::kInt);
  EXPECT_NE(item.find("->[2:" + std::to_string(user_id) + "." +
                      std::to_string(leaf_id) + "]"),
            std::string::npos)
      << item;
}

TEST_F(RewriterTest, PhysicalColumnPassesThrough) {
  ASSERT_TRUE(db_.ForceMaterialization("webrequests", "url", true).ok());
  ASSERT_TRUE(db_.MaterializeAll("webrequests").ok());
  std::string item = FirstItem("SELECT url FROM webrequests");
  EXPECT_EQ(item, "webrequests.\"url\"");
}

TEST_F(RewriterTest, DirtyColumnReadsThroughCoalesce) {
  ASSERT_TRUE(db_.ForceMaterialization("webrequests", "url", true).ok());
  ASSERT_TRUE(db_.MaterializeAll("webrequests").ok());
  // New load re-dirties the column.
  ASSERT_TRUE(db_.LoadJsonLines("webrequests", R"({"url": "d.com"})").ok());
  std::string item = FirstItem("SELECT url FROM webrequests");
  EXPECT_NE(item.find("coalesce(webrequests.\"url\", "
                      "webrequests.\"_data\"->["),
            std::string::npos)
      << item;
}

TEST_F(RewriterTest, MaterializedNestedObjectBecomesExtractionSource) {
  ASSERT_TRUE(db_.ForceMaterialization("webrequests", "user", true).ok());
  ASSERT_TRUE(db_.MaterializeAll("webrequests").ok());
  std::string item = FirstItem("SELECT \"user.lang\" FROM webrequests");
  // Extraction now reads from the materialized 'user' column, not _data.
  EXPECT_NE(item.find("webrequests.\"user\""), std::string::npos) << item;
  EXPECT_EQ(item.find("_data"), std::string::npos) << item;
  // And the parent itself renders as JSON in display contexts.
  std::string parent = FirstItem("SELECT user FROM webrequests");
  EXPECT_NE(parent.find("sinew_render_object"), std::string::npos) << parent;
}

TEST_F(RewriterTest, StarExpandsToTopLevelLogicalColumns) {
  auto stmt = db_.rewriter().Rewrite("SELECT * FROM webrequests");
  ASSERT_TRUE(stmt.ok());
  std::vector<std::string> names;
  for (const auto& item : stmt->select->items) names.push_back(item.alias);
  EXPECT_EQ(names, (std::vector<std::string>{"url", "hits", "owner", "ip",
                                             "user", "tags", "dyn"}));
}

TEST_F(RewriterTest, UnknownColumnIsAnError) {
  auto stmt = db_.rewriter().Rewrite("SELECT nope FROM webrequests");
  ASSERT_FALSE(stmt.ok());
  EXPECT_TRUE(stmt.status().IsNotFound());
}

TEST_F(RewriterTest, ArrayContainsRewrites) {
  // A virtual array is tested over a raw-bytes virtual reference, which the
  // scan's batched extractor reads like any other.
  std::string w = Where(
      "SELECT url FROM webrequests WHERE array_contains(tags, 'x')");
  EXPECT_EQ(w.find("sinew_array_contains("), 0u) << w;
  EXPECT_NE(w.find("\"_data\"->["), std::string::npos) << w;
  EXPECT_NE(w.find(" bytes]"), std::string::npos) << w;
  // A clean array column is read as is.
  ASSERT_TRUE(db_.ForceMaterialization("webrequests", "tags", true).ok());
  ASSERT_TRUE(db_.MaterializeAll("webrequests").ok());
  w = Where("SELECT url FROM webrequests WHERE array_contains(tags, 'x')");
  EXPECT_EQ(w.find("sinew_array_contains("), 0u) << w;
  EXPECT_EQ(w.find("_data"), std::string::npos) << w;
}

TEST_F(RewriterTest, UpdateOfVirtualColumnFoldsIntoReservoirSet) {
  auto stmt = db_.rewriter().Rewrite(
      "UPDATE webrequests SET owner = 'bob' WHERE hits > 20");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  ASSERT_EQ(stmt->update->assignments.size(), 1u);
  EXPECT_EQ(stmt->update->assignments[0].first, "_data");
  EXPECT_NE(stmt->update->assignments[0].second->ToString().find(
                "sinew_reservoir_set"),
            std::string::npos);
}

TEST_F(RewriterTest, UpdateOfPhysicalColumnStaysDirect) {
  ASSERT_TRUE(db_.ForceMaterialization("webrequests", "hits", true).ok());
  ASSERT_TRUE(db_.MaterializeAll("webrequests").ok());
  auto stmt = db_.rewriter().Rewrite(
      "UPDATE webrequests SET hits = 99 WHERE url = 'a.com'");
  ASSERT_TRUE(stmt.ok());
  ASSERT_EQ(stmt->update->assignments.size(), 1u);
  EXPECT_EQ(stmt->update->assignments[0].first, "hits");
}

TEST_F(RewriterTest, MatchesRequiresIndex) {
  auto stmt = db_.rewriter().Rewrite(
      "SELECT url FROM webrequests WHERE matches('*', 'ann')");
  EXPECT_FALSE(stmt.ok());
  ASSERT_TRUE(db_.EnableTextIndex("webrequests").ok());
  auto rewritten = db_.rewriter().Rewrite(
      "SELECT url FROM webrequests WHERE matches('*', 'ann')");
  ASSERT_TRUE(rewritten.ok()) << rewritten.status().ToString();
  EXPECT_NE(rewritten->select->where->ToString().find("__rid"),
            std::string::npos);
}

TEST_F(RewriterTest, NonSinewTablesPassThrough) {
  ASSERT_TRUE(db_.engine()->Execute("CREATE TABLE plain (x int)").ok());
  ASSERT_TRUE(db_.engine()->Execute("INSERT INTO plain VALUES (1)").ok());
  auto result = db_.Query("SELECT x FROM plain WHERE x = 1");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->rows.size(), 1u);
  // Mixed query: sinew table joined with a plain relational table.
  auto mixed = db_.Query(
      "SELECT w.url, p.x FROM webrequests w, plain p WHERE w.hits > p.x");
  ASSERT_TRUE(mixed.ok()) << mixed.status().ToString();
  EXPECT_EQ(mixed->rows.size(), 3u);
}

}  // namespace
}  // namespace sinew
