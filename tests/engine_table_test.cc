#include <gtest/gtest.h>

#include "engine/catalog.h"
#include "engine/persist.h"
#include "engine/row_codec.h"
#include "engine/table.h"

namespace sinew::engine {
namespace {

Schema MakeSchema() {
  Schema schema;
  (void)schema.AddColumn(Column{"id", ColumnType::kInt});
  (void)schema.AddColumn(Column{"name", ColumnType::kText});
  (void)schema.AddColumn(Column{"score", ColumnType::kDouble});
  (void)schema.AddColumn(Column{"ok", ColumnType::kBool});
  (void)schema.AddColumn(Column{"blob", ColumnType::kBytes});
  return schema;
}

DatumRow MakeRow(int64_t id, const std::string& name) {
  return {Datum::Int(id), Datum::Text(name), Datum::Double(id * 0.5),
          Datum::Bool(id % 2 == 0), Datum::Bytes("\x01\x02")};
}

TEST(RowCodec, RoundTripWithNulls) {
  Schema schema = MakeSchema();
  DatumRow row = MakeRow(7, "ann");
  row[2] = Datum::Null();
  auto encoded = EncodeRow(schema, row);
  ASSERT_TRUE(encoded.ok());
  auto decoded = DecodeRow(schema, *encoded);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ((*decoded)[0].int_value(), 7);
  EXPECT_EQ((*decoded)[1].str(), "ann");
  EXPECT_TRUE((*decoded)[2].is_null());
  EXPECT_TRUE((*decoded)[3].is_bool());
  EXPECT_EQ((*decoded)[4].str(), "\x01\x02");
}

TEST(RowCodec, TypeMismatchRejected) {
  Schema schema = MakeSchema();
  DatumRow row = MakeRow(1, "x");
  row[0] = Datum::Text("not an int");
  EXPECT_FALSE(EncodeRow(schema, row).ok());
  // Int into a double column widens implicitly.
  row = MakeRow(1, "x");
  row[2] = Datum::Int(3);
  auto encoded = EncodeRow(schema, row);
  ASSERT_TRUE(encoded.ok());
  EXPECT_EQ((*DecodeRow(schema, *encoded))[2].double_value(), 3.0);
}

TEST(RowCodec, ArityMismatchRejected) {
  Schema schema = MakeSchema();
  EXPECT_FALSE(EncodeRow(schema, {Datum::Int(1)}).ok());
}

TEST(RowCodec, SchemaEvolutionDecodesMissingTrailingSlotsAsNull) {
  Schema old_schema = MakeSchema();
  DatumRow row = MakeRow(1, "x");
  auto encoded = EncodeRow(old_schema, row);
  Schema new_schema = MakeSchema();
  ASSERT_TRUE(new_schema.AddColumn(Column{"added", ColumnType::kInt}).ok());
  auto decoded = DecodeRow(new_schema, *encoded);
  ASSERT_TRUE(decoded.ok());
  ASSERT_EQ(decoded->size(), 6u);
  EXPECT_TRUE((*decoded)[5].is_null());
}

TEST(RowCodec, DecodeRowSlotsSubset) {
  Schema schema = MakeSchema();
  auto encoded = EncodeRow(schema, MakeRow(9, "bob"));
  DatumRow row(schema.num_slots());
  ASSERT_TRUE(DecodeRowSlots(schema, *encoded, {1, 3}, &row).ok());
  EXPECT_TRUE(row[0].is_null());  // not requested
  EXPECT_EQ(row[1].str(), "bob");
  EXPECT_TRUE(row[2].is_null());
  EXPECT_TRUE(row[3].is_bool());
  // Requesting a slot beyond the encoded arity yields NULL.
  Schema wider = MakeSchema();
  ASSERT_TRUE(wider.AddColumn(Column{"later", ColumnType::kText}).ok());
  DatumRow wide_row(wider.num_slots());
  ASSERT_TRUE(DecodeRowSlots(wider, *encoded, {0, 5}, &wide_row).ok());
  EXPECT_EQ(wide_row[0].int_value(), 9);
  EXPECT_TRUE(wide_row[5].is_null());
}

TEST(RowCodec, DecodeRowColumnSingle) {
  Schema schema = MakeSchema();
  auto encoded = EncodeRow(schema, MakeRow(4, "zoe"));
  EXPECT_EQ(DecodeRowColumn(schema, *encoded, 1)->str(), "zoe");
  EXPECT_EQ(DecodeRowColumn(schema, *encoded, 0)->int_value(), 4);
}

TEST(Table, AppendReadUpdateDelete) {
  Table table("t", MakeSchema());
  auto rid0 = table.AppendRow(MakeRow(0, "a"));
  auto rid1 = table.AppendRow(MakeRow(1, "b"));
  ASSERT_TRUE(rid0.ok());
  EXPECT_EQ(*rid0, 0u);
  EXPECT_EQ(*rid1, 1u);
  EXPECT_EQ(table.LiveRowCount(), 2u);

  auto row = table.ReadRow(1);
  ASSERT_TRUE(row.ok());
  EXPECT_EQ((*row)[1].str(), "b");

  DatumRow updated = MakeRow(1, "b2");
  ASSERT_TRUE(table.UpdateRow(1, updated).ok());
  EXPECT_EQ((*table.ReadRow(1))[1].str(), "b2");

  ASSERT_TRUE(table.DeleteRow(0).ok());
  EXPECT_EQ(table.LiveRowCount(), 1u);
  EXPECT_TRUE(table.ReadRow(0).status().IsNotFound());
  EXPECT_TRUE(table.ReadRow(1).ok());
  EXPECT_FALSE(table.DeleteRow(0).ok());   // double delete
  EXPECT_FALSE(table.UpdateRow(99, updated).ok());
  EXPECT_EQ(table.RowSlotCount(), 2u);  // slot space keeps deleted ids
}

TEST(Table, PatchRowAndDeleteAllRows) {
  Table table("t", MakeSchema());
  ASSERT_TRUE(table.AppendRow(MakeRow(1, "a")).ok());
  ASSERT_TRUE(table.AppendRow(MakeRow(2, "b")).ok());
  // A column added after the row was written: the patch decodes and
  // re-encodes the row against the schema current at the patch.
  ASSERT_TRUE(table.AddColumn(Column{"extra", ColumnType::kInt}).ok());
  ASSERT_TRUE(table.PatchRow(1, {1, 5}, {Datum::Text("b2"), Datum::Int(7)})
                  .ok());
  Result<DatumRow> row = table.ReadRow(1);
  ASSERT_TRUE(row.ok()) << row.status().ToString();
  EXPECT_EQ((*row)[0].int_value(), 2);  // untouched slot kept
  EXPECT_EQ((*row)[1].str(), "b2");
  EXPECT_EQ((*row)[5].int_value(), 7);
  EXPECT_TRUE(table.PatchRow(9, {1}, {Datum::Text("x")}).IsNotFound());

  const uint64_t version = table.MutationVersion();
  table.DeleteAllRows();
  EXPECT_NE(table.MutationVersion(), version);
  EXPECT_EQ(table.LiveRowCount(), 0u);
  EXPECT_EQ(table.DataBytes(), 0u);
  EXPECT_EQ(table.RowSlotCount(), 2u);  // row ids stay allocated
  EXPECT_TRUE(table.PatchRow(0, {1}, {Datum::Text("x")}).IsNotFound());
  DatumRow fresh = MakeRow(3, "c");
  fresh.push_back(Datum::Null());  // the added column
  ASSERT_TRUE(table.AppendRow(fresh).ok());
  EXPECT_EQ(table.LiveRowCount(), 1u);
}

TEST(Table, DataBytesAccounting) {
  Table table("t", MakeSchema());
  EXPECT_EQ(table.DataBytes(), 0u);
  (void)table.AppendRow(MakeRow(1, "some name"));
  uint64_t after_one = table.DataBytes();
  EXPECT_GT(after_one, 0u);
  (void)table.AppendRow(MakeRow(2, "other"));
  EXPECT_GT(table.DataBytes(), after_one);
  (void)table.DeleteRow(0);
  EXPECT_LT(table.DataBytes(), after_one + 40);
}

TEST(Table, AddAndDropColumn) {
  Table table("t", MakeSchema());
  (void)table.AppendRow(MakeRow(1, "x"));
  ASSERT_TRUE(table.AddColumn(Column{"extra", ColumnType::kText}).ok());
  EXPECT_FALSE(table.AddColumn(Column{"extra", ColumnType::kText}).ok());
  // Old rows decode with the new slot as NULL.
  auto row = table.ReadRow(0);
  ASSERT_TRUE(row.ok());
  EXPECT_TRUE((*row)[5].is_null());
  // New rows can fill it.
  DatumRow with_extra = MakeRow(2, "y");
  with_extra.push_back(Datum::Text("filled"));
  ASSERT_TRUE(table.AppendRow(with_extra).ok());
  EXPECT_EQ((*table.ReadRow(1))[5].str(), "filled");
  // Drop: the name disappears but old rows stay decodable.
  ASSERT_TRUE(table.DropColumn("extra").ok());
  EXPECT_FALSE(table.schema().FindColumn("extra").has_value());
  EXPECT_TRUE(table.ReadRow(1).ok());
  // A new same-named column can be added afterwards.
  ASSERT_TRUE(table.AddColumn(Column{"extra", ColumnType::kInt}).ok());
}

TEST(Table, AnalyzeStatistics) {
  Table table("t", MakeSchema());
  for (int i = 0; i < 100; ++i) {
    DatumRow row = MakeRow(i, i % 10 == 0 ? "tag" : "name" + std::to_string(i));
    if (i % 4 == 0) row[2] = Datum::Null();
    (void)table.AppendRow(row);
  }
  ASSERT_TRUE(table.Analyze().ok());
  TableStats stats = table.GetStats();
  EXPECT_TRUE(stats.analyzed);
  EXPECT_EQ(stats.row_count, 100u);
  const ColumnStats* id = stats.Find("id");
  ASSERT_NE(id, nullptr);
  EXPECT_EQ(id->ndistinct, 100);
  EXPECT_TRUE(id->has_minmax);
  EXPECT_EQ(id->min, 0);
  EXPECT_EQ(id->max, 99);
  EXPECT_GE(id->histogram.size(), 2u);
  const ColumnStats* score = stats.Find("score");
  ASSERT_NE(score, nullptr);
  EXPECT_EQ(score->null_count, 25u);
  EXPECT_NEAR(score->null_fraction(), 0.25, 1e-9);
  const ColumnStats* ok = stats.Find("ok");
  EXPECT_EQ(ok->ndistinct, 2);
}

TEST(Persist, SaveAndLoadRoundTrip) {
  Catalog catalog;
  Table table("persist_me", MakeSchema());
  for (int i = 0; i < 10; ++i) (void)table.AppendRow(MakeRow(i, "r"));
  (void)table.DeleteRow(3);
  ASSERT_TRUE(table.DropColumn("ok").ok());

  auto image = SerializeTable(table);
  ASSERT_TRUE(image.ok());
  auto restored = DeserializeTable(*image, &catalog);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  Table* t2 = *restored;
  EXPECT_EQ(t2->name(), "persist_me");
  EXPECT_EQ(t2->LiveRowCount(), 9u);
  EXPECT_EQ(t2->RowSlotCount(), 10u);
  EXPECT_TRUE(t2->ReadRow(3).status().IsNotFound());
  EXPECT_FALSE(t2->schema().FindColumn("ok").has_value());
  EXPECT_EQ((*t2->ReadRow(5))[0].int_value(), 5);
  EXPECT_EQ(t2->DataBytes(), table.DataBytes());

  // Corrupted image is rejected.
  std::string corrupted = *image;
  corrupted[0] = 'X';
  Catalog other;
  EXPECT_FALSE(DeserializeTable(corrupted, &other).ok());
}

TEST(Catalog, CreateGetDrop) {
  Catalog catalog;
  ASSERT_TRUE(catalog.CreateTable("a", MakeSchema()).ok());
  EXPECT_FALSE(catalog.CreateTable("a", MakeSchema()).ok());
  EXPECT_TRUE(catalog.GetTable("a").ok());
  EXPECT_FALSE(catalog.GetTable("b").ok());
  EXPECT_EQ(catalog.TableNames().size(), 1u);
  ASSERT_TRUE(catalog.DropTable("a").ok());
  EXPECT_FALSE(catalog.GetTable("a").ok());
  EXPECT_FALSE(catalog.DropTable("a").ok());
}

}  // namespace
}  // namespace sinew::engine
