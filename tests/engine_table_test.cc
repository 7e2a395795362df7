#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <string>
#include <vector>

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

/// Boxes what WalkRow hands its sink, one Datum per requested slot index;
/// slots the walk never reported keep a sentinel.
struct RecordingSink {
  const Schema& schema;
  const std::vector<size_t>& slots;
  DatumRow* out;
  void Null(size_t k) { (*out)[k] = Datum::Null(); }
  void Int(size_t k, int64_t v) { (*out)[k] = Datum::Int(v); }
  void Double(size_t k, double v) { (*out)[k] = Datum::Double(v); }
  void Bool(size_t k, bool v) { (*out)[k] = Datum::Bool(v); }
  void Str(size_t k, std::string_view v) {
    (*out)[k] = schema.columns()[slots[k]].type == ColumnType::kText
                    ? Datum::Text(std::string(v))
                    : Datum::Bytes(std::string(v));
  }
};

Result<DatumRow> Walk(const Schema& schema, std::string_view data,
                      const std::vector<size_t>& slots) {
  DatumRow out(slots.size(), Datum::Text("<unreported>"));
  RETURN_NOT_OK(WalkRow(schema, data, slots,
                        RecordingSink{schema, slots, &out}));
  return out;
}

/// Same kind and value; NaN equals NaN and -0.0 differs from +0.0.
bool SameDatum(const Datum& a, const Datum& b) {
  if (a.kind() != b.kind()) return false;
  if (a.is_double()) {
    const double x = a.double_value(), y = b.double_value();
    return std::memcmp(&x, &y, sizeof(double)) == 0;
  }
  return Datum::Compare(a, b) == 0;
}

/// One walker case: a row encoded under `encode_schema`, walked under
/// `walk_schema` (the same, or a later one: slots added or dropped).
struct WalkCase {
  std::string name;
  Schema encode_schema;
  Schema walk_schema;
  DatumRow row;
};

Schema CyclingSchema(size_t n) {
  static const ColumnType kTypes[] = {ColumnType::kInt, ColumnType::kText,
                                      ColumnType::kDouble, ColumnType::kBool,
                                      ColumnType::kBytes};
  Schema schema;
  for (size_t i = 0; i < n; ++i) {
    (void)schema.AddColumn(Column{"c" + std::to_string(i), kTypes[i % 5]});
  }
  return schema;
}

/// Every type's edge values; a quarter of the slots NULL, or, `sparse`, all
/// but every eleventh (the shape of a wide materialized table).
DatumRow CyclingRow(const Schema& schema, bool sparse = false) {
  DatumRow row;
  for (size_t i = 0; i < schema.num_slots(); ++i) {
    if (sparse ? i % 11 != 0 : i % 4 == 3) {
      row.push_back(Datum::Null());
      continue;
    }
    switch (schema.columns()[i].type) {
      case ColumnType::kInt:
        row.push_back(Datum::Int(i % 9 == 0
                                     ? std::numeric_limits<int64_t>::min()
                                     : static_cast<int64_t>(i) * 1000003));
        break;
      case ColumnType::kText:
        row.push_back(Datum::Text(std::string(i % 23, 'a' + i % 26)));
        break;
      case ColumnType::kDouble:
        row.push_back(Datum::Double(
            i % 7 == 0 ? std::numeric_limits<double>::quiet_NaN()
                       : (i % 7 == 1 ? -0.0 : i * 0.25)));
        break;
      case ColumnType::kBool:
        row.push_back(Datum::Bool(i % 3 == 0));
        break;
      case ColumnType::kBytes:
        row.push_back(Datum::Bytes(std::string(i % 200, '\x7f')));
        break;
    }
  }
  return row;
}

std::vector<WalkCase> WalkCases() {
  std::vector<WalkCase> cases;
  DatumRow narrow = MakeRow(-3, "a name longer than fifteen");
  narrow[2] = Datum::Null();
  cases.push_back({"narrow", MakeSchema(), MakeSchema(), narrow});
  cases.push_back({"wide", CyclingSchema(1000), CyclingSchema(1000),
                   CyclingRow(CyclingSchema(1000), /*sparse=*/true)});
  // Short arity: encoded before three columns were added.
  Schema wider = CyclingSchema(6);
  cases.push_back({"short_arity", CyclingSchema(3), wider,
                   CyclingRow(CyclingSchema(3))});
  // Tombstoned slots: encoded with values in slots 1 and 3, walked after
  // those columns were dropped.
  Schema dropped = CyclingSchema(8);
  (void)dropped.DropColumn("c1");
  (void)dropped.DropColumn("c3");
  cases.push_back({"tombstoned_slots", CyclingSchema(8), dropped,
                   CyclingRow(CyclingSchema(8))});
  return cases;
}

/// Requested slot lists: every live slot, every third, the first, the last.
std::vector<std::vector<size_t>> SlotLists(const Schema& schema) {
  const std::vector<size_t> live = schema.LiveSlots();
  std::vector<size_t> thirds;
  for (size_t i = 0; i < live.size(); i += 3) thirds.push_back(live[i]);
  return {live, thirds, {live.front()}, {live.back()}};
}

TEST(RowCodec, WalkRowAgreesWithDecodeRow) {
  for (const WalkCase& c : WalkCases()) {
    SCOPED_TRACE(c.name);
    Result<std::string> encoded = EncodeRow(c.encode_schema, c.row);
    ASSERT_TRUE(encoded.ok()) << encoded.status().ToString();
    Result<DatumRow> oracle = DecodeRow(c.walk_schema, *encoded);
    ASSERT_TRUE(oracle.ok()) << oracle.status().ToString();
    for (const std::vector<size_t>& slots : SlotLists(c.walk_schema)) {
      Result<DatumRow> walked = Walk(c.walk_schema, *encoded, slots);
      ASSERT_TRUE(walked.ok()) << walked.status().ToString();
      for (size_t k = 0; k < slots.size(); ++k) {
        EXPECT_TRUE(SameDatum((*walked)[k], (*oracle)[slots[k]]))
            << "slot " << slots[k] << ": walked "
            << (*walked)[k].ToString() << ", decoded "
            << (*oracle)[slots[k]].ToString();
      }
    }
    // A deleted row's tombstone (empty bytes) walks as all NULL.
    const std::vector<size_t> live = c.walk_schema.LiveSlots();
    Result<DatumRow> tombstone = Walk(c.walk_schema, "", live);
    ASSERT_TRUE(tombstone.ok());
    for (const Datum& d : *tombstone) EXPECT_TRUE(d.is_null());
    // Nothing requested: nothing reported, whatever the bytes.
    EXPECT_TRUE(Walk(c.walk_schema, "\xff", {}).ok());
  }
}

TEST(RowCodec, DecodeRowSlotsSubset) {
  // A subset with gaps reports exactly the requested slots, and a slot
  // beyond the arity of a row encoded before its schema widened is NULL.
  Schema schema = MakeSchema();
  Result<std::string> encoded = EncodeRow(schema, MakeRow(9, "bob"));
  ASSERT_TRUE(encoded.ok());
  Result<DatumRow> subset = Walk(schema, *encoded, {1, 3});
  ASSERT_TRUE(subset.ok());
  EXPECT_EQ((*subset)[0].str(), "bob");
  EXPECT_TRUE((*subset)[1].is_bool());
  Schema wider = MakeSchema();
  ASSERT_TRUE(wider.AddColumn(Column{"later", ColumnType::kText}).ok());
  Result<DatumRow> wide = Walk(wider, *encoded, {0, 5});
  ASSERT_TRUE(wide.ok());
  EXPECT_EQ((*wide)[0].int_value(), 9);
  EXPECT_TRUE((*wide)[1].is_null());
}

TEST(RowCodec, WalkRowSurvivesTruncationAndBitFlips) {
  // Every truncation and every single-bit flip of each encoding walks to
  // OK or a Status, never out of bounds (the sanitizer builds check the
  // "never"); wherever DecodeRow still accepts the damaged bytes, the walk
  // must agree with it.
  for (const WalkCase& c : WalkCases()) {
    SCOPED_TRACE(c.name);
    Result<std::string> encoded = EncodeRow(c.encode_schema, c.row);
    ASSERT_TRUE(encoded.ok());
    const bool wide = c.walk_schema.num_slots() > 100;
    auto check = [&](const std::string& bytes) {
      Result<DatumRow> oracle = DecodeRow(c.walk_schema, bytes);
      for (const std::vector<size_t>& slots : SlotLists(c.walk_schema)) {
        Result<DatumRow> walked = Walk(c.walk_schema, bytes, slots);
        if (!oracle.ok() || !walked.ok()) {
          // The walk may stop short of damage past its last slot, and it
          // accepts more columns than the schema has (rows written after a
          // concurrent ADD COLUMN), but bytes DecodeRow accepts it accepts.
          EXPECT_TRUE(walked.ok() || !oracle.ok());
        } else {
          for (size_t k = 0; k < slots.size(); ++k) {
            ASSERT_TRUE(SameDatum((*walked)[k], (*oracle)[slots[k]]))
                << "slot " << slots[k];
          }
        }
        if (wide) break;  // the full walk covers the wide row
      }
    };
    for (size_t len = 0; len < encoded->size(); ++len) {
      check(encoded->substr(0, len));
    }
    for (size_t bit = 0; bit < encoded->size() * 8; ++bit) {
      std::string flipped = *encoded;
      flipped[bit / 8] = static_cast<char>(flipped[bit / 8] ^ (1 << (bit % 8)));
      check(flipped);
    }
  }
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
