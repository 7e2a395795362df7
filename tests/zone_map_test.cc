// Zone-map soundness tests: ZoneCanSkip may only return true when NO row of
// the strip can satisfy `value <op> literal` under the executor's SQL
// comparison semantics (eval.cc SqlCompare: NULL or kind-incomparable
// operands yield NULL, which drops the row). Every skip decision here is
// cross-checked by exhaustively evaluating the predicate over the strip —
// including the adversarial corners: NaN (either side), infinities,
// INT64_MIN/MAX bounds, empty strings, all-null strips, NULL literals and
// cross-kind comparisons. A multi-typed attribute must never reach a strip
// at all (shredder exclusion), checked end-to-end through SinewDb.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "common/column_strip.h"
#include "engine/columnar.h"
#include "engine/datum.h"
#include "engine/expr.h"
#include "engine/table.h"
#include "sinew/sinew_db.h"

namespace sinew {
namespace {

using engine::BinaryOp;
using engine::Datum;
using engine::MakeStripRef;
using engine::StripAppend;
using engine::StripRef;
using engine::ZoneCanSkip;

constexpr BinaryOp kCompareOps[] = {BinaryOp::kEq, BinaryOp::kNe,
                                    BinaryOp::kLt, BinaryOp::kLe,
                                    BinaryOp::kGt, BinaryOp::kGe};

/// The executor's row-level truth for `value <op> literal`: mirrors
/// SqlCompare + EvalCompareOp in engine/eval.cc — a NULL comparison result
/// never keeps a row.
bool RowMatches(const Datum& value, BinaryOp op, const Datum& literal) {
  if (value.is_null() || literal.is_null()) return false;
  const bool comparable =
      (value.is_numeric() && literal.is_numeric()) ||
      value.kind() == literal.kind();
  if (!comparable) return false;
  const int cmp = Datum::Compare(value, literal);
  switch (op) {
    case BinaryOp::kEq: return cmp == 0;
    case BinaryOp::kNe: return cmp != 0;
    case BinaryOp::kLt: return cmp < 0;
    case BinaryOp::kLe: return cmp <= 0;
    case BinaryOp::kGt: return cmp > 0;
    case BinaryOp::kGe: return cmp >= 0;
    default: return false;
  }
}

/// Asserts the soundness invariant for one (strip, op, literal) triple:
/// skip == true implies no row matches. Returns whether the strip skipped.
bool CheckSkipSound(const StripRef& ref, BinaryOp op, const Datum& literal) {
  const bool skip = ZoneCanSkip(ref, op, literal);
  if (skip) {
    for (uint32_t i = 0; i < ref.strip.row_count; ++i) {
      EXPECT_FALSE(RowMatches(ref.GetDatum(i), op, literal))
          << "zone map skipped a strip containing a match at offset " << i
          << " (op " << static_cast<int>(op) << ", literal "
          << literal.ToString() << ")";
    }
  }
  return skip;
}

ColumnStrip NewStrip(ValueType type, uint32_t row_count) {
  ColumnStrip s;
  s.row_count = row_count;
  s.type = type;
  s.presence.assign((row_count + 63) / 64, 0);
  return s;
}

TEST(ZoneMapTest, NullLiteralAlwaysSkips) {
  ColumnStrip s = NewStrip(ValueType::kInt, 4);
  StripAppend(&s, 0, int64_t{10});
  StripAppend(&s, 3, int64_t{20});
  StripRef ref = MakeStripRef(std::move(s));
  for (BinaryOp op : kCompareOps) {
    EXPECT_TRUE(CheckSkipSound(ref, op, Datum::Null()));
  }
}

TEST(ZoneMapTest, AllNullStripAlwaysSkips) {
  for (ValueType type : {ValueType::kBool, ValueType::kInt,
                         ValueType::kDouble, ValueType::kString}) {
    StripRef ref = MakeStripRef(NewStrip(type, 100));
    for (BinaryOp op : kCompareOps) {
      EXPECT_TRUE(CheckSkipSound(ref, op, Datum::Int(0)));
      EXPECT_TRUE(CheckSkipSound(ref, op, Datum::Text("x")));
    }
  }
}

TEST(ZoneMapTest, KindIncomparableLiteralSkips) {
  // A string literal against an int strip (and vice versa) compares NULL
  // for every row, so the whole strip skips. Bool is not numeric in this
  // engine, so bool strips skip against int literals too.
  ColumnStrip ints = NewStrip(ValueType::kInt, 8);
  StripAppend(&ints, 0, int64_t{1});
  StripAppend(&ints, 7, int64_t{100});
  StripRef int_ref = MakeStripRef(std::move(ints));

  ColumnStrip strs = NewStrip(ValueType::kString, 8);
  StripAppend(&strs, 1, std::string_view("alpha"));
  StripAppend(&strs, 2, std::string_view("omega"));
  StripRef str_ref = MakeStripRef(std::move(strs));

  ColumnStrip bools = NewStrip(ValueType::kBool, 8);
  StripAppend(&bools, 0, true);
  StripAppend(&bools, 1, false);
  StripRef bool_ref = MakeStripRef(std::move(bools));

  for (BinaryOp op : kCompareOps) {
    EXPECT_TRUE(CheckSkipSound(int_ref, op, Datum::Text("alpha")));
    EXPECT_TRUE(CheckSkipSound(str_ref, op, Datum::Int(5)));
    EXPECT_TRUE(CheckSkipSound(bool_ref, op, Datum::Int(1)));
    EXPECT_TRUE(CheckSkipSound(str_ref, op, Datum::Bool(true)));
  }
  // But an int literal against an int strip, or a double literal against an
  // int strip (numeric cross-compare), must consult the actual bounds: a
  // covered equality must NOT skip.
  EXPECT_FALSE(ZoneCanSkip(int_ref, BinaryOp::kEq, Datum::Int(50)));
  EXPECT_FALSE(ZoneCanSkip(int_ref, BinaryOp::kEq, Datum::Double(50.0)));
}

TEST(ZoneMapTest, NanStripNeverSkips) {
  ColumnStrip s = NewStrip(ValueType::kDouble, 4);
  StripAppend(&s, 0, 5.0);
  StripAppend(&s, 1, std::nan(""));
  StripAppend(&s, 2, 7.0);
  StripRef ref = MakeStripRef(std::move(s));
  ASSERT_TRUE(ref.strip.has_nan);
  // The engine's Cmp treats NaN as equal to anything (both < and > are
  // false), so a NaN row can "match" equality against ANY literal — ordered
  // zone bounds say nothing about it. The only sound answer is never-skip.
  for (BinaryOp op : kCompareOps) {
    EXPECT_FALSE(ZoneCanSkip(ref, op, Datum::Double(1e308)));
    EXPECT_FALSE(ZoneCanSkip(ref, op, Datum::Double(-1e308)));
    EXPECT_FALSE(ZoneCanSkip(ref, op, Datum::Int(0)));
  }
}

TEST(ZoneMapTest, NanLiteralNeverSkips) {
  ColumnStrip s = NewStrip(ValueType::kDouble, 4);
  StripAppend(&s, 0, 5.0);
  StripAppend(&s, 2, 7.0);
  StripRef ref = MakeStripRef(std::move(s));
  const Datum nan_lit = Datum::Double(std::nan(""));
  for (BinaryOp op : kCompareOps) {
    const bool skip = CheckSkipSound(ref, op, nan_lit);
    EXPECT_FALSE(skip) << "NaN literal must defeat zone bounds";
  }
}

TEST(ZoneMapTest, InfinityBoundsAreOrdinaryValues)  {
  ColumnStrip s = NewStrip(ValueType::kDouble, 4);
  StripAppend(&s, 0, -std::numeric_limits<double>::infinity());
  StripAppend(&s, 1, 0.0);
  StripAppend(&s, 2, std::numeric_limits<double>::infinity());
  StripRef ref = MakeStripRef(std::move(s));
  ASSERT_FALSE(ref.strip.has_nan);
  // [-inf, +inf] bounds: nothing is outside them, so only the vacuous
  // comparisons skip (e.g. value > +inf literal... which is still satisfied
  // by nothing — but value <= +inf IS satisfiable). Soundness is what
  // matters; check every op against boundary literals.
  for (BinaryOp op : kCompareOps) {
    CheckSkipSound(ref, op, Datum::Double(std::numeric_limits<double>::infinity()));
    CheckSkipSound(ref, op, Datum::Double(-std::numeric_limits<double>::infinity()));
    CheckSkipSound(ref, op, Datum::Double(0.0));
  }
  // A strip strictly inside the range skips against out-of-range literals.
  ColumnStrip t = NewStrip(ValueType::kDouble, 2);
  StripAppend(&t, 0, 1.0);
  StripAppend(&t, 1, 2.0);
  StripRef tref = MakeStripRef(std::move(t));
  EXPECT_TRUE(CheckSkipSound(
      tref, BinaryOp::kGt, Datum::Double(std::numeric_limits<double>::infinity())));
  EXPECT_TRUE(CheckSkipSound(tref, BinaryOp::kEq, Datum::Double(3.0)));
}

TEST(ZoneMapTest, Int64ExtremesAtTheBoundary) {
  ColumnStrip s = NewStrip(ValueType::kInt, 3);
  StripAppend(&s, 0, std::numeric_limits<int64_t>::min());
  StripAppend(&s, 1, int64_t{0});
  StripAppend(&s, 2, std::numeric_limits<int64_t>::max());
  StripRef ref = MakeStripRef(std::move(s));
  for (BinaryOp op : kCompareOps) {
    // Exercise literals at and beside both extremes; each decision must be
    // sound, and the satisfiable ones must not skip.
    CheckSkipSound(ref, op, Datum::Int(std::numeric_limits<int64_t>::min()));
    CheckSkipSound(ref, op, Datum::Int(std::numeric_limits<int64_t>::max()));
    CheckSkipSound(ref, op, Datum::Int(std::numeric_limits<int64_t>::min() + 1));
    CheckSkipSound(ref, op, Datum::Int(std::numeric_limits<int64_t>::max() - 1));
  }
  EXPECT_FALSE(ZoneCanSkip(ref, BinaryOp::kEq,
                           Datum::Int(std::numeric_limits<int64_t>::min())));
  EXPECT_FALSE(ZoneCanSkip(ref, BinaryOp::kEq,
                           Datum::Int(std::numeric_limits<int64_t>::max())));
  // A strip NOT containing the extremes skips equality against them.
  ColumnStrip t = NewStrip(ValueType::kInt, 2);
  StripAppend(&t, 0, int64_t{-5});
  StripAppend(&t, 1, int64_t{5});
  StripRef tref = MakeStripRef(std::move(t));
  EXPECT_TRUE(CheckSkipSound(tref, BinaryOp::kEq,
                             Datum::Int(std::numeric_limits<int64_t>::min())));
  EXPECT_TRUE(CheckSkipSound(tref, BinaryOp::kLt,
                             Datum::Int(std::numeric_limits<int64_t>::min())));
  EXPECT_TRUE(CheckSkipSound(tref, BinaryOp::kGt, Datum::Int(5)));
  EXPECT_FALSE(ZoneCanSkip(tref, BinaryOp::kGe, Datum::Int(5)));
}

TEST(ZoneMapTest, EmptyStringBounds) {
  // "" is the minimum of the string order; a strip containing it must not
  // skip `value = ''` or `value <= ''`, and a strip of non-empty strings
  // must skip `value < ''`.
  ColumnStrip s = NewStrip(ValueType::kString, 3);
  StripAppend(&s, 0, std::string_view(""));
  StripAppend(&s, 1, std::string_view("b"));
  StripAppend(&s, 2, std::string_view(""));
  StripRef ref = MakeStripRef(std::move(s));
  EXPECT_FALSE(ZoneCanSkip(ref, BinaryOp::kEq, Datum::Text("")));
  EXPECT_FALSE(ZoneCanSkip(ref, BinaryOp::kLe, Datum::Text("")));
  for (BinaryOp op : kCompareOps) {
    CheckSkipSound(ref, op, Datum::Text(""));
    CheckSkipSound(ref, op, Datum::Text("a"));
    CheckSkipSound(ref, op, Datum::Text("zz"));
  }
  ColumnStrip t = NewStrip(ValueType::kString, 2);
  StripAppend(&t, 0, std::string_view("m"));
  StripAppend(&t, 1, std::string_view("n"));
  StripRef tref = MakeStripRef(std::move(t));
  EXPECT_TRUE(CheckSkipSound(tref, BinaryOp::kLt, Datum::Text("")));
  EXPECT_TRUE(CheckSkipSound(tref, BinaryOp::kEq, Datum::Text("")));
}

TEST(ZoneMapTest, RandomizedSkipDecisionsAreAlwaysSound) {
  // Property fuzz: random strips of every type and density against random
  // literals (in-range, out-of-range, cross-kind, NULL) under every
  // comparison op. Any skip=true with a matching row is a soundness bug.
  std::mt19937_64 rng(424242);
  uint64_t skips = 0, checks = 0;
  auto random_literal = [&](int pick) -> Datum {
    switch (pick % 6) {
      case 0: return Datum::Int(static_cast<int64_t>(rng() % 200) - 100);
      case 1: return Datum::Double((static_cast<double>(rng() % 400) - 200) / 4.0);
      case 2: return Datum::Text(std::string(rng() % 3, static_cast<char>('a' + rng() % 4)));
      case 3: return Datum::Bool(rng() % 2 == 0);
      case 4: return Datum::Null();
      default: return Datum::Double(std::nan(""));
    }
  };
  const ValueType types[] = {ValueType::kBool, ValueType::kInt,
                             ValueType::kDouble, ValueType::kString};
  for (int iter = 0; iter < 500; ++iter) {
    const ValueType type = types[rng() % 4];
    const uint32_t rows = 1 + rng() % 80;
    ColumnStrip s = NewStrip(type, rows);
    const uint32_t density_mod = 1 + rng() % 4;  // 4 = mostly null
    for (uint32_t i = 0; i < rows; ++i) {
      if (rng() % density_mod != 0) continue;
      switch (type) {
        case ValueType::kBool:
          StripAppend(&s, i, rng() % 2 == 0);
          break;
        case ValueType::kInt:
          StripAppend(&s, i, static_cast<int64_t>(rng() % 160) - 80);
          break;
        case ValueType::kDouble:
          // Occasionally poison with NaN to exercise the has_nan guard.
          if (rng() % 16 == 0) {
            StripAppend(&s, i, std::nan(""));
          } else {
            StripAppend(&s, i, (static_cast<double>(rng() % 320) - 160) / 8.0);
          }
          break;
        case ValueType::kString:
          StripAppend(&s, i, std::string(rng() % 4, static_cast<char>('a' + rng() % 5)));
          break;
        default:
          break;
      }
    }
    StripRef ref = MakeStripRef(std::move(s));
    for (BinaryOp op : kCompareOps) {
      const Datum lit = random_literal(static_cast<int>(rng()));
      ++checks;
      if (CheckSkipSound(ref, op, lit)) ++skips;
    }
  }
  // Positive control: the fuzz mix must actually exercise the skip path.
  EXPECT_GT(skips, 100u) << "of " << checks << " checks";
  EXPECT_LT(skips, checks) << "everything skipped: bounds never consulted";
}

TEST(ZoneMapTest, MultiTypedAttributeIsNeverShredded) {
  // "mixed" is int in even rows and string in odd rows; "clean" is always
  // int. The shredder must strip exactly the single-typed attribute — a
  // multi-typed key's comparisons are type-dependent per row, so it stays
  // in the row reservoir (and the differential suite proves query results
  // still agree).
  std::ostringstream jsonl;
  for (int i = 0; i < 600; ++i) {
    if (i % 2 == 0) {
      jsonl << "{\"clean\": " << i << ", \"mixed\": " << i << "}\n";
    } else {
      jsonl << "{\"clean\": " << i << ", \"mixed\": \"s" << i << "\"}\n";
    }
  }
  SinewDb db;
  ASSERT_TRUE(db.LoadJsonLines("docs", jsonl.str()).ok());
  ASSERT_TRUE(db.BuildColumnarSegments("docs").ok());
  Result<engine::Table*> table = db.engine()->catalog()->GetTable("docs");
  ASSERT_TRUE(table.ok());
  std::shared_ptr<const engine::ColumnarSegment> seg =
      (*table)->ColumnarSegmentSnapshot();
  ASSERT_NE(seg, nullptr) << "clean attribute should have been shredded";
  ASSERT_EQ(seg->columns().size(), 1u)
      << "multi-typed attribute leaked into the columnar segment";
  EXPECT_EQ(seg->columns()[0].type, ValueType::kInt);
}

TEST(ColumnarSegmentTest, IndexedFindMatchesLinearSearch) {
  // Columns deliberately collide on attr id (and on (attr id, type)) while
  // differing in source column or prefix chain, plus one exact duplicate
  // key, so the index must still compare the full key and return the first
  // match in column order — exactly what a front-to-back scan returns.
  const std::string sources[] = {"_data", "user"};
  const std::vector<uint32_t> prefixes[] = {{}, {3}, {3, 9}};
  const ValueType types[] = {ValueType::kInt, ValueType::kString};
  std::mt19937 rng(7);
  std::vector<engine::StripColumn> columns;
  for (int i = 0; i < 300; ++i) {
    engine::StripColumn col;
    col.source_column = sources[rng() % 2];
    col.prefix_ids = prefixes[rng() % 3];
    col.attr_id = static_cast<uint32_t>(rng() % 40);
    col.type = types[rng() % 2];
    columns.push_back(std::move(col));
  }
  columns.push_back(columns[17]);  // exact duplicate: the first must win
  const std::vector<engine::StripColumn> reference = columns;
  const engine::ColumnarSegment seg(0, std::move(columns));

  size_t hits = 0;
  for (const std::string& source : sources) {
    for (const std::vector<uint32_t>& prefix : prefixes) {
      for (uint32_t attr = 0; attr < 42; ++attr) {
        for (ValueType type : types) {
          const engine::StripColumn* got =
              seg.Find(source, prefix, attr, type);
          ptrdiff_t want = -1;
          for (size_t i = 0; i < reference.size(); ++i) {
            const engine::StripColumn& c = reference[i];
            if (c.attr_id == attr && c.type == type &&
                c.source_column == source && c.prefix_ids == prefix) {
              want = static_cast<ptrdiff_t>(i);
              break;
            }
          }
          if (want < 0) {
            EXPECT_EQ(got, nullptr) << source << " " << attr;
            continue;
          }
          ++hits;
          ASSERT_NE(got, nullptr) << source << " " << attr;
          EXPECT_EQ(got - seg.columns().data(), want) << source << " " << attr;
        }
      }
    }
  }
  EXPECT_GT(hits, 100u);  // the key space is dense enough to exercise hits
}

}  // namespace
}  // namespace sinew
