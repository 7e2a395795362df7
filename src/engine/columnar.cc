#include "engine/columnar.h"

#include <algorithm>
#include <cmath>
#include <utility>


namespace sinew::engine {

namespace {

/// ColumnarSegment's index key for a strip column.
std::pair<uint32_t, ValueType> AttrKey(const StripColumn& col) {
  return {col.attr_id, col.type};
}

}  // namespace

Datum StripRef::GetDatum(uint32_t i) const {
  const int64_t dense = DenseIndex(i);
  if (dense < 0) return Datum::Null();
  switch (strip.type) {
    case ValueType::kBool:
      return Datum::Bool(strip.bools[dense] != 0);
    case ValueType::kInt:
      return Datum::Int(strip.ints[dense]);
    case ValueType::kDouble:
      return Datum::Double(strip.doubles[dense]);
    case ValueType::kString:
      return Datum::Text(std::string(TextAt(dense)));
    default:
      return Datum::Null();
  }
}

StripRef MakeStripRef(ColumnStrip strip) {
  StripRef ref;
  ref.rank.resize(strip.presence.size());
  uint32_t running = 0;
  for (size_t w = 0; w < strip.presence.size(); ++w) {
    ref.rank[w] = running;
    running += static_cast<uint32_t>(__builtin_popcountll(strip.presence[w]));
  }
  ref.non_null = running;
  if (running > 0) {
    switch (strip.type) {
      case ValueType::kBool:
        ref.zone_min = Datum::Bool(strip.zone_min_bool != 0);
        ref.zone_max = Datum::Bool(strip.zone_max_bool != 0);
        break;
      case ValueType::kInt:
        ref.zone_min = Datum::Int(strip.zone_min_int);
        ref.zone_max = Datum::Int(strip.zone_max_int);
        break;
      case ValueType::kDouble:
        ref.zone_min = Datum::Double(strip.zone_min_double);
        ref.zone_max = Datum::Double(strip.zone_max_double);
        break;
      case ValueType::kString:
        ref.zone_min = Datum::Text(strip.zone_min_str);
        ref.zone_max = Datum::Text(strip.zone_max_str);
        break;
      default:
        break;
    }
  }
  ref.strip = std::move(strip);
  return ref;
}

void StripAppend(ColumnStrip* s, uint32_t i, bool v) {
  s->SetPresent(i);
  s->bools.push_back(v ? 1 : 0);
  const uint8_t b = v ? 1 : 0;
  if (!s->zone_valid) {
    s->zone_valid = true;
    s->zone_min_bool = s->zone_max_bool = b;
  } else {
    if (b < s->zone_min_bool) s->zone_min_bool = b;
    if (b > s->zone_max_bool) s->zone_max_bool = b;
  }
}

void StripAppend(ColumnStrip* s, uint32_t i, int64_t v) {
  s->SetPresent(i);
  s->ints.push_back(v);
  if (!s->zone_valid) {
    s->zone_valid = true;
    s->zone_min_int = s->zone_max_int = v;
  } else {
    if (v < s->zone_min_int) s->zone_min_int = v;
    if (v > s->zone_max_int) s->zone_max_int = v;
  }
}

void StripAppend(ColumnStrip* s, uint32_t i, double v) {
  s->SetPresent(i);
  s->doubles.push_back(v);
  if (std::isnan(v)) {
    // NaN poisons ordered comparison: flag it and keep the bounds over the
    // remaining values (ZoneCanSkip refuses to skip NaN strips regardless).
    s->has_nan = true;
    return;
  }
  if (!s->zone_valid) {
    s->zone_valid = true;
    s->zone_min_double = s->zone_max_double = v;
  } else {
    if (v < s->zone_min_double) s->zone_min_double = v;
    if (v > s->zone_max_double) s->zone_max_double = v;
  }
}

void StripAppend(ColumnStrip* s, uint32_t i, std::string_view v) {
  s->SetPresent(i);
  if (s->str_offsets.empty()) s->str_offsets.push_back(0);
  s->str_blob.append(v);
  s->str_offsets.push_back(static_cast<uint32_t>(s->str_blob.size()));
  if (!s->zone_valid) {
    s->zone_valid = true;
    s->zone_min_str.assign(v);
    s->zone_max_str.assign(v);
  } else {
    if (v < s->zone_min_str) s->zone_min_str.assign(v);
    if (v > s->zone_max_str) s->zone_max_str.assign(v);
  }
}

bool ZoneCanSkip(const StripRef& strip, BinaryOp op, const Datum& literal) {
  switch (op) {
    case BinaryOp::kEq:
    case BinaryOp::kNe:
    case BinaryOp::kLt:
    case BinaryOp::kLe:
    case BinaryOp::kGt:
    case BinaryOp::kGe:
      break;
    default:
      return false;
  }
  // Comparison against NULL is NULL for every row: nothing matches.
  if (literal.is_null()) return true;
  // All-null strip: every comparison is NULL, nothing matches.
  if (strip.non_null == 0) return true;
  // NaN anywhere defeats ordered bounds — Datum::Compare treats NaN as equal
  // to everything, so a NaN row (or literal) can satisfy any comparison.
  if (strip.strip.has_nan) return false;
  if (literal.is_double() && std::isnan(literal.double_value())) return false;
  // SqlCompare yields NULL unless both sides are numeric or same-kind; an
  // incomparable literal therefore matches nothing.
  const bool comparable =
      (strip.zone_min.is_numeric() && literal.is_numeric()) ||
      strip.zone_min.kind() == literal.kind();
  if (!comparable) return true;
  const int cl_min = Datum::Compare(literal, strip.zone_min);
  const int cl_max = Datum::Compare(literal, strip.zone_max);
  switch (op) {
    case BinaryOp::kEq:  // value == L impossible when L outside [min, max]
      return cl_min < 0 || cl_max > 0;
    case BinaryOp::kNe:  // value != L impossible when min == L == max
      return cl_min == 0 && cl_max == 0;
    case BinaryOp::kLt:  // value < L impossible when L <= min
      return cl_min <= 0;
    case BinaryOp::kLe:  // value <= L impossible when L < min
      return cl_min < 0;
    case BinaryOp::kGt:  // value > L impossible when L >= max
      return cl_max >= 0;
    case BinaryOp::kGe:  // value >= L impossible when L > max
      return cl_max > 0;
    default:
      return false;
  }
}

ColumnarSegment::ColumnarSegment(uint64_t row_count,
                                 std::vector<StripColumn> columns,
                                 std::vector<StripColumn> physical)
    : row_count_(row_count),
      columns_(std::move(columns)),
      physical_(std::move(physical)) {
  std::sort(physical_.begin(), physical_.end(),
            [](const StripColumn& a, const StripColumn& b) {
              return a.source_column < b.source_column;
            });
  by_attr_.resize(columns_.size());
  for (size_t i = 0; i < by_attr_.size(); ++i) {
    by_attr_[i] = static_cast<uint32_t>(i);
  }
  // Stable: columns sharing a key keep their order, so Find returns the
  // first match exactly as a front-to-back scan would.
  std::stable_sort(by_attr_.begin(), by_attr_.end(),
                   [this](uint32_t a, uint32_t b) {
                     return AttrKey(columns_[a]) < AttrKey(columns_[b]);
                   });
}

const StripColumn* ColumnarSegment::Find(std::string_view source_column,
                                         const std::vector<uint32_t>& prefix_ids,
                                         uint32_t attr_id,
                                         ValueType type) const {
  const std::pair<uint32_t, ValueType> key{attr_id, type};
  auto it = std::lower_bound(
      by_attr_.begin(), by_attr_.end(), key,
      [this](uint32_t i, const std::pair<uint32_t, ValueType>& k) {
        return AttrKey(columns_[i]) < k;
      });
  for (; it != by_attr_.end() && AttrKey(columns_[*it]) == key; ++it) {
    const StripColumn& col = columns_[*it];
    if (col.source_column == source_column && col.prefix_ids == prefix_ids) {
      return &col;
    }
  }
  return nullptr;
}

const StripColumn* ColumnarSegment::FindPhysical(std::string_view column,
                                                 ValueType type) const {
  auto it = std::lower_bound(physical_.begin(), physical_.end(), column,
                             [](const StripColumn& c, std::string_view name) {
                               return c.source_column < name;
                             });
  if (it == physical_.end() || it->source_column != column ||
      it->type != type) {
    return nullptr;
  }
  return &*it;
}

}  // namespace sinew::engine
