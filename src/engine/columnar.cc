#include "engine/columnar.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/bytes.h"

namespace sinew::engine {

namespace {

constexpr uint8_t kSegmentFormatVersion = 1;

/// ColumnarSegment's index key for a strip column.
std::pair<uint32_t, ValueType> AttrKey(const StripColumn& col) {
  return {col.attr_id, col.type};
}

Datum StripValueAt(const ColumnStrip& s, uint32_t dense_idx) {
  switch (s.type) {
    case ValueType::kBool:
      return Datum::Bool(s.bools[dense_idx] != 0);
    case ValueType::kInt:
      return Datum::Int(s.ints[dense_idx]);
    case ValueType::kDouble:
      return Datum::Double(s.doubles[dense_idx]);
    case ValueType::kString: {
      const uint32_t begin = s.str_offsets[dense_idx];
      const uint32_t end = s.str_offsets[dense_idx + 1];
      return Datum::Text(s.str_blob.substr(begin, end - begin));
    }
    default:
      return Datum::Null();
  }
}

}  // namespace

Datum StripRef::GetDatum(uint32_t i) const {
  const uint64_t word = strip.presence[i / 64];
  const uint32_t bit = i % 64;
  if (((word >> bit) & 1) == 0) return Datum::Null();
  const uint32_t dense_idx =
      rank[i / 64] +
      static_cast<uint32_t>(__builtin_popcountll(word & ((uint64_t{1} << bit) - 1)));
  return StripValueAt(strip, dense_idx);
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

Datum StripColumn::GetDatum(uint64_t rid) const {
  const uint64_t s = rid / kStripRows;
  if (s >= strips.size()) return Datum::Null();
  const StripRef& ref = strips[s];
  const uint64_t offset = rid - ref.strip.first_row;
  if (offset >= ref.strip.row_count) return Datum::Null();
  return ref.GetDatum(static_cast<uint32_t>(offset));
}

ColumnarSegment::ColumnarSegment(uint64_t row_count,
                                 std::vector<StripColumn> columns)
    : row_count_(row_count), columns_(std::move(columns)) {
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

std::string ColumnarSegment::Serialize() const {
  BufferWriter w;
  w.PutU8(kSegmentFormatVersion);
  w.PutU64(row_count_);
  w.PutVarint(columns_.size());
  for (const StripColumn& col : columns_) {
    w.PutLengthPrefixed(col.source_column);
    w.PutVarint(col.prefix_ids.size());
    for (uint32_t id : col.prefix_ids) w.PutVarint(id);
    w.PutVarint(col.attr_id);
    w.PutU8(static_cast<uint8_t>(col.type));
    w.PutVarint(col.strips.size());
    for (const StripRef& ref : col.strips) {
      w.PutLengthPrefixed(EncodeColumnStrip(ref.strip));
    }
  }
  return w.Release();
}

Result<std::shared_ptr<const ColumnarSegment>> ColumnarSegment::Deserialize(
    std::string_view payload) {
  BufferReader r(payload);
  ASSIGN_OR_RETURN(uint8_t version, r.ReadU8());
  if (version != kSegmentFormatVersion) {
    return Status::IOError("unknown columnar segment version ", version);
  }
  ASSIGN_OR_RETURN(uint64_t row_count, r.ReadU64());
  ASSIGN_OR_RETURN(uint64_t num_columns, r.ReadVarint());
  const uint64_t expected_strips =
      (row_count + kStripRows - 1) / kStripRows;
  std::vector<StripColumn> columns;
  columns.reserve(num_columns);
  for (uint64_t c = 0; c < num_columns; ++c) {
    StripColumn col;
    ASSIGN_OR_RETURN(std::string_view source, r.ReadLengthPrefixed());
    col.source_column.assign(source);
    ASSIGN_OR_RETURN(uint64_t num_prefixes, r.ReadVarint());
    col.prefix_ids.reserve(num_prefixes);
    for (uint64_t p = 0; p < num_prefixes; ++p) {
      ASSIGN_OR_RETURN(uint64_t id, r.ReadVarint());
      col.prefix_ids.push_back(static_cast<uint32_t>(id));
    }
    ASSIGN_OR_RETURN(uint64_t attr_id, r.ReadVarint());
    col.attr_id = static_cast<uint32_t>(attr_id);
    ASSIGN_OR_RETURN(uint8_t type_byte, r.ReadU8());
    col.type = static_cast<ValueType>(type_byte);
    ASSIGN_OR_RETURN(uint64_t num_strips, r.ReadVarint());
    if (num_strips != expected_strips) {
      return Status::IOError("columnar segment strip count ", num_strips,
                                " != expected ", expected_strips);
    }
    col.strips.reserve(num_strips);
    for (uint64_t s = 0; s < num_strips; ++s) {
      ASSIGN_OR_RETURN(std::string_view encoded, r.ReadLengthPrefixed());
      ASSIGN_OR_RETURN(ColumnStrip strip, DecodeColumnStrip(encoded));
      if (strip.first_row != s * kStripRows) {
        return Status::IOError("columnar segment strip first_row ",
                                  strip.first_row, " misaligned");
      }
      const uint64_t expected_rows =
          std::min<uint64_t>(kStripRows, row_count - strip.first_row);
      if (strip.row_count != expected_rows) {
        return Status::IOError("columnar segment strip covers ",
                                  strip.row_count, " rows, expected ",
                                  expected_rows);
      }
      if (strip.type != col.type) {
        return Status::IOError("columnar segment strip type mismatch");
      }
      col.strips.push_back(MakeStripRef(std::move(strip)));
    }
    columns.push_back(std::move(col));
  }
  if (!r.AtEnd()) {
    return Status::IOError("columnar segment has trailing bytes");
  }
  return std::make_shared<const ColumnarSegment>(row_count,
                                                 std::move(columns));
}

}  // namespace sinew::engine
