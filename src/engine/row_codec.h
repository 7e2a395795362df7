// Packed on-heap row encoding, in the spirit of a row-store tuple:
//
//   [varint ncols] [null bitmap, ceil(ncols/8) bytes] [values...]
//
// Values appear for non-null slots only, in slot order:
//   bool    1 byte
//   int     8-byte little-endian
//   double  8-byte little-endian
//   text    varint length + bytes
//   bytes   varint length + bytes
//
// The per-row ncols makes rows self-describing under schema evolution: a row
// encoded before AddColumn simply lacks the trailing slots, which decode as
// NULL — the property Sinew's incremental materializer depends on. Per the
// paper's Postgres rationale (Section 5), a NULL costs one bitmap bit, not
// column width.

#ifndef SINEW_ENGINE_ROW_CODEC_H_
#define SINEW_ENGINE_ROW_CODEC_H_

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "engine/datum.h"
#include "engine/schema.h"

namespace sinew::engine {

/// Encodes a row. `row.size()` must equal `schema.num_slots()`; datum kinds
/// must match column types (or be null).
Result<std::string> EncodeRow(const Schema& schema, const DatumRow& row);

/// Decodes a row into exactly `schema.num_slots()` datums; slots beyond the
/// encoded ncols come back NULL.
Result<DatumRow> DecodeRow(const Schema& schema, std::string_view data);

namespace row_walk {

/// Reads one LEB128 varint at `*p`; false if it runs past `end` or past ten
/// bytes.
inline bool ReadVarint(const char** p, const char* end, uint64_t* out) {
  uint64_t v = 0;
  for (int shift = 0; shift < 64; shift += 7) {
    if (*p == end) return false;
    const auto byte = static_cast<uint8_t>(*(*p)++);
    v |= static_cast<uint64_t>(byte & 0x7f) << shift;
    if ((byte & 0x80) == 0) {
      *out = v;
      return true;
    }
  }
  return false;
}

/// The error a walk returns on bytes that are not a row encoding.
Status Corrupt(const char* what, size_t offset, size_t size);

}  // namespace row_walk

/// The one row walker: a single bounds-checked pass over `slots`
/// (ascending, unique, each < schema.num_slots()) of an encoded row that
/// skips, without copying, every value in between and stops after the last
/// requested slot. It hands each requested slot to `sink` by its index k in
/// `slots`:
///   sink.Null(k)           NULL, beyond the row's encoded arity, or the
///                          row is a deleted row's tombstone (empty bytes);
///   sink.Int(k, int64_t) / sink.Double(k, double) / sink.Bool(k, bool);
///   sink.Str(k, string_view)  TEXT and BYTES, a view into `data`.
/// A sink that also defines Offset(k, size_t) learns, before each present
/// requested value, the byte offset in `data` where it starts.
/// Bytes that are not a row encoding (truncated values, a bitmap or varint
/// running past the end) return ParseError; the sink may then have seen a
/// prefix of the slots. Nothing is allocated.
template <typename Sink>
Status WalkRow(const Schema& schema, std::string_view data,
               std::span<const size_t> slots, Sink&& sink) {
  const size_t n = slots.size();
  if (n == 0) return Status::OK();
  if (data.empty()) {
    for (size_t k = 0; k < n; ++k) sink.Null(k);
    return Status::OK();
  }
  const char* const begin = data.data();
  const char* const end = begin + data.size();
  const char* p = begin;
  uint64_t ncols = 0;
  if (!row_walk::ReadVarint(&p, end, &ncols)) {
    return row_walk::Corrupt("column count", 0, data.size());
  }
  if (ncols > static_cast<uint64_t>(end - p) * 8) {
    return row_walk::Corrupt("null bitmap", p - begin, data.size());
  }
  const auto* bitmap = reinterpret_cast<const uint8_t*>(p);
  p += (ncols + 7) / 8;
  const std::vector<Column>& columns = schema.columns();
  const size_t stop = static_cast<size_t>(
      std::min<uint64_t>(ncols, static_cast<uint64_t>(slots[n - 1]) + 1));
  size_t k = 0;
  for (size_t i = 0; i < stop; ++i) {
    const bool want = i == slots[k];
    if (((bitmap[i >> 3] >> (i & 7)) & 1) == 0) {
      if (want) sink.Null(k++);
      continue;
    }
    if constexpr (requires { sink.Offset(k, size_t{0}); }) {
      if (want) sink.Offset(k, static_cast<size_t>(p - begin));
    }
    switch (columns[i].type) {
      case ColumnType::kBool:
        if (p == end) return row_walk::Corrupt("bool", p - begin, data.size());
        if (want) sink.Bool(k, *p != 0);
        ++p;
        break;
      case ColumnType::kInt:
      case ColumnType::kDouble:
        if (end - p < 8) {
          return row_walk::Corrupt("8-byte value", p - begin, data.size());
        }
        if (want) {
          if (columns[i].type == ColumnType::kInt) {
            int64_t v;
            std::memcpy(&v, p, sizeof(v));
            sink.Int(k, v);
          } else {
            double v;
            std::memcpy(&v, p, sizeof(v));
            sink.Double(k, v);
          }
        }
        p += 8;
        break;
      case ColumnType::kText:
      case ColumnType::kBytes: {
        uint64_t len = 0;
        if (!row_walk::ReadVarint(&p, end, &len) ||
            len > static_cast<uint64_t>(end - p)) {
          return row_walk::Corrupt("length-prefixed value", p - begin,
                                   data.size());
        }
        if (want) sink.Str(k, std::string_view(p, static_cast<size_t>(len)));
        p += len;
        break;
      }
    }
    k += want;
  }
  // Slots beyond the encoded arity decode as NULL.
  for (; k < n; ++k) sink.Null(k);
  return Status::OK();
}

}  // namespace sinew::engine

#endif  // SINEW_ENGINE_ROW_CODEC_H_
