#include "engine/row_codec.h"

#include "common/bytes.h"

namespace sinew::engine {

namespace {

Status CheckKind(const Datum& d, ColumnType type, size_t slot) {
  bool ok = false;
  switch (type) {
    case ColumnType::kBool:
      ok = d.is_bool();
      break;
    case ColumnType::kInt:
      ok = d.is_int();
      break;
    case ColumnType::kDouble:
      ok = d.is_double() || d.is_int();  // implicit widening on store
      break;
    case ColumnType::kText:
      ok = d.is_text();
      break;
    case ColumnType::kBytes:
      ok = d.is_bytes() || d.is_text();
      break;
  }
  if (!ok) {
    return Status::TypeError("datum kind does not match column type ",
                             ColumnTypeName(type), " at slot ", slot);
  }
  return Status::OK();
}

}  // namespace

Result<std::string> EncodeRow(const Schema& schema, const DatumRow& row) {
  const size_t n = schema.num_slots();
  if (row.size() != n) {
    return Status::InvalidArgument("row has ", row.size(), " datums, schema ",
                                   n, " slots");
  }
  BufferWriter w(16 + n * 4);
  w.PutVarint(n);
  // Null bitmap: bit i set => slot i non-null.
  size_t bitmap_offset = w.size();
  for (size_t i = 0; i < (n + 7) / 8; ++i) w.PutU8(0);
  std::string bitmap((n + 7) / 8, '\0');
  for (size_t i = 0; i < n; ++i) {
    const Datum& d = row[i];
    const Column& col = schema.columns()[i];
    if (d.is_null() || col.dropped) continue;
    RETURN_NOT_OK(CheckKind(d, col.type, i));
    bitmap[i / 8] = static_cast<char>(bitmap[i / 8] | (1 << (i % 8)));
    switch (col.type) {
      case ColumnType::kBool:
        w.PutU8(d.bool_value() ? 1 : 0);
        break;
      case ColumnType::kInt:
        w.PutI64(d.int_value());
        break;
      case ColumnType::kDouble:
        w.PutDouble(d.AsDouble());
        break;
      case ColumnType::kText:
      case ColumnType::kBytes:
        w.PutLengthPrefixed(d.str());
        break;
    }
  }
  std::string out = w.Release();
  out.replace(bitmap_offset, bitmap.size(), bitmap);
  return out;
}

namespace {

struct RowHeader {
  size_t ncols;
  std::string_view bitmap;
};

Result<RowHeader> ReadHeader(BufferReader* r) {
  RowHeader h;
  ASSIGN_OR_RETURN(uint64_t ncols, r->ReadVarint());
  h.ncols = ncols;
  ASSIGN_OR_RETURN(h.bitmap, r->ReadBytes((ncols + 7) / 8));
  return h;
}

bool BitSet(std::string_view bitmap, size_t i) {
  return (static_cast<unsigned char>(bitmap[i / 8]) >> (i % 8)) & 1;
}

Result<Datum> ReadValue(ColumnType type, BufferReader* r) {
  switch (type) {
    case ColumnType::kBool: {
      ASSIGN_OR_RETURN(uint8_t b, r->ReadU8());
      return Datum::Bool(b != 0);
    }
    case ColumnType::kInt: {
      ASSIGN_OR_RETURN(int64_t v, r->ReadI64());
      return Datum::Int(v);
    }
    case ColumnType::kDouble: {
      ASSIGN_OR_RETURN(double v, r->ReadDouble());
      return Datum::Double(v);
    }
    case ColumnType::kText: {
      ASSIGN_OR_RETURN(std::string_view s, r->ReadLengthPrefixed());
      return Datum::Text(std::string(s));
    }
    case ColumnType::kBytes: {
      ASSIGN_OR_RETURN(std::string_view s, r->ReadLengthPrefixed());
      return Datum::Bytes(std::string(s));
    }
  }
  return Status::Internal("bad column type");
}

}  // namespace

Result<DatumRow> DecodeRow(const Schema& schema, std::string_view data) {
  BufferReader r(data);
  ASSIGN_OR_RETURN(RowHeader h, ReadHeader(&r));
  const size_t n = schema.num_slots();
  if (h.ncols > n) {
    return Status::Internal("row encodes ", h.ncols, " slots, schema has ", n);
  }
  DatumRow row(n);  // default-null
  for (size_t i = 0; i < h.ncols; ++i) {
    if (!BitSet(h.bitmap, i)) continue;
    ASSIGN_OR_RETURN(row[i], ReadValue(schema.columns()[i].type, &r));
  }
  return row;
}

namespace row_walk {

Status Corrupt(const char* what, size_t offset, size_t size) {
  return Status::ParseError("corrupt row encoding: ", what, " at offset ",
                            offset, " of ", size);
}

}  // namespace row_walk

}  // namespace sinew::engine
