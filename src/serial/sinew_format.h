// Sinew's custom serialization format (paper Section 4.1, Figure 5).
//
// Layout of a serialized document:
//
//   [u32 n]                          number of attributes
//   [n   x u32]                      attribute IDs, ascending
//   [n+1 x u32]                      byte offsets of each value within the
//                                    body; entry n is the body length, so
//                                    value i spans [off[i], off[i+1])
//   [body bytes]
//
// IDs and offsets are stored as two separate runs (not interleaved) to
// maximise cache locality of the binary search over IDs. Key lookup is
// O(log n); extraction is the lookup plus one memcpy-free view of the value
// bytes.
//
// Value encodings (the attribute ID implies the type via the dictionary):
//   bool    1 byte (0/1)
//   int     8-byte little-endian two's complement
//   double  8-byte IEEE-754 little endian
//   string  raw bytes (length implied by the offset table)
//   object  a nested serialized document whose header uses the dictionary
//           IDs of the dotted sub-paths ("user.id")
//   array   u32 count, count x (u8 type tag + u32 length), then payloads;
//           element payloads use the same encodings (nested arrays tagged
//           kArray, nested objects tagged kObject)
//
// Explicit JSON nulls are not stored: absence of an ID means NULL, exactly
// as in the paper.

#ifndef SINEW_SERIAL_SINEW_FORMAT_H_
#define SINEW_SERIAL_SINEW_FORMAT_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "common/result.h"
#include "common/value.h"
#include "serial/dictionary.h"

namespace sinew::serial {

/// Serializes `doc` (must be an object). New keys are interned into `dict`.
/// `path_prefix` is prepended to keys when interning (used for the recursive
/// nested-object case; leave empty for top-level documents).
Result<std::string> SerializeDocument(const Value& doc,
                                      AttributeDictionary* dict,
                                      const std::string& path_prefix = "");

/// Reassembles the full logical document (inverse of SerializeDocument up to
/// member ordering, which becomes attribute-ID order).
Result<Value> DeserializeDocument(std::string_view data,
                                  const AttributeDictionary& dict);

/// Encodes a single standalone value with the array-element encoding
/// (used by the materializer when moving reservoir values into columns and
/// by the update path).
Result<std::string> EncodeValueBody(const Value& value,
                                    AttributeDictionary* dict,
                                    const std::string& path_prefix = "");

/// Decodes a single value given its declared type.
Result<Value> DecodeValueBody(ValueType type, std::string_view bytes,
                              const AttributeDictionary& dict);

/// Zero-copy random-access reader over one serialized document.
class DocumentView {
 public:
  explicit DocumentView(std::string_view data) : data_(data) {}

  /// Validates the header (bounds, sortedness, monotone offsets).
  Status Validate() const;

  /// Number of attributes present.
  Result<uint32_t> attribute_count() const;

  /// Attribute ID at header position i (no bounds check beyond Validate).
  uint32_t AttributeIdAt(uint32_t i) const;

  /// True if the document contains `id`. O(log n).
  bool Has(uint32_t id) const;

  /// Raw value bytes for `id`, or nullopt if absent. O(log n).
  std::optional<std::string_view> Extract(uint32_t id) const;

  /// Batched extraction: fills out[i] with the value bytes of ids[i], or
  /// nullopt when absent. `ids` must be ascending (equal adjacent ids are
  /// allowed and each receives the shared value); the wanted list is
  /// merge-joined against the document's sorted ID run in one forward pass,
  /// so the header is parsed once for all attributes instead of once per
  /// Extract call. Returns the number of ids found.
  size_t ExtractMany(const uint32_t* ids, size_t count,
                     std::optional<std::string_view>* out) const;

  /// Extracts and decodes `id` as its dictionary-declared type. Returns
  /// kNull Value if the attribute is absent.
  Result<Value> ExtractValue(uint32_t id, const AttributeDictionary& dict) const;

  /// Follows a dotted path ("user.id"): resolves the (path, type) attribute
  /// in the *innermost* enclosing document. Returns nullopt when any step is
  /// absent. The declared `type` selects among multi-typed attributes.
  std::optional<std::string_view> ExtractPath(std::string_view path,
                                              ValueType type,
                                              const AttributeDictionary& dict) const;

 private:
  std::string_view data_;
};

/// Zero-materialization array containment: walks the serialized array's
/// element table and compares payload bytes against a scalar needle
/// (cross-numeric int/double equality included). Collection elements never
/// match a scalar needle.
Result<bool> ArrayContainsScalar(std::string_view array_bytes,
                                 const Value& needle);

/// Functional-update helpers used by the UPDATE rewrite path: produce a new
/// serialized document with one attribute set / removed. `encoded` must use
/// the value encoding described above for the attribute's declared type.
Result<std::string> SetAttribute(std::string_view data, uint32_t id,
                                 std::string_view encoded);
Result<std::string> RemoveAttribute(std::string_view data, uint32_t id);

}  // namespace sinew::serial

#endif  // SINEW_SERIAL_SINEW_FORMAT_H_
