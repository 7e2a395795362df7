// Attribute dictionary interface.
//
// The paper's serialization format replaces key names with integer attribute
// IDs assigned by the catalog's global dictionary (Section 3.1.2). An
// *attribute* is the combination of a key name and a type: the same key
// observed with two runtime types yields two attribute IDs, which is what
// lets typed extraction return NULL on type mismatch instead of erroring
// (Section 3.2.2).
//
// Nested keys are interned under their full dotted path ("user.id"), so a
// document header always contains globally unique IDs.

#ifndef SINEW_SERIAL_DICTIONARY_H_
#define SINEW_SERIAL_DICTIONARY_H_

#include <algorithm>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "common/value.h"

namespace sinew::serial {

struct Attribute {
  uint32_t id = 0;
  std::string key;        // full dotted path
  ValueType type = ValueType::kNull;
};

/// Maps (key, type) pairs to dense integer IDs and back. Implementations must
/// assign IDs densely starting at `first_id()` and never reuse them.
class AttributeDictionary {
 public:
  virtual ~AttributeDictionary() = default;

  /// Returns the ID for (key, type), allocating a new one if absent.
  virtual Result<uint32_t> Intern(std::string_view key, ValueType type) = 0;

  /// Returns the ID for (key, type) if it exists.
  virtual std::optional<uint32_t> FindId(std::string_view key,
                                         ValueType type) const = 0;

  /// Reverse lookup. Error if the ID was never allocated.
  virtual Result<Attribute> Lookup(uint32_t id) const = 0;

  /// All IDs registered for a key name (one per observed type).
  virtual std::vector<Attribute> FindAllTypes(std::string_view key) const = 0;

  /// Number of registered attributes.
  virtual size_t size() const = 0;
};

/// In-memory dictionary used by tests, benchmarks and the Sinew catalog.
class SimpleDictionary : public AttributeDictionary {
 public:
  Result<uint32_t> Intern(std::string_view key, ValueType type) override {
    auto it = ids_.find(LookupKey{key, type});
    if (it != ids_.end()) return it->second;
    uint32_t id = static_cast<uint32_t>(attrs_.size());
    auto same_key = by_name_.find(key);
    key_heads_.push_back(same_key == by_name_.end()
                             ? id
                             : key_heads_[same_key->second]);
    attrs_.push_back(Attribute{id, std::string(key), type});
    ids_.emplace(StoredKey{std::string(key), type}, id);
    by_name_.emplace(std::string(key), id);
    return id;
  }

  std::optional<uint32_t> FindId(std::string_view key,
                                 ValueType type) const override {
    auto it = ids_.find(LookupKey{key, type});
    if (it == ids_.end()) return std::nullopt;
    return it->second;
  }

  Result<Attribute> Lookup(uint32_t id) const override {
    if (id >= attrs_.size()) {
      return Status::NotFound("attribute id ", id, " not in dictionary");
    }
    return attrs_[id];
  }

  std::vector<Attribute> FindAllTypes(std::string_view key) const override {
    std::vector<Attribute> out;
    auto [begin, end] = by_name_.equal_range(key);
    for (auto it = begin; it != end; ++it) out.push_back(attrs_[it->second]);
    // Deterministic order (by id) regardless of multimap iteration order.
    std::sort(out.begin(), out.end(),
              [](const Attribute& a, const Attribute& b) { return a.id < b.id; });
    return out;
  }

  size_t size() const override { return attrs_.size(); }

  const std::vector<Attribute>& attributes() const { return attrs_; }

  /// The lowest id registered for the key of attribute `id` (its first
  /// typed variant): equal for exactly the attributes sharing a key name.
  /// `id` must have been allocated.
  uint32_t KeyHead(uint32_t id) const { return key_heads_[id]; }

  /// Forgets every attribute. IDs restart at 0 — only safe when all documents
  /// encoded against the old IDs are discarded too (persistence rollback).
  void Clear() {
    attrs_.clear();
    key_heads_.clear();
    ids_.clear();
    by_name_.clear();
  }

 private:
  struct StoredKey {
    std::string key;
    ValueType type;
  };
  struct LookupKey {
    std::string_view key;
    ValueType type;
  };
  /// Transparent comparator: allocation-free lookups by string_view.
  struct KeyLess {
    using is_transparent = void;
    template <typename A, typename B>
    bool operator()(const A& a, const B& b) const {
      std::string_view ak(a.key), bk(b.key);
      if (ak != bk) return ak < bk;
      return a.type < b.type;
    }
  };

  std::vector<Attribute> attrs_;
  std::vector<uint32_t> key_heads_;  // parallel to attrs_ (KeyHead)
  std::map<StoredKey, uint32_t, KeyLess> ids_;
  std::multimap<std::string, uint32_t, std::less<>> by_name_;
};

}  // namespace sinew::serial

#endif  // SINEW_SERIAL_DICTIONARY_H_
