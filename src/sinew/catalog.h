// Sinew's catalog (paper Section 3.1.2, Figure 4).
//
// Two parts, exactly as in the paper:
//  (a) a global attribute dictionary mapping (key path, type) -> attribute ID
//      — the dictionary the serialization format compresses key names with;
//  (b) per-table attribute state: occurrence counts, whether the attribute's
//      target representation is a physical column or a virtual (reservoir)
//      one, and the dirty flag that says data movement is still pending.
//
// The catalog also owns the per-table maintenance latch that keeps the
// loader and the column materializer from running concurrently
// (Section 3.1.4).

#ifndef SINEW_SINEW_CATALOG_H_
#define SINEW_SINEW_CATALOG_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/result.h"
#include "serial/dictionary.h"

namespace sinew {

/// Per-table, per-attribute bookkeeping (Figure 4b).
struct AttributeState {
  uint32_t attr_id = 0;
  /// Rows of the table containing this attribute.
  uint64_t count = 0;
  /// Target representation: true = physical column.
  bool materialized = false;
  /// Data movement pending: values may be split between the physical column
  /// and the reservoir; readers resolve the column first, then the
  /// reservoir (one virtual-column reference with both as sources).
  bool dirty = false;
};

/// Per-table, per-attribute access telemetry, aggregated across queries —
/// the workload signal the adaptive materializer (ROADMAP item 3) reads.
/// Fed by the engine's scans through the UdfRegistry heat sink;
/// surfaced as the `sinew_attribute_stats` system table.
struct AttrHeat {
  uint64_t extract_requests = 0;   // lanes that asked for this attribute
  uint64_t strip_served = 0;       // lanes answered from columnar strips
  uint64_t reservoir_served = 0;   // lanes answered by reservoir decode
  uint64_t decode_ns = 0;          // cumulative reservoir decode time share
  uint64_t last_touched_ordinal = 0;  // query ordinal of the latest access
};

class AttributeCatalog : public serial::AttributeDictionary {
 public:
  // --- global dictionary (Figure 4a); thread-safe ---
  Result<uint32_t> Intern(std::string_view key, ValueType type) override;
  std::optional<uint32_t> FindId(std::string_view key,
                                 ValueType type) const override;
  Result<serial::Attribute> Lookup(uint32_t id) const override;
  std::vector<serial::Attribute> FindAllTypes(std::string_view key) const override;
  size_t size() const override;

  /// Monotone dictionary version, bumped whenever Intern adds a new
  /// attribute (and on Clear). Lock-free, so per-query resolution caches can
  /// validate their entries without touching the catalog mutex on every row.
  uint64_t version() const { return version_.load(std::memory_order_acquire); }

  /// Everything the query rewriter needs to know about one dotted path:
  /// every typed variant, its per-table state, and the object attribute id
  /// (plus state) of each dotted prefix, shortest first.
  struct ResolvedPath {
    std::vector<serial::Attribute> types;
    std::vector<std::optional<AttributeState>> states;  // parallel to types
    std::vector<std::optional<uint32_t>> prefix_ids;
    std::vector<std::optional<AttributeState>> prefix_states;
  };

  /// Bind-time batch resolution: resolves every path for `table` under a
  /// single mutex acquisition, instead of one lock round-trip per path per
  /// lookup kind per row. The rewriter calls this once per query.
  std::map<std::string, ResolvedPath, std::less<>> ResolveBatch(
      const std::string& table, const std::vector<std::string>& paths) const;

  /// One typed variant of a key as a table holds it.
  struct KeyVariant {
    serial::Attribute attr;
    AttributeState state;
  };
  /// Every top-level (dot-free) key of a table with its variants.
  struct TopLevelKeys {
    /// Variants grouped by key, in attribute-id order within a key.
    std::vector<KeyVariant> variants;
    /// Per key, in column order: its [begin, end) range of `variants`.
    std::vector<std::pair<uint32_t, uint32_t>> keys;
  };

  /// SELECT * resolution in one pass under a single mutex acquisition.
  /// Keys come in first-observed order (by the lowest attribute id among
  /// their variants); only variants the table holds are listed.
  TopLevelKeys ResolveTopLevel(const std::string& table) const;

  // --- per-table state ---
  /// Registers a table (idempotent).
  void RegisterTable(const std::string& table);
  bool HasTable(const std::string& table) const;

  /// Bumps the occurrence count of an attribute in a table.
  void AddOccurrences(const std::string& table, uint32_t attr_id,
                      uint64_t delta);

  /// Sets the target representation; flips the dirty bit when it changes.
  Status SetMaterialized(const std::string& table, uint32_t attr_id,
                         bool materialized);
  Status SetDirty(const std::string& table, uint32_t attr_id, bool dirty);

  std::optional<AttributeState> GetState(const std::string& table,
                                         uint32_t attr_id) const;
  /// Snapshot of all attribute states of a table, ordered by attribute ID.
  std::vector<AttributeState> TableAttributes(const std::string& table) const;
  /// Attribute IDs currently marked dirty.
  std::vector<uint32_t> DirtyAttributes(const std::string& table) const;

  /// The table's attribute-state epoch: it changes on every transition a
  /// query rewrite reads — the table registered, an attribute first
  /// observed in it, a materialized or dirty flip — and not on occurrence
  /// counts alone, so appending rows leaves it be. Epochs come from one
  /// counter that Clear does not reset: no two states of any table share
  /// one. 0 for a table with no state.
  uint64_t StateEpoch(std::string_view table) const;
  /// The newest epoch of any table. Every transition made after this read
  /// gets a greater epoch: a query reads it before its rewrite, and a scan
  /// of rows moved for a later transition aborts (Table::RaiseMoveEpoch).
  uint64_t LastEpoch() const;

  /// Names of all registered tables.
  std::vector<std::string> TableNames() const;

  // --- attribute heat telemetry ---
  /// Folds one access sample into the per-(table, attribute) heat entry.
  /// `query_ordinal` stamps recency (0 = unknown, keeps the old stamp).
  void RecordHeat(const std::string& table, uint32_t attr_id,
                  uint64_t requests, uint64_t strip_served,
                  uint64_t reservoir_served, uint64_t decode_ns,
                  uint64_t query_ordinal);
  /// Heat entries of one table, keyed by attribute ID.
  std::map<uint32_t, AttrHeat> HeatSnapshot(const std::string& table) const;

  /// The loader/materializer mutual-exclusion latch for a table.
  std::mutex& MaintenanceLatch(const std::string& table);

  /// Forgets the dictionary and all per-table state, returning the catalog to
  /// freshly-constructed. Only safe when no loader/materializer is running
  /// (invalidates MaintenanceLatch references); used to make a failed
  /// persistence restore failure-atomic.
  void Clear();

 private:
  mutable std::mutex mutex_;
  std::atomic<uint64_t> version_{1};
  serial::SimpleDictionary dict_;
  std::map<std::string, std::map<uint32_t, AttributeState>> tables_;
  std::map<std::string, std::map<uint32_t, AttrHeat>> heat_;
  /// StateEpoch per table, and the counter every new epoch is drawn from.
  std::map<std::string, uint64_t, std::less<>> epochs_;
  uint64_t last_epoch_ = 0;
  void BumpEpochLocked(const std::string& table) {
    epochs_[table] = ++last_epoch_;
  }
  // Stable-address latches (std::mutex is not movable).
  std::map<std::string, std::unique_ptr<std::mutex>> latches_;
};

}  // namespace sinew

#endif  // SINEW_SINEW_CATALOG_H_
