// Plan cache: a repeated statement shape skips rewrite, planning and plan
// hashing (DESIGN.md §13).
//
// SinewDb::Query keeps the rewritten, planned form of recent SELECTs. Its
// key is the statement text with each parameter literal replaced by a tag
// of its kind, so statements that differ only in those literals share one
// entry. A parameter literal is a WHERE literal compared against a column;
// the planner and the executor read it as a parameter slot
// (engine::Expr::param), never folding it, so one plan serves every value
// bound to it. Each entry records the versions of everything its rewrite
// and plan read (PlanEpochs) and is reused only while all of them hold:
// the attribute dictionary, each scanned table's attribute states, schema
// and statistics, the engine's table set, planner options and functions,
// the text-index set, and the Gather degree each table's row count buys.

#ifndef SINEW_SINEW_PLAN_CACHE_H_
#define SINEW_SINEW_PLAN_CACHE_H_

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "engine/database.h"
#include "sinew/catalog.h"
#include "sinew/rewriter.h"

namespace sinew {

/// A statement's plan-cache identity.
struct StatementShape {
  /// The SQL text with each parameter literal's span (the literal and the
  /// blanks after it) replaced by a tag of its kind: `?i`, `?d`, `?t` or
  /// `?b`. Two statements with one key parse to the same tree but for the
  /// values of those literals.
  std::string key;
  /// The value of each parameter slot, in slot order.
  std::vector<engine::Datum> params;
  /// Each slot's literal span [begin, end) in the SQL text, in slot order.
  std::vector<std::pair<uint32_t, uint32_t>> spans;
};

/// Marks the parameter slots of a parsed SELECT or EXPLAIN ANALYZE in place
/// (engine::Expr::param) and returns its shape. A parameter is a non-NULL
/// WHERE literal compared against a column reference: either side of =,
/// <>, <, <=, >, >=, a BETWEEN bound, or a function argument beside one.
/// Every other literal — the select list, LIMIT, IN lists, LIKE patterns,
/// literal-only subtrees, a negated number — stays a constant and part of
/// the key. nullopt for a statement the cache must not hold: any other
/// kind, a system table in FROM (its Table is refreshed per statement), a
/// matches() call or an internal sinew_* function (their literals are
/// resolved at rewrite or plan time).
std::optional<StatementShape> ParameterizeStatement(std::string_view sql,
                                                    engine::Statement* stmt);

/// The versions a plan was built against; Current() while every one holds.
struct PlanEpochs {
  uint64_t dictionary = 0;    // AttributeCatalog::version()
  uint64_t engine = 0;        // Database::PlanEpoch()
  uint64_t text_indexes = 0;  // the owner's text-index set version
  struct TableEpoch {
    std::string name;
    /// Valid while `engine` holds: no table was created or dropped.
    engine::Table* table = nullptr;
    uint64_t attribute_states = 0;  // AttributeCatalog::StateEpoch
    uint64_t plan_version = 0;      // Table::PlanVersion
    int gather_degree = 0;          // the degree its live rows buy
  };
  std::vector<TableEpoch> tables;  // one per distinct FROM table

  /// The current versions for the tables `stmt` reads; nullopt when one
  /// does not exist (the statement fails and is not cached).
  static std::optional<PlanEpochs> Snapshot(
      engine::Database* db, const AttributeCatalog& catalog,
      uint64_t text_indexes, const engine::SelectStatement& stmt);

  /// True while nothing recorded has changed.
  bool Current(engine::Database* db, const AttributeCatalog& catalog,
               uint64_t text_indexes) const;

  friend bool operator==(const PlanEpochs& a, const PlanEpochs& b);
};

/// A bounded, least-recently-used map from statement key to prepared
/// SELECT. Entries are immutable and shared: a hit executes the plan while
/// other threads may execute, evict or replace the same entry. Counts
/// `plan_cache.{hits,misses,evictions,invalidations}` in sinew_metrics.
class PlanCache {
 public:
  /// Entries kept; the least recently used one goes first.
  static constexpr size_t kCapacity = 32;

  struct Entry {
    std::string key;
    PlanEpochs epochs;
    std::shared_ptr<const engine::PlanNode> plan;
    uint64_t plan_hash = 0;  // the query log's hash of the plan text
    RewriteCounts counts;    // replayed by each hit
  };

  /// The current entry for `key`, counted as a hit, or nullptr, counted as
  /// a miss; an entry whose epochs no longer hold is dropped and counted
  /// as an invalidation too.
  std::shared_ptr<const Entry> Lookup(const std::string& key,
                                      engine::Database* db,
                                      const AttributeCatalog& catalog,
                                      uint64_t text_indexes);

  /// Adds (or replaces) the entry for entry->key.
  void Insert(std::shared_ptr<const Entry> entry);

  /// Drops `entry` if it is still the one cached under its key (a hit
  /// whose execution found the plan stale).
  void Evict(const Entry& entry);

  void Clear();

 private:
  using List = std::list<std::shared_ptr<const Entry>>;
  /// Entry key (viewing the entry's own string) to its place in lru_.
  using Index = std::unordered_map<std::string_view, List::iterator>;
  void EraseLocked(Index::iterator it);

  std::mutex mu_;  // guards lru_ and index_
  List lru_;  // most recently used first
  Index index_;
};

}  // namespace sinew

#endif  // SINEW_SINEW_PLAN_CACHE_H_
