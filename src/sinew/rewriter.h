// Query rewriter (paper Section 3.2.2).
//
// Takes standard SQL over the logical universal-relation schema and rewrites
// it to match the hybrid physical schema:
//   - references to clean physical columns pass through;
//   - every other reference to a document attribute becomes one
//     virtual-column reference (engine::ExprKind::kVirtual): the
//     attribute's typed variants the query's type evidence admits
//     (comparisons against literals, arithmetic, LIKE, ...; all of them in
//     a projection), each with its attribute-id descent chain resolved at
//     rewrite time, and its sources in resolution order — its own physical
//     column when it has one (dirty, or multi-typed beside a materialized
//     variant), the nearest materialized nested-object ancestor's column,
//     then the reservoir. A row reads the first non-NULL source: the
//     paper's COALESCE(col, extract(_data)) for dirty columns;
//   - SELECT * expands to the table's top-level logical columns, resolved
//     in one catalog pass and rewritten by the same per-attribute decision
//     as explicit references;
//   - matches(keys, 'query') resolves against the table's inverted text
//     index at rewrite time and becomes `__rid IN (...)` (Section 4.3);
//   - UPDATE ... SET over virtual columns folds into functional updates of
//     the reservoir via sinew_reservoir_set/remove.

#ifndef SINEW_SINEW_REWRITER_H_
#define SINEW_SINEW_REWRITER_H_

#include <map>
#include <memory>
#include <string>
#include <string_view>

#include "common/result.h"
#include "engine/database.h"
#include "sinew/catalog.h"
#include "textindex/inverted_index.h"

namespace sinew {

using TextIndexMap =
    std::map<std::string, std::unique_ptr<textindex::InvertedIndex>>;

/// One statement's rewriter counter increments: added to the global
/// counters when its rewrite ends, and again by every plan-cache hit that
/// skips the rewrite (QueryRewriter::Replay), so per-query ratios read the
/// same either way.
struct RewriteCounts {
  uint64_t physical_refs = 0;     // rewriter.physical_refs_total
  uint64_t virtual_refs = 0;      // rewriter.virtual_refs_total
  uint64_t bind_resolutions = 0;  // extract.bind_time_resolutions

  void Publish() const;
};

class QueryRewriter {
 public:
  QueryRewriter(engine::Database* db, AttributeCatalog* catalog,
                const TextIndexMap* indexes)
      : db_(db), catalog_(catalog), indexes_(indexes) {}

  /// Parses `sql` and rewrites it against the physical schema.
  Result<engine::Statement> Rewrite(std::string_view sql) const;
  /// Rewrites a parsed statement in place (CREATE/INSERT/ANALYZE pass
  /// through unchanged). `counts`, when given, receives the statement's
  /// counter increments.
  Status RewriteStatement(engine::Statement* stmt,
                          RewriteCounts* counts = nullptr) const;

  Status RewriteSelect(engine::SelectStatement* stmt,
                       RewriteCounts* counts = nullptr) const;
  Status RewriteUpdate(engine::UpdateStatement* stmt,
                       RewriteCounts* counts = nullptr) const;
  Status RewriteDelete(engine::DeleteStatement* stmt,
                       RewriteCounts* counts = nullptr) const;

  /// Counts one statement whose rewrite a plan-cache hit skipped, with the
  /// increments its rewrite made.
  static void Replay(const RewriteCounts& counts);

 private:
  class Impl;

  engine::Database* db_;
  AttributeCatalog* catalog_;
  const TextIndexMap* indexes_;
};

}  // namespace sinew

#endif  // SINEW_SINEW_REWRITER_H_
