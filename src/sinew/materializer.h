// Column materializer (paper Section 3.1.4).
//
// Moves attribute values between the column reservoir and physical columns,
// one atomic row update at a time, in bounded increments (`Step`). A column
// being moved stays dirty until a full pass over the table completes, and
// queries remain correct at every intermediate point because a dirty
// column's reference reads the column, then the reservoir where the column
// is NULL — the paper's COALESCE(column, extract(reservoir)).
//
// The materializer and the loader are mutually exclusive via the catalog's
// per-table maintenance latch; queries are NOT excluded (the whole point of
// the design). Concurrent UPDATE statements against a column mid-movement
// are the one unsupported interleaving (same as the paper, which runs the
// materializer "when there are spare resources").

#ifndef SINEW_SINEW_MATERIALIZER_H_
#define SINEW_SINEW_MATERIALIZER_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "common/result.h"
#include "engine/database.h"
#include "sinew/catalog.h"

namespace sinew {

class ColumnMaterializer {
 public:
  ColumnMaterializer(engine::Database* db, AttributeCatalog* catalog)
      : db_(db), catalog_(catalog) {}

  /// Degree of parallelism for the row-movement phase of a Step (each row
  /// update is independently atomic, so large increments fan out over the
  /// shared pool). 1 = fully serial.
  void SetParallelism(int degree) { parallelism_ = degree < 1 ? 1 : degree; }

  /// Performs up to `max_rows` row updates of pending work on `table`.
  /// Returns the number of rows examined (0 when nothing is dirty). The
  /// increment can be stopped at any point and resumed later; the cursor is
  /// kept across calls.
  Result<uint64_t> Step(const std::string& table, uint64_t max_rows);

  /// Loops Step until no column of `table` is dirty, then refreshes engine
  /// ANALYZE statistics so the optimizer sees the new physical columns.
  Status RunToCompletion(const std::string& table);

 private:
  struct Pass {
    uint64_t cursor = 0;
    uint64_t end = 0;  // row-slot snapshot when the pass started
    std::vector<uint32_t> attr_ids;
  };

  /// Returns the in-flight pass for `table` (starting one if any column is
  /// dirty), or nullptr when there is no work. The pointer stays valid until
  /// FinishPass erases the entry: map nodes are stable, concurrent Steps on
  /// the same table are serialized by the maintenance latch, and only
  /// passes_mu_ — not the per-table latch — guards the map itself, since
  /// Steps on *different* tables run concurrently.
  Result<Pass*> StartPassIfNeeded(const std::string& table);
  Status FinishPass(const std::string& table);

  engine::Database* db_;
  AttributeCatalog* catalog_;
  std::mutex passes_mu_;
  std::map<std::string, Pass> passes_;
  int parallelism_ = 1;
};

}  // namespace sinew

#endif  // SINEW_SINEW_MATERIALIZER_H_
