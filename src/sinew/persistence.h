// Whole-database persistence: saves/restores a SinewDb — the attribute
// catalog (global dictionary + per-table state) and every engine table —
// to a directory of checksummed binary images. The paper's prototype
// inherits durability from Postgres; microdb provides table images
// (engine/persist), and this module adds the Sinew-layer state plus the
// crash-safe commit protocol on top.
//
// Directory layout (generation commit protocol):
//   <dir>/MANIFEST                 names the committed generation; updated by
//                                  atomic temp-file + rename, so it is always
//                                  either the old or the new complete manifest
//   <dir>/gen-000001/catalog.sinew dictionary + per-table attribute state
//   <dir>/gen-000001/table_<t>.tbl one engine table image per table
//
// SaveDatabase writes the entire new state into a fresh gen-N directory,
// fsyncs every file, then commits by atomically replacing MANIFEST. A crash
// at any point leaves MANIFEST pointing at a fully written generation:
// recovery loads exactly the previous or the new state, never a mix. The
// previously committed generation is retained as a fallback; older and
// uncommitted generations are garbage-collected.
//
// Every image (including MANIFEST) carries the common/image_io.h footer
// (length + masked CRC32C), so torn writes and bit flips are detected at
// load and reported as a non-OK Status.
//
// All I/O goes through an Env (common/env.h); tests pass a
// FaultInjectionEnv to sweep crash points. `env == nullptr` means
// Env::Default().
//
// Text indexes are not persisted (the paper's Solr index is likewise an
// external, rebuildable artifact): call EnableTextIndex() again after Load.
// Columnar segments are not persisted either: they are an in-memory index
// over the loaded rows. A loaded table has none until
// SinewDb::BuildColumnarSegments runs (DurableDb::Open runs it for every
// table).

#ifndef SINEW_SINEW_PERSISTENCE_H_
#define SINEW_SINEW_PERSISTENCE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/env.h"
#include "common/result.h"

namespace sinew {

class SinewDb;

/// Saves the database to `directory` (created if missing) as a new committed
/// generation. On any error the previously committed generation is untouched.
Status SaveDatabase(SinewDb* db, const std::string& directory,
                    Env* env = nullptr);

struct SaveOptions {
  /// Tables whose engine state is known unchanged since the previous
  /// committed generation (Table::MutationVersion snapshots match). Their
  /// image files are copied verbatim from that generation instead of being
  /// re-serialized — the LSM-compaction fast path for cold tables. Names
  /// not present in the previous generation fall back to a normal save.
  std::vector<std::string> unchanged_tables;
};

/// Like SaveDatabase, but returns the committed generation number and
/// accepts compaction options. The WAL layer (sinew/durable_db.h) names its
/// log segments after this number to tie each log to the image it deltas.
Result<uint64_t> SaveDatabaseGeneration(SinewDb* db,
                                        const std::string& directory,
                                        Env* env = nullptr,
                                        const SaveOptions& options = {});

/// Restores the committed generation into `db`, which must be freshly
/// constructed (no tables). Failure-atomic: on a non-OK return (missing
/// files, checksum mismatch, torn image, ...) `db` is reset to fresh rather
/// than left half-populated; use RecoverDatabase to fall back to the
/// previous generation.
Status LoadDatabase(SinewDb* db, const std::string& directory,
                    Env* env = nullptr);

/// What RecoverDatabase loaded.
struct RecoveryInfo {
  uint64_t loaded_generation = 0;
  /// True when the committed generation was damaged and the previous one was
  /// loaded instead.
  bool used_fallback = false;
  /// Why the fallback was needed ("" when used_fallback is false).
  std::string fallback_reason;
};

/// Like LoadDatabase, but on a damaged committed generation falls back to
/// the retained previous generation, and garbage-collects generation
/// directories that are not referenced by the MANIFEST (incomplete saves).
/// Errors only when no intact generation exists.
Result<RecoveryInfo> RecoverDatabase(SinewDb* db, const std::string& directory,
                                     Env* env = nullptr);

/// (De)serializes just the catalog image (exposed for tests).
Result<std::string> SerializeCatalogImage(SinewDb* db);
Status RestoreCatalogImage(SinewDb* db, std::string_view image);

}  // namespace sinew

#endif  // SINEW_SINEW_PERSISTENCE_H_
