// DurableDb: the crash-safe LSM write path over a SinewDb.
//
// The generation-image store (sinew/persistence.h) is durable but pays a
// whole-database image rewrite per commit. DurableDb puts a write-ahead log
// and a memtable in front of it, giving the classic LSM shape:
//
//   write ──► WAL append + fsync (common/wal.h)          cheap, per commit
//         ──► in-memory apply (the live engine tables)
//   flush ──► schema analyze + materialize (compaction-time materialization)
//         ──► shred the touched tables' columnar segments (in memory only)
//         ──► next generation image (SaveDatabaseGeneration)
//         ──► truncate the WAL
//
// "Memtable" here is the unflushed delta: this engine already keeps every
// table in memory, so the live tables ARE the merged (image + delta) read
// view and no separate merge structure is needed. DurableDb tracks the
// delta's byte/record volume and the set of touched tables; once the byte
// volume crosses `memtable_flush_bytes`, the next commit triggers a flush.
//
// Flush doubles as compaction — and compaction is exactly the moment the
// paper's schema analyzer and column materializer want to run: the data is
// being rewritten anyway, so column extraction is piggybacked on I/O that is
// already paid for (compaction-time materialization, cf. the AsterixDB
// tuple-compaction framework). Tables untouched since the previous
// generation have their image files copied verbatim instead of re-serialized
// (engine::CopyTableImage).
//
// WAL <-> generation coupling: the active log is `wal-NNNNNN.log` where
// NNNNNN is the generation it deltas. A flush commits generation N+1, starts
// wal-(N+1) and deletes the old log; recovery replays exactly wal-G over the
// loaded generation G and garbage-collects every other wal-* file. This makes
// recovery idempotent: a crash anywhere inside a flush leaves either (old
// image + old log) or (new image [+ new log]) — never a log applied to the
// wrong base image.
//
// Recovery (Open): load the committed generation (RecoverDatabase, with its
// damaged-generation fallback), replay wal-G tolerating a torn tail
// (truncate at the first bad checksum; mid-log corruption fails the Open),
// then — if anything was replayed — immediately flush, so a second crash
// during recovery's own flush re-runs the same replay from the same base
// (double-recovery idempotence). If recovery had to fall back to the
// previous generation, the newer generation's log cannot be applied to it;
// it is orphaned (deleted) and reported in DurableOpenInfo::notes. Columnar
// segments are never persisted, so Open ends by shredding every table once
// (the recovery flush shreds none: replay marks no table touched).
//
// Replay applies logical records: document batches are re-loaded, DML
// statements re-executed. A statement that failed to apply originally was
// still logged (log-before-apply); its replay fails the same deterministic
// way and is skipped.
//
// Concurrency: a commit mutex serializes writers against flushes. It is
// acquired in the write-ahead hook's Before* (log), held across the
// in-memory apply, and released in AfterWrite (which may first run an
// inline flush). Queries do not take it.

#ifndef SINEW_SINEW_DURABLE_DB_H_
#define SINEW_SINEW_DURABLE_DB_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "common/env.h"
#include "common/result.h"
#include "common/wal.h"
#include "sinew/persistence.h"
#include "sinew/sinew_db.h"

namespace sinew {

struct DurableDbOptions {
  SinewOptions sinew;
  /// WAL durability policy (fsync per commit / grouped / never).
  WalWriterOptions wal;
  /// Flush (compact) once the unflushed delta reaches this many logical
  /// bytes. The trigger is evaluated after each commit.
  uint64_t memtable_flush_bytes = 8ull << 20;
  /// Run the schema analyzer + column materializer on every table the delta
  /// touched, as part of flush (compaction-time materialization).
  bool compact_on_flush = true;
};

/// What Open() found and did.
struct DurableOpenInfo {
  /// Generation the store was at after Open (recovery's own flush included).
  uint64_t generation = 0;
  /// Complete WAL records replayed over the loaded image.
  uint64_t replayed_records = 0;
  /// A torn record at the log tail was dropped (normal after a crash).
  bool wal_truncated_tail = false;
  /// The committed generation was damaged; the previous one was loaded.
  bool used_fallback = false;
  /// Human-readable details (fallback reason, orphaned logs); "" if none.
  std::string notes;
};

class DurableDb : private WriteAheadHook {
 public:
  /// Opens (creating if absent) the database in `directory`, running crash
  /// recovery: image load, WAL replay, recovery flush, shred. `env ==
  /// nullptr` means Env::Default().
  static Result<std::unique_ptr<DurableDb>> Open(const std::string& directory,
                                                 DurableDbOptions options = {},
                                                 Env* env = nullptr);

  ~DurableDb() override;

  DurableDb(const DurableDb&) = delete;
  DurableDb& operator=(const DurableDb&) = delete;

  /// The underlying SinewDb. Mutations through it are intercepted by the
  /// write-ahead hook, so calling db()->Query(...) directly is safe.
  SinewDb* db() { return &db_; }

  // Convenience passthroughs (equivalent to calling db()->...).
  Result<uint64_t> LoadJsonLines(const std::string& table,
                                 std::string_view jsonl) {
    return db_.LoadJsonLines(table, jsonl);
  }
  Result<uint64_t> LoadDocuments(const std::string& table,
                                 const std::vector<Value>& docs) {
    return db_.LoadDocuments(table, docs);
  }
  Result<engine::QueryResult> Query(std::string_view sql) {
    return db_.Query(sql);
  }

  /// Explicit flush: compacts the delta into the next generation image and
  /// truncates the WAL, regardless of the byte threshold. No-op (OK) when
  /// the delta is empty.
  Status Flush();

  /// Final WAL sync + close. Deliberately does NOT write an image: shutdown
  /// stays cheap and the next Open replays the log. Call Flush() first for
  /// a replay-free restart. Idempotent; writes after Close are rejected.
  Status Close();

  const DurableOpenInfo& open_info() const { return open_info_; }
  /// Generation the current WAL deltas (bumps at every flush).
  uint64_t current_generation() const;
  /// Unflushed delta accounting.
  uint64_t memtable_bytes() const;
  uint64_t memtable_records() const;
  uint64_t flush_count() const;

  /// The wal-NNNNNN.log path for generation `gen` under `directory` (exposed
  /// so tests can inspect / corrupt the live log).
  static std::string WalPath(const std::string& directory, uint64_t gen);

 private:
  DurableDb(const std::string& directory, DurableDbOptions options, Env* env);

  // WriteAheadHook (log-before-apply; commit_mu_ held Before* -> AfterWrite).
  Status BeforeLoad(const std::string& table,
                    const std::vector<Value>& docs) override;
  Status BeforeDml(std::string_view sql, const std::string& table,
                   engine::StatementKind kind) override;
  void AfterWrite(const Status& apply_status) override;

  /// Appends + commits one encoded record; on OK, commit_mu_ is held.
  Status LogRecordLocked(std::string payload);
  /// Compact: materialize touched tables, write generation current_+1,
  /// switch to its WAL, delete the old log. Requires commit_mu_.
  Status FlushLocked();
  /// Replays one WAL record during Open (hook not yet installed).
  Status ApplyReplayRecord(std::string_view record);
  /// Snapshots every engine table's MutationVersion.
  std::map<std::string, uint64_t> SnapshotVersions();

  const std::string directory_;
  const DurableDbOptions options_;
  Env* const env_;
  SinewDb db_;
  DurableOpenInfo open_info_;

  /// Serializes commits and flushes. Locked in Before*, unlocked in
  /// AfterWrite; public Flush()/Close() take it for their whole duration.
  mutable std::mutex commit_mu_;
  std::unique_ptr<WalWriter> wal_;
  uint64_t current_generation_ = 0;
  bool closed_ = false;

  // The memtable: unflushed-delta accounting (see header comment).
  uint64_t memtable_bytes_ = 0;
  uint64_t memtable_records_ = 0;
  std::set<std::string> touched_tables_;
  /// Table -> MutationVersion as of the last flushed image; tables whose
  /// current version still matches are copied verbatim at the next flush.
  std::map<std::string, uint64_t> flushed_versions_;

  // Staged by Before*, consumed by AfterWrite (valid only while locked).
  uint64_t staged_bytes_ = 0;
  std::string staged_table_;
  bool staged_create_table_ = false;
  uint64_t flush_count_ = 0;
};

}  // namespace sinew

#endif  // SINEW_SINEW_DURABLE_DB_H_
