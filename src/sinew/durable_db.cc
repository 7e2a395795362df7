#include "sinew/durable_db.h"

#include <cinttypes>
#include <cstdio>
#include <optional>
#include <utility>

#include "common/bytes.h"
#include "common/metrics.h"
#include "engine/table.h"
#include "json/json.h"

namespace sinew {

namespace {

// Logical WAL record kinds (first payload byte).
constexpr uint8_t kRecordDocs = 1;  // table + JSONL document batch
constexpr uint8_t kRecordDml = 2;   // SQL text, re-executed on replay

constexpr uint8_t kDmlFlagCreateTable = 1;

constexpr std::string_view kWalPrefix = "wal-";
constexpr std::string_view kWalSuffix = ".log";

/// Parses "wal-NNNNNN.log" entry names; nullopt for anything else.
std::optional<uint64_t> ParseWalName(std::string_view name) {
  if (name.size() <= kWalPrefix.size() + kWalSuffix.size()) return std::nullopt;
  if (name.substr(0, kWalPrefix.size()) != kWalPrefix) return std::nullopt;
  if (name.substr(name.size() - kWalSuffix.size()) != kWalSuffix) {
    return std::nullopt;
  }
  std::string_view digits = name.substr(
      kWalPrefix.size(), name.size() - kWalPrefix.size() - kWalSuffix.size());
  uint64_t gen = 0;
  for (char c : digits) {
    if (c < '0' || c > '9') return std::nullopt;
    gen = gen * 10 + static_cast<uint64_t>(c - '0');
  }
  return gen;
}

metrics::Gauge* MemtableBytesGauge() {
  static metrics::Gauge* gauge = metrics::GetGauge("memtable.bytes");
  return gauge;
}

}  // namespace

std::string DurableDb::WalPath(const std::string& directory, uint64_t gen) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "wal-%06" PRIu64 ".log", gen);
  return directory + "/" + buf;
}

DurableDb::DurableDb(const std::string& directory, DurableDbOptions options,
                     Env* env)
    : directory_(directory), options_(options), env_(env), db_(options.sinew) {}

DurableDb::~DurableDb() { (void)Close(); }

Result<std::unique_ptr<DurableDb>> DurableDb::Open(const std::string& directory,
                                                   DurableDbOptions options,
                                                   Env* env) {
  if (env == nullptr) env = Env::Default();
  RETURN_NOT_OK(env->CreateDirs(directory));
  std::unique_ptr<DurableDb> db(new DurableDb(directory, options, env));
  DurableOpenInfo& info = db->open_info_;

  // 1. Load the committed generation image (with the damaged-generation
  //    fallback persistence already provides).
  uint64_t gen = 0;
  if (env->FileExists(directory + "/MANIFEST")) {
    ASSIGN_OR_RETURN(RecoveryInfo rinfo,
                     RecoverDatabase(&db->db_, directory, env));
    gen = rinfo.loaded_generation;
    info.used_fallback = rinfo.used_fallback;
    if (rinfo.used_fallback) {
      info.notes = "fell back to generation " + std::to_string(gen) + ": " +
                   rinfo.fallback_reason;
    }
  }
  db->current_generation_ = gen;

  // 2. Replay the generation's log tail. Mid-log corruption fails the Open
  //    (ReadWalFile returns IOError); a torn tail truncates and is normal.
  const std::string wal_path = WalPath(directory, gen);
  if (env->FileExists(wal_path)) {
    ASSIGN_OR_RETURN(WalReadResult wal, ReadWalFile(env, wal_path));
    info.wal_truncated_tail = wal.truncated_tail;
    for (const std::string& record : wal.records) {
      RETURN_NOT_OK(db->ApplyReplayRecord(record));
      ++info.replayed_records;
    }
    static metrics::Counter* replayed =
        metrics::GetCounter("wal.replayed_records_total");
    replayed->Add(static_cast<int64_t>(info.replayed_records));
  }

  // 3. Garbage-collect logs for other generations. A log newer than the
  //    loaded generation (only possible after a fallback, or a crash between
  //    a flush's manifest commit and its log switch) deltas an image we do
  //    not have — it must not be replayed here, so it is orphaned.
  if (Result<std::vector<std::string>> entries = env->ListDir(directory);
      entries.ok()) {
    for (const std::string& entry : *entries) {
      std::optional<uint64_t> wal_gen = ParseWalName(entry);
      if (!wal_gen.has_value() || *wal_gen == gen) continue;
      if (*wal_gen > gen) {
        if (!info.notes.empty()) info.notes += "; ";
        info.notes += "orphaned " + entry +
                      " (log for a generation newer than the one recovered)";
      }
      (void)env->DeleteFile(directory + "/" + entry);
    }
  }

  // 4. If anything was replayed, flush immediately: the replayed delta is
  //    folded into the next generation image and the log truncated, so a
  //    crash during this flush re-runs the identical replay from the same
  //    base image (double-recovery idempotence).
  if (info.replayed_records > 0) {
    std::lock_guard lock(db->commit_mu_);
    RETURN_NOT_OK(db->FlushLocked());
  } else {
    // Nothing to replay: start (or truncate — dropping at most a torn tail
    // that was never acknowledged) this generation's log.
    ASSIGN_OR_RETURN(db->wal_,
                     WalWriter::Create(env, wal_path, options.wal));
    db->flushed_versions_ = db->SnapshotVersions();
  }
  info.generation = db->current_generation_;

  // 5. Strips are never persisted: shred every table once, over its
  //    recovered rows. The recovery flush shreds none (replay runs before
  //    the hook is installed, so it marks no table touched). Best-effort,
  //    like the flush's shred.
  for (const std::string& table : db->db_.Tables()) {
    (void)db->db_.BuildColumnarSegments(table);
  }

  // 6. Only now, with recovery fully done, start logging new writes.
  db->db_.SetWriteAheadHook(db.get());
  return db;
}

Status DurableDb::ApplyReplayRecord(std::string_view record) {
  BufferReader r(record);
  ASSIGN_OR_RETURN(uint8_t kind, r.ReadU8());
  if (kind == kRecordDocs) {
    ASSIGN_OR_RETURN(std::string_view table, r.ReadLengthPrefixed());
    ASSIGN_OR_RETURN(std::string_view jsonl, r.ReadLengthPrefixed());
    if (!r.AtEnd()) {
      return Status::ParseError("trailing bytes in WAL document record");
    }
    ASSIGN_OR_RETURN(std::vector<Value> docs, json::ParseLines(jsonl));
    // An apply failure here mirrors the original apply failure (the record
    // was logged before the apply): a deterministic no-op, not corruption.
    (void)db_.LoadDocumentsUnlogged(std::string(table), docs);
    return Status::OK();
  }
  if (kind == kRecordDml) {
    ASSIGN_OR_RETURN(uint8_t flags, r.ReadU8());
    ASSIGN_OR_RETURN(std::string_view sql, r.ReadLengthPrefixed());
    ASSIGN_OR_RETURN(std::string_view table, r.ReadLengthPrefixed());
    if (!r.AtEnd()) {
      return Status::ParseError("trailing bytes in WAL DML record");
    }
    // The hook is not installed yet, so this re-execution is not re-logged.
    Result<engine::QueryResult> result = db_.Query(sql);
    if (result.ok() && (flags & kDmlFlagCreateTable) != 0 && !table.empty()) {
      db_.catalog()->RegisterTable(std::string(table));
      db_.NoteTable(std::string(table));
    }
    return Status::OK();
  }
  return Status::ParseError("unknown WAL record kind ", kind);
}

Status DurableDb::LogRecordLocked(std::string payload) {
  commit_mu_.lock();
  if (closed_ || wal_ == nullptr) {
    commit_mu_.unlock();
    return Status::InvalidArgument("DurableDb is closed");
  }
  Status st = wal_->AppendRecord(payload);
  if (st.ok()) st = wal_->Commit();
  if (!st.ok()) {
    commit_mu_.unlock();
    return st;
  }
  staged_bytes_ = payload.size();
  return Status::OK();
}

Status DurableDb::BeforeLoad(const std::string& table,
                             const std::vector<Value>& docs) {
  std::string jsonl;
  for (const Value& doc : docs) {
    jsonl += json::Write(doc);
    jsonl += '\n';
  }
  BufferWriter w;
  w.PutU8(kRecordDocs);
  w.PutLengthPrefixed(table);
  w.PutLengthPrefixed(jsonl);
  RETURN_NOT_OK(LogRecordLocked(w.Release()));
  staged_table_ = table;
  staged_create_table_ = false;
  return Status::OK();
}

Status DurableDb::BeforeDml(std::string_view sql, const std::string& table,
                            engine::StatementKind kind) {
  BufferWriter w;
  w.PutU8(kRecordDml);
  w.PutU8(kind == engine::StatementKind::kCreateTable ? kDmlFlagCreateTable
                                                      : 0);
  w.PutLengthPrefixed(sql);
  w.PutLengthPrefixed(table);
  RETURN_NOT_OK(LogRecordLocked(w.Release()));
  staged_table_ = table;
  staged_create_table_ = kind == engine::StatementKind::kCreateTable;
  return Status::OK();
}

void DurableDb::AfterWrite(const Status& apply_status) {
  // commit_mu_ has been held since Before*; release it on every path.
  if (apply_status.ok()) {
    memtable_bytes_ += staged_bytes_;
    memtable_records_ += 1;
    if (!staged_table_.empty()) touched_tables_.insert(staged_table_);
    if (staged_create_table_ && !staged_table_.empty()) {
      // Adopt the created table into the Sinew-managed set so generation
      // images persist it (replay alone would lose it at WAL truncation).
      db_.catalog()->RegisterTable(staged_table_);
      db_.NoteTable(staged_table_);
    }
    MemtableBytesGauge()->Set(static_cast<int64_t>(memtable_bytes_));
    if (memtable_bytes_ >= options_.memtable_flush_bytes) {
      // Best-effort: on failure the WAL still holds the delta, accounting is
      // kept, and the next commit retries the flush.
      (void)FlushLocked();
    }
  }
  // An apply failure leaves its record in the WAL; replay re-fails it the
  // same deterministic way, so it is not counted against the memtable.
  staged_bytes_ = 0;
  staged_table_.clear();
  staged_create_table_ = false;
  commit_mu_.unlock();
}

Status DurableDb::FlushLocked() {
  if (closed_) return Status::InvalidArgument("DurableDb is closed");
  // Traceable as a span: when the flush is triggered by a query's commit
  // (AfterWrite under the query span) it parents into that query's trace;
  // a standalone Flush() starts its own trace.
  metrics::ScopedSpan flush_span("durable.flush");
  // The shred below replaces the segment of every table the delta touched.
  // Dropping it first keeps the old and the new segment from being in
  // memory together, and spares the scans run meanwhile the stale rows the
  // materializer's moves would make.
  if (db_.columnar_segments_enabled()) {
    for (const std::string& table : touched_tables_) {
      if (Result<engine::Table*> t = db_.engine()->catalog()->GetTable(table);
          t.ok()) {
        (*t)->SetColumnarSegment(nullptr);
      }
    }
  }
  // Compaction-time materialization: the flush rewrites table images anyway,
  // so run the analyzer + materializer on every table the delta touched and
  // serialize the already-columnarized result. Best-effort — a table that
  // cannot be analyzed (e.g. created without a document reservoir) is still
  // persisted as-is.
  if (options_.compact_on_flush) {
    for (const std::string& table : touched_tables_) {
      (void)db_.AnalyzeAndMaterialize(table);
    }
  }
  // Columnar shredding rides the same compaction: every table the delta
  // touched gets a fresh in-memory strip segment over its now-cold rows.
  // Best-effort — a table that cannot be shredded simply stays on the row
  // reservoir.
  if (db_.columnar_segments_enabled()) {
    for (const std::string& table : touched_tables_) {
      (void)db_.BuildColumnarSegments(table);
    }
  }

  // Version snapshot BEFORE serialization: a concurrent background-
  // maintenance mutation between snapshot and save makes the recorded
  // version stale, which only costs an unnecessary re-serialization next
  // flush — never a wrongly skipped one.
  std::map<std::string, uint64_t> versions = SnapshotVersions();
  SaveOptions save;
  for (const auto& [table, version] : versions) {
    auto it = flushed_versions_.find(table);
    if (it != flushed_versions_.end() && it->second == version) {
      save.unchanged_tables.push_back(table);
    }
  }
  ASSIGN_OR_RETURN(uint64_t gen,
                   SaveDatabaseGeneration(&db_, directory_, env_, save));

  // The image is committed; switch to its log. If the new log cannot be
  // created, fail stop: continuing to append to the old log would put
  // acknowledged commits where recovery (which replays only wal-<gen>)
  // would never look.
  Result<std::unique_ptr<WalWriter>> new_wal =
      WalWriter::Create(env_, WalPath(directory_, gen), options_.wal);
  if (!new_wal.ok()) {
    closed_ = true;
    if (wal_ != nullptr) (void)wal_->Close();
    wal_.reset();
    return Status::IOError("generation ", gen,
                           " committed but its WAL could not be created (",
                           new_wal.status().message(),
                           "); database is now closed");
  }
  if (wal_ != nullptr) (void)wal_->Close();
  const std::string old_path = WalPath(directory_, current_generation_);
  wal_ = std::move(*new_wal);
  if (current_generation_ != gen && env_->FileExists(old_path)) {
    (void)env_->DeleteFile(old_path);
  }
  current_generation_ = gen;
  flushed_versions_ = std::move(versions);
  memtable_bytes_ = 0;
  memtable_records_ = 0;
  touched_tables_.clear();
  MemtableBytesGauge()->Set(0);
  static metrics::Counter* runs = metrics::GetCounter("compaction.runs_total");
  runs->Increment();
  ++flush_count_;
  return Status::OK();
}

Status DurableDb::Flush() {
  std::lock_guard lock(commit_mu_);
  if (memtable_records_ == 0) return Status::OK();
  return FlushLocked();
}

Status DurableDb::Close() {
  std::lock_guard lock(commit_mu_);
  if (closed_) return Status::OK();
  closed_ = true;
  Status st = Status::OK();
  if (wal_ != nullptr) {
    st = wal_->Sync();
    Status close_st = wal_->Close();
    if (st.ok()) st = close_st;
    wal_.reset();
  }
  return st;
}

uint64_t DurableDb::current_generation() const {
  std::lock_guard lock(commit_mu_);
  return current_generation_;
}

uint64_t DurableDb::memtable_bytes() const {
  std::lock_guard lock(commit_mu_);
  return memtable_bytes_;
}

uint64_t DurableDb::memtable_records() const {
  std::lock_guard lock(commit_mu_);
  return memtable_records_;
}

uint64_t DurableDb::flush_count() const {
  std::lock_guard lock(commit_mu_);
  return flush_count_;
}

std::map<std::string, uint64_t> DurableDb::SnapshotVersions() {
  std::map<std::string, uint64_t> out;
  for (const std::string& table : db_.Tables()) {
    Result<engine::Table*> engine_table =
        db_.engine()->catalog()->GetTable(table);
    if (engine_table.ok()) out[table] = (*engine_table)->MutationVersion();
  }
  return out;
}

}  // namespace sinew
