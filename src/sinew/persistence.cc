#include "sinew/persistence.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <optional>
#include <vector>

#include "common/bytes.h"
#include "common/image_io.h"
#include "common/metrics.h"
#include "engine/persist.h"
#include "engine/table.h"
#include "sinew/sinew_db.h"

namespace sinew {

namespace {

constexpr std::string_view kCatalogMagic = "SINEWCAT";
constexpr uint32_t kCatalogVersion = 1;

constexpr std::string_view kManifestMagic = "SINEWMAN";
constexpr uint32_t kManifestVersion = 1;
constexpr std::string_view kManifestName = "MANIFEST";
constexpr std::string_view kGenPrefix = "gen-";

std::string TableImagePath(const std::string& dir, const std::string& table) {
  return dir + "/table_" + table + ".tbl";
}

std::string ManifestPath(const std::string& dir) {
  return dir + "/" + std::string(kManifestName);
}

std::string GenDirName(const std::string& dir, uint64_t gen) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "gen-%06" PRIu64, gen);
  return dir + "/" + buf;
}

/// Parses "gen-NNNNNN" directory entry names; nullopt for anything else.
std::optional<uint64_t> ParseGenEntry(std::string_view name) {
  if (name.substr(0, kGenPrefix.size()) != kGenPrefix) return std::nullopt;
  std::string_view digits = name.substr(kGenPrefix.size());
  if (digits.empty()) return std::nullopt;
  uint64_t gen = 0;
  for (char c : digits) {
    if (c < '0' || c > '9') return std::nullopt;
    gen = gen * 10 + static_cast<uint64_t>(c - '0');
  }
  return gen;
}

/// The commit record: which generation is current, which one is retained as
/// the fallback, and the tables the current generation contains.
struct Manifest {
  uint64_t current = 0;
  uint64_t previous = 0;  // 0 = none retained
  std::vector<std::string> tables;
};

std::string EncodeManifest(const Manifest& m) {
  BufferWriter w;
  w.PutBytes(kManifestMagic);
  w.PutU32(kManifestVersion);
  w.PutU64(m.current);
  w.PutU64(m.previous);
  w.PutU32(static_cast<uint32_t>(m.tables.size()));
  for (const std::string& table : m.tables) w.PutLengthPrefixed(table);
  return w.Release();
}

Result<Manifest> DecodeManifest(std::string_view payload) {
  BufferReader r(payload);
  ASSIGN_OR_RETURN(std::string_view magic, r.ReadBytes(kManifestMagic.size()));
  if (magic != kManifestMagic) return Status::ParseError("bad MANIFEST magic");
  ASSIGN_OR_RETURN(uint32_t version, r.ReadU32());
  if (version != kManifestVersion) {
    return Status::ParseError("unsupported MANIFEST version ", version);
  }
  Manifest m;
  ASSIGN_OR_RETURN(m.current, r.ReadU64());
  ASSIGN_OR_RETURN(m.previous, r.ReadU64());
  if (m.current == 0) return Status::ParseError("MANIFEST names generation 0");
  ASSIGN_OR_RETURN(uint32_t num_tables, r.ReadU32());
  for (uint32_t i = 0; i < num_tables; ++i) {
    ASSIGN_OR_RETURN(std::string_view table, r.ReadLengthPrefixed());
    m.tables.emplace_back(table);
  }
  if (!r.AtEnd()) return Status::ParseError("trailing bytes in MANIFEST");
  return m;
}

Result<Manifest> ReadManifest(Env* env, const std::string& directory) {
  Result<std::string> payload = ReadImageFile(env, ManifestPath(directory));
  if (!payload.ok()) return payload.status();
  return DecodeManifest(*payload);
}

/// Best-effort cleanup of generations the MANIFEST no longer references and
/// of temp files a crashed save left behind. Never fails the caller: losing
/// garbage is not an error, and a crash mid-GC just leaves it for next time.
void GarbageCollect(Env* env, const std::string& directory, uint64_t keep_a,
                    uint64_t keep_b) {
  auto entries = env->ListDir(directory);
  if (!entries.ok()) return;
  for (const std::string& entry : *entries) {
    if (std::optional<uint64_t> gen = ParseGenEntry(entry)) {
      if (*gen != keep_a && *gen != keep_b) {
        (void)env->RemoveAll(directory + "/" + entry);
      }
    } else if (entry.size() > 4 &&
               entry.compare(entry.size() - 4, 4, ".tmp") == 0) {
      (void)env->DeleteFile(directory + "/" + entry);
    }
  }
}

/// Loads one generation directory into a fresh db. Not failure-atomic by
/// itself — callers reset the db on error.
Status LoadGeneration(SinewDb* db, const std::string& gen_dir, Env* env) {
  ASSIGN_OR_RETURN(std::string catalog_image,
                   ReadImageFile(env, gen_dir + "/catalog.sinew"));
  RETURN_NOT_OK(RestoreCatalogImage(db, catalog_image));
  for (const std::string& table : db->Tables()) {
    RETURN_NOT_OK(engine::LoadTable(TableImagePath(gen_dir, table),
                                    db->engine()->catalog(), env)
                      .status());
  }
  return Status::OK();
}

Status LoadGenerationOrReset(SinewDb* db, const std::string& directory,
                             uint64_t gen, Env* env) {
  Status st = LoadGeneration(db, GenDirName(directory, gen), env);
  if (!st.ok()) db->ResetForRecovery();
  return st;
}

}  // namespace

Result<std::string> SerializeCatalogImage(SinewDb* db) {
  AttributeCatalog* catalog = db->catalog();
  BufferWriter w;
  w.PutBytes(kCatalogMagic);
  w.PutU32(kCatalogVersion);
  // Global dictionary, dense ids in order.
  uint32_t n = static_cast<uint32_t>(catalog->size());
  w.PutU32(n);
  for (uint32_t id = 0; id < n; ++id) {
    ASSIGN_OR_RETURN(serial::Attribute attr, catalog->Lookup(id));
    w.PutLengthPrefixed(attr.key);
    w.PutU8(static_cast<uint8_t>(attr.type));
  }
  // Per-table attribute state.
  std::vector<std::string> tables = catalog->TableNames();
  w.PutU32(static_cast<uint32_t>(tables.size()));
  for (const std::string& table : tables) {
    w.PutLengthPrefixed(table);
    std::vector<AttributeState> attrs = catalog->TableAttributes(table);
    w.PutU32(static_cast<uint32_t>(attrs.size()));
    for (const AttributeState& state : attrs) {
      w.PutU32(state.attr_id);
      w.PutU64(state.count);
      w.PutU8(static_cast<uint8_t>((state.materialized ? 1 : 0) |
                                   (state.dirty ? 2 : 0)));
    }
  }
  return w.Release();
}

Status RestoreCatalogImage(SinewDb* db, std::string_view image) {
  AttributeCatalog* catalog = db->catalog();
  if (catalog->size() != 0) {
    return Status::InvalidArgument(
        "catalog restore requires a fresh SinewDb");
  }
  BufferReader r(image);
  ASSIGN_OR_RETURN(std::string_view magic, r.ReadBytes(kCatalogMagic.size()));
  if (magic != kCatalogMagic) {
    return Status::ParseError("bad catalog image magic");
  }
  ASSIGN_OR_RETURN(uint32_t version, r.ReadU32());
  if (version != kCatalogVersion) {
    return Status::ParseError("unsupported catalog image version ", version);
  }
  ASSIGN_OR_RETURN(uint32_t n, r.ReadU32());
  for (uint32_t id = 0; id < n; ++id) {
    ASSIGN_OR_RETURN(std::string_view key, r.ReadLengthPrefixed());
    ASSIGN_OR_RETURN(uint8_t type, r.ReadU8());
    ASSIGN_OR_RETURN(uint32_t assigned,
                     catalog->Intern(key, static_cast<ValueType>(type)));
    if (assigned != id) {
      return Status::Internal("catalog id mismatch on restore: got ",
                              assigned, ", expected ", id);
    }
  }
  ASSIGN_OR_RETURN(uint32_t num_tables, r.ReadU32());
  for (uint32_t t = 0; t < num_tables; ++t) {
    ASSIGN_OR_RETURN(std::string_view table_view, r.ReadLengthPrefixed());
    std::string table(table_view);
    catalog->RegisterTable(table);
    ASSIGN_OR_RETURN(uint32_t num_attrs, r.ReadU32());
    for (uint32_t a = 0; a < num_attrs; ++a) {
      ASSIGN_OR_RETURN(uint32_t id, r.ReadU32());
      ASSIGN_OR_RETURN(uint64_t count, r.ReadU64());
      ASSIGN_OR_RETURN(uint8_t flags, r.ReadU8());
      catalog->AddOccurrences(table, id, count);
      if ((flags & 1) != 0) {
        RETURN_NOT_OK(catalog->SetMaterialized(table, id, true));
      }
      // SetMaterialized flips dirty; restore the saved bit exactly.
      RETURN_NOT_OK(catalog->SetDirty(table, id, (flags & 2) != 0));
    }
    db->NoteTable(table);
  }
  if (!r.AtEnd()) return Status::ParseError("trailing bytes in catalog image");
  return Status::OK();
}

Status SaveDatabase(SinewDb* db, const std::string& directory, Env* env) {
  return SaveDatabaseGeneration(db, directory, env).status();
}

Result<uint64_t> SaveDatabaseGeneration(SinewDb* db,
                                        const std::string& directory,
                                        Env* env, const SaveOptions& options) {
  if (env == nullptr) env = Env::Default();
  RETURN_NOT_OK(env->CreateDirs(directory));

  // Pick the new generation number: above both the committed generation and
  // any on-disk gen-* leftover, so an interrupted save can never be confused
  // with (or clobber) a committed one.
  uint64_t max_on_disk = 0;
  ASSIGN_OR_RETURN(std::vector<std::string> entries, env->ListDir(directory));
  for (const std::string& entry : entries) {
    if (std::optional<uint64_t> gen = ParseGenEntry(entry)) {
      max_on_disk = std::max(max_on_disk, *gen);
    }
  }
  uint64_t committed = 0;  // 0 = no (readable) committed generation
  if (env->FileExists(ManifestPath(directory))) {
    // A corrupt existing MANIFEST does not block saving: the new commit
    // rewrites it. It does mean there is no trustworthy fallback to retain.
    auto manifest = ReadManifest(env, directory);
    if (manifest.ok()) committed = manifest->current;
  }
  uint64_t next = std::max(max_on_disk, committed) + 1;

  // Stage the complete new state in its own generation directory.
  const std::string gen_dir = GenDirName(directory, next);
  RETURN_NOT_OK(env->CreateDirs(gen_dir));
  ASSIGN_OR_RETURN(std::string catalog_image, SerializeCatalogImage(db));
  RETURN_NOT_OK(
      WriteImageFile(env, gen_dir + "/catalog.sinew", std::move(catalog_image)));
  Manifest manifest;
  manifest.current = next;
  manifest.previous = committed;
  manifest.tables = db->Tables();
  const std::string prev_gen_dir =
      committed != 0 ? GenDirName(directory, committed) : std::string();
  for (const std::string& table : manifest.tables) {
    ASSIGN_OR_RETURN(engine::Table * engine_table,
                     db->engine()->catalog()->GetTable(table));
    const std::string dst = TableImagePath(gen_dir, table);
    // Compaction fast path: an unchanged table's image is copied verbatim
    // from the previous generation instead of re-serialized. A failed copy
    // (missing/damaged source) silently falls back to a full save — the
    // copy is an optimization, never a correctness dependency.
    bool copied = false;
    if (!prev_gen_dir.empty() &&
        std::find(options.unchanged_tables.begin(),
                  options.unchanged_tables.end(),
                  table) != options.unchanged_tables.end()) {
      copied = engine::CopyTableImage(TableImagePath(prev_gen_dir, table),
                                      dst, env)
                   .ok();
    }
    if (!copied) {
      RETURN_NOT_OK(engine::SaveTable(*engine_table, dst, env));
    }
  }

  // Commit point: atomically publish the manifest naming the new generation.
  RETURN_NOT_OK(
      WriteImageFile(env, ManifestPath(directory), EncodeManifest(manifest)));
  static metrics::Counter* generations_committed =
      metrics::GetCounter("persist.generations_committed_total");
  generations_committed->Increment();

  GarbageCollect(env, directory, manifest.current, manifest.previous);
  return manifest.current;
}

Status LoadDatabase(SinewDb* db, const std::string& directory, Env* env) {
  if (env == nullptr) env = Env::Default();
  if (!db->Tables().empty()) {
    return Status::InvalidArgument("LoadDatabase requires a fresh SinewDb");
  }
  ASSIGN_OR_RETURN(Manifest manifest, ReadManifest(env, directory));
  Status st = LoadGenerationOrReset(db, directory, manifest.current, env);
  if (!st.ok()) {
    if (manifest.previous != 0) {
      return Status::IOError(
          "committed generation ", manifest.current, " is damaged: ",
          st.message(), "; RecoverDatabase() can fall back to generation ",
          manifest.previous);
    }
    return Status::IOError("committed generation ", manifest.current,
                           " is damaged: ", st.message(),
                           "; no previous generation is retained");
  }
  return Status::OK();
}

Result<RecoveryInfo> RecoverDatabase(SinewDb* db, const std::string& directory,
                                     Env* env) {
  if (env == nullptr) env = Env::Default();
  if (!db->Tables().empty()) {
    return Status::InvalidArgument("RecoverDatabase requires a fresh SinewDb");
  }
  ASSIGN_OR_RETURN(Manifest manifest, ReadManifest(env, directory));
  Status current_st =
      LoadGenerationOrReset(db, directory, manifest.current, env);
  if (current_st.ok()) {
    GarbageCollect(env, directory, manifest.current, manifest.previous);
    RecoveryInfo info;
    info.loaded_generation = manifest.current;
    return info;
  }
  if (manifest.previous == 0) {
    return Status::IOError("committed generation ", manifest.current,
                           " is damaged: ", current_st.message(),
                           "; no previous generation is retained");
  }
  Status previous_st =
      LoadGenerationOrReset(db, directory, manifest.previous, env);
  if (!previous_st.ok()) {
    return Status::IOError(
        "both retained generations are damaged: generation ", manifest.current,
        ": ", current_st.message(), "; generation ", manifest.previous, ": ",
        previous_st.message());
  }
  // Keep the damaged current generation on disk for post-mortems; only
  // unreferenced generations are collected.
  GarbageCollect(env, directory, manifest.current, manifest.previous);
  static metrics::Counter* fallbacks =
      metrics::GetCounter("persist.recovery_fallbacks_total");
  fallbacks->Increment();
  metrics::MetricsRegistry::Global()->AddTrace(metrics::TraceEvent{
      "persist.recovery_fallback",
      std::string(current_st.message()), metrics::NowNanos(), 0, 0});
  RecoveryInfo info;
  info.loaded_generation = manifest.previous;
  info.used_fallback = true;
  info.fallback_reason = current_st.message();
  return info;
}

}  // namespace sinew
