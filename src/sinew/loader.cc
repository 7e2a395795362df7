#include "sinew/loader.h"

#include <set>

#include "common/metrics.h"
#include "common/thread_pool.h"
#include "json/json.h"
#include "serial/sinew_format.h"

namespace sinew {

namespace {

/// Collects the attribute IDs present in a document (recursively, including
/// attributes nested inside objects and inside arrays of objects), mirroring
/// the paths SerializeDocument interns.
Status CollectAttributeIds(const Value& doc, const std::string& prefix,
                           const AttributeCatalog& catalog,
                           std::set<uint32_t>* out) {
  for (const auto& [key, value] : doc.members()) {
    if (value.is_null()) continue;
    std::string path = prefix + key;
    std::optional<uint32_t> id = catalog.FindId(path, value.type());
    if (!id.has_value()) {
      return Status::Internal("attribute ", path,
                              " missing from catalog after serialization");
    }
    out->insert(*id);
    if (value.is_object()) {
      RETURN_NOT_OK(CollectAttributeIds(value, path + ".", catalog, out));
    } else if (value.is_array()) {
      for (const Value& e : value.array()) {
        if (e.is_object()) {
          RETURN_NOT_OK(CollectAttributeIds(e, path + ".", catalog, out));
        }
      }
    }
  }
  return Status::OK();
}

void IndexDocument(const Value& doc, const std::string& prefix, uint64_t rid,
                   textindex::InvertedIndex* index) {
  for (const auto& [key, value] : doc.members()) {
    std::string path = prefix + key;
    switch (value.type()) {
      case ValueType::kString:
        index->AddText(rid, path, value.string_value());
        break;
      case ValueType::kInt:
        index->AddNumber(rid, path, static_cast<double>(value.int_value()));
        break;
      case ValueType::kDouble:
        index->AddNumber(rid, path, value.double_value());
        break;
      case ValueType::kBool:
        index->AddText(rid, path, value.bool_value() ? "true" : "false");
        break;
      case ValueType::kObject:
        IndexDocument(value, path + ".", rid, index);
        break;
      case ValueType::kArray:
        for (const Value& e : value.array()) {
          if (e.is_string()) {
            index->AddText(rid, path, e.string_value());
          } else if (e.is_number()) {
            index->AddNumber(rid, path, e.AsDouble());
          } else if (e.is_object()) {
            IndexDocument(e, path + ".", rid, index);
          }
        }
        break;
      case ValueType::kNull:
        break;
    }
  }
}

}  // namespace

Result<uint64_t> Loader::LoadDocuments(const std::string& table,
                                       const std::vector<Value>& docs,
                                       textindex::InvertedIndex* index) {
  static metrics::Counter* batches_total =
      metrics::GetCounter("loader.batches_total");
  static metrics::Counter* load_ns_total =
      metrics::GetCounter("loader.load_ns_total");
  batches_total->Increment();
  const uint64_t load_start = metrics::NowNanos();
  // Ensure the engine table and catalog entry exist.
  if (!catalog_->HasTable(table)) {
    catalog_->RegisterTable(table);
  }
  engine::Table* engine_table;
  Result<engine::Table*> existing = db_->catalog()->GetTable(table);
  if (existing.ok()) {
    engine_table = *existing;
  } else {
    engine::Schema schema;
    RETURN_NOT_OK(schema.AddColumn(engine::Column{
        std::string(kReservoirColumn), engine::ColumnType::kBytes, false}));
    ASSIGN_OR_RETURN(engine_table,
                     db_->catalog()->CreateTable(table, std::move(schema)));
  }

  // Validate everything up front so the batch is all-or-nothing before any
  // row lands, and the parallel phase below never sees malformed input.
  for (size_t i = 0; i < docs.size(); ++i) {
    const Value& doc = docs[i];
    if (!doc.is_object()) {
      return Status::InvalidArgument(
          "document ", i, " is not an object (", ValueTypeName(doc.type()),
          ")");
    }
    for (const auto& [key, value] : doc.members()) {
      (void)value;
      if (key == kReservoirColumn || key == "__rid" || key.starts_with("$")) {
        return Status::InvalidArgument("reserved key name '", key, "'");
      }
    }
  }

  // Loader and materializer are mutually exclusive (paper Section 3.1.4).
  std::lock_guard maintenance(catalog_->MaintenanceLatch(table));
  if (!engine_table->FindColumnLatched(kReservoirColumn).has_value()) {
    return Status::InvalidArgument("table ", table,
                                   " has no column reservoir");
  }

  // Phase 1 — serialize each document into its reservoir image and collect
  // its attribute ids. This is the CPU-heavy part of a bulk load (catalog
  // interning is internally synchronized), so it fans out over the shared
  // pool; attribute-id interning order becomes nondeterministic, which is
  // harmless — ids are opaque.
  std::vector<std::string> reservoirs(docs.size());
  std::vector<std::set<uint32_t>> doc_ids(docs.size());
  auto serialize_range = [&](uint64_t lo, uint64_t hi) -> Status {
    for (uint64_t i = lo; i < hi; ++i) {
      ASSIGN_OR_RETURN(reservoirs[i],
                       serial::SerializeDocument(docs[i], catalog_));
      RETURN_NOT_OK(CollectAttributeIds(docs[i], "", *catalog_, &doc_ids[i]));
    }
    return Status::OK();
  };
  if (parallelism_ > 1 && docs.size() >= 64) {
    RETURN_NOT_OK(ThreadPool::Shared()->ParallelFor(
        0, docs.size(), 64, static_cast<size_t>(parallelism_),
        serialize_range));
  } else {
    RETURN_NOT_OK(serialize_range(0, docs.size()));
  }
  uint64_t reservoir_bytes = 0;
  for (const std::string& r : reservoirs) reservoir_bytes += r.size();
  static metrics::Counter* reservoir_bytes_total =
      metrics::GetCounter("loader.reservoir_bytes_total");
  reservoir_bytes_total->Add(reservoir_bytes);

  // Phase 2 — append rows and update occurrence counts in document order
  // (serial, so row ids match input order deterministically).
  // A concurrent query's rewriter may add a physical column at any time, so
  // each row is sized to the schema under its own append. The reservoir is
  // copied, not moved: freeing each one as its row lands would scatter the
  // encoded rows into the holes and cost every later scan its locality.
  uint64_t loaded = 0;
  for (size_t i = 0; i < docs.size(); ++i) {
    ASSIGN_OR_RETURN(uint64_t rid,
                     engine_table->AppendRowWith(
                         kReservoirColumn, engine::Datum::Bytes(reservoirs[i])));

    for (uint32_t id : doc_ids[i]) {
      catalog_->AddOccurrences(table, id, 1);
      // Data for already-materialized attributes lands in the reservoir
      // first; flag the column dirty so the materializer moves it.
      std::optional<AttributeState> state = catalog_->GetState(table, id);
      if (state.has_value() && state->materialized && !state->dirty) {
        RETURN_NOT_OK(catalog_->SetDirty(table, id, true));
      }
    }
    if (index != nullptr) {
      IndexDocument(docs[i], "", rid, index);
    }
    ++loaded;
  }
  static metrics::Counter* docs_total =
      metrics::GetCounter("loader.docs_total");
  docs_total->Add(loaded);
  load_ns_total->Add(metrics::NowNanos() - load_start);
  return loaded;
}

Result<uint64_t> Loader::LoadJsonLines(const std::string& table,
                                       std::string_view jsonl,
                                       textindex::InvertedIndex* index) {
  ASSIGN_OR_RETURN(std::vector<Value> docs, json::ParseLines(jsonl));
  return LoadDocuments(table, docs, index);
}

}  // namespace sinew
