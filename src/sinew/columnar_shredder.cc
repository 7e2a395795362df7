#include "sinew/columnar_shredder.h"

#include <algorithm>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <string_view>
#include <vector>

#include "common/metrics.h"
#include "engine/row_codec.h"
#include "serial/sinew_format.h"
#include "sinew/loader.h"

namespace sinew {

namespace {

using engine::ColumnarSegment;
using engine::kStripRows;
using engine::StripColumn;

struct Candidate {
  serial::Attribute attr;
  std::vector<uint32_t> prefix_ids;
  uint64_t count = 0;
};

bool IsScalar(ValueType t) {
  return t == ValueType::kBool || t == ValueType::kInt ||
         t == ValueType::kDouble || t == ValueType::kString;
}

/// Takes a row's reservoir as a view into the row bytes, valid while the
/// table latch is held; a NULL reservoir leaves `doc` unset.
struct ReservoirSink {
  std::optional<std::string_view> doc;
  void Null(size_t) {}
  void Int(size_t, int64_t) {}
  void Double(size_t, double) {}
  void Bool(size_t, bool) {}
  void Str(size_t, std::string_view v) { doc = v; }
};

/// Shreds one serialized document into the strip set: one prefix-chain
/// descent per candidate group, one ExtractMany header pass per group —
/// exactly the access pattern of ExtractGroupFromDoc in the executor's
/// batched extractor, so strip values match reservoir decodes bit for bit.
Status ShredDocument(const AttributeCatalog& catalog,
                     const std::vector<Candidate>& candidates,
                     std::string_view doc, uint32_t offset,
                     std::vector<ColumnStrip>* strips,
                     std::vector<uint32_t>* wanted_scratch,
                     std::vector<std::optional<std::string_view>>* values_scratch) {
  size_t g = 0;
  while (g < candidates.size()) {
    size_t h = g;
    while (h < candidates.size() &&
           candidates[h].prefix_ids == candidates[g].prefix_ids) {
      ++h;
    }
    std::string_view current = doc;
    bool present = true;
    for (uint32_t pid : candidates[g].prefix_ids) {
      serial::DocumentView view(current);
      std::optional<std::string_view> sub = view.Extract(pid);
      if (!sub.has_value()) {
        present = false;
        break;
      }
      current = *sub;
    }
    if (!present) {
      g = h;
      continue;
    }
    wanted_scratch->clear();
    for (size_t k = g; k < h; ++k) {
      wanted_scratch->push_back(candidates[k].attr.id);
    }
    values_scratch->assign(h - g, std::nullopt);
    serial::DocumentView view(current);
    view.ExtractMany(wanted_scratch->data(), wanted_scratch->size(),
                     values_scratch->data());
    for (size_t k = g; k < h; ++k) {
      const std::optional<std::string_view>& bytes = (*values_scratch)[k - g];
      if (!bytes.has_value()) continue;
      const ValueType type = candidates[k].attr.type;
      ASSIGN_OR_RETURN(Value v, serial::DecodeValueBody(type, *bytes, catalog));
      ColumnStrip* strip = &(*strips)[k];
      switch (type) {
        case ValueType::kBool:
          engine::StripAppend(strip, offset, v.bool_value());
          break;
        case ValueType::kInt:
          engine::StripAppend(strip, offset, v.int_value());
          break;
        case ValueType::kDouble:
          engine::StripAppend(strip, offset, v.double_value());
          break;
        case ValueType::kString:
          engine::StripAppend(strip, offset,
                              std::string_view(v.string_value()));
          break;
        default:
          break;  // filtered out during candidate selection
      }
    }
    g = h;
  }
  return Status::OK();
}

}  // namespace

Result<std::shared_ptr<const ColumnarSegment>> ShredAndAttachSegment(
    engine::Table* table, const AttributeCatalog& catalog,
    const std::string& table_name, const ShredOptions& options) {
  static metrics::Counter* strips_written =
      metrics::GetCounter("strips.written");
  static metrics::Counter* segments_built =
      metrics::GetCounter("columnar.segments_built");
  static metrics::Counter* shred_aborts =
      metrics::GetCounter("columnar.shred_aborts");
  metrics::ScopedSpan shred_span("shred.segment", table_name);

  const uint64_t version = table->MutationVersion();
  const uint64_t row_count = table->RowSlotCount();
  if (row_count == 0) return std::shared_ptr<const ColumnarSegment>();
  std::optional<size_t> data_slot =
      table->FindColumnLatched(kReservoirColumn);
  if (!data_slot.has_value()) return std::shared_ptr<const ColumnarSegment>();
  const engine::Schema schema = table->SchemaSnapshot();
  if (schema.columns()[*data_slot].type != engine::ColumnType::kBytes) {
    return std::shared_ptr<const ColumnarSegment>();
  }

  // --- strip selection: reservoir-resident, scalar, single-typed, dense
  //     enough. The reservoir stays authoritative for everything excluded.
  std::vector<Candidate> candidates;
  for (const AttributeState& state : catalog.TableAttributes(table_name)) {
    if (state.materialized || state.dirty || state.count == 0) continue;
    Result<serial::Attribute> attr = catalog.Lookup(state.attr_id);
    if (!attr.ok()) continue;
    if (!IsScalar(attr->type)) continue;
    if (catalog.FindAllTypes(attr->key).size() > 1) continue;
    if (static_cast<double>(state.count) <
        options.min_density * static_cast<double>(row_count)) {
      continue;
    }
    Candidate c;
    c.attr = std::move(*attr);
    c.count = state.count;
    // Canonical descent chain: the object-typed id of every dotted prefix
    // that exists, in order — identical to the rewriter's ChainPrefixIds, so
    // executor lookups key-match exactly.
    for (size_t dot = c.attr.key.find('.'); dot != std::string::npos;
         dot = c.attr.key.find('.', dot + 1)) {
      std::optional<uint32_t> oid =
          catalog.FindId(std::string_view(c.attr.key).substr(0, dot),
                         ValueType::kObject);
      if (oid.has_value()) c.prefix_ids.push_back(*oid);
    }
    candidates.push_back(std::move(c));
  }
  if (candidates.empty()) return std::shared_ptr<const ColumnarSegment>();
  if (candidates.size() > options.max_columns) {
    std::sort(candidates.begin(), candidates.end(),
              [](const Candidate& a, const Candidate& b) {
                return a.count != b.count ? a.count > b.count
                                          : a.attr.id < b.attr.id;
              });
    candidates.resize(options.max_columns);
  }
  // Group by prefix chain with ascending attr ids inside each group — the
  // ExtractMany merge-join contract.
  std::sort(candidates.begin(), candidates.end(),
            [](const Candidate& a, const Candidate& b) {
              if (a.prefix_ids != b.prefix_ids) {
                return a.prefix_ids < b.prefix_ids;
              }
              return a.attr.id < b.attr.id;
            });

  const uint64_t num_strips = (row_count + kStripRows - 1) / kStripRows;
  std::vector<StripColumn> columns(candidates.size());
  for (size_t i = 0; i < candidates.size(); ++i) {
    columns[i].source_column = std::string(kReservoirColumn);
    columns[i].prefix_ids = candidates[i].prefix_ids;
    columns[i].attr_id = candidates[i].attr.id;
    columns[i].type = candidates[i].attr.type;
    columns[i].strips.reserve(num_strips);
  }

  const std::vector<size_t> slots{*data_slot};
  std::vector<uint32_t> wanted_scratch;
  std::vector<std::optional<std::string_view>> values_scratch;
  for (uint64_t s = 0; s < num_strips; ++s) {
    const uint64_t first = s * kStripRows;
    const uint64_t end = std::min<uint64_t>(row_count, first + kStripRows);
    const uint32_t strip_rows = static_cast<uint32_t>(end - first);
    std::vector<ColumnStrip> strips(candidates.size());
    for (size_t i = 0; i < candidates.size(); ++i) {
      strips[i].first_row = first;
      strips[i].row_count = strip_rows;
      strips[i].type = candidates[i].attr.type;
      strips[i].presence.assign((strip_rows + 63) / 64, 0);
    }
    {
      std::shared_lock lock(table->latch());
      // A mutation since the version snapshot may have rewritten rows we
      // already shredded; abandon the segment rather than publish staleness.
      if (table->MutationVersion() != version) {
        shred_aborts->Increment();
        return std::shared_ptr<const ColumnarSegment>();
      }
      for (uint64_t rid = first; rid < end; ++rid) {
        const std::string& encoded = table->RawRowUnlocked(rid);
        if (encoded.empty()) continue;  // deleted row: stays absent
        ReservoirSink reservoir;
        RETURN_NOT_OK(engine::WalkRow(schema, encoded, slots, reservoir));
        if (!reservoir.doc.has_value()) continue;  // NULL reservoir
        RETURN_NOT_OK(ShredDocument(catalog, candidates, *reservoir.doc,
                                    static_cast<uint32_t>(rid - first),
                                    &strips, &wanted_scratch,
                                    &values_scratch));
      }
    }
    for (size_t i = 0; i < candidates.size(); ++i) {
      columns[i].strips.push_back(engine::MakeStripRef(std::move(strips[i])));
    }
  }

  auto segment =
      std::make_shared<const ColumnarSegment>(row_count, std::move(columns));
  if (!table->SetColumnarSegmentIfUnchanged(segment, version)) {
    shred_aborts->Increment();
    return std::shared_ptr<const ColumnarSegment>();
  }
  strips_written->Add(num_strips * candidates.size());
  segments_built->Increment();
  return segment;
}

}  // namespace sinew
