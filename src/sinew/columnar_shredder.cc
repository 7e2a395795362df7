#include "sinew/columnar_shredder.h"

#include <algorithm>
#include <cstdint>
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

/// The clean scalar physical columns of a table and the strips they fill:
/// every live kBool/kInt/kDouble/kText schema column whose attribute is not
/// mid-(de)materialization, one strip column each, keyed by column name.
class PhysicalStrips {
 public:
  PhysicalStrips(const engine::Schema& schema, const AttributeCatalog& catalog,
                 const std::string& table_name, uint64_t num_strips) {
    std::vector<std::string> dirty;
    for (const AttributeState& state : catalog.TableAttributes(table_name)) {
      if (!state.dirty) continue;
      Result<serial::Attribute> attr = catalog.Lookup(state.attr_id);
      if (attr.ok()) dirty.push_back(std::move(attr->key));
    }
    const std::vector<engine::Column>& cols = schema.columns();
    for (size_t slot = 0; slot < cols.size(); ++slot) {
      const ValueType type = engine::StripValueType(cols[slot].type);
      if (cols[slot].dropped || type == ValueType::kNull ||
          std::find(dirty.begin(), dirty.end(), cols[slot].name) !=
              dirty.end()) {
        continue;
      }
      slots_.push_back(slot);
      StripColumn& col = columns_.emplace_back();
      col.source_column = cols[slot].name;
      col.type = type;
      col.strips.reserve(num_strips);
    }
    current_.resize(columns_.size());
  }

  /// Ascending schema slots of the shredded columns.
  const std::vector<size_t>& slots() const { return slots_; }

  /// Opens the strip covering rows [first, first + rows).
  void StartStrip(uint64_t first, uint32_t rows) {
    for (size_t k = 0; k < columns_.size(); ++k) {
      current_[k] = ColumnStrip{};
      current_[k].first_row = first;
      current_[k].row_count = rows;
      current_[k].type = columns_[k].type;
      current_[k].presence.assign((rows + 63) / 64, 0);
    }
  }

  /// Row offset (in the open strip) the appends below write at.
  void SetRow(uint32_t offset) { offset_ = offset; }

  // Column k's value of the current row (RowSink forwards each walked slot).
  void Int(size_t k, int64_t v) { engine::StripAppend(&current_[k], offset_, v); }
  void Double(size_t k, double v) {
    engine::StripAppend(&current_[k], offset_, v);
  }
  void Bool(size_t k, bool v) { engine::StripAppend(&current_[k], offset_, v); }
  void Str(size_t k, std::string_view v) {
    engine::StripAppend(&current_[k], offset_, v);
  }

  void FinishStrip() {
    for (size_t k = 0; k < columns_.size(); ++k) {
      columns_[k].strips.push_back(engine::MakeStripRef(std::move(current_[k])));
    }
  }

  std::vector<StripColumn> Release() { return std::move(columns_); }

 private:
  std::vector<size_t> slots_;
  std::vector<StripColumn> columns_;
  std::vector<ColumnStrip> current_;
  uint32_t offset_ = 0;
};

/// WalkRow sink of the shredder's one pass over a row: the reservoir (slot
/// `reservoir_k` of the walk) as a view into the row bytes, valid while the
/// table latch is held, and every other slot into the physical strips. A
/// NULL reservoir leaves `doc` unset.
struct RowSink {
  size_t reservoir_k;
  PhysicalStrips* physical;
  std::optional<std::string_view> doc;
  size_t Column(size_t k) const { return k < reservoir_k ? k : k - 1; }
  void Null(size_t) {}
  void Int(size_t k, int64_t v) { physical->Int(Column(k), v); }
  void Double(size_t k, double v) { physical->Double(Column(k), v); }
  void Bool(size_t k, bool v) { physical->Bool(Column(k), v); }
  void Str(size_t k, std::string_view v) {
    if (k == reservoir_k) {
      doc = v;
    } else {
      physical->Str(Column(k), v);
    }
  }
};

/// The candidates sharing one prefix chain, the first of them at `begin` in
/// the candidate list (sorted by chain), and by attribute id the candidate
/// each id feeds (kNotShredded for any other id).
struct CandidateGroup {
  static constexpr uint32_t kNotShredded = UINT32_MAX;
  size_t begin = 0;
  std::vector<uint32_t> candidate_of;
};

std::vector<CandidateGroup> GroupCandidates(
    const std::vector<Candidate>& candidates) {
  std::vector<CandidateGroup> groups;
  for (size_t g = 0; g < candidates.size();) {
    size_t h = g;
    CandidateGroup& group = groups.emplace_back();
    group.begin = g;
    for (; h < candidates.size() &&
           candidates[h].prefix_ids == candidates[g].prefix_ids;
         ++h) {
      const uint32_t id = candidates[h].attr.id;
      if (group.candidate_of.size() <= id) {
        group.candidate_of.resize(id + 1, CandidateGroup::kNotShredded);
      }
      group.candidate_of[id] = static_cast<uint32_t>(h);
    }
    g = h;
  }
  return groups;
}

/// Per-document scratch of ShredDocument: the ids one group's (sub)document
/// holds that are candidates, the candidate each feeds, and their bytes.
struct DocScratch {
  std::vector<uint32_t> wanted;
  std::vector<uint32_t> candidate;
  std::vector<std::optional<std::string_view>> values;
};

/// Shreds one serialized document into the strip set: one prefix-chain
/// descent per candidate group, then one pass over the ids the
/// (sub)document holds and one ExtractMany over those that are candidates,
/// so the work per document follows its own attributes, not the candidate
/// count. ExtractMany and the per-type decode are the executor's batched
/// extractor's, so strip values match reservoir decodes bit for bit.
Status ShredDocument(const AttributeCatalog& catalog,
                     const std::vector<Candidate>& candidates,
                     const std::vector<CandidateGroup>& groups,
                     std::string_view doc, uint32_t offset,
                     std::vector<ColumnStrip>* strips, DocScratch* scratch) {
  for (const CandidateGroup& group : groups) {
    std::string_view current = doc;
    bool present = true;
    for (uint32_t pid : candidates[group.begin].prefix_ids) {
      serial::DocumentView view(current);
      std::optional<std::string_view> sub = view.Extract(pid);
      if (!sub.has_value()) {
        present = false;
        break;
      }
      current = *sub;
    }
    serial::DocumentView view(current);
    // Validate bounds the header AttributeIdAt reads; a malformed document
    // holds no value here, as ExtractMany would find none in it.
    if (!present || !view.Validate().ok()) continue;
    scratch->wanted.clear();
    scratch->candidate.clear();
    const uint32_t n = *view.attribute_count();
    for (uint32_t i = 0; i < n; ++i) {
      const uint32_t id = view.AttributeIdAt(i);
      if (id < group.candidate_of.size() &&
          group.candidate_of[id] != CandidateGroup::kNotShredded) {
        scratch->wanted.push_back(id);
        scratch->candidate.push_back(group.candidate_of[id]);
      }
    }
    scratch->values.resize(scratch->wanted.size());
    view.ExtractMany(scratch->wanted.data(), scratch->wanted.size(),
                     scratch->values.data());
    for (size_t j = 0; j < scratch->wanted.size(); ++j) {
      const std::optional<std::string_view>& bytes = scratch->values[j];
      if (!bytes.has_value()) continue;
      const uint32_t k = scratch->candidate[j];
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
  }
  return Status::OK();
}

}  // namespace

Result<std::shared_ptr<const ColumnarSegment>> ShredAndAttachSegment(
    engine::Table* table, const AttributeCatalog& catalog,
    const std::string& table_name) {
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

  // --- strip selection: reservoir-resident, scalar, single-typed. The
  //     reservoir stays authoritative for everything excluded.
  std::vector<Candidate> candidates;
  for (const AttributeState& state : catalog.TableAttributes(table_name)) {
    if (state.materialized || state.dirty || state.count == 0) continue;
    Result<serial::Attribute> attr = catalog.Lookup(state.attr_id);
    if (!attr.ok()) continue;
    if (!IsScalar(attr->type)) continue;
    if (catalog.FindAllTypes(attr->key).size() > 1) continue;
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
  const uint64_t num_strips = (row_count + kStripRows - 1) / kStripRows;
  PhysicalStrips physical(schema, catalog, table_name, num_strips);
  if (candidates.empty() && physical.slots().empty()) {
    return std::shared_ptr<const ColumnarSegment>();
  }
  if (candidates.size() > kMaxShredColumns) {
    std::sort(candidates.begin(), candidates.end(),
              [](const Candidate& a, const Candidate& b) {
                return a.count != b.count ? a.count > b.count
                                          : a.attr.id < b.attr.id;
              });
    candidates.resize(kMaxShredColumns);
  }
  // Group by prefix chain, ascending attr ids inside each group: the
  // segment's column order.
  std::sort(candidates.begin(), candidates.end(),
            [](const Candidate& a, const Candidate& b) {
              if (a.prefix_ids != b.prefix_ids) {
                return a.prefix_ids < b.prefix_ids;
              }
              return a.attr.id < b.attr.id;
            });
  const std::vector<CandidateGroup> groups = GroupCandidates(candidates);

  std::vector<StripColumn> columns(candidates.size());
  for (size_t i = 0; i < candidates.size(); ++i) {
    columns[i].source_column = std::string(kReservoirColumn);
    columns[i].prefix_ids = candidates[i].prefix_ids;
    columns[i].attr_id = candidates[i].attr.id;
    columns[i].type = candidates[i].attr.type;
    columns[i].strips.reserve(num_strips);
  }

  // One walk per row reads the reservoir and every physical column.
  std::vector<size_t> slots = physical.slots();
  const auto at = std::lower_bound(slots.begin(), slots.end(), *data_slot);
  const size_t reservoir_k = static_cast<size_t>(at - slots.begin());
  slots.insert(at, *data_slot);
  DocScratch scratch;
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
    physical.StartStrip(first, strip_rows);
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
        const auto offset = static_cast<uint32_t>(rid - first);
        physical.SetRow(offset);
        RowSink row{reservoir_k, &physical, std::nullopt};
        RETURN_NOT_OK(engine::WalkRow(schema, encoded, slots, row));
        if (!row.doc.has_value() || candidates.empty()) continue;
        RETURN_NOT_OK(ShredDocument(catalog, candidates, groups, *row.doc,
                                    offset, &strips, &scratch));
      }
    }
    for (size_t i = 0; i < candidates.size(); ++i) {
      columns[i].strips.push_back(engine::MakeStripRef(std::move(strips[i])));
    }
    physical.FinishStrip();
  }

  const size_t num_columns = columns.size() + physical.slots().size();
  auto segment = std::make_shared<const ColumnarSegment>(
      row_count, std::move(columns), physical.Release());
  if (!table->SetColumnarSegmentIfUnchanged(segment, version)) {
    shred_aborts->Increment();
    return std::shared_ptr<const ColumnarSegment>();
  }
  strips_written->Add(num_strips * num_columns);
  segments_built->Increment();
  return segment;
}

}  // namespace sinew
