#include "sinew/extract_functions.h"

#include <algorithm>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/metrics.h"
#include "common/query_log.h"
#include "serial/sinew_format.h"

namespace sinew {

namespace {

using engine::Datum;
using engine::UdfArgs;

Status CheckDataPathArgs(const UdfArgs& args, const char* fn) {
  if (args.size() < 2) {
    return Status::InvalidArgument(fn, " expects (data, path, ...)");
  }
  if (!args[0]->is_null() && !args[0]->is_bytes()) {
    return Status::TypeError(fn, ": first argument must be serialized data");
  }
  if (!args[1]->is_text()) {
    return Status::TypeError(fn, ": path must be text");
  }
  return Status::OK();
}

Result<Datum> DecodeScalarTyped(const AttributeCatalog& catalog,
                                ValueType type, std::string_view bytes) {
  ASSIGN_OR_RETURN(Value v, serial::DecodeValueBody(type, bytes, catalog));
  return Datum::FromValue(v);
}

/// The targets of one extractor call grouped by prefix chain, computed once
/// per call: targets [begin, end) share targets[begin].prefix_ids, and
/// `wanted` lists every target's attribute id in target order, so a group's
/// ids are wanted[begin, end).
struct TargetGroups {
  std::vector<std::pair<uint32_t, uint32_t>> groups;
  std::vector<uint32_t> wanted;

  explicit TargetGroups(const std::vector<engine::ExtractTarget>& targets) {
    wanted.reserve(targets.size());
    for (const engine::ExtractTarget& t : targets) wanted.push_back(t.attr_id);
    for (size_t g = 0; g < targets.size();) {
      size_t h = g + 1;
      while (h < targets.size() &&
             targets[h].prefix_ids == targets[g].prefix_ids) {
        ++h;
      }
      groups.emplace_back(static_cast<uint32_t>(g), static_cast<uint32_t>(h));
      g = h;
    }
  }
};

/// Extracts every target from the serialized document `doc`, appending one
/// value, tagged with `doc_index`, per attribute present. Targets sharing a
/// prefix chain share one nested-object descent, and all attribute ids under
/// a chain resolve in a single header pass (DocumentView::ExtractMany).
/// `values` is scratch of at least the largest group's size.
Status ExtractFromDoc(const AttributeCatalog& catalog,
                      const std::vector<engine::ExtractTarget>& targets,
                      const TargetGroups& groups, std::string_view doc,
                      uint32_t doc_index,
                      std::vector<std::optional<std::string_view>>* values,
                      std::vector<engine::ExtractedValue>* out) {
  for (const auto& [g, h] : groups.groups) {
    std::string_view current = doc;
    bool present = true;
    for (uint32_t pid : targets[g].prefix_ids) {
      serial::DocumentView view(current);
      std::optional<std::string_view> sub = view.Extract(pid);
      if (!sub.has_value()) {
        present = false;
        break;
      }
      current = *sub;
    }
    if (!present) continue;  // every target under this chain stays NULL
    serial::DocumentView view(current);
    size_t found = view.ExtractMany(groups.wanted.data() + g, h - g,
                                    values->data());
    for (uint32_t k = g; k < h && found > 0; ++k) {
      const std::optional<std::string_view>& bytes = (*values)[k - g];
      if (!bytes.has_value()) continue;
      --found;
      const engine::ExtractTarget& t = targets[k];
      engine::ExtractedValue& e = out->emplace_back();
      e.doc = doc_index;
      e.target = k;
      if (t.raw_bytes) {
        e.value = Datum::Bytes(std::string(*bytes));
        continue;
      }
      ValueType type = static_cast<ValueType>(t.type_tag);
      if (type == ValueType::kObject || type == ValueType::kArray) {
        ASSIGN_OR_RETURN(Value v,
                         serial::DecodeValueBody(type, *bytes, catalog));
        e.value = Datum::Text(v.ToJson());
      } else {
        ASSIGN_OR_RETURN(e.value, DecodeScalarTyped(catalog, type, *bytes));
      }
    }
  }
  return Status::OK();
}

/// The batched extractor behind scans' virtual columns: one call serves
/// every lane handed over, walking each lane's reservoir header once and
/// serving every wanted attribute from that single pass
/// (DocumentView::ExtractMany). Targets arrive sorted by (prefix chain, attr
/// id); equal prefix chains share one descent. Dispatch and stats/metrics
/// updates amortize over the whole batch.
engine::BatchExtractFn MakeBatchExtractor(AttributeCatalog* catalog) {
  return [catalog](const std::vector<std::string_view>& docs,
                   const std::vector<engine::ExtractTarget>& targets,
                   std::vector<engine::ExtractedValue>* out,
                   engine::BatchExtractStats* stats) -> Status {
    static metrics::Counter* decodes_counter =
        metrics::GetCounter("reservoir.decodes");
    static metrics::Histogram* attrs_hist =
        metrics::GetHistogram("reservoir.attrs_per_decode");
    const TargetGroups groups(targets);
    size_t widest = 0;
    for (const auto& [g, h] : groups.groups) {
      widest = std::max<size_t>(widest, h - g);
    }
    std::vector<std::optional<std::string_view>> values(widest);
    uint64_t decoded = 0;
    for (size_t n = 0; n < docs.size(); ++n) {
      if (docs[n].data() == nullptr) continue;  // NULL source
      ++decoded;
      RETURN_NOT_OK(ExtractFromDoc(*catalog, targets, groups, docs[n],
                                   static_cast<uint32_t>(n), &values, out));
    }
    stats->decodes += decoded;
    stats->attrs += decoded * targets.size();
    decodes_counter->Add(decoded);
    attrs_hist->ObserveN(targets.size(), decoded);
    return Status::OK();
  };
}

/// Encodes a scalar datum with the reservoir value encoding; returns its
/// ValueType alongside.
Result<std::pair<ValueType, std::string>> EncodeScalarDatum(const Datum& v) {
  Value value = v.ToValue();
  ASSIGN_OR_RETURN(std::string body,
                   serial::EncodeValueBody(value, nullptr, ""));
  return std::make_pair(value.type(), std::move(body));
}

}  // namespace

void RegisterSinewFunctions(engine::UdfRegistry* registry,
                            AttributeCatalog* catalog) {
  // Attribute heat: the scan accumulates per-target access tallies and
  // flushes them here at close; the catalog aggregates them across queries
  // (surfaced as sinew_attribute_stats). Called from Gather worker threads
  // too — RecordHeat is mutex-guarded.
  registry->SetHeatSink(
      [catalog](const std::vector<engine::AttrAccessSample>& samples) {
        const uint64_t ordinal = qlog::QueryLog::Global()->CurrentOrdinal();
        for (const engine::AttrAccessSample& s : samples) {
          catalog->RecordHeat(s.table, s.attr_id, s.requests, s.strip_served,
                              s.reservoir_served, s.decode_ns, ordinal);
        }
      });
  // Batched extraction behind every virtual-column reference: in a scan,
  // one reservoir decode per row serves all of a pipeline's references.
  registry->SetBatchExtract(MakeBatchExtractor(catalog));

  // Array containment over a serialized array (a raw-bytes virtual column or
  // a clean array column): walks its element table and memcmps candidate
  // payloads.
  registry->Register(
      "sinew_array_contains", [](const UdfArgs& args) -> Result<Datum> {
        if (args.size() != 2) {
          return Status::InvalidArgument(
              "sinew_array_contains expects (array, value)");
        }
        if (args[0]->is_null() || args[1]->is_null()) return Datum::Null();
        if (!args[0]->is_bytes()) {
          return Status::TypeError("sinew_array_contains on non-bytes");
        }
        ASSIGN_OR_RETURN(bool contains,
                         serial::ArrayContainsScalar(args[0]->str(),
                                                     args[1]->ToValue()));
        return Datum::Bool(contains);
      });

  registry->Register(
      "sinew_reservoir_set",
      [catalog](const UdfArgs& args) -> Result<Datum> {
        if (args.size() != 3) {
          return Status::InvalidArgument(
              "sinew_reservoir_set expects (data, path, value)");
        }
        RETURN_NOT_OK(CheckDataPathArgs(args, "sinew_reservoir_set"));
        std::string data;
        if (args[0]->is_null()) {
          ASSIGN_OR_RETURN(
              data, serial::SerializeDocument(Value::Object({}), catalog));
        } else {
          data = args[0]->str();
        }
        const std::string& path = args[1]->str();
        if (args[2]->is_null()) {
          // Setting NULL removes every typed variant of the attribute.
          for (const serial::Attribute& attr : catalog->FindAllTypes(path)) {
            ASSIGN_OR_RETURN(data, serial::RemoveAttribute(data, attr.id));
          }
          return Datum::Bytes(std::move(data));
        }
        ASSIGN_OR_RETURN(auto typed, EncodeScalarDatum(*args[2]));
        ASSIGN_OR_RETURN(uint32_t id, catalog->Intern(path, typed.first));
        // Remove other-typed variants of the key first, then set.
        for (const serial::Attribute& attr : catalog->FindAllTypes(path)) {
          if (attr.id != id) {
            ASSIGN_OR_RETURN(data, serial::RemoveAttribute(data, attr.id));
          }
        }
        ASSIGN_OR_RETURN(data, serial::SetAttribute(data, id, typed.second));
        return Datum::Bytes(std::move(data));
      });

  registry->Register(
      "sinew_reservoir_remove",
      [catalog](const UdfArgs& args) -> Result<Datum> {
        if (args.size() != 2) {
          return Status::InvalidArgument(
              "sinew_reservoir_remove expects (data, path)");
        }
        RETURN_NOT_OK(CheckDataPathArgs(args, "sinew_reservoir_remove"));
        if (args[0]->is_null()) return Datum::Null();
        std::string data = args[0]->str();
        for (const serial::Attribute& attr :
             catalog->FindAllTypes(args[1]->str())) {
          ASSIGN_OR_RETURN(data, serial::RemoveAttribute(data, attr.id));
        }
        return Datum::Bytes(std::move(data));
      });

  registry->Register(
      "sinew_render_object",
      [catalog](const UdfArgs& args) -> Result<Datum> {
        if (args.size() != 1) {
          return Status::InvalidArgument("sinew_render_object expects (data)");
        }
        if (args[0]->is_null()) return Datum::Null();
        if (!args[0]->is_bytes()) {
          return Status::TypeError("sinew_render_object on non-bytes");
        }
        ASSIGN_OR_RETURN(Value v, serial::DeserializeDocument(args[0]->str(),
                                                              *catalog));
        return Datum::Text(v.ToJson());
      });

  registry->Register(
      "sinew_render_array",
      [catalog](const UdfArgs& args) -> Result<Datum> {
        if (args.size() != 1) {
          return Status::InvalidArgument("sinew_render_array expects (data)");
        }
        if (args[0]->is_null()) return Datum::Null();
        if (!args[0]->is_bytes()) {
          return Status::TypeError("sinew_render_array on non-bytes");
        }
        ASSIGN_OR_RETURN(Value v, serial::DecodeValueBody(
                                      ValueType::kArray, args[0]->str(),
                                      *catalog));
        return Datum::Text(v.ToJson());
      });

  registry->Register(
      "sinew_reconstruct",
      [catalog](const UdfArgs& args) -> Result<Datum> {
        if (args.size() != 1) {
          return Status::InvalidArgument("sinew_reconstruct expects (data)");
        }
        if (args[0]->is_null()) return Datum::Null();
        if (!args[0]->is_bytes()) {
          return Status::TypeError("sinew_reconstruct on non-bytes");
        }
        ASSIGN_OR_RETURN(Value doc, serial::DeserializeDocument(
                                        args[0]->str(), *catalog));
        return Datum::Text(doc.ToJson());
      });
}

}  // namespace sinew
