#include "sinew/extract_functions.h"

#include <map>
#include <memory>
#include <optional>
#include <shared_mutex>
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

/// A (path, type) resolution against the dictionary, precomputed so per-row
/// extraction is pure header lookups: `direct_id` is the attribute id of the
/// full dotted path at this nesting level, `prefixes` the object-typed id of
/// each dotted prefix with the resolution subtree inside that object.
/// Mirrors DocumentView::ExtractPath with every FindId call hoisted out.
struct ResolvedNode {
  std::optional<uint32_t> direct_id;
  std::vector<std::pair<uint32_t, ResolvedNode>> prefixes;
};

std::optional<std::string_view> WalkResolved(std::string_view data,
                                             const ResolvedNode& node) {
  serial::DocumentView view(data);
  if (node.direct_id.has_value()) {
    if (std::optional<std::string_view> v = view.Extract(*node.direct_id)) {
      return v;
    }
  }
  for (const auto& [oid, sub] : node.prefixes) {
    std::optional<std::string_view> s = view.Extract(oid);
    if (!s.has_value()) continue;
    // Commit to the first present enclosing object, exactly as
    // DocumentView::ExtractPath does.
    return WalkResolved(*s, sub);
  }
  return std::nullopt;
}

/// Fix for the per-row catalog latch: typed extractors used to call
/// ExtractPath, which takes the catalog mutex (FindId) once per dotted
/// prefix per row. This cache resolves a (path, type) pair once per
/// dictionary version; subsequent rows validate against the catalog's
/// lock-free version counter and never touch the mutex.
class PathResolutionCache {
 public:
  std::shared_ptr<const ResolvedNode> Resolve(const AttributeCatalog& catalog,
                                              std::string_view path,
                                              ValueType type) {
    static metrics::Counter* hits =
        metrics::GetCounter("extract.path_cache_hits");
    static metrics::Counter* misses =
        metrics::GetCounter("extract.path_cache_misses");
    const uint64_t version = catalog.version();
    std::string key(path);
    key.push_back('\0');
    key.push_back(static_cast<char>(type));
    {
      std::shared_lock lock(mu_);
      auto it = cache_.find(key);
      if (it != cache_.end() && it->second.first == version) {
        hits->Increment();
        return it->second.second;
      }
    }
    misses->Increment();
    auto node = std::make_shared<ResolvedNode>();
    Build(catalog, path, type, 0, node.get());
    std::unique_lock lock(mu_);
    auto& entry = cache_[std::move(key)];
    entry.first = version;
    entry.second = node;
    return node;
  }

 private:
  static void Build(const AttributeCatalog& catalog, std::string_view path,
                    ValueType type, size_t start, ResolvedNode* node) {
    node->direct_id = catalog.FindId(path, type);
    // Only prefixes extending the already-descended one can exist inside a
    // nested object (its keys are all strictly longer dotted paths), so the
    // recursion starts after the last consumed dot — same reachable set as
    // ExtractPath's full rescan, without the provably-dead lookups.
    for (size_t dot = path.find('.', start); dot != std::string_view::npos;
         dot = path.find('.', dot + 1)) {
      std::optional<uint32_t> oid =
          catalog.FindId(path.substr(0, dot), ValueType::kObject);
      if (!oid.has_value()) continue;
      node->prefixes.emplace_back(*oid, ResolvedNode{});
      Build(catalog, path, type, dot + 1, &node->prefixes.back().second);
    }
  }

  std::shared_mutex mu_;
  std::map<std::string, std::pair<uint64_t, std::shared_ptr<const ResolvedNode>>,
           std::less<>>
      cache_;
};

/// Extracts the raw bytes of (path, type) from a serialized document,
/// descending through nested objects as needed. Resolution comes from the
/// shared cache; no catalog lock on the per-row path.
std::optional<std::string_view> ExtractTyped(const AttributeCatalog& catalog,
                                             PathResolutionCache* cache,
                                             std::string_view data,
                                             std::string_view path,
                                             ValueType type) {
  std::shared_ptr<const ResolvedNode> node =
      cache->Resolve(catalog, path, type);
  return WalkResolved(data, *node);
}

Result<Datum> DecodeScalarTyped(const AttributeCatalog& catalog,
                                ValueType type, std::string_view bytes) {
  ASSIGN_OR_RETURN(Value v, serial::DecodeValueBody(type, bytes, catalog));
  return Datum::FromValue(v);
}

engine::UdfFn MakeTypedExtractor(AttributeCatalog* catalog,
                                 std::shared_ptr<PathResolutionCache> cache,
                                 ValueType type, const char* fn_name) {
  return [catalog, cache, type, fn_name](
             const UdfArgs& args) -> Result<Datum> {
    RETURN_NOT_OK(CheckDataPathArgs(args, fn_name));
    if (args[0]->is_null()) return Datum::Null();
    std::optional<std::string_view> bytes = ExtractTyped(
        *catalog, cache.get(), args[0]->str(), args[1]->str(), type);
    if (!bytes.has_value()) return Datum::Null();
    return DecodeScalarTyped(*catalog, type, *bytes);
  };
}

/// Extracts every target from the serialized document `doc`, appending one
/// value, tagged with `doc_index`, per attribute present. Targets sharing a prefix chain share
/// one nested-object descent, and all attribute ids under a chain resolve in
/// a single header pass (DocumentView::ExtractMany).
Status ExtractFromDoc(const AttributeCatalog& catalog,
                      const std::vector<engine::ExtractTarget>& targets,
                      std::string_view doc, uint32_t doc_index,
                      std::vector<engine::ExtractedValue>* out) {
  const size_t j = targets.size();
  size_t g = 0;
  while (g < j) {
    size_t h = g;
    while (h < j && targets[h].prefix_ids == targets[g].prefix_ids) ++h;
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
    if (!present) {
      g = h;  // every target under this prefix chain stays NULL
      continue;
    }
    // Scratch buffers are thread_local: the registered std::function is
    // shared by every scan, Gather workers included.
    thread_local std::vector<uint32_t> wanted;
    thread_local std::vector<std::optional<std::string_view>> values;
    wanted.clear();
    for (size_t k = g; k < h; ++k) wanted.push_back(targets[k].attr_id);
    values.assign(h - g, std::nullopt);
    serial::DocumentView view(current);
    view.ExtractMany(wanted.data(), wanted.size(), values.data());
    for (size_t k = g; k < h; ++k) {
      const std::optional<std::string_view>& bytes = values[k - g];
      if (!bytes.has_value()) continue;
      const engine::ExtractTarget& t = targets[k];
      engine::ExtractedValue& e = out->emplace_back();
      e.doc = doc_index;
      e.target = static_cast<uint32_t>(k);
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
    g = h;
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
    uint64_t decoded = 0;
    for (size_t n = 0; n < docs.size(); ++n) {
      if (docs[n].data() == nullptr) continue;  // NULL source
      ++decoded;
      RETURN_NOT_OK(ExtractFromDoc(*catalog, targets, docs[n],
                                   static_cast<uint32_t>(n), out));
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
  // One resolution cache shared by every path-taking extractor registered
  // against this catalog; lives as long as any of the registered closures.
  auto cache = std::make_shared<PathResolutionCache>();

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
  registry->Register("sinew_extract_text",
                     MakeTypedExtractor(catalog, cache, ValueType::kString,
                                        "sinew_extract_text"));
  registry->Register("sinew_extract_int",
                     MakeTypedExtractor(catalog, cache, ValueType::kInt,
                                        "sinew_extract_int"));
  registry->Register("sinew_extract_double",
                     MakeTypedExtractor(catalog, cache, ValueType::kDouble,
                                        "sinew_extract_double"));
  registry->Register("sinew_extract_bool",
                     MakeTypedExtractor(catalog, cache, ValueType::kBool,
                                        "sinew_extract_bool"));

  registry->Register(
      "sinew_extract_num",
      [catalog, cache](const UdfArgs& args) -> Result<Datum> {
        RETURN_NOT_OK(CheckDataPathArgs(args, "sinew_extract_num"));
        if (args[0]->is_null()) return Datum::Null();
        for (ValueType type : {ValueType::kInt, ValueType::kDouble}) {
          std::optional<std::string_view> bytes = ExtractTyped(
              *catalog, cache.get(), args[0]->str(), args[1]->str(), type);
          if (bytes.has_value()) {
            return DecodeScalarTyped(*catalog, type, *bytes);
          }
        }
        return Datum::Null();
      });

  registry->Register(
      "sinew_extract_any",
      [catalog, cache](const UdfArgs& args) -> Result<Datum> {
        RETURN_NOT_OK(CheckDataPathArgs(args, "sinew_extract_any"));
        if (args[0]->is_null()) return Datum::Null();
        static constexpr ValueType kOrder[] = {
            ValueType::kBool,   ValueType::kInt,   ValueType::kDouble,
            ValueType::kString, ValueType::kArray, ValueType::kObject};
        for (ValueType type : kOrder) {
          std::optional<std::string_view> bytes = ExtractTyped(
              *catalog, cache.get(), args[0]->str(), args[1]->str(), type);
          if (!bytes.has_value()) continue;
          if (type == ValueType::kArray || type == ValueType::kObject) {
            ASSIGN_OR_RETURN(Value v,
                             serial::DecodeValueBody(type, *bytes, *catalog));
            return Datum::Text(v.ToJson());
          }
          return DecodeScalarTyped(*catalog, type, *bytes);
        }
        return Datum::Null();
      });

  registry->Register(
      "sinew_extract_bytes",
      [catalog, cache](const UdfArgs& args) -> Result<Datum> {
        RETURN_NOT_OK(CheckDataPathArgs(args, "sinew_extract_bytes"));
        if (args[0]->is_null()) return Datum::Null();
        for (ValueType type : {ValueType::kObject, ValueType::kArray}) {
          std::optional<std::string_view> bytes = ExtractTyped(
              *catalog, cache.get(), args[0]->str(), args[1]->str(), type);
          if (bytes.has_value()) return Datum::Bytes(std::string(*bytes));
        }
        return Datum::Null();
      });

  // Batched extraction behind scans' virtual columns: one reservoir decode
  // per row serves every virtual-attribute reference of a pipeline.
  registry->SetBatchExtract(MakeBatchExtractor(catalog));

  // Chain extraction: the query rewriter resolves a dotted path to the
  // attribute-ID descent chain at rewrite time, so the per-row work is pure
  // header binary searches with no dictionary access at all.
  //   sinew_extract_chain(data, type_tag, id0, id1, ..., idN)
  // descends through object ids id0..idN-1 and decodes idN as `type_tag`
  // (objects/arrays render as JSON text, as in sinew_extract_any).
  auto chain_extract = [catalog](const UdfArgs& args,
                                 bool raw_bytes) -> Result<Datum> {
    if (args.size() < 3) {
      return Status::InvalidArgument(
          "sinew_extract_chain expects (data, type, id...)");
    }
    if (args[0]->is_null()) return Datum::Null();
    if (!args[0]->is_bytes() || !args[1]->is_int()) {
      return Status::TypeError("sinew_extract_chain(bytes, int, int...)");
    }
    // Each chain call decodes the row's reservoir anew for one attribute —
    // this is the per-attribute cost the batched path amortizes.
    static metrics::Counter* decodes = metrics::GetCounter("reservoir.decodes");
    static metrics::Histogram* attrs =
        metrics::GetHistogram("reservoir.attrs_per_decode");
    decodes->Increment();
    attrs->Observe(1);
    std::string_view current = args[0]->str();
    for (size_t i = 2; i + 1 < args.size(); ++i) {
      if (!args[i]->is_int()) {
        return Status::TypeError("chain ids must be integers");
      }
      serial::DocumentView view(current);
      std::optional<std::string_view> sub =
          view.Extract(static_cast<uint32_t>(args[i]->int_value()));
      if (!sub.has_value()) return Datum::Null();
      current = *sub;
    }
    serial::DocumentView view(current);
    std::optional<std::string_view> bytes = view.Extract(
        static_cast<uint32_t>(args.back()->int_value()));
    if (!bytes.has_value()) return Datum::Null();
    ValueType type = static_cast<ValueType>(args[1]->int_value());
    if (raw_bytes) return Datum::Bytes(std::string(*bytes));
    if (type == ValueType::kObject || type == ValueType::kArray) {
      ASSIGN_OR_RETURN(Value v,
                       serial::DecodeValueBody(type, *bytes, *catalog));
      return Datum::Text(v.ToJson());
    }
    return DecodeScalarTyped(*catalog, type, *bytes);
  };
  registry->Register("sinew_extract_chain",
                     [chain_extract](const UdfArgs& args) {
                       return chain_extract(args, /*raw_bytes=*/false);
                     });
  registry->Register("sinew_extract_chain_bytes",
                     [chain_extract](const UdfArgs& args) {
                       return chain_extract(args, /*raw_bytes=*/true);
                     });

  // Array containment without materializing the array: walks the serialized
  // element table and memcmps candidate payloads.
  //   sinew_array_contains_chain(data, value, id0, ..., idN)
  registry->Register(
      "sinew_array_contains_chain",
      [](const UdfArgs& args) -> Result<Datum> {
        if (args.size() < 3) {
          return Status::InvalidArgument(
              "sinew_array_contains_chain expects (data, value, id...)");
        }
        if (args[0]->is_null() || args[1]->is_null()) return Datum::Null();
        if (!args[0]->is_bytes()) {
          return Status::TypeError("first argument must be serialized data");
        }
        std::string_view current = args[0]->str();
        for (size_t i = 2; i + 1 < args.size(); ++i) {
          serial::DocumentView view(current);
          std::optional<std::string_view> sub =
              view.Extract(static_cast<uint32_t>(args[i]->int_value()));
          if (!sub.has_value()) return Datum::Null();
          current = *sub;
        }
        serial::DocumentView view(current);
        std::optional<std::string_view> arr = view.Extract(
            static_cast<uint32_t>(args.back()->int_value()));
        if (!arr.has_value()) return Datum::Null();
        ASSIGN_OR_RETURN(bool contains,
                         serial::ArrayContainsScalar(*arr, args[1]->ToValue()));
        return Datum::Bool(contains);
      });

  registry->Register(
      "sinew_array_contains",
      [catalog, cache](const UdfArgs& args) -> Result<Datum> {
        if (args.size() != 3) {
          return Status::InvalidArgument(
              "sinew_array_contains expects (data, path, value)");
        }
        RETURN_NOT_OK(CheckDataPathArgs(args, "sinew_array_contains"));
        if (args[0]->is_null() || args[2]->is_null()) return Datum::Null();
        std::optional<std::string_view> bytes;
        std::string_view path = args[1]->str();
        if (path.empty()) {
          // The first argument is itself the serialized array.
          bytes = args[0]->str();
        } else {
          bytes = ExtractTyped(*catalog, cache.get(), args[0]->str(), path,
                               ValueType::kArray);
        }
        if (!bytes.has_value()) return Datum::Null();
        ASSIGN_OR_RETURN(bool contains, serial::ArrayContainsScalar(
                                            *bytes, args[2]->ToValue()));
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
