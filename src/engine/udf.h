// Scalar user-defined function registry. Sinew's extraction functions
// (Section 3.2.2), the jsontext baseline's parse-per-call functions and the
// text-search integration all enter the engine through here, mirroring how
// the paper's prototype extends Postgres with UDFs (Section 5).

#ifndef SINEW_ENGINE_UDF_H_
#define SINEW_ENGINE_UDF_H_

#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "engine/datum.h"
#include "engine/expr.h"

namespace sinew::engine {

/// UDF arguments are passed by pointer so that column values (notably the
/// column reservoir) reach the function without being copied per row.
using UdfArgs = std::vector<const Datum*>;
using UdfFn = std::function<Result<Datum>(const UdfArgs&)>;

/// Work done by one batch-extract invocation, fed into per-node EXPLAIN
/// ANALYZE stats by the executor.
struct BatchExtractStats {
  uint64_t decodes = 0;  // source documents decoded (header walks)
  uint64_t attrs = 0;    // attributes requested across those decodes
};

/// Per-attribute access telemetry accumulated by the scan and flushed to the
/// heat sink when the scan closes. The engine knows attributes only by
/// (table, attr_id); the sink owner (the Sinew layer's AttributeCatalog)
/// resolves names and aggregates across queries.
struct AttrAccessSample {
  std::string table;
  uint32_t attr_id = 0;
  uint64_t requests = 0;          // lanes that asked for this attribute
  uint64_t strip_served = 0;      // lanes answered from a columnar strip
  uint64_t reservoir_served = 0;  // lanes answered by decoding the reservoir
  uint64_t decode_ns = 0;         // share of reservoir decode time
};

/// Receives attribute-heat samples at scan close. Called on the query thread
/// or a Gather worker; implementations must be thread-safe across concurrent
/// queries.
using HeatSinkFn = std::function<void(const std::vector<AttrAccessSample>&)>;

/// One value a batched extraction found: targets[target] of docs[doc].
struct ExtractedValue {
  uint32_t doc = 0;
  uint32_t target = 0;
  Datum value;
};

/// Batched extraction function: appends an ExtractedValue to *out for every
/// target a document holds — attributes a document lacks (and NULL sources)
/// append nothing, and read as NULL. docs[k] is a view into the row bytes,
/// valid for the call only; a view with a null data pointer is a NULL
/// source. Every target reads the same source column, sorted by
/// (prefix_ids, attr_id), so implementations can walk each document's
/// header once and merge-join all wanted ids in a single pass.
using BatchExtractFn = std::function<Status(
    const std::vector<std::string_view>& docs,
    const std::vector<ExtractTarget>& targets,
    std::vector<ExtractedValue>* out, BatchExtractStats* stats)>;

class UdfRegistry {
 public:
  /// Registers (or replaces) a scalar function under a lower-case name.
  void Register(std::string name, UdfFn fn) {
    fns_[std::move(name)] = std::move(fn);
    ++version_;
  }

  /// Bumped by every Register / SetBatchExtract: compiled programs hold the
  /// functions they call, so a cached plan is reused only while it holds.
  /// Registration is not synchronized with queries (set up first).
  uint64_t version() const { return version_; }

  const UdfFn* Find(std::string_view name) const {
    auto it = fns_.find(name);
    return it == fns_.end() ? nullptr : &it->second;
  }

  bool Contains(std::string_view name) const { return Find(name) != nullptr; }

  /// Installs the batched extraction function behind every kVirtual
  /// reference (keeping the serialized-format knowledge outside the
  /// engine): scans call it for their virtual columns and the scalar
  /// evaluator for one document at a time. Unset by default: the planner
  /// then leaves kVirtual nodes unhoisted, and evaluating one is an error.
  void SetBatchExtract(BatchExtractFn fn) {
    batch_extract_ = std::move(fn);
    ++version_;
  }

  const BatchExtractFn* batch_extract() const {
    return batch_extract_ ? &batch_extract_ : nullptr;
  }

  /// Installs the attribute-heat sink (RegisterSinewFunctions points it at
  /// the AttributeCatalog). Unset by default: scans skip all heat accounting
  /// when no sink is present.
  void SetHeatSink(HeatSinkFn sink) { heat_sink_ = std::move(sink); }

  const HeatSinkFn* heat_sink() const {
    return heat_sink_ ? &heat_sink_ : nullptr;
  }

 private:
  std::map<std::string, UdfFn, std::less<>> fns_;
  uint64_t version_ = 0;
  BatchExtractFn batch_extract_;
  HeatSinkFn heat_sink_;
};

/// Registers the engine's built-in scalar functions: coalesce, abs, lower,
/// upper, length, substr.
void RegisterBuiltinFunctions(UdfRegistry* registry);

}  // namespace sinew::engine

#endif  // SINEW_ENGINE_UDF_H_
