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
#include "engine/row_batch.h"

namespace sinew::engine {

/// UDF arguments are passed by pointer so that column values (notably the
/// column reservoir) reach the function without being copied per row.
using UdfArgs = std::vector<const Datum*>;
using UdfFn = std::function<Result<Datum>(const UdfArgs&)>;

/// One output of a batched extraction call (plan node kExtract): read the
/// serialized document in input slot `source_slot`, descend through the
/// nested-object attributes `prefix_ids`, then extract `attr_id` and decode
/// it per `type_tag` (a ValueType tag; opaque to the engine). `raw_bytes`
/// skips decoding and emits the value's serialized bytes verbatim.
struct ExtractTarget {
  int source_slot = -1;
  int64_t type_tag = 0;
  bool raw_bytes = false;
  std::vector<uint32_t> prefix_ids;
  uint32_t attr_id = 0;
};

/// Work done by one batch-extract invocation, fed into per-node EXPLAIN
/// ANALYZE stats by the executor.
struct BatchExtractStats {
  uint64_t decodes = 0;  // source documents decoded (header walks)
  uint64_t attrs = 0;    // attributes requested across those decodes
};

/// Per-attribute access telemetry accumulated by the extract operator and
/// flushed to the heat sink when the operator closes. The engine knows
/// attributes only by (table, attr_id); the sink owner (the Sinew layer's
/// AttributeCatalog) resolves names and aggregates across queries.
struct AttrAccessSample {
  std::string table;
  uint32_t attr_id = 0;
  uint64_t requests = 0;          // lanes that asked for this attribute
  uint64_t strip_served = 0;      // lanes answered from a columnar strip
  uint64_t reservoir_served = 0;  // lanes answered by decoding the reservoir
  uint64_t decode_ns = 0;         // share of reservoir decode time
};

/// Receives attribute-heat samples at operator close. Called on the query
/// thread; implementations must be thread-safe across concurrent queries.
using HeatSinkFn = std::function<void(const std::vector<AttrAccessSample>&)>;

/// Batched extraction function: serves every listed lane of a RowBatch in
/// one call, filling (*out_cols)[t][k] from targets[t] for the k-th entry of
/// `lanes` (NULL-source lanes stay NULL). The planner guarantees targets
/// arrive grouped by source_slot and sorted by (prefix_ids, attr_id), so
/// implementations can decode each source once per lane and merge-join all
/// wanted ids in a single header pass.
using BatchExtractFn = std::function<Status(
    const RowBatch& batch, const std::vector<uint32_t>& lanes,
    const std::vector<ExtractTarget>& targets,
    std::vector<std::vector<Datum>>* out_cols, BatchExtractStats* stats)>;

class UdfRegistry {
 public:
  /// Registers (or replaces) a scalar function under a lower-case name.
  void Register(std::string name, UdfFn fn) {
    fns_[std::move(name)] = std::move(fn);
  }

  const UdfFn* Find(std::string_view name) const {
    auto it = fns_.find(name);
    return it == fns_.end() ? nullptr : &it->second;
  }

  bool Contains(std::string_view name) const { return Find(name) != nullptr; }

  /// Registers (or replaces) a batched extraction function (the engine's
  /// kExtract node resolves its implementation through here, keeping the
  /// serialized-format knowledge outside the engine).
  void RegisterBatchExtract(std::string name, BatchExtractFn fn) {
    batch_extract_[std::move(name)] = std::move(fn);
  }

  const BatchExtractFn* FindBatchExtract(std::string_view name) const {
    auto it = batch_extract_.find(name);
    return it == batch_extract_.end() ? nullptr : &it->second;
  }

  /// Installs the attribute-heat sink (RegisterSinewFunctions points it at
  /// the AttributeCatalog). Unset by default: the extract operator skips all
  /// heat accounting when no sink is present.
  void SetHeatSink(HeatSinkFn sink) { heat_sink_ = std::move(sink); }

  const HeatSinkFn* heat_sink() const {
    return heat_sink_ ? &heat_sink_ : nullptr;
  }

 private:
  std::map<std::string, UdfFn, std::less<>> fns_;
  std::map<std::string, BatchExtractFn, std::less<>> batch_extract_;
  HeatSinkFn heat_sink_;
};

/// Registers the engine's built-in scalar functions: coalesce, abs, lower,
/// upper, length, substr.
void RegisterBuiltinFunctions(UdfRegistry* registry);

}  // namespace sinew::engine

#endif  // SINEW_ENGINE_UDF_H_
