#include "harness/ledger.h"

#include <malloc.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <unordered_map>

#include "common/rng.h"
#include "common/value.h"
#include "json/json.h"

namespace perfbench {

namespace {

using sinew::Value;
using sinew::metrics::NowNanos;

/// Engine counters the per-layer ledger reads (all already maintained by
/// the engine; the benchmark adds none).
constexpr std::string_view kCounters[] = {
    "rewriter.virtual_refs_total",
    "bytecode.compile_ns_total",
    "bytecode.programs_total",
    "strips.skipped_by_zonemap",
    "exec.gather.morsels_total",
    "exec.gather.queue_full_stalls_total",
    "threadpool.busy_ns_total",
    "eval.typed_lanes",
    "eval.boxed_lanes",
    "eval.fallback_lanes",
    "reservoir.decodes",
    "extract.columnar_hits",
    "extract.path_cache_hits",
    "extract.path_cache_misses",
    "loader.load_ns_total",
    "loader.reservoir_bytes_total",
    "wal.fsyncs_total",
    "wal.replayed_records_total",
    "env.bytes_written_total",
    "materializer.rows_backfilled_total",
    "strips.written",
    "persist.table_images_saved_total",
    "persist.table_images_copied_total",
};

/// Histograms whose sum the ledger reads (sum of observed values).
constexpr std::string_view kHistogramSums[] = {
    "reservoir.attrs_per_decode",
};

/// A JSON number; NaN and infinities, which JSON cannot carry, become 0.
Value Number(double v) { return Value::Double(std::isfinite(v) ? v : 0); }

Value Id(uint64_t v) { return Value::Int(static_cast<int64_t>(v)); }

/// The "<key>: <n> kB" line of /proc/self/status, in MiB (0 if absent).
double ProcStatusMib(std::string_view key) {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.size() > key.size() && line.compare(0, key.size(), key) == 0 &&
        line[key.size()] == ':') {
      return std::strtod(line.c_str() + key.size() + 1, nullptr) / 1024.0;
    }
  }
  return 0;
}

}  // namespace

std::string Tracer::ChromeTraceJson() const {
  uint64_t base = UINT64_MAX;
  for (const SpanRecord& s : spans_) base = std::min(base, s.start_ns);
  Value events = Value::Array();
  for (const SpanRecord& s : spans_) {
    events.Append(Value::Object({
        {"name", Value::String(s.name)},
        {"cat", Value::String("perfbench")},
        {"ph", Value::String("X")},
        {"pid", Value::Int(1)},
        {"tid", Value::Int(1)},
        {"ts", Number(static_cast<double>(s.start_ns - base) / 1e3)},
        {"dur", Number(static_cast<double>(s.end_ns - s.start_ns) / 1e3)},
        {"args", Value::Object({{"trace_id", Id(s.op)},
                                {"span_id", Id(s.id)},
                                {"parent_span_id", Id(s.parent)}})},
    }));
  }
  return sinew::json::Write(
      Value::Object({{"displayTimeUnit", Value::String("ms")},
                     {"traceEvents", std::move(events)}}));
}

CounterSnapshot CounterSnapshot::Take() {
  CounterSnapshot snap;
  for (std::string_view name : kCounters) {
    snap.values_[std::string(name)] = sinew::metrics::GetCounter(name)->value();
  }
  for (std::string_view name : kHistogramSums) {
    snap.values_[std::string(name)] =
        sinew::metrics::GetHistogram(name)->sum();
  }
  return snap;
}

CounterSnapshot CounterSnapshot::Minus(const CounterSnapshot& earlier) const {
  CounterSnapshot delta;
  for (const auto& [name, v] : values_) {
    const uint64_t before = earlier.Get(name);
    delta.values_[name] = v >= before ? v - before : 0;
  }
  return delta;
}

void CounterSnapshot::Accumulate(const CounterSnapshot& delta) {
  for (const auto& [name, v] : delta.values_) values_[name] += v;
}

std::string Report::Json(bool correct, uint64_t attempted,
                         uint64_t failed) const {
  Value metrics = Value::Object();
  for (const Entry& e : metrics_) {
    metrics.Set(e.name, Value::Object({{"value", Number(e.value)},
                                       {"unit", Value::String(e.unit)}}));
  }
  Value info = Value::Object();
  for (const auto& [k, v] : info_) info.Set(k, Value::String(v));
  return sinew::json::Write(Value::Object({
      {"correct", Value::Bool(correct)},
      {"attempted", Id(attempted)},
      {"failed", Id(failed)},
      {"metrics", std::move(metrics)},
      {"info", std::move(info)},
  }));
}

std::string Report::Table() const {
  std::ostringstream out;
  for (const auto& [k, v] : info_) out << "# " << k << ": " << v << "\n";
  for (const Entry& e : metrics_) out << Line(e);
  for (const Entry& e : extras_) out << Line(e);
  return out.str();
}

std::string Report::Line(const Entry& e) {
  char line[200];
  if (e.raw.has_value()) {
    std::snprintf(line, sizeof(line), "%-44s %16.6g %s (raw %.6g)\n",
                  e.name.c_str(), e.value, e.unit.c_str(), *e.raw);
  } else {
    std::snprintf(line, sizeof(line), "%-44s %16.6g %s\n", e.name.c_str(),
                  e.value, e.unit.c_str());
  }
  return line;
}

double MachineProbeMs() {
  sinew::Rng rng(42);
  std::vector<uint64_t> values(1 << 15);
  for (uint64_t& v : values) v = rng.Next();
  const uint64_t start = NowNanos();
  std::vector<uint64_t> sorted = values;
  std::sort(sorted.begin(), sorted.end());
  std::unordered_map<uint64_t, uint32_t> counts;
  std::string text;
  for (size_t i = 0; i < values.size(); i += 4) {
    ++counts[values[i] % 4096];
    text += std::to_string(values[i]);
  }
  const uint64_t elapsed = NowNanos() - start;
  // Keep the work observable so it cannot be optimized away.
  if (sorted[0] + counts.size() + text.size() == 1) std::abort();
  return static_cast<double>(elapsed) / 1e6;
}

double ResetPeakRss() {
  // Freed heap memory goes back to the kernel first, so the baseline holds
  // no slack the engine could reuse without its resident set growing.
  malloc_trim(0);
  // Writing 5 to clear_refs resets VmHWM to the current resident set.
  std::ofstream("/proc/self/clear_refs") << "5";
  return ProcStatusMib("VmRSS");
}

double PeakRssMib() { return ProcStatusMib("VmHWM"); }

uint64_t DirectoryBytes(const std::string& dir) {
  namespace fs = std::filesystem;
  std::error_code ec;
  uint64_t total = 0;
  for (fs::recursive_directory_iterator it(dir, ec), end; !ec && it != end;
       it.increment(ec)) {
    if (it->is_regular_file(ec)) total += it->file_size(ec);
  }
  return total;
}

}  // namespace perfbench
