// Measurement plumbing shared by the workloads: latency sample sets, the
// span recorder of the traced run, engine-counter snapshots and the JSON
// report writer.
//
// Spans are recorded from outside the engine, around the calls the benchmark
// makes into each layer's public functions. They live in memory until the
// run ends and are then written as Chrome trace-event JSON, the shape
// bench/validate_trace.py checks.

#ifndef PERFBENCH_HARNESS_LEDGER_H_
#define PERFBENCH_HARNESS_LEDGER_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/metrics.h"

namespace perfbench {

/// A set of measurements of one quantity; every sample is kept, so the
/// report is a distribution, never a best-of-N minimum.
class Samples {
 public:
  void Add(double v) { values_.push_back(v); }
  size_t size() const { return values_.size(); }
  bool empty() const { return values_.empty(); }

  /// Linearly interpolated quantile (q in [0, 1]); 0 when empty.
  double Quantile(double q) const {
    if (values_.empty()) return 0;
    std::vector<double> v = values_;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const size_t lo = static_cast<size_t>(std::floor(pos));
    const size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
  }
  double Median() const { return Quantile(0.5); }

  /// Samples strictly above the q-quantile (checks the tail's support).
  size_t CountAbove(double q) const {
    const double cut = Quantile(q);
    return static_cast<size_t>(
        std::count_if(values_.begin(), values_.end(),
                      [cut](double v) { return v > cut; }));
  }

 private:
  std::vector<double> values_;
};

/// One recorded span: a call into a layer, or the operation around them.
struct SpanRecord {
  std::string name;
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  uint64_t id = 0;
  uint64_t parent = 0;  // 0 = root
  uint64_t op = 0;      // operation id shared by all spans of one operation
};

/// In-memory span recorder. Disabled recorders cost one branch per span, so
/// the untraced phases run the same code with recording off.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  void set_enabled(bool on) { enabled_ = on; }

  /// Starts an operation: subsequent spans share its id until the next one.
  uint64_t BeginOp() { return ++op_seq_; }

  /// RAII span around one call. Nests under the innermost open span.
  class Scope {
   public:
    Scope(Tracer* tracer, std::string_view name)
        : tracer_(tracer->enabled_ ? tracer : nullptr) {
      if (tracer_ == nullptr) return;
      rec_.name = std::string(name);
      rec_.id = ++tracer_->span_seq_;
      rec_.parent = tracer_->stack_.empty() ? 0 : tracer_->stack_.back();
      rec_.op = tracer_->op_seq_;
      tracer_->stack_.push_back(rec_.id);
      rec_.start_ns = sinew::metrics::NowNanos();
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    ~Scope() { End(); }

    uint64_t id() const { return rec_.id; }
    void End() {
      if (tracer_ == nullptr) return;
      rec_.end_ns = sinew::metrics::NowNanos();
      tracer_->stack_.pop_back();
      tracer_->spans_.push_back(std::move(rec_));
      tracer_ = nullptr;
    }

   private:
    Tracer* tracer_;
    SpanRecord rec_;
  };

  /// Adds an already-timed child of `parent` (engine-internal work observed
  /// through the engine's own span ring, e.g. a flush's materializer pass).
  uint64_t AddChild(std::string name, uint64_t start_ns, uint64_t end_ns,
                    uint64_t parent) {
    if (!enabled_) return 0;
    SpanRecord rec;
    rec.name = std::move(name);
    rec.start_ns = start_ns;
    rec.end_ns = std::max(start_ns, end_ns);
    rec.id = ++span_seq_;
    rec.parent = parent;
    rec.op = op_seq_;
    spans_.push_back(rec);
    return rec.id;
  }

  size_t span_count() const { return spans_.size(); }

  /// Chrome trace-event JSON ({"traceEvents": [...]}), timestamps in
  /// microseconds rebased to the first span. Every span of one operation
  /// shares its trace_id; parent_span_id 0 marks the operation root.
  std::string ChromeTraceJson() const;

 private:
  bool enabled_;
  uint64_t op_seq_ = 0;
  uint64_t span_seq_ = 0;
  std::vector<uint64_t> stack_;
  std::vector<SpanRecord> spans_;
};

/// Values of the engine counters the ledger reads, captured at one instant;
/// the difference of two snapshots is the work done in between.
class CounterSnapshot {
 public:
  static CounterSnapshot Take();
  uint64_t Get(std::string_view name) const {
    auto it = values_.find(std::string(name));
    return it == values_.end() ? 0 : it->second;
  }
  /// this - earlier, per counter.
  CounterSnapshot Minus(const CounterSnapshot& earlier) const;
  void Accumulate(const CounterSnapshot& delta);

 private:
  std::map<std::string, uint64_t> values_;
};

/// Builds the one-line JSON result object and the human-readable table.
/// A metric scaled to the reference machine speed also carries its raw
/// measured value, which the table prints beside it.
class Report {
 public:
  void Metric(std::string name, double value, std::string unit,
              std::optional<double> raw = std::nullopt) {
    metrics_.push_back({std::move(name), value, std::move(unit), raw});
  }
  /// A measurement printed in the human table but not part of the JSON
  /// metrics (it is not reported on every workload).
  void Extra(std::string name, double value, std::string unit,
             std::optional<double> raw = std::nullopt) {
    extras_.push_back({std::move(name), value, std::move(unit), raw});
  }
  /// Extra context printed in the human table and carried as "info".
  void Info(std::string key, std::string value) {
    info_.emplace_back(std::move(key), std::move(value));
  }
  std::string Json(bool correct, uint64_t attempted, uint64_t failed) const;
  std::string Table() const;

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
    std::optional<double> raw;
  };
  static std::string Line(const Entry& e);
  std::vector<Entry> metrics_;
  std::vector<Entry> extras_;
  std::vector<std::pair<std::string, std::string>> info_;
};

/// Wall time of a fixed, engine-independent piece of work (sorting, hashing
/// and string building over a seeded buffer), in milliseconds. Sampled
/// through a run, it shows how fast the machine itself was at the time.
double MachineProbeMs();

/// Returns freed heap memory to the kernel, resets the kernel's record of
/// this process's peak resident set to the current resident set, and
/// returns the current resident set in MiB.
double ResetPeakRss();

/// Peak resident set of this process in MiB since the last ResetPeakRss().
double PeakRssMib();

/// Total size in bytes of the regular files under `dir` (recursive).
uint64_t DirectoryBytes(const std::string& dir);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_LEDGER_H_
