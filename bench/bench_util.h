// Shared helpers for the paper-reproduction benchmark binaries.
//
// Every binary runs standalone with no arguments and finishes in seconds at
// the default scale. Set SINEW_BENCH_SCALE=<float> to scale the dataset
// sizes (e.g. 4 for a longer, more stable run).

#ifndef SINEW_BENCH_BENCH_UTIL_H_
#define SINEW_BENCH_BENCH_UTIL_H_

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "common/result.h"

namespace sinew::bench {

inline double ScaleFromEnv() {
  const char* env = std::getenv("SINEW_BENCH_SCALE");
  if (env == nullptr) return 1.0;
  double scale = std::atof(env);
  return scale > 0 ? scale : 1.0;
}

inline uint64_t Scaled(uint64_t base) {
  return static_cast<uint64_t>(static_cast<double>(base) * ScaleFromEnv());
}

/// Timing repetitions: `--reps=N` on the command line, else SINEW_BENCH_REPS,
/// else `def`. Benchmarks that gate on compare_bench.py time each query N
/// times and report the minimum, so a single scheduler hiccup cannot read as
/// a regression.
inline int RepsFromArgs(int argc, char** argv, int def = 1) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--reps=", 0) == 0) {
      int reps = std::atoi(arg.c_str() + 7);
      if (reps > 0) return reps;
    }
  }
  if (const char* env = std::getenv("SINEW_BENCH_REPS")) {
    int reps = std::atoi(env);
    if (reps > 0) return reps;
  }
  return def;
}

/// Parallelism degree for Sinew in the benchmark binaries: `--threads=N` on
/// the command line, else SINEW_BENCH_THREADS, else 1 (serial, the
/// paper-faithful configuration). Compare --threads=1 vs --threads=4 runs
/// for the morsel-driven speedup.
inline int ThreadsFromArgs(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--threads=", 0) == 0) {
      int threads = std::atoi(arg.c_str() + 10);
      if (threads > 0) return threads;
    }
  }
  if (const char* env = std::getenv("SINEW_BENCH_THREADS")) {
    int threads = std::atoi(env);
    if (threads > 0) return threads;
  }
  return 1;
}

/// Executor batch size override: `--batch-size=N` on the command line, else
/// SINEW_BENCH_BATCH_SIZE, else 0 (keep the engine default). Lets one
/// binary sweep the vectorization knob (1 = one-row batches).
inline uint64_t BatchSizeFromArgs(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--batch-size=", 0) == 0) {
      long long v = std::atoll(arg.c_str() + 13);
      if (v > 0) return static_cast<uint64_t>(v);
    }
  }
  if (const char* env = std::getenv("SINEW_BENCH_BATCH_SIZE")) {
    long long v = std::atoll(env);
    if (v > 0) return static_cast<uint64_t>(v);
  }
  return 0;
}

/// Destination for the metrics-registry JSON dump: `--metrics-out=<path>`
/// on the command line, else SINEW_BENCH_METRICS_OUT, else "" (disabled).
inline std::string MetricsOutFromArgs(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--metrics-out=", 0) == 0) {
      return arg.substr(14);
    }
  }
  if (const char* env = std::getenv("SINEW_BENCH_METRICS_OUT")) {
    return env;
  }
  return "";
}

/// Appends MetricsRegistry::DumpJson() to `path` tagged with the run label —
/// one (multi-line) JSON object per benchmark run, concatenated. No-op when
/// `path` is empty; under SINEW_METRICS=OFF builds the dump is empty.
inline void MaybeWriteMetrics(const std::string& path,
                              const std::string& label) {
  if (path.empty()) return;
  std::ofstream out(path, std::ios::app);
  if (!out) {
    std::fprintf(stderr, "metrics-out: cannot open %s\n", path.c_str());
    return;
  }
  out << "{\"run\":\"" << label << "\",\"metrics\":"
      << metrics::MetricsRegistry::Global()->DumpJson() << "}\n";
}

/// Destination for the Chrome trace-event JSON export of the span ring:
/// `--trace-out=<path>` on the command line, else SINEW_BENCH_TRACE_OUT,
/// else "" (disabled). The file loads in Perfetto / about:tracing and can be
/// checked with bench/validate_trace.py.
inline std::string TraceOutFromArgs(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--trace-out=", 0) == 0) {
      return arg.substr(12);
    }
  }
  if (const char* env = std::getenv("SINEW_BENCH_TRACE_OUT")) {
    return env;
  }
  return "";
}

/// Writes MetricsRegistry::DumpChromeTrace() to `path` (overwrite). No-op
/// when `path` is empty; under SINEW_METRICS=OFF builds the trace is empty.
inline void MaybeWriteTrace(const std::string& path) {
  if (path.empty()) return;
  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    std::fprintf(stderr, "trace-out: cannot open %s\n", path.c_str());
    return;
  }
  out << metrics::MetricsRegistry::Global()->DumpChromeTrace();
  std::printf("wrote %s\n", path.c_str());
}

/// One machine-readable measurement from a benchmark binary. The JSON file
/// adds the derived rows_per_sec / ns_per_row fields so downstream tooling
/// (bench/compare_bench.py) never recomputes them differently.
struct BenchRecord {
  std::string query;   // e.g. "Q3", "project8", "nested"
  std::string config;  // e.g. "Sinew", "batch1024"
  double ms = -1;      // wall time of the measured run; < 0 = failed
  uint64_t rows = 0;   // rows processed (dataset size for scans; 0 unknown)
  int threads = 1;
  uint64_t batch_size = 0;
};

/// Directory for BENCH_<name>.json sidecars: `--bench-out=<dir>` on the
/// command line, else SINEW_BENCH_OUT, else "." — benchmarks always emit
/// their JSON, next to wherever they run by default.
inline std::string BenchOutDirFromArgs(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--bench-out=", 0) == 0) {
      return arg.substr(12);
    }
  }
  if (const char* env = std::getenv("SINEW_BENCH_OUT")) {
    return env;
  }
  return ".";
}

/// Writes `records` to <dir>/BENCH_<name>.json as a JSON array, one object
/// per measurement, with throughput fields derived from (ms, rows).
inline void WriteBenchJson(const std::string& dir, const std::string& name,
                           const std::vector<BenchRecord>& records) {
  const std::string path = dir + "/BENCH_" + name + ".json";
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "bench-out: cannot open %s\n", path.c_str());
    return;
  }
  out << "[\n";
  for (size_t i = 0; i < records.size(); ++i) {
    const BenchRecord& r = records[i];
    const double secs = r.ms / 1e3;
    const bool has_rate = r.ms > 0 && r.rows > 0;
    out << "  {\"query\": \"" << r.query << "\", \"config\": \"" << r.config
        << "\", \"ms\": " << r.ms << ", \"rows\": " << r.rows
        << ", \"rows_per_sec\": "
        << (has_rate ? static_cast<double>(r.rows) / secs : 0.0)
        << ", \"ns_per_row\": "
        << (has_rate ? r.ms * 1e6 / static_cast<double>(r.rows) : 0.0)
        << ", \"threads\": " << r.threads
        << ", \"batch_size\": " << r.batch_size << "}"
        << (i + 1 < records.size() ? "," : "") << "\n";
  }
  out << "]\n";
  std::printf("wrote %s (%zu records)\n", path.c_str(), records.size());
}

class Timer {
 public:
  Timer() : start_(std::chrono::steady_clock::now()) {}
  double Seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start_)
        .count();
  }
  double Millis() const { return Seconds() * 1e3; }

 private:
  std::chrono::steady_clock::time_point start_;
};

/// Times a Status-returning action; prints "<label>: FAILED (...)" and
/// returns a negative duration on error.
inline double TimeOrFail(const std::function<Status()>& fn,
                         std::string* error) {
  Timer timer;
  Status st = fn();
  if (!st.ok()) {
    *error = st.ToString();
    return -1.0;
  }
  return timer.Seconds();
}

inline void PrintHeader(const char* title) {
  std::printf("\n=== %s ===\n", title);
}

/// Milliseconds or a failure marker, fixed width.
inline std::string FormatMs(double seconds, const std::string& error) {
  char buf[64];
  if (seconds < 0) {
    std::snprintf(buf, sizeof(buf), "FAILED(%.24s)", error.c_str());
  } else {
    std::snprintf(buf, sizeof(buf), "%10.1f", seconds * 1e3);
  }
  return buf;
}

}  // namespace sinew::bench

#endif  // SINEW_BENCH_BENCH_UTIL_H_
