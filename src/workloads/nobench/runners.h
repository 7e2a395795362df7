// Per-system NoBench runners: the 11 NoBench queries plus the paper's added
// random-update task (Section 6.6), expressed against each of the four
// benchmarked systems. Each runner canonicalizes its results into the same
// flattened, number-normalized, sorted representation so the integration
// suite can assert cross-system result equality.

#ifndef SINEW_WORKLOADS_NOBENCH_RUNNERS_H_
#define SINEW_WORKLOADS_NOBENCH_RUNNERS_H_

#include <memory>
#include <string>
#include <vector>

#include "baselines/docstore/collection.h"
#include "baselines/eav/eav_store.h"
#include "baselines/jsontext/jsontext_db.h"
#include "common/result.h"
#include "sinew/sinew_db.h"
#include "workloads/nobench/generator.h"

namespace sinew::workloads::nobench {

inline constexpr int kNumTasks = 12;  // Q1..Q11 + update task (Q12)
inline constexpr const char* kTableName = "nobench_main";

/// Canonicalization helpers (exposed for tests).
/// Flattens nested objects to dotted keys, drops nulls, normalizes ints to
/// doubles, sorts object members.
Value CanonicalizeDocument(const Value& doc);
/// Sorts canonical rows by their JSON rendering.
void SortRows(std::vector<Value>* rows);

class SystemRunner {
 public:
  virtual ~SystemRunner() = default;
  virtual std::string_view name() const = 0;
  virtual Status Load(const std::vector<Value>& docs) = 0;
  /// Loads from JSON text, the paper's actual input format: every system
  /// pays at least a parse; the PG-JSON-like system stores the text as-is
  /// (syntax validation only), which is why it loads fastest (Table 3).
  virtual Status LoadJsonLines(const std::vector<std::string>& lines);
  /// Post-load preparation (Sinew: schema analysis + materialization +
  /// ANALYZE; EAV: ANALYZE). Excluded from load timing.
  virtual Status Prepare() { return Status::OK(); }
  /// Runs task q in [1, 12]; returns canonical sorted result rows (for the
  /// update task: a single row with the update count). Used by correctness
  /// tests; canonicalization is NOT free, so benchmarks time Execute().
  virtual Result<std::vector<Value>> Run(int q, const QueryParams& p) = 0;
  /// Runs task q and returns only the result-row count (no
  /// canonicalization) — the timed path of Figures 6-8.
  virtual Result<uint64_t> Execute(int q, const QueryParams& p);
  virtual Result<uint64_t> StorageBytes() = 0;
};

class SinewRunner : public SystemRunner {
 public:
  /// `label` names the configuration in benchmark tables when several Sinew
  /// instances run side by side (e.g. "Sinew-t4" for parallelism 4).
  explicit SinewRunner(sinew::SinewOptions options = {},
                       std::string label = "Sinew");
  std::string_view name() const override { return label_; }
  Status Load(const std::vector<Value>& docs) override;
  Status Prepare() override;
  Result<std::vector<Value>> Run(int q, const QueryParams& p) override;
  Result<uint64_t> Execute(int q, const QueryParams& p) override;
  Result<uint64_t> StorageBytes() override;
  sinew::SinewDb* db() { return &db_; }

 private:
  sinew::SinewDb db_;
  std::string label_;
};

class MongoLikeRunner : public SystemRunner {
 public:
  explicit MongoLikeRunner(uint64_t join_scratch_budget_bytes = 0)
      : join_budget_(join_scratch_budget_bytes) {}
  std::string_view name() const override { return "MongoDB-like"; }
  Status Load(const std::vector<Value>& docs) override;
  Result<std::vector<Value>> Run(int q, const QueryParams& p) override;
  Result<uint64_t> Execute(int q, const QueryParams& p) override;
  Result<uint64_t> StorageBytes() override;
  docstore::DocStore* store() { return &store_; }

 private:
  docstore::DocStore store_;
  uint64_t join_budget_;
};

class EavRunner : public SystemRunner {
 public:
  explicit EavRunner(engine::PlannerOptions planner_options = {},
                     engine::ExecOptions exec_options = {});
  std::string_view name() const override { return "EAV"; }
  Status Load(const std::vector<Value>& docs) override;
  Status Prepare() override;
  Result<std::vector<Value>> Run(int q, const QueryParams& p) override;
  Result<uint64_t> Execute(int q, const QueryParams& p) override;
  Result<uint64_t> StorageBytes() override;
  eav::EavStore* store() { return &store_; }

 private:
  eav::EavStore store_;
};

class PgJsonRunner : public SystemRunner {
 public:
  explicit PgJsonRunner(engine::PlannerOptions planner_options = {},
                        engine::ExecOptions exec_options = {});
  std::string_view name() const override { return "PG-JSON-like"; }
  Status Load(const std::vector<Value>& docs) override;
  Status LoadJsonLines(const std::vector<std::string>& lines) override;
  Result<std::vector<Value>> Run(int q, const QueryParams& p) override;
  Result<uint64_t> Execute(int q, const QueryParams& p) override;
  Result<uint64_t> StorageBytes() override;
  jsontext::JsonTextDb* db() { return &db_; }

 private:
  jsontext::JsonTextDb db_;
};

/// All four runners, in the paper's Figure 6 legend order. `sinew_options`
/// configures the Sinew instance only (e.g. parallelism for the --threads
/// benchmark sweeps); the baseline systems always run serial.
std::vector<std::unique_ptr<SystemRunner>> MakeAllRunners(
    sinew::SinewOptions sinew_options = {});

}  // namespace sinew::workloads::nobench

#endif  // SINEW_WORKLOADS_NOBENCH_RUNNERS_H_
