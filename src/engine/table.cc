#include "engine/table.h"

#include <algorithm>
#include <cmath>
#include <mutex>
#include <unordered_set>

#include "engine/columnar.h"

namespace sinew::engine {

Status Table::AddColumn(Column column) {
  std::unique_lock lock(latch_);
  RETURN_NOT_OK(schema_.AddColumn(std::move(column)));
  BumpVersion();
  BumpPlanVersion();
  return Status::OK();
}

Status Table::DropColumn(std::string_view column) {
  std::unique_lock lock(latch_);
  RETURN_NOT_OK(schema_.DropColumn(column));
  // Strips are keyed by source column name; a drop (and possible later
  // re-add) could change what that name means, so detach conservatively.
  columnar_.reset();
  BumpVersion();
  BumpPlanVersion();
  return Status::OK();
}

Result<uint64_t> Table::AppendRow(const DatumRow& row) {
  std::unique_lock lock(latch_);
  ASSIGN_OR_RETURN(std::string encoded, EncodeRow(schema_, row));
  data_bytes_ += encoded.size();
  rows_.push_back(std::move(encoded));
  ++live_rows_;
  BumpVersion();
  return rows_.size() - 1;
}

Result<uint64_t> Table::AppendRowWith(std::string_view column, Datum value) {
  std::unique_lock lock(latch_);
  std::optional<size_t> slot = schema_.FindColumn(column);
  if (!slot.has_value()) {
    return Status::NotFound("column ", column, " does not exist in ", name_);
  }
  DatumRow row(schema_.num_slots());
  row[*slot] = std::move(value);
  ASSIGN_OR_RETURN(std::string encoded, EncodeRow(schema_, row));
  data_bytes_ += encoded.size();
  rows_.push_back(std::move(encoded));
  ++live_rows_;
  BumpVersion();
  return rows_.size() - 1;
}

uint64_t Table::RowSlotCount() const {
  std::shared_lock lock(latch_);
  return rows_.size();
}

uint64_t Table::LiveRowCount() const {
  std::shared_lock lock(latch_);
  return live_rows_;
}

Result<DatumRow> Table::ReadRow(uint64_t rid, uint64_t* read_at) const {
  std::shared_lock lock(latch_);
  if (rid >= rows_.size() || rows_[rid].empty()) {
    return Status::NotFound("row ", rid, " not found in ", name_);
  }
  if (read_at != nullptr) {
    *read_at = mutation_version_.load(std::memory_order_acquire);
  }
  return DecodeRow(schema_, rows_[rid]);
}

Status Table::UpdateRow(uint64_t rid, const DatumRow& row, uint64_t read_at) {
  std::unique_lock lock(latch_);
  RETURN_NOT_OK(CheckWritableLocked(rid, read_at));
  return ReplaceRowLocked(rid, row);
}

Status Table::PatchRow(uint64_t rid, const std::vector<size_t>& slots,
                       DatumRow values, uint64_t found_at) {
  std::unique_lock lock(latch_);
  RETURN_NOT_OK(CheckWritableLocked(rid, found_at));
  ASSIGN_OR_RETURN(DatumRow row, DecodeRow(schema_, rows_[rid]));
  for (size_t i = 0; i < slots.size(); ++i) {
    row[slots[i]] = std::move(values[i]);
  }
  return ReplaceRowLocked(rid, row);
}

Status Table::CheckWritableLocked(uint64_t rid, uint64_t read_at) const {
  if (rid >= rows_.size() || rows_[rid].empty()) {
    return Status::NotFound("row ", rid, " not found in ", name_);
  }
  if (RowStampUnlocked(rid) > read_at) {
    return Status::Aborted("row ", rid, " of ", name_,
                           " was written after version ", read_at);
  }
  return Status::OK();
}

Status Table::ReplaceRowLocked(uint64_t rid, const DatumRow& row) {
  ASSIGN_OR_RETURN(std::string encoded, EncodeRow(schema_, row));
  data_bytes_ += encoded.size();
  data_bytes_ -= rows_[rid].size();
  rows_[rid] = std::move(encoded);
  BumpVersion();
  // The stamp lands under the same exclusive acquisition as the bytes: a
  // reader sees the new bytes only together with a stamp newer than any
  // segment shredded from the old ones, so it reads this row from its bytes.
  const uint64_t stamp = MutationVersion();
  if (stamps_.size() <= rid) stamps_.resize(rid + 1, 0);
  stamps_[rid] = stamp;
  const uint64_t chunk = rid / kScanChunk;
  if (chunk_stamps_.size() <= chunk) chunk_stamps_.resize(chunk + 1, 0);
  chunk_stamps_[chunk] = stamp;
  return Status::OK();
}

Status Table::DeleteRow(uint64_t rid) {
  std::unique_lock lock(latch_);
  if (rid >= rows_.size() || rows_[rid].empty()) {
    return Status::NotFound("row ", rid, " not found in ", name_);
  }
  data_bytes_ -= rows_[rid].size();
  rows_[rid].clear();
  --live_rows_;
  BumpVersion();
  return Status::OK();
}

void Table::DeleteAllRows() {
  std::unique_lock lock(latch_);
  for (std::string& row : rows_) row.clear();
  live_rows_ = 0;
  data_bytes_ = 0;
  BumpVersion();
}

Status Table::RestoreRawRow(std::string encoded) {
  std::unique_lock lock(latch_);
  if (!encoded.empty()) {
    RETURN_NOT_OK(DecodeRow(schema_, encoded).status());
    data_bytes_ += encoded.size();
    ++live_rows_;
  }
  rows_.push_back(std::move(encoded));
  BumpVersion();
  return Status::OK();
}

uint64_t Table::DataBytes() const {
  std::shared_lock lock(latch_);
  return data_bytes_;
}

namespace {

// Exact distinct counting up to a cap, then scaled estimation: the planner
// only needs order-of-magnitude fidelity.
class DistinctCounter {
 public:
  void Add(const Datum& d) {
    ++n_;
    if (saturated_) return;
    seen_.insert(d.Hash() * 0x9e3779b97f4a7c15ull + static_cast<int>(d.kind()));
    if (seen_.size() > kCap) {
      saturated_ = true;
      n_at_cap_ = n_;
    }
  }

  double Estimate() const {
    if (!saturated_) return static_cast<double>(seen_.size());
    // Saw more than kCap distinct hashes; assume distincts keep growing
    // linearly with data volume at the observed rate.
    return static_cast<double>(seen_.size()) *
           (static_cast<double>(n_) / std::max<uint64_t>(n_at_cap_, 1));
  }

 private:
  static constexpr size_t kCap = 1 << 20;
  std::unordered_set<uint64_t> seen_;
  uint64_t n_ = 0;
  uint64_t n_at_cap_ = 0;
  bool saturated_ = false;
};

}  // namespace

Status Table::Analyze() {
  std::unique_lock lock(latch_);
  TableStats stats;
  stats.analyzed = true;
  stats.row_count = live_rows_;
  const auto& columns = schema_.columns();
  std::vector<ColumnStats> col_stats(columns.size());
  std::vector<DistinctCounter> distinct(columns.size());
  std::vector<std::vector<double>> numeric_samples(columns.size());

  for (const std::string& encoded : rows_) {
    if (encoded.empty()) continue;
    ASSIGN_OR_RETURN(DatumRow row, DecodeRow(schema_, encoded));
    for (size_t i = 0; i < columns.size(); ++i) {
      if (columns[i].dropped) continue;
      const Datum& d = row[i];
      if (d.is_null()) {
        ++col_stats[i].null_count;
        continue;
      }
      ++col_stats[i].non_null_count;
      distinct[i].Add(d);
      if (d.is_numeric()) {
        double v = d.AsDouble();
        if (!col_stats[i].has_minmax) {
          col_stats[i].has_minmax = true;
          col_stats[i].min = col_stats[i].max = v;
        } else {
          col_stats[i].min = std::min(col_stats[i].min, v);
          col_stats[i].max = std::max(col_stats[i].max, v);
        }
        numeric_samples[i].push_back(v);
      }
    }
  }
  for (size_t i = 0; i < columns.size(); ++i) {
    if (columns[i].dropped) continue;
    col_stats[i].ndistinct = distinct[i].Estimate();
    // Equi-depth histogram over numeric values.
    std::vector<double>& samples = numeric_samples[i];
    if (samples.size() >= kHistogramBuckets * 2) {
      std::sort(samples.begin(), samples.end());
      std::vector<double> bounds;
      bounds.reserve(kHistogramBuckets + 1);
      for (int b = 0; b <= kHistogramBuckets; ++b) {
        size_t idx = std::min(samples.size() - 1,
                              samples.size() * b / kHistogramBuckets);
        bounds.push_back(samples[idx]);
      }
      col_stats[i].histogram = std::move(bounds);
    }
    stats.columns[columns[i].name] = std::move(col_stats[i]);
  }
  stats_ = std::move(stats);
  BumpPlanVersion();
  return Status::OK();
}

TableStats Table::GetStats() const {
  std::shared_lock lock(latch_);
  return stats_;
}

}  // namespace sinew::engine
