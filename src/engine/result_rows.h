// ResultRows: a query result's rows, kept as the column chunks the plan's
// root batches produced.
//
// ExecutePlan hands each root batch's Datum columns to the result as one
// chunk instead of assembling a DatumRow per row, so a wide SELECT * pays
// no per-row allocation and no per-cell move on its way to the client. A
// row is a view (chunk, lane) with size() and operator[], read as
// rows[i][j] or by range-for. The chunks live inside ResultRows, so moving
// a QueryResult keeps every chunk where it was; appending may reallocate
// the chunk list and invalidates earlier views, as with a vector.

#ifndef SINEW_ENGINE_RESULT_ROWS_H_
#define SINEW_ENGINE_RESULT_ROWS_H_

#include <algorithm>
#include <cstddef>
#include <iterator>
#include <utility>
#include <vector>

#include "engine/datum.h"

namespace sinew::engine {

class ResultRows {
 public:
  using Columns = std::vector<std::vector<Datum>>;

  /// One row of a chunk: cell c is column c's entry at the row's lane.
  class Row {
   public:
    class CellIterator {
     public:
      using iterator_category = std::forward_iterator_tag;
      using value_type = Datum;
      using difference_type = std::ptrdiff_t;
      using pointer = const Datum*;
      using reference = const Datum&;

      CellIterator() = default;
      CellIterator(const std::vector<Datum>* col, size_t lane)
          : col_(col), lane_(lane) {}
      const Datum& operator*() const { return (*col_)[lane_]; }
      const Datum* operator->() const { return &(*col_)[lane_]; }
      CellIterator& operator++() {
        ++col_;
        return *this;
      }
      CellIterator operator++(int) {
        CellIterator old = *this;
        ++col_;
        return old;
      }
      bool operator==(const CellIterator& o) const { return col_ == o.col_; }
      bool operator!=(const CellIterator& o) const { return col_ != o.col_; }

     private:
      const std::vector<Datum>* col_ = nullptr;
      size_t lane_ = 0;
    };

    Row(const Columns* cols, size_t lane) : cols_(cols), lane_(lane) {}
    size_t size() const { return cols_->size(); }
    bool empty() const { return cols_->empty(); }
    const Datum& operator[](size_t c) const { return (*cols_)[c][lane_]; }
    CellIterator begin() const { return {cols_->data(), lane_}; }
    CellIterator end() const { return {cols_->data() + cols_->size(), lane_}; }

   private:
    const Columns* cols_;
    size_t lane_;
  };

  class Iterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = Row;
    using difference_type = std::ptrdiff_t;
    using pointer = void;
    using reference = Row;

    Iterator(const ResultRows* rows, size_t chunk, size_t lane)
        : rows_(rows), chunk_(chunk), lane_(lane) {}
    Row operator*() const { return {&rows_->chunks_[chunk_].cols, lane_}; }
    Iterator& operator++() {
      if (++lane_ == rows_->chunks_[chunk_].rows) {
        ++chunk_;
        lane_ = 0;
      }
      return *this;
    }
    Iterator operator++(int) {
      Iterator old = *this;
      ++*this;
      return old;
    }
    bool operator==(const Iterator& o) const {
      return chunk_ == o.chunk_ && lane_ == o.lane_;
    }
    bool operator!=(const Iterator& o) const { return !(*this == o); }

   private:
    const ResultRows* rows_;
    size_t chunk_;
    size_t lane_;
  };

  size_t size() const { return ends_.empty() ? 0 : ends_.back(); }
  bool empty() const { return size() == 0; }

  /// Row i: a binary search over the chunks' row ranges.
  Row operator[](size_t i) const {
    const size_t c = static_cast<size_t>(
        std::upper_bound(ends_.begin(), ends_.end(), i) - ends_.begin());
    const size_t first = c == 0 ? 0 : ends_[c - 1];
    return {&chunks_[c].cols, i - first};
  }
  Row back() const {
    const Chunk& last = chunks_.back();
    return {&last.cols, last.rows - 1};
  }
  Iterator begin() const { return {this, 0, 0}; }
  Iterator end() const { return {this, chunks_.size(), 0}; }

  /// Takes `cols` as the next `rows` rows; every column holds exactly
  /// `rows` entries. No-op for zero rows.
  void AdoptColumns(Columns&& cols, size_t rows) {
    if (rows == 0) return;
    chunks_.push_back({std::move(cols), rows});
    ends_.push_back(size() + rows);
  }

  /// Appends one row, into the last chunk when it has the row's width.
  void AppendRow(DatumRow&& row) {
    if (chunks_.empty() || chunks_.back().cols.size() != row.size()) {
      chunks_.push_back({Columns(row.size()), 0});
      ends_.push_back(size());
    }
    Chunk& last = chunks_.back();
    for (size_t c = 0; c < row.size(); ++c) {
      last.cols[c].push_back(std::move(row[c]));
    }
    ++last.rows;
    ++ends_.back();
  }

 private:
  struct Chunk {
    Columns cols;
    size_t rows = 0;
  };

  std::vector<Chunk> chunks_;
  /// ends_[c]: rows in chunks [0, c].
  std::vector<size_t> ends_;
};

}  // namespace sinew::engine

#endif  // SINEW_ENGINE_RESULT_ROWS_H_
