// Monomorphic kernel loops for the bytecode VM.
//
// Every kernel here runs after the batch-boundary type proof: a ColTag
// (engine/row_batch.h) has established that a column holds exactly one value
// kind for the whole batch, so the loops read raw int64/double/bool arrays
// with a null bitmap and never touch a Datum kind tag per lane. The
// comparison predicates are written in the `!(a < b)` / `(b < a)` form so
// they reproduce Datum::Compare's three-way Cmp() bit for bit — including
// its NaN behavior (NaN compares "equal" to everything because both strict
// orders are false) and -0.0 == 0.0 — rather than IEEE `==`/`!=`. Dispatch
// on (opcode, type, literal kind) happens once per batch in bytecode.cc;
// these templates are the per-lane bodies it instantiates.
//
// Select-mode kernels refine the selection vector in place (NULL lanes and
// NULL verdicts drop, as a WHERE clause drops them); value-mode kernels
// write one Datum per lane into a register, NULL in, NULL out.

#ifndef SINEW_ENGINE_TYPED_KERNELS_H_
#define SINEW_ENGINE_TYPED_KERNELS_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "engine/datum.h"
#include "engine/expr.h"
#include "engine/row_batch.h"

namespace sinew::engine::typed {

// Comparison predicates over the three-way Cmp() contract: a<b / b<a only.
struct EqPred {
  template <typename T>
  bool operator()(T a, T b) const { return !(a < b) && !(b < a); }
};
struct NePred {
  template <typename T>
  bool operator()(T a, T b) const { return (a < b) || (b < a); }
};
struct LtPred {
  template <typename T>
  bool operator()(T a, T b) const { return a < b; }
};
struct LePred {
  template <typename T>
  bool operator()(T a, T b) const { return !(b < a); }
};
struct GtPred {
  template <typename T>
  bool operator()(T a, T b) const { return b < a; }
};
struct GePred {
  template <typename T>
  bool operator()(T a, T b) const { return !(a < b); }
};

/// Instantiates `fn` with the predicate functor for a comparison op.
/// Returns false (without calling `fn`) for non-comparison ops.
template <typename Fn>
inline bool WithCmpPred(BinaryOp op, Fn&& fn) {
  switch (op) {
    case BinaryOp::kEq: fn(EqPred{}); return true;
    case BinaryOp::kNe: fn(NePred{}); return true;
    case BinaryOp::kLt: fn(LtPred{}); return true;
    case BinaryOp::kLe: fn(LePred{}); return true;
    case BinaryOp::kGt: fn(GtPred{}); return true;
    case BinaryOp::kGe: fn(GePred{}); return true;
    default: return false;
  }
}

/// Select-mode col-cmp-literal: keeps lanes where pred(vals[lane], lit) and
/// the lane is non-null. `L` is the comparison domain — int64 for int/int
/// (exact), double when either side is a double, exactly the kind pairing
/// Datum::Compare applies — so an int column against a double literal
/// promotes the lane value. The no-nulls variant is a branch-light loop
/// over an 8-byte-stride array — the shape the auto-vectorizer likes.
template <typename T, typename L, typename Pred>
inline void SelectCmp(const T* vals, const ColTag& tag, L lit, Pred pred,
                      std::vector<uint32_t>* sel) {
  size_t kept = 0;
  if (!tag.has_nulls) {
    for (uint32_t lane : *sel) {
      if (pred(static_cast<L>(vals[lane]), lit)) (*sel)[kept++] = lane;
    }
  } else {
    for (uint32_t lane : *sel) {
      if (!tag.IsNull(lane) && pred(static_cast<L>(vals[lane]), lit)) {
        (*sel)[kept++] = lane;
      }
    }
  }
  sel->resize(kept);
}

/// Value-mode col-cmp-literal: Bool verdict per lane, NULL in → NULL out.
template <typename T, typename L, typename Pred>
inline void ValueCmp(const T* vals, const ColTag& tag, L lit, Pred pred,
                     const std::vector<uint32_t>& lanes,
                     std::vector<Datum>* dst) {
  const size_t n = lanes.size();
  for (size_t i = 0; i < n; ++i) {
    const uint32_t lane = lanes[i];
    (*dst)[i] = tag.IsNull(lane)
                    ? Datum::Null()
                    : Datum::Bool(pred(static_cast<L>(vals[lane]), lit));
  }
}

/// One BETWEEN bound, resolved once per batch: compares a lane value of
/// type T against an int64 or double literal exactly as Datum::Compare
/// would pair those kinds (int/int stays exact int64; any double promotes
/// both sides to double).
template <typename T>
struct NumBound {
  bool is_int = false;
  int64_t i = 0;
  double d = 0;

  bool Ge(T v) const {  // v >= bound, in the !(a < b) Cmp form
    if constexpr (std::is_same_v<T, int64_t>) {
      if (is_int) return !(v < i);
    }
    return !(static_cast<double>(v) < d);
  }
  bool Le(T v) const {  // v <= bound
    if constexpr (std::is_same_v<T, int64_t>) {
      if (is_int) return !(i < v);
    }
    return !(d < static_cast<double>(v));
  }
};

template <typename T>
inline NumBound<T> MakeBound(const Datum& lit) {
  NumBound<T> b;
  b.is_int = lit.is_int();
  if (b.is_int) b.i = lit.int_value();
  b.d = lit.AsDouble();
  return b;
}

/// Select-mode numeric BETWEEN: NULL lanes drop (NULL BETWEEN is NULL
/// whether or not negated), in-range xor negated keeps.
template <typename T>
inline void SelectBetween(const T* vals, const ColTag& tag, NumBound<T> lo,
                          NumBound<T> hi, bool negated,
                          std::vector<uint32_t>* sel) {
  size_t kept = 0;
  for (uint32_t lane : *sel) {
    if (tag.IsNull(lane)) continue;
    const T v = vals[lane];
    const bool in_range = lo.Ge(v) && hi.Le(v);
    if (in_range != negated) (*sel)[kept++] = lane;
  }
  sel->resize(kept);
}

template <typename T>
inline void ValueBetween(const T* vals, const ColTag& tag, NumBound<T> lo,
                         NumBound<T> hi, bool negated,
                         const std::vector<uint32_t>& lanes,
                         std::vector<Datum>* dst) {
  const size_t n = lanes.size();
  for (size_t i = 0; i < n; ++i) {
    const uint32_t lane = lanes[i];
    if (tag.IsNull(lane)) {
      (*dst)[i] = Datum::Null();
    } else {
      const T v = vals[lane];
      (*dst)[i] = Datum::Bool((lo.Ge(v) && hi.Le(v)) != negated);
    }
  }
}

/// IS [NOT] NULL straight off the bitmap — works for every proven type.
/// IS [NOT] NULL reads only the null bitmap; a column without NULLs
/// decides every lane at once.
inline void SelectIsNull(const ColTag& tag, bool negated,
                         std::vector<uint32_t>* sel) {
  if (!tag.has_nulls) {
    if (!negated) sel->clear();
    return;
  }
  const uint64_t* nulls = tag.nulls.data();
  size_t kept = 0;
  for (uint32_t lane : *sel) {
    const bool null = (nulls[lane >> 6] >> (lane & 63)) & 1;
    if (null != negated) (*sel)[kept++] = lane;
  }
  sel->resize(kept);
}

inline void ValueIsNull(const ColTag& tag, bool negated,
                        const std::vector<uint32_t>& lanes,
                        std::vector<Datum>* dst) {
  const size_t n = lanes.size();
  if (!tag.has_nulls) {
    for (size_t i = 0; i < n; ++i) (*dst)[i] = Datum::Bool(negated);
    return;
  }
  const uint64_t* nulls = tag.nulls.data();
  for (size_t i = 0; i < n; ++i) {
    const bool null = (nulls[lanes[i] >> 6] >> (lanes[i] & 63)) & 1;
    (*dst)[i] = Datum::Bool(null != negated);
  }
}

/// Text col-cmp-literal over the tag's view array: one string compare per
/// lane with no kind dispatch and no Datum temporaries. The three-way
/// compare() result feeds the same predicates.
template <typename Pred>
inline void SelectCmpStr(const ColTag& tag, std::string_view lit, Pred pred,
                         std::vector<uint32_t>* sel) {
  size_t kept = 0;
  for (uint32_t lane : *sel) {
    if (tag.IsNull(lane)) continue;
    if (pred(tag.views[lane].compare(lit), 0)) (*sel)[kept++] = lane;
  }
  sel->resize(kept);
}

template <typename Pred>
inline void ValueCmpStr(const ColTag& tag, std::string_view lit, Pred pred,
                        const std::vector<uint32_t>& lanes,
                        std::vector<Datum>* dst) {
  const size_t n = lanes.size();
  for (size_t i = 0; i < n; ++i) {
    const uint32_t lane = lanes[i];
    (*dst)[i] = tag.IsNull(lane)
                    ? Datum::Null()
                    : Datum::Bool(pred(tag.views[lane].compare(lit), 0));
  }
}

}  // namespace sinew::engine::typed

#endif  // SINEW_ENGINE_TYPED_KERNELS_H_
