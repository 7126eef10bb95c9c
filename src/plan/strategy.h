// The four materialization strategies of paper Section 3.5.

#ifndef CSTORE_PLAN_STRATEGY_H_
#define CSTORE_PLAN_STRATEGY_H_

#include "codec/encoding.h"

namespace cstore {
namespace plan {

enum class Strategy {
  // Tuples built incrementally: DS2 leaf, then one DS4 per further column,
  // each applying its predicate to input tuples' positions only.
  kEmPipelined,
  // Tuples built at the leaf by a single SPC over all columns.
  kEmParallel,
  // Positions flow one column at a time (DS1 → pipelined DS1 ...), no AND
  // needed; tuples built by Merge at the top.
  kLmPipelined,
  // One DS1 per column in parallel, AND intersects, Merge constructs.
  kLmParallel,
};

inline const char* StrategyName(Strategy s) {
  switch (s) {
    case Strategy::kEmPipelined:
      return "EM-pipelined";
    case Strategy::kEmParallel:
      return "EM-parallel";
    case Strategy::kLmPipelined:
      return "LM-pipelined";
    case Strategy::kLmParallel:
      return "LM-parallel";
  }
  return "?";
}

inline constexpr Strategy kAllStrategies[] = {
    Strategy::kEmPipelined,
    Strategy::kEmParallel,
    Strategy::kLmPipelined,
    Strategy::kLmParallel,
};

/// Section 4.1's rule: LM-pipelined position-filters each filter after its
/// first, and bit-vector data cannot be position-filtered ("it is
/// impossible to know in advance in which bit-string any particular
/// position is located"). An index-answered filter reads no values, so it
/// stays legal. plan::CheckStrategy applies this to a query's filters.
inline bool PositionFilterable(codec::Encoding encoding, bool index) {
  return encoding != codec::Encoding::kBitVector || index;
}

inline bool IsLate(Strategy s) {
  return s == Strategy::kLmPipelined || s == Strategy::kLmParallel;
}
inline bool IsPipelined(Strategy s) {
  return s == Strategy::kEmPipelined || s == Strategy::kLmPipelined;
}

}  // namespace plan
}  // namespace cstore

#endif  // CSTORE_PLAN_STRATEGY_H_
