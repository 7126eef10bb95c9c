// RunCursor: how a selection's positions are matched to a column's blocks.
//
// Every read of a column at a position descriptor's positions goes through
// one cursor: DS3's gather (Section 3.2, Case 3), the LM-pipelined refine
// (Case 3+1), the join's payload gathers and its build over the live inner
// rows. The cursor collects the selection's maximal runs once, then hands
// them out clipped to each block in ascending block order, so a read walks
// its selection once however many blocks it spans.

#ifndef CSTORE_POSITION_RUN_CURSOR_H_
#define CSTORE_POSITION_RUN_CURSOR_H_

#include <cstdint>
#include <span>
#include <vector>

#include "position/position_set.h"
#include "position/range_set.h"
#include "util/common.h"

namespace cstore {
namespace position {

class RunCursor {
 public:
  /// Collects `sel`'s maximal runs, ascending.
  explicit RunCursor(const PositionSet& sel);

  /// Numbers of the blocks holding at least one selected position, in a
  /// column whose block i starts at position block_starts[i] (ascending,
  /// the first at 0): ascending and free of duplicates.
  std::vector<uint64_t> Blocks(
      const std::vector<uint64_t>& block_starts) const;

  /// The selected runs inside [begin, end), clipped to it, ascending. Spans
  /// must ascend from call to call; gaps between them are allowed (their
  /// runs are passed over). The result stays valid until the next call.
  std::span<const Range> Clip(Position begin, Position end);

 private:
  std::vector<Range> runs_;
  size_t next_ = 0;  // first run not ending before the last span began
  std::vector<Range> clipped_;
};

}  // namespace position
}  // namespace cstore

#endif  // CSTORE_POSITION_RUN_CURSOR_H_
