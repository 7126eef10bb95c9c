// The multi-column intermediate-result structure (paper Section 3.6).
//
// A MultiColumnChunk is a memory-resident horizontal partition of a subset
// of a projection's attributes:
//   * a covering position range   [begin, end)
//   * a position descriptor       (ranged / bit-mapped / listed; see
//                                  position::PositionSet)
//   * an array of mini-columns    (pinned, still-compressed block views of
//                                  each included attribute over the range)
//
// Mini-columns are "essentially just a pointer to the page in the buffer
// pool": MiniColumn holds shared pins on the EncodedBlocks covering the
// range, so a downstream DS3 can extract values without re-fetching the
// column (I/O cost → 0 for re-accessed columns). Its reads walk the
// selection once through a position::RunCursor over the pinned blocks,
// which may leave gaps (pipelined scans skip blocks).

#ifndef CSTORE_EXEC_MULTICOLUMN_H_
#define CSTORE_EXEC_MULTICOLUMN_H_

#include <memory>
#include <vector>

#include "codec/column_reader.h"
#include "codec/views.h"
#include "position/position_set.h"
#include "position/run_cursor.h"
#include "util/common.h"
#include "util/status.h"

namespace cstore {
namespace exec {

/// Identifier of a column within a projection (index into its schema).
using ColumnId = uint32_t;

class MiniColumn {
 public:
  MiniColumn() = default;
  explicit MiniColumn(ColumnId column) : column_(column) {}

  ColumnId column() const { return column_; }

  void AddBlock(std::shared_ptr<codec::EncodedBlock> block) {
    blocks_.push_back(std::move(block));
  }
  const std::vector<std::shared_ptr<codec::EncodedBlock>>& blocks() const {
    return blocks_;
  }

  /// Appends the values at the valid positions of `sel` to *out, in
  /// position order.
  void GatherValues(const position::PositionSet& sel,
                    std::vector<Value>* out) const {
    position::RunCursor runs(sel);
    for (const auto& blk : blocks_) {
      blk->view.GatherRanges(
          runs.Clip(blk->view.start_pos(), blk->view.end_pos()), out);
    }
  }

  /// fn(pos, value) for every valid position of `sel`, ascending.
  template <typename Fn>
  void ForEachPosValue(const position::PositionSet& sel, Fn&& fn) const {
    position::RunCursor runs(sel);
    for (const auto& blk : blocks_) {
      blk->view.ForEachValueInRanges(
          runs.Clip(blk->view.start_pos(), blk->view.end_pos()), fn);
    }
  }

  /// Random access within the covered blocks.
  Value ValueAt(Position pos) const;

 private:
  ColumnId column_ = 0;
  // Ascending, possibly with gaps (pipelined scans skip blocks with no
  // valid positions).
  std::vector<std::shared_ptr<codec::EncodedBlock>> blocks_;
};

/// One chunk of intermediate result flowing through an LM plan.
struct MultiColumnChunk {
  Position begin = 0;
  Position end = 0;
  position::PositionSet desc = position::PositionSet::Empty(0, 0);
  std::vector<MiniColumn> minis;

  uint64_t window_size() const { return end - begin; }

  const MiniColumn* FindMini(ColumnId column) const {
    for (const MiniColumn& m : minis) {
      if (m.column() == column) return &m;
    }
    return nullptr;
  }
};

}  // namespace exec
}  // namespace cstore

#endif  // CSTORE_EXEC_MULTICOLUMN_H_
