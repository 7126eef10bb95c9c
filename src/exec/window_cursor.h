// WindowCursor walks a column in fixed windows of kChunkPositions positions,
// fetching the blocks that overlap each window: through the buffer pool, or
// from memory for a write snapshot's tail blocks.
// All position-producing operators share this discipline so their chunks
// align.
//
// A cursor may be restricted to a sub-range of the position space (a
// morsel). The restriction must start on a window boundary so that a
// restricted cursor visits exactly the windows the full scan would — this is
// what makes morsel-parallel runs chunk-identical to serial ones. The one
// other start is where a write snapshot reader's read store ends (the scan
// of a tail without an index, see plan/planner.cc): its first window is
// clipped there, and the rest stay on the grid.

#ifndef CSTORE_EXEC_WINDOW_CURSOR_H_
#define CSTORE_EXEC_WINDOW_CURSOR_H_

#include <algorithm>
#include <memory>
#include <vector>

#include "codec/column_reader.h"
#include "exec/morsel_source.h"
#include "position/range_set.h"
#include "util/common.h"
#include "util/status.h"

namespace cstore {
namespace exec {

class WindowCursor {
 public:
  explicit WindowCursor(const codec::ColumnReader* reader,
                        Position window_positions = kChunkPositions,
                        position::Range scan_range = kFullScanRange)
      : reader_(reader),
        window_(window_positions),
        total_(std::min<Position>(scan_range.end, reader->num_values())),
        begin_(std::min<Position>(scan_range.begin, total_)) {
    // A range starting past the column is simply exhausted; alignment only
    // matters for ranges that will scan.
    CSTORE_DCHECK(begin_ % window_ == 0 || begin_ >= total_ ||
                  begin_ == reader->meta().num_values)
        << "scan range must start on a window boundary";
  }

  bool done() const { return begin_ >= total_; }
  Position begin() const { return begin_; }
  Position end() const { return std::min(GridEnd(), total_); }

  /// Index range [first, last] of blocks overlapping the current window.
  void BlockRange(uint64_t* first, uint64_t* last) const {
    *first = reader_->BlockContaining(begin_);
    *last = reader_->BlockContaining(end() - 1);
  }

  /// Fetches (pinning) all blocks overlapping the current window.
  Result<std::vector<std::shared_ptr<codec::EncodedBlock>>> Fetch() const {
    uint64_t first;
    uint64_t last;
    BlockRange(&first, &last);
    std::vector<std::shared_ptr<codec::EncodedBlock>> blocks;
    blocks.reserve(last - first + 1);
    for (uint64_t b = first; b <= last; ++b) {
      CSTORE_ASSIGN_OR_RETURN(codec::EncodedBlock blk,
                              reader_->FetchBlock(b));
      blocks.push_back(
          std::make_shared<codec::EncodedBlock>(std::move(blk)));
    }
    return blocks;
  }

  void Advance() { begin_ = GridEnd(); }

 private:
  /// The window boundary after begin_.
  Position GridEnd() const { return (begin_ / window_ + 1) * window_; }

  const codec::ColumnReader* reader_;
  Position window_;
  Position total_;
  Position begin_ = 0;
};

}  // namespace exec
}  // namespace cstore

#endif  // CSTORE_EXEC_WINDOW_CURSOR_H_
