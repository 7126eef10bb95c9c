#include "position/run_cursor.h"

#include <algorithm>

#include "util/logging.h"

namespace cstore {
namespace position {

RunCursor::RunCursor(const PositionSet& sel) {
  sel.ForEachRange(
      [&](Position b, Position e) { runs_.push_back(Range{b, e}); });
}

std::vector<uint64_t> RunCursor::Blocks(
    const std::vector<uint64_t>& block_starts) const {
  auto block_of = [&](Position p) -> uint64_t {
    return std::upper_bound(block_starts.begin(), block_starts.end(), p) -
           block_starts.begin() - 1;
  };
  CSTORE_DCHECK(runs_.empty() || !block_starts.empty());
  std::vector<uint64_t> blocks;
  for (const Range& r : runs_) {
    // A run inside the last block listed adds nothing.
    if (!blocks.empty() && (blocks.back() + 1 == block_starts.size() ||
                            r.end <= block_starts[blocks.back() + 1])) {
      continue;
    }
    uint64_t first = block_of(r.begin);
    if (!blocks.empty() && first <= blocks.back()) first = blocks.back() + 1;
    for (const uint64_t last = block_of(r.end - 1); first <= last; ++first) {
      blocks.push_back(first);
    }
  }
  return blocks;
}

std::span<const Range> RunCursor::Clip(Position begin, Position end) {
  clipped_.clear();
  while (next_ < runs_.size() && runs_[next_].end <= begin) ++next_;
  for (size_t i = next_; i < runs_.size() && runs_[i].begin < end; ++i) {
    clipped_.push_back(
        Range{std::max(runs_[i].begin, begin), std::min(runs_[i].end, end)});
  }
  return clipped_;
}

}  // namespace position
}  // namespace cstore
