// DS3's read of a column at a selection's positions: from the chunk's
// mini-column when present (free re-access, Section 3.6), otherwise by
// re-fetching the column's blocks through the buffer pool (the re-access
// cost of Section 2.2). Both walk the selection once through one
// position::RunCursor; ForEachCoveringBlock is the reader walk every
// positional read of a stored column shares.

#ifndef CSTORE_EXEC_GATHER_H_
#define CSTORE_EXEC_GATHER_H_

#include <span>
#include <vector>

#include "codec/column_reader.h"
#include "exec/exec_stats.h"
#include "exec/multicolumn.h"
#include "position/run_cursor.h"
#include "util/status.h"

namespace cstore {
namespace exec {

/// Fetches, in ascending order, only the blocks of `reader` holding a valid
/// position of `sel` (each counts in blocks_fetched), and calls
/// per_block(block, runs) with sel's runs clipped to that block (never
/// empty). per_block may move the block out to keep it pinned.
template <typename PerBlock>
Status ForEachCoveringBlock(const codec::ColumnReader* reader,
                            const position::PositionSet& sel,
                            ExecStats* stats, PerBlock&& per_block) {
  position::RunCursor runs(sel);
  for (uint64_t b : runs.Blocks(reader->block_start_pos())) {
    CSTORE_ASSIGN_OR_RETURN(codec::EncodedBlock blk, reader->FetchBlock(b));
    ++stats->blocks_fetched;
    const std::span<const position::Range> clipped =
        runs.Clip(blk.view.start_pos(), blk.view.end_pos());
    per_block(blk, clipped);
  }
  return Status::OK();
}

/// Appends the values of a column at the valid positions of `sel` to *out,
/// in position order: from `mini` when it is not null, else through
/// `reader`. Counts one values_gathered per value.
Status GatherColumnValues(const position::PositionSet& sel,
                          const MiniColumn* mini,
                          const codec::ColumnReader* reader, ExecStats* stats,
                          std::vector<Value>* out);

/// As above, at the valid positions of `chunk.desc`, from the chunk's
/// mini-column of `column` when it has one.
inline Status GatherColumnValues(const MultiColumnChunk& chunk,
                                 ColumnId column,
                                 const codec::ColumnReader* reader,
                                 ExecStats* stats, std::vector<Value>* out) {
  return GatherColumnValues(chunk.desc, chunk.FindMini(column), reader, stats,
                            out);
}

}  // namespace exec
}  // namespace cstore

#endif  // CSTORE_EXEC_GATHER_H_
