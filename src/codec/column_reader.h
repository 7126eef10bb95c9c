// ColumnReader: the read path of a stored column. Blocks are fetched
// through the buffer pool (pinned while in use) and wrapped in BlockViews.
//
// A write snapshot's reader of a column (WithTail) serves more positions
// than the read store holds: its blocks are the read store's blocks
// followed by the snapshot's tail blocks, uncompressed in-memory views of
// the rows inserted since the last compaction. Scans read both parts
// alike; index lookups answer over the read store only, since the tail is
// not sorted.

#ifndef CSTORE_CODEC_COLUMN_READER_H_
#define CSTORE_CODEC_COLUMN_READER_H_

#include <memory>
#include <string>
#include <vector>

#include "codec/column_meta.h"
#include "codec/predicate.h"
#include "codec/views.h"
#include "position/range_set.h"
#include "storage/buffer_pool.h"
#include "storage/file_manager.h"
#include "util/status.h"

namespace cstore {
namespace codec {

/// A pinned, decodable block: the PageRef keeps the buffer-pool frame
/// resident while the view is in use. Movable; pointers inside the view stay
/// valid across moves because the underlying frame does not move. A write
/// snapshot's tail blocks leave `ref` empty: their views point into the
/// snapshot's own tail values.
struct EncodedBlock {
  storage::PageRef ref;
  BlockView view;
};

class ColumnReader {
 public:
  static Result<std::unique_ptr<ColumnReader>> Open(
      storage::FileManager* files, storage::BufferPool* pool,
      const std::string& name);

  /// A zero-row column held only in memory: it touches no file and no
  /// buffer pool. Its meta is the default ColumnMeta, which is what
  /// ColumnWriter writes for zero values.
  static std::unique_ptr<ColumnReader> Empty(std::string name);

  /// `stored`'s blocks followed by `tail`: a write snapshot's uncompressed
  /// blocks of the same column, holding kUncompressedValuesPerBlock values
  /// each (the last may hold fewer) from position stored.num_values() on.
  /// The tail blocks never touch the buffer pool; their views must outlive
  /// the reader.
  static std::unique_ptr<ColumnReader> WithTail(
      const ColumnReader& stored,
      const std::vector<std::shared_ptr<EncodedBlock>>& tail);

  /// The read store's metadata (encoding, sort order, value statistics),
  /// also for a reader with a tail.
  const ColumnMeta& meta() const { return meta_; }
  const std::string& name() const { return name_; }
  storage::FileId file() const { return file_; }

  /// Blocks and values of the read store, then of the tail.
  uint64_t num_blocks() const { return meta_.num_blocks + tail_.size(); }
  uint64_t num_values() const { return num_values_; }
  /// Start position of every block, ascending.
  const std::vector<uint64_t>& block_start_pos() const {
    return tail_.empty() ? meta_.block_start_pos : block_start_pos_;
  }

  /// Fetches (and pins) block `block_no`; a tail block pins nothing.
  Result<EncodedBlock> FetchBlock(uint64_t block_no) const;

  /// Index of the block covering position `pos`.
  uint64_t BlockContaining(Position pos) const {
    if (pos < meta_.num_values) return meta_.BlockContaining(pos);
    return meta_.num_blocks +
           (pos - meta_.num_values) / kUncompressedValuesPerBlock;
  }

  /// Reads the single value at `pos` (random access: block lookup + jump).
  Result<Value> ValueAt(Position pos) const;

  /// True when `pred` over this column's read store can be answered as a
  /// single position range without accessing values (Section 2.1.1's
  /// clustered-index case: the column is sorted and the predicate is a
  /// value range).
  bool SupportsIndexLookup(const Predicate& pred) const;

  /// Derives the contiguous position range satisfying `pred` ("the index
  /// can be accessed to find the start and end positions that match the
  /// value range, and these two positions can encode the entire set of
  /// positions"). Touches at most two boundary blocks. Requires
  /// SupportsIndexLookup(pred).
  Result<position::Range> PositionRangeFor(const Predicate& pred) const;

  /// First position whose value is >= x (or > x when `strict`); the read
  /// store's row count if none. Requires a sorted column.
  Result<Position> LowerBound(Value x, bool strict) const;

 private:
  ColumnReader(storage::BufferPool* pool, std::string name,
               storage::FileId file, ColumnMeta meta)
      : pool_(pool),
        name_(std::move(name)),
        file_(file),
        meta_(std::move(meta)),
        num_values_(meta_.num_values) {}

  storage::BufferPool* pool_;
  std::string name_;
  storage::FileId file_;
  ColumnMeta meta_;
  uint64_t num_values_;
  // A snapshot reader's tail blocks, numbered from meta_.num_blocks on, and
  // the start of every block (read store and tail).
  std::vector<BlockView> tail_;
  std::vector<uint64_t> block_start_pos_;
};

}  // namespace codec
}  // namespace cstore

#endif  // CSTORE_CODEC_COLUMN_READER_H_
