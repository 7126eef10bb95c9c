// ColumnReader: the read path of a stored column. Blocks are fetched
// through the buffer pool (pinned while in use) and wrapped in BlockViews.

#ifndef CSTORE_CODEC_COLUMN_READER_H_
#define CSTORE_CODEC_COLUMN_READER_H_

#include <memory>
#include <string>

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

  const ColumnMeta& meta() const { return meta_; }
  const std::string& name() const { return name_; }
  storage::FileId file() const { return file_; }

  uint64_t num_blocks() const { return meta_.num_blocks; }
  uint64_t num_values() const { return meta_.num_values; }

  /// Fetches (and pins) block `block_no`.
  Result<EncodedBlock> FetchBlock(uint64_t block_no) const;

  /// Index of the block covering position `pos`.
  uint64_t BlockContaining(Position pos) const {
    return meta_.BlockContaining(pos);
  }

  /// Reads the single value at `pos` (random access: block lookup + jump).
  Result<Value> ValueAt(Position pos) const;

  /// True when `pred` over this column can be answered as a single position
  /// range without accessing values (Section 2.1.1's clustered-index case:
  /// the column is sorted and the predicate is a value range).
  bool SupportsIndexLookup(const Predicate& pred) const;

  /// Derives the contiguous position range satisfying `pred` ("the index
  /// can be accessed to find the start and end positions that match the
  /// value range, and these two positions can encode the entire set of
  /// positions"). Touches at most two boundary blocks. Requires
  /// SupportsIndexLookup(pred).
  Result<position::Range> PositionRangeFor(const Predicate& pred) const;

  /// First position whose value is >= x (or > x when `strict`); num_values()
  /// if none. Requires a sorted column.
  Result<Position> LowerBound(Value x, bool strict) const;

 private:
  ColumnReader(storage::BufferPool* pool, std::string name,
               storage::FileId file, ColumnMeta meta)
      : pool_(pool),
        name_(std::move(name)),
        file_(file),
        meta_(std::move(meta)) {}

  storage::BufferPool* pool_;
  std::string name_;
  storage::FileId file_;
  ColumnMeta meta_;
};

}  // namespace codec
}  // namespace cstore

#endif  // CSTORE_CODEC_COLUMN_READER_H_
