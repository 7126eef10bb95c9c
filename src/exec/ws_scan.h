// Write-store integration operators: how the four materialization
// strategies transparently see a query's WriteSnapshot.
//
//   WsScanPos     — late-materialization tail leaf: serves the snapshot's
//                   write-store rows as position-descriptor chunks (all
//                   predicates ANDed, deletes masked), attaching every scan
//                   column as a mini-column of the snapshot's tail blocks
//                   (uncompressed views over its tail values) so Merge /
//                   LateAgg never re-fetch through the buffer pool
//                   (write-store positions have no disk blocks to fetch).
//   WsScanTuple   — early-materialization tail leaf: same rows, same
//                   predicates, emitted as constructed tuples.
//   DeleteMaskOp  — LM delete mask: intersects each position-descriptor
//                   chunk with the snapshot's live set (position/ set
//                   intersection), dropping deleted read-store positions.
//   DeleteMaskTupleOp — EM delete mask: filters constructed tuples whose
//                   position is deleted in the snapshot.
//   ConcatPosOp / ConcatTupleOp — drain a read-store stream, then the
//                   write-store tail stream, under one plan root, so the
//                   serial executor (and each morsel instance) sees one
//                   operator tree covering the whole snapshot.
//
// All of these respect the usual chunk-window discipline; tail windows are
// aligned to the global kChunkPositions grid (the first one starts at
// base_rows, mid-window, exactly where the read store ends). Because result
// checksums are order-independent bags, morsel workers may chunk the tail
// differently from a serial run without affecting any reported result.

#ifndef CSTORE_EXEC_WS_SCAN_H_
#define CSTORE_EXEC_WS_SCAN_H_

#include <memory>
#include <optional>
#include <vector>

#include "codec/predicate.h"
#include "exec/chunk_pool.h"
#include "exec/exec_stats.h"
#include "exec/morsel_source.h"
#include "exec/operator.h"
#include "write/write_store.h"

namespace cstore {
namespace exec {

/// One scanned column of a write-store tail: which scan slot it fills
/// (the ColumnId that keys its mini-column, and its slot in tail tuples),
/// which snapshot schema column holds its values, and the predicate to
/// apply — none for an output-only column, which is read, never evaluated.
/// Predicates are applied in the order the columns are listed.
struct WsScanColumn {
  ColumnId column = 0;
  size_t snap_index = 0;
  std::optional<codec::Predicate> pred;
};

/// Late-materialization leaf over the snapshot tail: one chunk per
/// kChunkPositions-grid window of [base_rows, total_rows) ∩ scan_range.
class WsScanPos : public MultiColumnOp {
 public:
  WsScanPos(std::shared_ptr<const write::WriteSnapshot> snapshot,
            std::vector<WsScanColumn> columns, ExecStats* stats,
            position::Range scan_range = kFullScanRange);

  Result<bool> NextImpl(MultiColumnChunk* out) override;
  const char* name() const override { return "ws-scan-pos"; }

 private:
  std::shared_ptr<const write::WriteSnapshot> snapshot_;
  std::vector<WsScanColumn> columns_;
  ExecStats* stats_;
  Position cur_;
  Position end_;
};

/// Early-materialization leaf over the snapshot tail: emits tuples (one
/// slot per scanned column, at its `column` slot) for rows passing every
/// predicate and not deleted.
class WsScanTuple : public TupleOp {
 public:
  WsScanTuple(std::shared_ptr<const write::WriteSnapshot> snapshot,
              std::vector<WsScanColumn> columns, ExecStats* stats,
              position::Range scan_range = kFullScanRange);

  Result<bool> NextImpl(TupleChunk* out) override;
  const char* name() const override { return "ws-scan-tuple"; }

 private:
  std::shared_ptr<const write::WriteSnapshot> snapshot_;
  std::vector<WsScanColumn> columns_;
  ExecStats* stats_;
  Position cur_;
  Position end_;
  std::vector<Value> row_buf_;
};

/// Intersects every position-descriptor chunk with the snapshot's live set.
/// Chunks with no deletions in their window pass through untouched.
class DeleteMaskOp : public MultiColumnOp {
 public:
  DeleteMaskOp(MultiColumnOp* input,
               std::shared_ptr<const write::WriteSnapshot> snapshot,
               ExecStats* stats)
      : input_(input), snapshot_(std::move(snapshot)), stats_(stats) {}

  Result<bool> NextImpl(MultiColumnChunk* out) override;
  const char* name() const override { return "delete-mask"; }

 private:
  MultiColumnOp* input_;
  std::shared_ptr<const write::WriteSnapshot> snapshot_;
  ExecStats* stats_;
};

/// Drops tuples whose position the snapshot has deleted. Chunks with no
/// deletions in their position span pass through untouched.
class DeleteMaskTupleOp : public TupleOp {
 public:
  DeleteMaskTupleOp(TupleOp* input,
                    std::shared_ptr<const write::WriteSnapshot> snapshot)
      : input_(input), snapshot_(std::move(snapshot)) {}

  Result<bool> NextImpl(TupleChunk* out) override;
  const char* name() const override { return "delete-mask-tuple"; }

 private:
  TupleOp* input_;
  std::shared_ptr<const write::WriteSnapshot> snapshot_;
  PooledChunk in_ = AcquireChunk();  // input staging, recycled per instance
};

/// Drains `first`, then `second`.
class ConcatPosOp : public MultiColumnOp {
 public:
  ConcatPosOp(MultiColumnOp* first, MultiColumnOp* second)
      : first_(first), second_(second) {}

  Result<bool> NextImpl(MultiColumnChunk* out) override;
  const char* name() const override { return "concat-pos"; }

 private:
  MultiColumnOp* first_;
  MultiColumnOp* second_;
  bool first_done_ = false;
};

/// Drains `first`, then `second` (both streams must share a tuple width).
class ConcatTupleOp : public TupleOp {
 public:
  ConcatTupleOp(TupleOp* first, TupleOp* second)
      : first_(first), second_(second) {}

  Result<bool> NextImpl(TupleChunk* out) override;
  const char* name() const override { return "concat-tuple"; }

 private:
  TupleOp* first_;
  TupleOp* second_;
  bool first_done_ = false;
};

}  // namespace exec
}  // namespace cstore

#endif  // CSTORE_EXEC_WS_SCAN_H_
