// Write-store operators: what a plan over a WriteSnapshot adds to the
// four materialization strategies' operator trees. The snapshot's tail rows
// need none: the snapshot's column readers serve them as more blocks of
// each column (WriteSnapshot::ReaderFor), so every leaf scans them.
//
//   DeleteMaskOp  — LM delete mask: intersects each position-descriptor
//                   chunk with the snapshot's live set (position/ set
//                   intersection), dropping deleted positions.
//   DeleteMaskTupleOp — EM delete mask: filters constructed tuples whose
//                   position is deleted in the snapshot.
//   ConcatPosOp   — drains one LM position stream, then another: an LM plan
//                   with an index-answered filter reads the read store off
//                   the index and the tail, which has no index, by scanning.
//
// Both masks run after the leaf stream, on stored and tail rows alike.

#ifndef CSTORE_EXEC_WS_SCAN_H_
#define CSTORE_EXEC_WS_SCAN_H_

#include <memory>

#include "exec/chunk_pool.h"
#include "exec/exec_stats.h"
#include "exec/operator.h"
#include "write/write_store.h"

namespace cstore {
namespace exec {

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

}  // namespace exec
}  // namespace cstore

#endif  // CSTORE_EXEC_WS_SCAN_H_
