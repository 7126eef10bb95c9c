#include "exec/ws_scan.h"

#include <algorithm>

#include "util/logging.h"

namespace cstore {
namespace exec {

namespace {

/// The snapshot's sorted delete list from `begin` on, walked by one cursor
/// while a scan's positions ascend: one binary search per chunk instead of
/// one per row.
class DeleteCursor {
 public:
  DeleteCursor(const write::WriteSnapshot& snap, Position begin)
      : it_(std::lower_bound(snap.deleted().begin(), snap.deleted().end(),
                             begin)),
        end_(snap.deleted().end()) {}

  /// True when `p` is deleted. Successive calls take ascending positions.
  bool Deleted(Position p) {
    while (it_ != end_ && *it_ < p) ++it_;
    return it_ != end_ && *it_ == p;
  }

 private:
  std::vector<Position>::const_iterator it_;
  std::vector<Position>::const_iterator end_;
};

}  // namespace

// ---------------------------------------------------------------------------
// Delete masks
// ---------------------------------------------------------------------------

Result<bool> DeleteMaskOp::NextImpl(MultiColumnChunk* out) {
  MultiColumnChunk in;
  CSTORE_ASSIGN_OR_RETURN(bool has, input_->Next(&in));
  if (!has) return false;
  if (in.desc.IsEmpty() || !snapshot_->AnyDeletedIn(in.begin, in.end)) {
    *out = std::move(in);
    return true;
  }
  out->begin = in.begin;
  out->end = in.end;
  out->desc = position::PositionSet::Intersect(
                  in.desc, snapshot_->LiveSet(in.begin, in.end))
                  .Compacted();
  out->minis = std::move(in.minis);
  ++stats_->position_ands;
  return true;
}

Result<bool> DeleteMaskTupleOp::NextImpl(TupleChunk* out) {
  TupleChunk& in = *in_;
  CSTORE_ASSIGN_OR_RETURN(bool has, input_->Next(&in));
  if (!has) return false;
  if (in.empty() ||
      !snapshot_->AnyDeletedIn(in.position(0),
                               in.position(in.num_tuples() - 1) + 1)) {
    *out = std::move(in);
    return true;
  }
  out->Reset(in.width());
  out->Reserve(in.num_tuples());
  // Every scan emits a chunk's positions in ascending order.
  DeleteCursor deletes(*snapshot_, in.position(0));
  for (size_t i = 0; i < in.num_tuples(); ++i) {
    if (deletes.Deleted(in.position(i))) continue;
    out->AppendTuple(in.position(i), in.tuple(i));
  }
  return true;
}

// ---------------------------------------------------------------------------
// Concatenation
// ---------------------------------------------------------------------------

Result<bool> ConcatPosOp::NextImpl(MultiColumnChunk* out) {
  if (!first_done_) {
    CSTORE_ASSIGN_OR_RETURN(bool has, first_->Next(out));
    if (has) return true;
    first_done_ = true;
  }
  return second_->Next(out);
}

}  // namespace exec
}  // namespace cstore
