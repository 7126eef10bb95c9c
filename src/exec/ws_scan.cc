#include "exec/ws_scan.h"

#include <algorithm>

#include "util/logging.h"

namespace cstore {
namespace exec {

namespace {

/// [begin, end) of the snapshot tail restricted to `scan_range`.
void TailRange(const write::WriteSnapshot& snap, position::Range scan_range,
               Position* begin, Position* end) {
  *begin = std::max<Position>(snap.base_rows(), scan_range.begin);
  *end = std::min<Position>(snap.total_rows(), scan_range.end);
  if (*end < *begin) *end = *begin;
}

/// End of the kChunkPositions-grid window containing `pos`, clamped.
Position WindowEnd(Position pos, Position end) {
  Position we = (pos / kChunkPositions + 1) * kChunkPositions;
  return std::min(we, end);
}

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
// WsScanPos
// ---------------------------------------------------------------------------

WsScanPos::WsScanPos(std::shared_ptr<const write::WriteSnapshot> snapshot,
                     std::vector<WsScanColumn> columns, ExecStats* stats,
                     position::Range scan_range)
    : snapshot_(std::move(snapshot)),
      columns_(std::move(columns)),
      stats_(stats) {
  TailRange(*snapshot_, scan_range, &cur_, &end_);
}

Result<bool> WsScanPos::NextImpl(MultiColumnChunk* out) {
  if (cur_ >= end_) return false;
  const Position wb = cur_;
  const Position we = WindowEnd(wb, end_);
  const Position base = snapshot_->base_rows();

  position::SetBuilder builder(wb, we);
  DeleteCursor deletes(*snapshot_, wb);
  for (Position p = wb; p < we; ++p) {
    if (deletes.Deleted(p)) continue;
    bool pass = true;
    for (const WsScanColumn& col : columns_) {
      if (!col.pred) continue;
      ++stats_->predicate_evals;
      if (!col.pred->Eval(snapshot_->tail_values(col.snap_index)[p - base])) {
        pass = false;
        break;
      }
    }
    if (pass) builder.Add(p);
  }

  out->begin = wb;
  out->end = we;
  out->desc = std::move(builder).Build().Compacted();
  out->minis.clear();
  // Attach every scanned column as an in-memory uncompressed mini-column so
  // downstream value access (Merge, LateAgg) never falls back to a reader —
  // write-store positions are beyond every reader's block range.
  for (const WsScanColumn& col : columns_) {
    MiniColumn mini(col.column);
    for (const auto& blk : snapshot_->tail_blocks(col.snap_index)) {
      if (blk->view.end_pos() <= wb || blk->view.start_pos() >= we) continue;
      mini.AddBlock(blk);
    }
    out->minis.push_back(std::move(mini));
  }
  cur_ = we;
  return true;
}

// ---------------------------------------------------------------------------
// WsScanTuple
// ---------------------------------------------------------------------------

WsScanTuple::WsScanTuple(std::shared_ptr<const write::WriteSnapshot> snapshot,
                         std::vector<WsScanColumn> columns, ExecStats* stats,
                         position::Range scan_range)
    : snapshot_(std::move(snapshot)),
      columns_(std::move(columns)),
      stats_(stats) {
  TailRange(*snapshot_, scan_range, &cur_, &end_);
}

Result<bool> WsScanTuple::NextImpl(TupleChunk* out) {
  if (cur_ >= end_) return false;
  const Position wb = cur_;
  const Position we = WindowEnd(wb, end_);
  const Position base = snapshot_->base_rows();
  const size_t k = columns_.size();

  out->Reset(static_cast<uint32_t>(k));
  row_buf_.resize(k);
  DeleteCursor deletes(*snapshot_, wb);
  for (Position p = wb; p < we; ++p) {
    if (deletes.Deleted(p)) continue;
    bool pass = true;
    for (const WsScanColumn& col : columns_) {
      Value v = snapshot_->tail_values(col.snap_index)[p - base];
      if (col.pred) {
        ++stats_->predicate_evals;
        if (!col.pred->Eval(v)) {
          pass = false;
          break;
        }
      }
      row_buf_[col.column] = v;
    }
    if (!pass) continue;
    out->AppendTuple(p, row_buf_.data());
  }
  stats_->tuples_constructed += out->num_tuples();
  cur_ = we;
  return true;
}

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

Result<bool> ConcatTupleOp::NextImpl(TupleChunk* out) {
  if (!first_done_) {
    CSTORE_ASSIGN_OR_RETURN(bool has, first_->Next(out));
    if (has) return true;
    first_done_ = true;
  }
  return second_->Next(out);
}

}  // namespace exec
}  // namespace cstore
