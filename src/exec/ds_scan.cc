#include "exec/ds_scan.h"

#include <algorithm>
#include <numeric>

#include "exec/gather.h"
#include "util/logging.h"

namespace cstore {
namespace exec {

// ---------------------------------------------------------------------------
// DS1Scan
// ---------------------------------------------------------------------------

DS1Scan::DS1Scan(const codec::ColumnReader* reader, ColumnId column,
                 codec::Predicate pred, bool attach_mini, ExecStats* stats,
                 position::Range scan_range)
    : reader_(reader),
      column_(column),
      pred_(pred),
      attach_mini_(attach_mini),
      stats_(stats),
      cursor_(reader, kChunkPositions, scan_range) {}

Result<bool> DS1Scan::NextImpl(MultiColumnChunk* out) {
  if (cursor_.done()) return false;
  Position wb = cursor_.begin();
  Position we = cursor_.end();

  CSTORE_ASSIGN_OR_RETURN(auto blocks, cursor_.Fetch());
  stats_->blocks_fetched += blocks.size();

  // Blocks may extend beyond the window; each evaluates only its overlap
  // with the window's accumulator.
  position::PositionSet desc = position::PositionSet::Empty(wb, we);
  bool use_bitmap = !blocks.empty() && blocks[0]->view.PredicateNeedsBitmap();
  if (use_bitmap) {
    position::Bitmap bm(wb, we - wb);
    for (const auto& blk : blocks) {
      stats_->predicate_evals += blk->view.EvalPredicate(pred_, nullptr, &bm);
    }
    desc = position::PositionSet::FromBitmap(std::move(bm)).Compacted();
  } else {
    position::SetBuilder builder(wb, we);
    for (const auto& blk : blocks) {
      stats_->predicate_evals +=
          blk->view.EvalPredicate(pred_, &builder, nullptr);
    }
    desc = std::move(builder).Build().Compacted();
  }

  out->begin = wb;
  out->end = we;
  out->desc = std::move(desc);
  out->minis.clear();
  if (attach_mini_) {
    MiniColumn mini(column_);
    for (auto& blk : blocks) mini.AddBlock(std::move(blk));
    out->minis.push_back(std::move(mini));
  }
  cursor_.Advance();
  return true;
}

// ---------------------------------------------------------------------------
// IndexScan
// ---------------------------------------------------------------------------

IndexScan::IndexScan(const codec::ColumnReader* reader,
                     position::Range range, ExecStats* stats,
                     position::Range scan_range)
    : input_(nullptr),
      range_(range),
      stats_(stats),
      cursor_(reader, kChunkPositions, scan_range) {}

IndexScan::IndexScan(MultiColumnOp* input, const codec::ColumnReader* reader,
                     position::Range range, ExecStats* stats)
    : input_(input), range_(range), stats_(stats), cursor_(reader) {}

Result<bool> IndexScan::NextImpl(MultiColumnChunk* out) {
  if (input_ == nullptr) {
    if (cursor_.done()) return false;
    Position wb = cursor_.begin();
    Position we = cursor_.end();
    position::RangeSet rs;
    rs.Append(std::max(range_.begin, wb), std::min(range_.end, we));
    out->begin = wb;
    out->end = we;
    out->desc = position::PositionSet::FromRanges(wb, we, std::move(rs));
    out->minis.clear();
    cursor_.Advance();
    return true;
  }

  MultiColumnChunk in;
  CSTORE_ASSIGN_OR_RETURN(bool has, input_->Next(&in));
  if (!has) return false;
  position::RangeSet rs;
  rs.Append(std::max(range_.begin, in.begin), std::min(range_.end, in.end));
  position::PositionSet range_set =
      position::PositionSet::FromRanges(in.begin, in.end, std::move(rs));
  out->begin = in.begin;
  out->end = in.end;
  out->desc =
      position::PositionSet::Intersect(in.desc, range_set).Compacted();
  out->minis = std::move(in.minis);
  ++stats_->position_ands;
  return true;
}

// ---------------------------------------------------------------------------
// DS1PipelinedScan
// ---------------------------------------------------------------------------

DS1PipelinedScan::DS1PipelinedScan(MultiColumnOp* input,
                                   const codec::ColumnReader* reader,
                                   ColumnId column, codec::Predicate pred,
                                   bool attach_mini, ExecStats* stats)
    : input_(input),
      reader_(reader),
      column_(column),
      pred_(pred),
      attach_mini_(attach_mini),
      stats_(stats) {}

Result<bool> DS1PipelinedScan::NextImpl(MultiColumnChunk* out) {
  MultiColumnChunk in;
  CSTORE_ASSIGN_OR_RETURN(bool has, input_->Next(&in));
  if (!has) return false;

  Position wb = in.begin;
  Position we = in.end;
  uint64_t window_first_block = reader_->BlockContaining(wb);
  uint64_t window_last_block = reader_->BlockContaining(we - 1);
  uint64_t window_blocks = window_last_block - window_first_block + 1;

  if (in.desc.IsEmpty()) {
    // Block skipping: no valid positions, so this column's blocks are
    // neither read nor processed.
    stats_->blocks_skipped += window_blocks;
    out->begin = wb;
    out->end = we;
    out->desc = position::PositionSet::Empty(wb, we);
    out->minis = std::move(in.minis);
    return true;
  }

  // Only the blocks holding a valid position are read; each is refined at
  // those positions alone (a jump per run, not a scan of the block).
  MiniColumn mini(column_);
  position::SetBuilder builder(wb, we);
  uint64_t fetched = 0;
  CSTORE_RETURN_IF_ERROR(ForEachCoveringBlock(
      reader_, in.desc, stats_,
      [&](codec::EncodedBlock& blk, std::span<const position::Range> runs) {
        ++fetched;
        stats_->predicate_evals +=
            blk.view.EvalPredicateAt(pred_, runs, &builder);
        if (attach_mini_) {
          mini.AddBlock(std::make_shared<codec::EncodedBlock>(std::move(blk)));
        }
      }));
  stats_->blocks_skipped += window_blocks - fetched;

  out->begin = wb;
  out->end = we;
  out->desc = std::move(builder).Build().Compacted();
  out->minis = std::move(in.minis);
  if (attach_mini_) out->minis.push_back(std::move(mini));
  return true;
}

// ---------------------------------------------------------------------------
// DS2Scan
// ---------------------------------------------------------------------------

DS2Scan::DS2Scan(const codec::ColumnReader* reader,
                 std::optional<codec::Predicate> pred, ExecStats* stats,
                 position::Range scan_range)
    : reader_(reader),
      pred_(pred),
      stats_(stats),
      cursor_(reader, kChunkPositions, scan_range) {}

Result<bool> DS2Scan::NextImpl(TupleChunk* out) {
  if (cursor_.done()) return false;
  Position wb = cursor_.begin();
  Position we = cursor_.end();

  CSTORE_ASSIGN_OR_RETURN(auto blocks, cursor_.Fetch());
  stats_->blocks_fetched += blocks.size();

  out->Reset(1);
  emitter_.Bind(out);
  for (const auto& blk : blocks) {
    // A block may span many windows: iterate only its overlap with this
    // one, gluing positions and values together for matches. Each output
    // tuple passes through the tuple iterator (Case 2's TIC_TUP term).
    const codec::BlockView& view = blk->view;
    const position::Range clip{std::max(wb, view.start_pos()),
                               std::min(we, view.end_pos())};
    if (const auto* rle = view.AsRle()) {
      // One predicate evaluation per run overlapping the window (DS2Cost's
      // ||C|| / RL term), then every position of a passing run.
      rle->ForEachRunIn({&clip, 1}, [&](Value v, Position b, Position e) {
        if (pred_) {
          ++stats_->predicate_evals;
          if (!pred_->Eval(v)) return;
        }
        for (Position p = b; p < e; ++p) sink_->Emit(p, &v);
      });
      continue;
    }
    if (pred_) stats_->predicate_evals += clip.end - clip.begin;
    pred_.value_or(codec::Predicate::True()).Dispatch([&](auto cmp) {
      view.ForEachValueInRanges({&clip, 1}, [&](Position p, Value v) {
        if (cmp(v)) sink_->Emit(p, &v);
      });
    });
  }
  stats_->tuples_constructed += out->num_tuples();
  cursor_.Advance();
  return true;
}

// ---------------------------------------------------------------------------
// DS4ScanMerge
// ---------------------------------------------------------------------------

DS4ScanMerge::DS4ScanMerge(TupleOp* input, const codec::ColumnReader* reader,
                           std::optional<codec::Predicate> pred,
                           ExecStats* stats, position::Range scan_range,
                           std::vector<uint32_t> out_slots)
    : input_(input),
      reader_(reader),
      pred_(pred),
      stats_(stats),
      out_slots_(std::move(out_slots)),
      in_(AcquireChunk(stats)),
      window_(reader, kChunkPositions, scan_range) {}

Result<bool> DS4ScanMerge::NextImpl(TupleChunk* out) {
  TupleChunk& in = *in_;
  CSTORE_ASSIGN_OR_RETURN(bool has, input_->Next(&in));
  if (!has) return false;

  uint32_t in_width = in.width();
  out->Reset(in_width + 1);
  out->Reserve(in.num_tuples());
  emitter_.Bind(out);
  row_buf_.resize(in_width + 1);

  // Blocks of this window that hold at least one input position; the rest
  // are skipped. Counting per window, as DS1PipelinedScan does, keeps the
  // count independent of where morsel boundaries fall.
  uint64_t used_blocks = 0;
  uint64_t last_used = UINT64_MAX;
  const size_t n = in.num_tuples();
  const uint32_t* slots = out_slots_.empty() ? nullptr : out_slots_.data();
  CSTORE_DCHECK(slots == nullptr || out_slots_.size() == in_width + 1);
  const codec::Predicate pred = pred_.value_or(codec::Predicate::True());
  CSTORE_RETURN_IF_ERROR(pred.Dispatch([&](auto cmp) -> Status {
    for (size_t i = 0; i < n; ++i) {
      const Position pos = in.position(i);
      // Positions ascend within and across input chunks, so the block and
      // run cursors below only ever move forward.
      CSTORE_DCHECK(pos >= next_pos_) << "DS4 input positions must ascend";
      next_pos_ = pos + 1;
      // Advance the block cursor; intermediate blocks with no input
      // positions are never fetched.
      if (pos >= cur_end_) CSTORE_RETURN_IF_ERROR(SeekBlock(pos));
      if (cur_block_no_ != last_used) {
        ++used_blocks;
        last_used = cur_block_no_;
      }
      Value v;
      if (cur_values_ != nullptr) {
        v = cur_values_[pos - cur_begin_];
      } else if (cur_rle_ != nullptr) {
        const codec::RleTriple* runs = cur_rle_->runs();
        while (pos >= runs[cur_run_].start + runs[cur_run_].len) ++cur_run_;
        v = runs[cur_run_].value;
      } else {
        v = cur_block_->view.ValueAt(pos);
      }
      if (cmp(v)) {
        // Stitch the wider tuple and push it through the tuple iterator.
        const Value* in_row = in.tuple(i);
        if (slots == nullptr) {
          for (uint32_t c = 0; c < in_width; ++c) row_buf_[c] = in_row[c];
          row_buf_[in_width] = v;
        } else {
          for (uint32_t c = 0; c < in_width; ++c) {
            row_buf_[slots[c]] = in_row[c];
          }
          row_buf_[slots[in_width]] = v;
        }
        sink_->Emit(pos, row_buf_.data());
      }
    }
    return Status::OK();
  }));
  if (pred_) stats_->predicate_evals += n;
  CSTORE_DCHECK(!window_.done()) << "input yielded more chunks than windows";
  uint64_t first;
  uint64_t last;
  window_.BlockRange(&first, &last);
  stats_->blocks_skipped += last - first + 1 - used_blocks;
  window_.Advance();
  stats_->tuples_constructed += out->num_tuples();
  return true;
}

Status DS4ScanMerge::SeekBlock(Position pos) {
  const uint64_t target = reader_->BlockContaining(pos);
  CSTORE_ASSIGN_OR_RETURN(codec::EncodedBlock blk,
                          reader_->FetchBlock(target));
  ++stats_->blocks_fetched;
  cur_block_ = std::make_shared<codec::EncodedBlock>(std::move(blk));
  cur_block_no_ = target;
  const codec::BlockView& view = cur_block_->view;
  cur_begin_ = view.start_pos();
  cur_end_ = view.end_pos();
  const codec::UncompressedView* plain = view.AsUncompressed();
  cur_values_ = plain != nullptr ? plain->values() : nullptr;
  cur_rle_ = view.AsRle();
  if (cur_rle_ != nullptr) cur_run_ = cur_rle_->RunContaining(pos);
  return Status::OK();
}

// ---------------------------------------------------------------------------
// SpcScan
// ---------------------------------------------------------------------------

SpcScan::SpcScan(std::vector<Input> inputs, ExecStats* stats,
                 position::Range scan_range, std::vector<uint32_t> out_slots)
    : inputs_(std::move(inputs)),
      out_slots_(std::move(out_slots)),
      stats_(stats),
      cursor_(inputs_.front().reader, kChunkPositions, scan_range) {
  scratch_.resize(inputs_.size());
  while (num_filters_ < inputs_.size() && inputs_[num_filters_].pred) {
    ++num_filters_;
  }
  if (out_slots_.empty()) {
    out_slots_.resize(inputs_.size());
    std::iota(out_slots_.begin(), out_slots_.end(), 0u);
  }
#ifndef NDEBUG
  CSTORE_DCHECK(out_slots_.size() == inputs_.size());
  for (size_t c = 0; c < inputs_.size(); ++c) {
    const Input& in = inputs_[c];
    CSTORE_DCHECK(in.reader->num_values() ==
                  inputs_.front().reader->num_values());
    CSTORE_DCHECK(c < num_filters_ || !in.pred)
        << "SPC's output-only inputs must come after its filters";
  }
#endif
}

Status SpcScan::ReadWindow(size_t c, Position wb, Position we) {
  const codec::ColumnReader* reader = inputs_[c].reader;
  std::vector<Value>& values = scratch_[c];
  values.clear();
  values.reserve(we - wb);
  const uint64_t first = reader->BlockContaining(wb);
  const uint64_t last = reader->BlockContaining(we - 1);
  for (uint64_t b = first; b <= last; ++b) {
    CSTORE_ASSIGN_OR_RETURN(codec::EncodedBlock blk, reader->FetchBlock(b));
    ++stats_->blocks_fetched;
    const position::Range clip{std::max(wb, blk.view.start_pos()),
                               std::min(we, blk.view.end_pos())};
    blk.view.GatherRanges({&clip, 1}, &values);
  }
  CSTORE_CHECK(values.size() == we - wb);
  stats_->values_gathered += we - wb;
  return Status::OK();
}

Result<bool> SpcScan::NextImpl(TupleChunk* out) {
  if (cursor_.done()) return false;
  Position wb = cursor_.begin();
  Position we = cursor_.end();
  uint64_t n = we - wb;
  const size_t k = inputs_.size();

  // Vector-style access: materialize each filtered column's window as a
  // dense array (decompressing RLE / bit-vector data).
  for (size_t c = 0; c < num_filters_; ++c) {
    CSTORE_RETURN_IF_ERROR(ReadWindow(c, wb, we));
  }

  // Short-circuit predicate evaluation, one column at a time: column c's
  // predicate is only tested on the rows that passed predicates 0..c-1,
  // which a selection vector lists (Ross's no-branch selection: every row
  // is written, the cursor advances by the verdict).
  sel_.resize(n);
  std::iota(sel_.begin(), sel_.end(), 0u);
  size_t m = n;
  for (size_t c = 0; c < num_filters_; ++c) {
    stats_->predicate_evals += m;
    const Value* col = scratch_[c].data();
    m = inputs_[c].pred->Dispatch([&](auto cmp) {
      size_t kept = 0;
      for (size_t j = 0; j < m; ++j) {
        const uint32_t i = sel_[j];
        sel_[kept] = i;
        kept += cmp(col[i]);
      }
      return kept;
    });
  }
  // Output-only columns are read only where some row passed.
  if (m > 0) {
    for (size_t c = num_filters_; c < k; ++c) {
      CSTORE_RETURN_IF_ERROR(ReadWindow(c, wb, we));
    }
  }

  // Each passing tuple is assembled and pushed through the tuple iterator.
  out->Reset(static_cast<uint32_t>(k));
  emitter_.Bind(out);
  row_buf_.resize(k);
  for (size_t j = 0; j < m; ++j) {
    const uint32_t i = sel_[j];
    for (size_t c = 0; c < k; ++c) {
      row_buf_[out_slots_[c]] = scratch_[c][i];
    }
    sink_->Emit(wb + i, row_buf_.data());
  }
  stats_->tuples_constructed += out->num_tuples();
  cursor_.Advance();
  return true;
}

}  // namespace exec
}  // namespace cstore
