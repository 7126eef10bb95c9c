// Data-source operators (paper Section 3.2, Cases 1-4):
//
//   DS1Scan          (Case 1) column + predicate → positions
//                    (optionally attaching the scanned blocks as a
//                     mini-column — the multi-column optimization)
//   DS1PipelinedScan (Case 3+1) input positions + column + predicate →
//                    refined positions; skips blocks with no valid
//                    positions (LM-pipelined's win at low selectivity)
//   DS2Scan          (Case 2) column + predicate → (pos, value) tuples
//   DS4ScanMerge     (Case 4) input EM tuples + column + predicate →
//                    extended EM tuples (jumps to input positions)
//   SpcScan          (Fig. 6) scan-predicate-construct over k columns →
//                    tuples (EM-parallel's leaf operator)
//
// The EM operators also read output-only columns — a planned SQL
// conjunction's columns without a condition: DS2 and DS4 take no predicate
// for them and evaluate none, and SPC reads them only in windows where a
// row passed its predicates.

#ifndef CSTORE_EXEC_DS_SCAN_H_
#define CSTORE_EXEC_DS_SCAN_H_

#include <memory>
#include <optional>
#include <vector>

#include "codec/column_reader.h"
#include "codec/predicate.h"
#include "exec/chunk_pool.h"
#include "exec/exec_stats.h"
#include "exec/operator.h"
#include "exec/window_cursor.h"

namespace cstore {
namespace exec {

/// DS Case 1: scans a column, applying a predicate, producing one
/// position-descriptor chunk per window. When `attach_mini` is set the
/// scanned blocks are attached as a mini-column so downstream operators can
/// re-access the column for free. `scan_range` restricts the scan to a
/// morsel of the position space (kChunkPositions-aligned begin).
class DS1Scan : public MultiColumnOp {
 public:
  DS1Scan(const codec::ColumnReader* reader, ColumnId column,
          codec::Predicate pred, bool attach_mini, ExecStats* stats,
          position::Range scan_range = kFullScanRange);

  Result<bool> NextImpl(MultiColumnChunk* out) override;
  const char* name() const override { return "ds1-scan"; }

 private:
  const codec::ColumnReader* reader_;
  ColumnId column_;
  codec::Predicate pred_;
  bool attach_mini_;
  ExecStats* stats_;
  WindowCursor cursor_;
};

/// Index-derived position scan (Section 2.1.1): for a sorted column, the
/// positions matching a range predicate come straight from the column index
/// as one contiguous range — "the original column values never have to be
/// accessed". Reads no blocks at execution time. As a leaf it iterates the
/// column's windows; with an input it intersects the input's descriptors
/// with the range (pipelined form).
class IndexScan : public MultiColumnOp {
 public:
  /// Leaf form. `scan_range` restricts the emitted windows to a morsel.
  IndexScan(const codec::ColumnReader* reader, position::Range range,
            ExecStats* stats, position::Range scan_range = kFullScanRange);
  /// Pipelined form: refines `input`'s descriptors.
  IndexScan(MultiColumnOp* input, const codec::ColumnReader* reader,
            position::Range range, ExecStats* stats);

  Result<bool> NextImpl(MultiColumnChunk* out) override;
  const char* name() const override { return "index-scan"; }

 private:
  MultiColumnOp* input_;
  position::Range range_;
  ExecStats* stats_;
  WindowCursor cursor_;  // leaf form only (never fetches blocks)
};

/// LM-pipelined second stage: consumes position chunks, fetches only the
/// blocks of `reader` that contain valid positions, applies `pred` at those
/// positions, and emits the intersection. Input mini-columns are passed
/// through; this column's fetched blocks are attached when `attach_mini`.
class DS1PipelinedScan : public MultiColumnOp {
 public:
  DS1PipelinedScan(MultiColumnOp* input, const codec::ColumnReader* reader,
                   ColumnId column, codec::Predicate pred, bool attach_mini,
                   ExecStats* stats);

  Result<bool> NextImpl(MultiColumnChunk* out) override;
  const char* name() const override { return "ds1-pipelined-scan"; }

 private:
  MultiColumnOp* input_;
  const codec::ColumnReader* reader_;
  ColumnId column_;
  codec::Predicate pred_;
  bool attach_mini_;
  ExecStats* stats_;
};

/// DS Case 2: scans a column with a predicate, producing width-1 tuples of
/// (position, value) — the leaf of EM-pipelined plans. Without a predicate
/// (an output-only column) every position passes, unevaluated.
class DS2Scan : public TupleOp {
 public:
  DS2Scan(const codec::ColumnReader* reader,
          std::optional<codec::Predicate> pred, ExecStats* stats,
          position::Range scan_range = kFullScanRange);

  Result<bool> NextImpl(TupleChunk* out) override;
  const char* name() const override { return "ds2-scan"; }

 private:
  const codec::ColumnReader* reader_;
  std::optional<codec::Predicate> pred_;
  ExecStats* stats_;
  WindowCursor cursor_;
  ChunkTupleEmitter emitter_;
  TupleEmitter* sink_ = &emitter_;
};

/// DS Case 4: consumes EM tuples, jumps to each tuple's position in the
/// column, applies the predicate, and emits the input tuple extended with
/// the column value when it passes. Blocks with no input positions are
/// skipped entirely (EM-pipelined's win for selective predicates). The
/// input yields one chunk per window of `scan_range`, as DS2Scan does.
/// Without a predicate (an output-only column) every input tuple is
/// extended, unevaluated. `out_slots`, when set, places the stitched
/// values — the input's slots, then this column's value — at those output
/// slots instead of in order: the last DS4 of a planned chain writes the
/// query's column layout.
class DS4ScanMerge : public TupleOp {
 public:
  DS4ScanMerge(TupleOp* input, const codec::ColumnReader* reader,
               std::optional<codec::Predicate> pred, ExecStats* stats,
               position::Range scan_range = kFullScanRange,
               std::vector<uint32_t> out_slots = {});

  Result<bool> NextImpl(TupleChunk* out) override;
  const char* name() const override { return "ds4-scan-merge"; }

 private:
  /// Fetches the block containing `pos` into the block cursor.
  Status SeekBlock(Position pos);

  TupleOp* input_;
  const codec::ColumnReader* reader_;
  std::optional<codec::Predicate> pred_;
  ExecStats* stats_;
  std::vector<uint32_t> out_slots_;  // empty: stitch in order
  PooledChunk in_;  // input staging, recycled per instance
  // The window of the current input chunk (never fetches); its block range
  // is what blocks_skipped counts against.
  WindowCursor window_;
  // Current block cursor (input positions ascend monotonically): the
  // block's span, its values when uncompressed, and on an RLE block the
  // index of the run holding the last input position.
  std::shared_ptr<codec::EncodedBlock> cur_block_;
  uint64_t cur_block_no_ = UINT64_MAX;
  Position cur_begin_ = 0;
  Position cur_end_ = 0;  // 0 until the first block is fetched
  const Value* cur_values_ = nullptr;        // views cur_block_, or null
  const codec::RleView* cur_rle_ = nullptr;  // views cur_block_, or null
  uint32_t cur_run_ = 0;
  Position next_pos_ = 0;  // the next input position must be at least this
  std::vector<Value> row_buf_;
  ChunkTupleEmitter emitter_;
  TupleEmitter* sink_ = &emitter_;
};

/// SPC (scan, predicate, construct): reads all blocks of the k columns,
/// short-circuit-evaluates the predicates column by column through a
/// selection vector, and constructs tuples
/// that pass everything — the leaf of EM-parallel plans. Compressed columns
/// are decompressed into per-window arrays first (the paper: EM "requires
/// the RLE-compressed data to be decompressed", precluding
/// direct-on-compressed operation). Inputs are listed in evaluation order;
/// the inputs without a predicate (output-only columns) come last and are
/// read only in windows where some row passed every predicate.
/// `out_slots`, when set, places input i's value at output slot
/// out_slots[i] instead of slot i.
class SpcScan : public TupleOp {
 public:
  struct Input {
    const codec::ColumnReader* reader;
    std::optional<codec::Predicate> pred;
  };

  SpcScan(std::vector<Input> inputs, ExecStats* stats,
          position::Range scan_range = kFullScanRange,
          std::vector<uint32_t> out_slots = {});

  Result<bool> NextImpl(TupleChunk* out) override;
  const char* name() const override { return "spc-scan"; }

 private:
  /// Decompresses input c's values over [wb, we) into scratch_[c].
  Status ReadWindow(size_t c, Position wb, Position we);

  std::vector<Input> inputs_;
  size_t num_filters_ = 0;  // the leading inputs that carry a predicate
  std::vector<uint32_t> out_slots_;  // input i's output slot
  ExecStats* stats_;
  WindowCursor cursor_;  // over inputs_[0] (all columns share positions)
  std::vector<std::vector<Value>> scratch_;
  std::vector<uint32_t> sel_;  // window offsets passing the predicates so far
  std::vector<Value> row_buf_;
  ChunkTupleEmitter emitter_;
  TupleEmitter* sink_ = &emitter_;
};

}  // namespace exec
}  // namespace cstore

#endif  // CSTORE_EXEC_DS_SCAN_H_
