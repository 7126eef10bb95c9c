#include "codec/column_reader.h"

#include <algorithm>

#include "util/bit_util.h"

namespace cstore {
namespace codec {

namespace {

/// First in-block position whose value is >= x (or > x when strict);
/// view.end_pos() when every value is below the boundary. The block must
/// hold non-decreasing values.
Position InBlockLowerBound(const BlockView& view, Value x, bool strict) {
  auto below = [&](Value v) { return strict ? v <= x : v < x; };

  if (const auto* u = view.AsUncompressed()) {
    const Value* begin = u->values();
    const Value* end = begin + u->num_values();
    const Value* it = strict ? std::upper_bound(begin, end, x)
                             : std::lower_bound(begin, end, x);
    return u->start_pos() + static_cast<Position>(it - begin);
  }

  if (const auto* r = view.AsRle()) {
    // Runs of a sorted column are value-ordered: binary search for the
    // first run at or above the boundary.
    uint32_t lo = 0;
    uint32_t hi = r->num_runs();
    while (lo < hi) {
      uint32_t mid = lo + (hi - lo) / 2;
      if (below(r->runs()[mid].value)) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    if (lo == r->num_runs()) return r->end_pos();
    return r->runs()[lo].start;
  }

  if (const auto* d = view.AsDict()) {
    // A sorted column's codes ascend (the dictionary is value-sorted), so
    // the code array supports direct binary search.
    const uint16_t* begin = d->codes();
    const uint16_t* end = begin + d->num_values();
    const uint16_t* it = std::partition_point(
        begin, end,
        [&](uint16_t code) { return below(d->DictValue(code)); });
    return d->start_pos() + static_cast<Position>(it - begin);
  }

  const auto* b = view.AsBitVector();
  CSTORE_DCHECK(b != nullptr);
  // The dictionary is value-sorted and, in a sorted column, the bit-string
  // of the smallest qualifying value holds the earliest qualifying
  // position.
  for (uint32_t i = 0; i < b->num_distinct(); ++i) {
    if (below(b->DictValue(i))) continue;
    const uint64_t* words = b->Bitstring(i);
    size_t nwords = bit_util::WordsForBits(b->num_values());
    for (size_t w = 0; w < nwords; ++w) {
      if (words[w] != 0) {
        return b->start_pos() + w * bit_util::kBitsPerWord +
               bit_util::CountTrailingZeros(words[w]);
      }
    }
  }
  return b->end_pos();
}

}  // namespace

Result<std::unique_ptr<ColumnReader>> ColumnReader::Open(
    storage::FileManager* files, storage::BufferPool* pool,
    const std::string& name) {
  CSTORE_ASSIGN_OR_RETURN(storage::FileId file, files->OpenExisting(name));
  CSTORE_ASSIGN_OR_RETURN(std::vector<char> sidecar,
                          files->ReadSidecar(name));
  CSTORE_ASSIGN_OR_RETURN(ColumnMeta meta, ColumnMeta::Deserialize(sidecar));
  CSTORE_ASSIGN_OR_RETURN(uint64_t nblocks, files->NumBlocks(file));
  if (nblocks != meta.num_blocks) {
    return Status::Corruption("column " + name + ": sidecar reports " +
                              std::to_string(meta.num_blocks) +
                              " blocks, file has " + std::to_string(nblocks));
  }
  return std::unique_ptr<ColumnReader>(
      new ColumnReader(pool, name, file, std::move(meta)));
}

std::unique_ptr<ColumnReader> ColumnReader::Empty(std::string name) {
  return std::unique_ptr<ColumnReader>(new ColumnReader(
      /*pool=*/nullptr, std::move(name), storage::FileId(), ColumnMeta()));
}

std::unique_ptr<ColumnReader> ColumnReader::WithTail(
    const ColumnReader& stored,
    const std::vector<std::shared_ptr<EncodedBlock>>& tail) {
  std::unique_ptr<ColumnReader> reader(
      new ColumnReader(stored.pool_, stored.name_, stored.file_, stored.meta_));
  reader->block_start_pos_ = stored.meta_.block_start_pos;
  for (const auto& blk : tail) {
    // Contiguous, and full but for the last, as BlockContaining assumes.
    CSTORE_DCHECK(blk->view.start_pos() == reader->num_values_ &&
                  (blk == tail.back() ||
                   blk->view.num_values() == kUncompressedValuesPerBlock));
    reader->tail_.push_back(blk->view);
    reader->block_start_pos_.push_back(blk->view.start_pos());
    reader->num_values_ += blk->view.num_values();
  }
  return reader;
}

Result<EncodedBlock> ColumnReader::FetchBlock(uint64_t block_no) const {
  if (block_no >= meta_.num_blocks) {
    if (block_no - meta_.num_blocks >= tail_.size()) {
      return Status::OutOfRange("block " + std::to_string(block_no) +
                                " beyond column " + name_);
    }
    return EncodedBlock{storage::PageRef(), tail_[block_no - meta_.num_blocks]};
  }
  CSTORE_ASSIGN_OR_RETURN(storage::PageRef ref, pool_->Fetch(file_, block_no));
  CSTORE_ASSIGN_OR_RETURN(BlockView view, BlockView::FromPage(ref.page()));
  return EncodedBlock{std::move(ref), view};
}

bool ColumnReader::SupportsIndexLookup(const Predicate& pred) const {
  if (!meta_.sorted || meta_.num_values == 0) return false;
  switch (pred.op()) {
    case Predicate::Op::kTrue:
    case Predicate::Op::kLess:
    case Predicate::Op::kLessEq:
    case Predicate::Op::kEqual:
    case Predicate::Op::kGreaterEq:
    case Predicate::Op::kGreater:
    case Predicate::Op::kBetween:
      return true;
    case Predicate::Op::kNotEqual:
      return false;  // two ranges; fall back to scanning
  }
  return false;
}

Result<Position> ColumnReader::LowerBound(Value x, bool strict) const {
  if (!meta_.sorted) {
    return Status::InvalidArgument("column " + name_ + " is not sorted");
  }
  if (meta_.num_values == 0) return Position{0};
  const auto& firsts = meta_.block_first_value;
  // Last block whose first value is below the boundary; the answer lies in
  // it, or at the start of the next block.
  auto below = [&](Value v) { return strict ? v <= x : v < x; };
  uint64_t lo = 0;
  uint64_t hi = meta_.num_blocks;  // first block NOT below
  while (lo < hi) {
    uint64_t mid = lo + (hi - lo) / 2;
    if (below(firsts[mid])) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  if (lo == 0) return Position{0};  // boundary before the first block
  uint64_t block_no = lo - 1;
  CSTORE_ASSIGN_OR_RETURN(EncodedBlock blk, FetchBlock(block_no));
  return InBlockLowerBound(blk.view, x, strict);
}

Result<position::Range> ColumnReader::PositionRangeFor(
    const Predicate& pred) const {
  if (!SupportsIndexLookup(pred)) {
    return Status::NotSupported("no index lookup for " + pred.ToString() +
                                " on column " + name_);
  }
  const Position n = meta_.num_values;
  switch (pred.op()) {
    case Predicate::Op::kTrue:
      return position::Range{0, n};
    case Predicate::Op::kLess: {
      CSTORE_ASSIGN_OR_RETURN(Position hi,
                              LowerBound(pred.bound_a(), /*strict=*/false));
      return position::Range{0, hi};
    }
    case Predicate::Op::kLessEq: {
      CSTORE_ASSIGN_OR_RETURN(Position hi,
                              LowerBound(pred.bound_a(), /*strict=*/true));
      return position::Range{0, hi};
    }
    case Predicate::Op::kEqual: {
      CSTORE_ASSIGN_OR_RETURN(Position lo,
                              LowerBound(pred.bound_a(), /*strict=*/false));
      CSTORE_ASSIGN_OR_RETURN(Position hi,
                              LowerBound(pred.bound_a(), /*strict=*/true));
      return position::Range{lo, hi};
    }
    case Predicate::Op::kGreaterEq: {
      CSTORE_ASSIGN_OR_RETURN(Position lo,
                              LowerBound(pred.bound_a(), /*strict=*/false));
      return position::Range{lo, n};
    }
    case Predicate::Op::kGreater: {
      CSTORE_ASSIGN_OR_RETURN(Position lo,
                              LowerBound(pred.bound_a(), /*strict=*/true));
      return position::Range{lo, n};
    }
    case Predicate::Op::kBetween: {
      CSTORE_ASSIGN_OR_RETURN(Position lo,
                              LowerBound(pred.bound_a(), /*strict=*/false));
      CSTORE_ASSIGN_OR_RETURN(Position hi,
                              LowerBound(pred.bound_b(), /*strict=*/true));
      return position::Range{lo, std::max(lo, hi)};
    }
    case Predicate::Op::kNotEqual:
      break;
  }
  return Status::NotSupported("unreachable");
}

Result<Value> ColumnReader::ValueAt(Position pos) const {
  if (pos >= num_values_) {
    return Status::OutOfRange("position " + std::to_string(pos) +
                              " beyond column " + name_);
  }
  CSTORE_ASSIGN_OR_RETURN(EncodedBlock blk, FetchBlock(BlockContaining(pos)));
  return blk.view.ValueAt(pos);
}

}  // namespace codec
}  // namespace cstore
