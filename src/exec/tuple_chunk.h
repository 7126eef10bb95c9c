// TupleChunk: a block of row-store-style tuples, the intermediate result of
// early-materialization plans. Rows are stored contiguously (row-major), so
// stitching a value into a tuple is a genuine per-slot copy and iteration is
// a genuine tuple-at-a-time walk — the costs the paper's TIC_TUP constant
// measures.

#ifndef CSTORE_EXEC_TUPLE_CHUNK_H_
#define CSTORE_EXEC_TUPLE_CHUNK_H_

#include <vector>

#include "util/common.h"
#include "util/logging.h"

namespace cstore {
namespace exec {

class TupleChunk {
 public:
  TupleChunk() = default;
  explicit TupleChunk(uint32_t width) : width_(width) {}

  uint32_t width() const { return width_; }
  size_t num_tuples() const { return positions_.size(); }
  bool empty() const { return positions_.empty(); }

  void Reset(uint32_t width) {
    width_ = width;
    positions_.clear();
    data_.clear();
  }

  void Reserve(size_t n) {
    positions_.reserve(n);
    data_.reserve(n * width_);
  }

  /// Appends a tuple, returning a pointer to its `width()` value slots.
  Value* AppendTuple(Position pos) {
    positions_.push_back(pos);
    data_.resize(data_.size() + width_);
    return data_.data() + data_.size() - width_;
  }

  /// Appends a tuple copying the first `width()` values from `values`.
  void AppendTuple(Position pos, const Value* values) {
    Value* slots = AppendTuple(pos);
    for (uint32_t i = 0; i < width_; ++i) slots[i] = values[i];
  }

  /// Appends every tuple of `other` in two bulk copies. An empty chunk
  /// first adopts `other`'s width; otherwise the widths must match.
  void Append(const TupleChunk& other) {
    if (empty()) width_ = other.width_;
    CSTORE_DCHECK(width_ == other.width_ || other.empty())
        << "appending width " << other.width_ << " to width " << width_;
    positions_.insert(positions_.end(), other.positions_.begin(),
                      other.positions_.end());
    data_.insert(data_.end(), other.data_.begin(), other.data_.end());
  }

  Position position(size_t i) const { return positions_[i]; }
  const Value* tuple(size_t i) const { return data_.data() + i * width_; }
  Value* mutable_tuple(size_t i) { return data_.data() + i * width_; }
  Value value(size_t i, uint32_t col) const {
    return data_[i * width_ + col];
  }

  const std::vector<Position>& positions() const { return positions_; }
  const std::vector<Value>& data() const { return data_; }

 private:
  uint32_t width_ = 0;
  std::vector<Position> positions_;
  std::vector<Value> data_;  // row-major, num_tuples() * width_
};

/// C-Store-style tuple-at-a-time emission interface. Early-materialization
/// operators (DS2, DS4, SPC) push every constructed tuple through a virtual
/// Emit call — the tuple-iterator cost the paper's model charges as TIC_TUP
/// per constructed tuple. Late materialization's Merge, by contrast,
/// "produce[s] tuples as array (don't use iterator)" (Figure 5) and writes
/// chunks directly.
class TupleEmitter {
 public:
  virtual ~TupleEmitter() = default;
  virtual void Emit(Position pos, const Value* row) = 0;
};

/// Emitter appending to a TupleChunk; rebindable so operators can reuse one
/// emitter across output chunks.
class ChunkTupleEmitter final : public TupleEmitter {
 public:
  ChunkTupleEmitter() = default;
  explicit ChunkTupleEmitter(TupleChunk* chunk) : chunk_(chunk) {}
  void Bind(TupleChunk* chunk) { chunk_ = chunk; }
  void Emit(Position pos, const Value* row) override {
    chunk_->AppendTuple(pos, row);
  }

 private:
  TupleChunk* chunk_ = nullptr;
};

}  // namespace exec
}  // namespace cstore

#endif  // CSTORE_EXEC_TUPLE_CHUNK_H_
