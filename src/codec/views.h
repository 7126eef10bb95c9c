// Zero-copy views over encoded 64 KB blocks (and, as uncompressed blocks,
// over a write snapshot's in-memory tail values).
//
// A view interprets a block's payload in place (the mini-columns of
// Section 3.6 are exactly these views kept pinned in the buffer pool, "each
// mini-column is kept compressed the same way as it was on disk").
// BlockView has one member per access shape:
//   * SARGable predicate evaluation over a window (EvalPredicate), with
//     encoding-specific fast paths:
//       - RLE: one test per run, emitting whole position ranges
//       - bit-vector: word-wise OR of the bit-strings of matching values
//       - uncompressed / dictionary: one fixed comparison per value, 64
//         verdicts packed per position word
//   * positional access at a selection's runs, clipped to the block by
//     position::RunCursor (DS3 / DS4 jumps):
//       - ForEachValueInRanges visits (position, value) pairs
//       - GatherRanges appends the values in bulk
//       - EvalPredicateAt refines a selection (LM-pipelined, Case 3)
//   * whole-block access: Decompress (paper: asArray()) and ValueAt
//
// Block capacities are multiples of 64 positions so bit-strings stay
// word-aligned relative to any 64-aligned window bitmap.

#ifndef CSTORE_CODEC_VIEWS_H_
#define CSTORE_CODEC_VIEWS_H_

#include <algorithm>
#include <cstdint>
#include <span>
#include <variant>
#include <vector>

#include "codec/encoding.h"
#include "codec/predicate.h"
#include "position/bitmap.h"
#include "position/position_set.h"
#include "position/range_set.h"
#include "storage/page.h"
#include "util/common.h"
#include "util/status.h"

namespace cstore {
namespace codec {

/// RLE triple (V, S, L): value V occupies positions [S, S+L) (Section 1.1).
struct RleTriple {
  Value value;
  uint64_t start;
  uint64_t len;
};
static_assert(sizeof(RleTriple) == 24);

/// Values per uncompressed block (64-aligned; 8128 * 8 bytes fits the
/// payload).
inline constexpr uint32_t kUncompressedValuesPerBlock = 8128;

/// RLE triples per block.
inline constexpr uint32_t kRleTriplesPerBlock =
    storage::kPagePayloadSize / sizeof(RleTriple);

/// Default positions covered by one bit-vector block (power of two).
inline constexpr uint32_t kBitVectorDefaultPositions = 32768;

/// Header at the start of a bit-vector block payload, followed by the value
/// dictionary (k int64s) and then k bit-strings of words_per_bitstring
/// 64-bit words each.
struct BitVectorPayloadHeader {
  uint32_t num_distinct;
  uint32_t words_per_bitstring;
};

class UncompressedView {
 public:
  UncompressedView(const storage::BlockHeader* h, const char* payload)
      : UncompressedView(h->start_pos, h->num_values,
                         reinterpret_cast<const Value*>(payload)) {}
  UncompressedView(Position start, uint32_t n, const Value* values)
      : start_(start), n_(n), values_(values) {}

  Position start_pos() const { return start_; }
  uint32_t num_values() const { return n_; }
  Position end_pos() const { return start_ + n_; }
  const Value* values() const { return values_; }

  Value ValueAt(Position pos) const { return values_[pos - start_]; }

  /// Evaluates `pred` at each of this block's positions inside the
  /// builder's window, 64 verdicts per builder word. Returns the number of
  /// evaluations: one per value, the per-tuple FC the model charges
  /// uncompressed data sources.
  uint64_t EvalPredicate(const Predicate& pred,
                         position::SetBuilder* builder) const;

 private:
  Position start_;
  uint32_t n_;
  const Value* values_;
};

class RleView {
 public:
  RleView(const storage::BlockHeader* h, const char* payload)
      : start_(h->start_pos),
        n_(h->num_values),
        nruns_(h->payload_len / sizeof(RleTriple)),
        runs_(reinterpret_cast<const RleTriple*>(payload)) {}

  Position start_pos() const { return start_; }
  uint32_t num_values() const { return n_; }
  Position end_pos() const { return start_ + n_; }
  uint32_t num_runs() const { return nruns_; }
  const RleTriple* runs() const { return runs_; }

  /// Value at an absolute position (binary search over runs).
  Value ValueAt(Position pos) const;

  /// Index of the run containing pos.
  uint32_t RunContaining(Position pos) const;

  /// One predicate evaluation per run overlapping the builder's window;
  /// matching runs contribute their overlap as one position range. Returns
  /// the number of evaluations.
  uint64_t EvalPredicate(const Predicate& pred,
                         position::SetBuilder* builder) const;

  template <typename Fn>
  void ForEachRun(Fn&& fn) const {
    for (uint32_t i = 0; i < nruns_; ++i) {
      fn(runs_[i].value, runs_[i].start, runs_[i].len);
    }
  }

  /// fn(value, begin, end) for each run overlapping the ascending,
  /// disjoint `ranges` (inside this block; a lone empty range visits
  /// nothing), clipped to each range, ascending. The first run is found by
  /// binary search, so a block that spans many windows is never walked
  /// from its start per window; later runs are reached moving forward.
  template <typename Fn>
  void ForEachRunIn(std::span<const position::Range> ranges, Fn&& fn) const {
    if (ranges.empty() || ranges.front().empty()) return;
    uint32_t i = RunContaining(ranges.front().begin);
    for (const position::Range& r : ranges) {
      while (i < nruns_ && runs_[i].start + runs_[i].len <= r.begin) ++i;
      for (uint32_t j = i; j < nruns_ && runs_[j].start < r.end; ++j) {
        const Position run_end = runs_[j].start + runs_[j].len;
        fn(runs_[j].value, std::max<Position>(runs_[j].start, r.begin),
           std::min(run_end, r.end));
      }
    }
  }

 private:
  Position start_;
  uint32_t n_;
  uint32_t nruns_;
  const RleTriple* runs_;
};

/// Header at the start of a dictionary block payload, followed by the
/// value dictionary (k int64s, value-sorted) and then num_values uint16
/// codes.
struct DictPayloadHeader {
  uint32_t num_distinct;
  uint32_t reserved;
};

/// Default positions covered by one dictionary block.
inline constexpr uint32_t kDictDefaultPositions = 16384;

class DictView {
 public:
  DictView(const storage::BlockHeader* h, const char* payload);

  Position start_pos() const { return start_; }
  uint32_t num_values() const { return n_; }
  Position end_pos() const { return start_ + n_; }
  uint32_t num_distinct() const { return k_; }

  Value DictValue(uint32_t code) const { return dict_[code]; }
  const uint16_t* codes() const { return codes_; }

  Value ValueAt(Position pos) const { return dict_[codes_[pos - start_]]; }

  /// Evaluates the predicate once per dictionary entry, then scans the
  /// codes inside the builder's window against the precomputed verdicts,
  /// 64 per builder word — predicate work is O(k + n) with k ≪ n, never
  /// touching decoded values. Returns the number of evaluations (k).
  uint64_t EvalPredicate(const Predicate& pred,
                         position::SetBuilder* builder) const;

 private:
  Position start_;
  uint32_t n_;
  uint32_t k_;
  const Value* dict_;
  const uint16_t* codes_;
};

class BitVectorView {
 public:
  BitVectorView(const storage::BlockHeader* h, const char* payload);

  Position start_pos() const { return start_; }
  uint32_t num_values() const { return n_; }
  Position end_pos() const { return start_ + n_; }
  uint32_t num_distinct() const { return k_; }
  uint32_t words_per_bitstring() const { return words_; }

  Value DictValue(uint32_t i) const { return dict_[i]; }
  const uint64_t* Bitstring(uint32_t i) const {
    return bits_ + static_cast<size_t>(i) * words_;
  }

  /// Value at an absolute position: scans the k bit-strings (O(k)).
  Value ValueAt(Position pos) const;

  /// ORs the bit-strings of all dictionary values matching `pred` into `bm`,
  /// clipped to its window ("to apply a range predicate, the executor simply
  /// needs to OR together the relevant bit-vectors", Section 4.1). Requires
  /// the block start to be word-aligned relative to bm->base(). Returns the
  /// number of evaluations: k when the block overlaps the window, else 0.
  uint64_t EvalPredicateInto(const Predicate& pred,
                             position::Bitmap* bm) const;

 private:
  Position start_;
  uint32_t n_;
  uint32_t k_;
  uint32_t words_;
  const Value* dict_;
  const uint64_t* bits_;
};

/// Tagged view over any encoded block.
class BlockView {
 public:
  BlockView() = default;

  /// Interprets an in-memory page. The page must outlive the view.
  static Result<BlockView> FromPage(const storage::Page& page);

  /// Views `n` plain values as an uncompressed block whose first value
  /// sits at position `start` (a write snapshot's tail, read where it
  /// lives). The values must outlive the view.
  static BlockView Uncompressed(Position start, uint32_t n,
                                const Value* values) {
    return BlockView(UncompressedView(start, n, values));
  }

  Encoding encoding() const;
  Position start_pos() const;
  uint32_t num_values() const;
  Position end_pos() const { return start_pos() + num_values(); }

  /// Random access by absolute position.
  Value ValueAt(Position pos) const;

  /// Appends all num_values() decoded values to *out (vector-style access).
  void Decompress(std::vector<Value>* out) const;

  /// Evaluates `pred` over the block's overlap with the accumulator's
  /// window, adding matching positions to it, and returns the number of
  /// predicate evaluations (per value, per overlapped RLE run, or per
  /// dictionary entry). Exactly one of builder/bitmap is used depending on
  /// encoding: bit-vector ORs words into `bitmap`; the others add to
  /// `builder`.
  uint64_t EvalPredicate(const Predicate& pred, position::SetBuilder* builder,
                         position::Bitmap* bitmap) const;

  /// Evaluates `pred` at every position of the ascending, disjoint `ranges`
  /// (already clipped to this block), adding the matches to `builder` 64
  /// verdicts per word. Returns the number of evaluations: one per
  /// position, whatever the encoding (LM-pipelined's refine, Case 3).
  uint64_t EvalPredicateAt(const Predicate& pred,
                           std::span<const position::Range> ranges,
                           position::SetBuilder* builder) const;

  /// True if this encoding evaluates predicates into a bitmap (bit-vector).
  bool PredicateNeedsBitmap() const {
    return encoding() == Encoding::kBitVector;
  }

  /// Appends the values at every position of the ascending, disjoint
  /// `ranges` (already clipped to this block, as position::RunCursor hands
  /// them out) to *out, in position order. This is the core of DS3.
  void GatherRanges(std::span<const position::Range> ranges,
                    std::vector<Value>* out) const;

  /// fn(pos, value) at every position of `ranges` (see GatherRanges),
  /// ascending.
  template <typename Fn>
  void ForEachValueInRanges(std::span<const position::Range> ranges,
                            Fn&& fn) const {
    if (ranges.empty()) return;
    const Position blk_begin = start_pos();
    if (const auto* u = AsUncompressed()) {
      const Value* vals = u->values();
      for (const position::Range& r : ranges) {
        for (Position p = r.begin; p < r.end; ++p) {
          fn(p, vals[p - blk_begin]);
        }
      }
      return;
    }
    if (const auto* r = AsRle()) {
      r->ForEachRunIn(ranges, [&](Value v, Position b, Position e) {
        for (Position p = b; p < e; ++p) fn(p, v);
      });
      return;
    }
    if (const auto* d = AsDict()) {
      for (const position::Range& r : ranges) {
        for (Position p = r.begin; p < r.end; ++p) {
          fn(p, d->ValueAt(p));
        }
      }
      return;
    }
    // Bit-vector: no direct positional access ("it is impossible to know in
    // advance in which bit-string any particular position is located",
    // Section 4.1), so the whole block is decompressed, then indexed. This
    // is the honest cost LM plans pay on bit-vector data.
    const auto* bv = AsBitVector();
    CSTORE_DCHECK(bv != nullptr);
    std::vector<Value> scratch;
    scratch.reserve(bv->num_values());
    Decompress(&scratch);
    for (const position::Range& r : ranges) {
      for (Position p = r.begin; p < r.end; ++p) {
        fn(p, scratch[p - blk_begin]);
      }
    }
  }

  const UncompressedView* AsUncompressed() const {
    return std::get_if<UncompressedView>(&v_);
  }
  const RleView* AsRle() const { return std::get_if<RleView>(&v_); }
  const BitVectorView* AsBitVector() const {
    return std::get_if<BitVectorView>(&v_);
  }
  const DictView* AsDict() const { return std::get_if<DictView>(&v_); }

 private:
  using Rep = std::variant<std::monostate, UncompressedView, RleView,
                           BitVectorView, DictView>;

  explicit BlockView(Rep v) : v_(std::move(v)) {}

  Rep v_;
};

}  // namespace codec
}  // namespace cstore

#endif  // CSTORE_CODEC_VIEWS_H_
