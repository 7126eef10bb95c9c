// Bit-mapped position representation: one bit per position within a covering
// window, '1' meaning the tuple at that position passed the predicate
// (Section 2.1.1). Intersection is word-at-a-time: kWordBits positions per
// instruction.

#ifndef CSTORE_POSITION_BITMAP_H_
#define CSTORE_POSITION_BITMAP_H_

#include <cstdint>
#include <vector>

#include "util/bit_util.h"
#include "util/common.h"
#include "util/logging.h"

namespace cstore {
namespace position {

class Bitmap {
 public:
  Bitmap() = default;

  /// All-zero bitmap covering absolute positions [base, base + nbits).
  Bitmap(Position base, uint64_t nbits)
      : base_(base),
        nbits_(nbits),
        words_(bit_util::WordsForBits(nbits), 0) {}

  Position base() const { return base_; }
  Position end() const { return base_ + nbits_; }

  const uint64_t* words() const { return words_.data(); }
  uint64_t* mutable_words() { return words_.data(); }
  size_t num_words() const { return words_.size(); }

  void Set(Position abs_pos) {
    CSTORE_DCHECK(abs_pos >= base_ && abs_pos < end());
    bit_util::SetBit(words_.data(), abs_pos - base_);
  }

  bool Get(Position abs_pos) const {
    CSTORE_DCHECK(abs_pos >= base_ && abs_pos < end());
    return bit_util::GetBit(words_.data(), abs_pos - base_);
  }

  /// Sets all bits for absolute positions [b, e).
  void SetRange(Position b, Position e);

  /// Number of set bits.
  uint64_t CountSet() const {
    return bit_util::PopCountWords(words_.data(), words_.size());
  }

  bool AnySet() const {
    for (uint64_t w : words_) {
      if (w != 0) return true;
    }
    return false;
  }

  /// Word-wise AND of two bitmaps over the same window.
  static Bitmap And(const Bitmap& a, const Bitmap& b);

  /// Word-wise OR of two bitmaps over the same window.
  static Bitmap Or(const Bitmap& a, const Bitmap& b);

  /// In-place word-wise AND with `other` (same window required).
  void AndWith(const Bitmap& other);

  /// Keeps only bits within [b, e), clearing everything outside. Used for
  /// intersecting a bitmap with a position range, which "is even faster
  /// (requiring a constant number of instructions)" per Section 2.1.1 —
  /// implemented by masking the boundary words.
  void MaskToRange(Position b, Position e);

  /// Number of maximal runs of set bits; once the count passes `limit` it
  /// returns early with some count above `limit` (a cardinality probe used
  /// to decide representation changes without materializing the runs).
  size_t CountRuns(size_t limit) const;

  /// Invokes fn(begin, end) for every maximal run of set bits, as absolute
  /// positions. Word at a time: each run boundary is the lowest set bit of
  /// the word (a run begins) or of its complement (it ends), above the
  /// boundary before it.
  template <typename Fn>
  void ForEachRun(Fn&& fn) const {
    const size_t nw = words_.size();
    Position run_begin = kInvalidPosition;
    for (size_t w = 0; w < nw; ++w) {
      const uint64_t word = words_[w];
      const Position word_base = base_ + w * bit_util::kBitsPerWord;
      int from = 0;  // bits below it are consumed
      while (from < static_cast<int>(bit_util::kBitsPerWord)) {
        const uint64_t above = ~uint64_t{0} << from;
        if (run_begin == kInvalidPosition) {
          const uint64_t set = word & above;
          if (set == 0) break;
          from = bit_util::CountTrailingZeros(set);
          run_begin = word_base + from;
        } else {
          const uint64_t clear = ~word & above;
          if (clear == 0) break;
          from = bit_util::CountTrailingZeros(clear);
          fn(run_begin, word_base + from);
          run_begin = kInvalidPosition;
        }
      }
    }
    if (run_begin != kInvalidPosition) {
      // Clip to the logical size (trailing bits beyond nbits_ are zero by
      // construction, but a run can legitimately end at nbits_).
      fn(run_begin, base_ + nbits_);
    }
  }

  /// Invokes fn(pos) for every set bit, in ascending order.
  template <typename Fn>
  void ForEachSet(Fn&& fn) const {
    for (size_t w = 0; w < words_.size(); ++w) {
      uint64_t word = words_[w];
      Position word_base = base_ + w * bit_util::kBitsPerWord;
      while (word != 0) {
        int bit = bit_util::CountTrailingZeros(word);
        fn(word_base + bit);
        word &= word - 1;
      }
    }
  }

 private:
  Position base_ = 0;
  uint64_t nbits_ = 0;
  std::vector<uint64_t> words_;
};

}  // namespace position
}  // namespace cstore

#endif  // CSTORE_POSITION_BITMAP_H_
