#include "position/bitmap.h"

#include <algorithm>

namespace cstore {
namespace position {

void Bitmap::SetRange(Position b, Position e) {
  b = std::max(b, base_);
  e = std::min(e, end());
  if (b >= e) return;
  size_t first = b - base_;
  size_t last = e - base_;  // exclusive
  size_t first_word = bit_util::WordIndex(first);
  size_t last_word = bit_util::WordIndex(last - 1);
  if (first_word == last_word) {
    uint64_t mask = bit_util::LowBitsMask(last - last_word * 64) &
                    ~bit_util::LowBitsMask(first - first_word * 64);
    words_[first_word] |= mask;
    return;
  }
  words_[first_word] |= ~bit_util::LowBitsMask(first - first_word * 64);
  for (size_t w = first_word + 1; w < last_word; ++w) {
    words_[w] = ~uint64_t{0};
  }
  words_[last_word] |= bit_util::LowBitsMask(last - last_word * 64);
}

Bitmap Bitmap::And(const Bitmap& a, const Bitmap& b) {
  CSTORE_CHECK(a.base_ == b.base_ && a.nbits_ == b.nbits_)
      << "bitmap AND requires identical windows";
  Bitmap out(a.base_, a.nbits_);
  for (size_t w = 0; w < out.words_.size(); ++w) {
    out.words_[w] = a.words_[w] & b.words_[w];
  }
  return out;
}

Bitmap Bitmap::Or(const Bitmap& a, const Bitmap& b) {
  CSTORE_CHECK(a.base_ == b.base_ && a.nbits_ == b.nbits_)
      << "bitmap OR requires identical windows";
  Bitmap out(a.base_, a.nbits_);
  for (size_t w = 0; w < out.words_.size(); ++w) {
    out.words_[w] = a.words_[w] | b.words_[w];
  }
  return out;
}

void Bitmap::AndWith(const Bitmap& other) {
  CSTORE_CHECK(base_ == other.base_ && nbits_ == other.nbits_);
  for (size_t w = 0; w < words_.size(); ++w) {
    words_[w] &= other.words_[w];
  }
}

size_t Bitmap::CountRuns(size_t limit) const {
  size_t runs = 0;
  uint64_t carry = 0;  // the previous word's top bit
  for (uint64_t word : words_) {
    // A run begins at each set bit whose lower neighbour is clear.
    runs += static_cast<size_t>(
        bit_util::PopCount(word & ~((word << 1) | carry)));
    if (runs > limit) return runs;
    carry = word >> (bit_util::kBitsPerWord - 1);
  }
  return runs;
}

void Bitmap::MaskToRange(Position b, Position e) {
  b = std::max(b, base_);
  e = std::min(e, end());
  if (b >= e) {
    std::fill(words_.begin(), words_.end(), 0);
    return;
  }
  size_t first = b - base_;
  size_t last = e - base_;
  size_t first_word = bit_util::WordIndex(first);
  size_t last_word = bit_util::WordIndex(last - 1);
  for (size_t w = 0; w < first_word; ++w) words_[w] = 0;
  for (size_t w = last_word + 1; w < words_.size(); ++w) words_[w] = 0;
  words_[first_word] &= ~bit_util::LowBitsMask(first - first_word * 64);
  words_[last_word] &= bit_util::LowBitsMask(last - last_word * 64);
}

}  // namespace position
}  // namespace cstore
