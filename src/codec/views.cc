#include "codec/views.h"

#include <algorithm>
#include <cstring>

#include "util/bit_util.h"
#include "util/logging.h"

namespace cstore {
namespace codec {

namespace {

/// The part of [begin, end) inside the builder's window; empty when
/// begin >= end.
position::Range ClipToWindow(Position begin, Position end,
                             const position::SetBuilder& builder) {
  return {std::max(begin, builder.window_begin()),
          std::min(end, builder.window_end())};
}

/// Bit j of the result is pass(j), for j < n <= 64. Verdicts are packed
/// eight at a time with constant shifts, so the loop body is a compare, a
/// flag-to-bit move and an OR per value.
template <typename Pass>
uint64_t MatchWord(uint32_t n, Pass&& pass) {
  uint64_t word = 0;
  uint32_t j = 0;
  for (; j + 8 <= n; j += 8) {
    uint64_t byte = 0;
#pragma GCC unroll 8
    for (uint32_t k = 0; k < 8; ++k) {
      byte |= static_cast<uint64_t>(static_cast<bool>(pass(j + k))) << k;
    }
    word |= byte << j;
  }
  for (; j < n; ++j) {
    word |= static_cast<uint64_t>(static_cast<bool>(pass(j))) << j;
  }
  return word;
}

/// Adds the positions b + i, i < n, whose pass(i) holds to `builder`, 64
/// verdicts per AddWord call: the branch-free selection of Ross (TODS 2004)
/// and MonetDB/X100 (CIDR 2005).
template <typename Pass>
void AddMatches(Position b, uint64_t n, Pass&& pass,
                position::SetBuilder* builder) {
  uint64_t i = 0;
  for (; i + 64 <= n; i += 64) {
    builder->AddWord(b + i,
                     MatchWord(64, [&](uint32_t j) { return pass(i + j); }));
  }
  if (i < n) {
    builder->AddWord(b + i, MatchWord(static_cast<uint32_t>(n - i),
                                      [&](uint32_t j) { return pass(i + j); }));
  }
}

}  // namespace

uint64_t UncompressedView::EvalPredicate(const Predicate& pred,
                                         position::SetBuilder* builder) const {
  const position::Range clip = ClipToWindow(start_, end_pos(), *builder);
  if (clip.begin >= clip.end) return 0;
  const Value* vals = values_ + (clip.begin - start_);
  pred.Dispatch([&](auto cmp) {
    AddMatches(clip.begin, clip.end - clip.begin,
               [&](uint64_t i) { return cmp(vals[i]); }, builder);
  });
  return clip.end - clip.begin;
}

Value RleView::ValueAt(Position pos) const {
  return runs_[RunContaining(pos)].value;
}

uint32_t RleView::RunContaining(Position pos) const {
  CSTORE_DCHECK(pos >= start_ && pos < end_pos());
  // Last run with start <= pos.
  uint32_t lo = 0;
  uint32_t hi = nruns_;
  while (hi - lo > 1) {
    uint32_t mid = lo + (hi - lo) / 2;
    if (runs_[mid].start <= pos) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return lo;
}

uint64_t RleView::EvalPredicate(const Predicate& pred,
                                position::SetBuilder* builder) const {
  // One predicate evaluation per run — "an entire run length of values can
  // be processed in one operator loop" (Section 2.1.2).
  const position::Range clip = ClipToWindow(start_, end_pos(), *builder);
  uint64_t evals = 0;
  ForEachRunIn({&clip, 1}, [&](Value v, Position b, Position e) {
    ++evals;
    if (pred.Eval(v)) builder->AddRange(b, e);
  });
  return evals;
}

DictView::DictView(const storage::BlockHeader* h, const char* payload)
    : start_(h->start_pos), n_(h->num_values) {
  DictPayloadHeader ph;
  std::memcpy(&ph, payload, sizeof(ph));
  k_ = ph.num_distinct;
  dict_ = reinterpret_cast<const Value*>(payload + sizeof(ph));
  codes_ = reinterpret_cast<const uint16_t*>(payload + sizeof(ph) +
                                             k_ * sizeof(Value));
}

uint64_t DictView::EvalPredicate(const Predicate& pred,
                                 position::SetBuilder* builder) const {
  const position::Range clip = ClipToWindow(start_, end_pos(), *builder);
  if (clip.begin >= clip.end) return 0;
  // One predicate evaluation per dictionary entry...
  std::vector<uint8_t> pass(k_);
  for (uint32_t i = 0; i < k_; ++i) {
    pass[i] = pred.Eval(dict_[i]) ? 1 : 0;
  }
  // ...then a code-array scan that never materializes values.
  const uint16_t* codes = codes_ + (clip.begin - start_);
  AddMatches(clip.begin, clip.end - clip.begin,
             [&](uint64_t i) { return pass[codes[i]]; }, builder);
  return k_;
}

BitVectorView::BitVectorView(const storage::BlockHeader* h,
                             const char* payload)
    : start_(h->start_pos), n_(h->num_values) {
  BitVectorPayloadHeader ph;
  std::memcpy(&ph, payload, sizeof(ph));
  k_ = ph.num_distinct;
  words_ = ph.words_per_bitstring;
  dict_ = reinterpret_cast<const Value*>(payload + sizeof(ph));
  bits_ = reinterpret_cast<const uint64_t*>(payload + sizeof(ph) +
                                            k_ * sizeof(Value));
}

Value BitVectorView::ValueAt(Position pos) const {
  CSTORE_DCHECK(pos >= start_ && pos < end_pos());
  size_t bit = pos - start_;
  for (uint32_t i = 0; i < k_; ++i) {
    if (bit_util::GetBit(Bitstring(i), bit)) return dict_[i];
  }
  CSTORE_CHECK(false) << "bit-vector block has no value at position " << pos;
  return 0;
}

uint64_t BitVectorView::EvalPredicateInto(const Predicate& pred,
                                          position::Bitmap* bm) const {
  // The block may only partially overlap the destination window (blocks of
  // shrunk bit-vector columns do not tile chunk windows evenly). Both block
  // starts and window bases are 64-aligned, so the overlap is word-aligned
  // on both sides; the final word is masked to the overlap length.
  Position lo = std::max(start_, bm->base());
  Position hi = std::min(end_pos(), bm->end());
  if (lo >= hi) return 0;
  CSTORE_CHECK((lo - start_) % bit_util::kBitsPerWord == 0 &&
               (lo - bm->base()) % bit_util::kBitsPerWord == 0)
      << "bit-vector block not word-aligned within window";
  size_t src_word0 = (lo - start_) / bit_util::kBitsPerWord;
  size_t dst_word0 = (lo - bm->base()) / bit_util::kBitsPerWord;
  size_t nbits = hi - lo;
  size_t nwords = bit_util::WordsForBits(nbits);
  CSTORE_CHECK(dst_word0 + nwords <= bm->num_words());
  uint64_t last_mask = (nbits % bit_util::kBitsPerWord == 0)
                           ? ~uint64_t{0}
                           : bit_util::LowBitsMask(nbits %
                                                   bit_util::kBitsPerWord);
  uint64_t* out = bm->mutable_words() + dst_word0;
  for (uint32_t i = 0; i < k_; ++i) {
    if (!pred.Eval(dict_[i])) continue;
    const uint64_t* src = Bitstring(i) + src_word0;
    for (size_t w = 0; w + 1 < nwords; ++w) out[w] |= src[w];
    out[nwords - 1] |= src[nwords - 1] & last_mask;
  }
  return k_;
}

Result<BlockView> BlockView::FromPage(const storage::Page& page) {
  const storage::BlockHeader* h = page.header();
  if (h->magic != storage::BlockHeader::kMagic) {
    return Status::Corruption("bad block magic");
  }
  switch (static_cast<Encoding>(h->encoding)) {
    case Encoding::kUncompressed:
      return BlockView(UncompressedView(h, page.payload()));
    case Encoding::kRle:
      return BlockView(RleView(h, page.payload()));
    case Encoding::kBitVector:
      return BlockView(BitVectorView(h, page.payload()));
    case Encoding::kDict:
      return BlockView(DictView(h, page.payload()));
  }
  return Status::Corruption("unknown encoding in block header");
}

Encoding BlockView::encoding() const {
  if (std::holds_alternative<UncompressedView>(v_)) {
    return Encoding::kUncompressed;
  }
  if (std::holds_alternative<RleView>(v_)) return Encoding::kRle;
  if (std::holds_alternative<DictView>(v_)) return Encoding::kDict;
  return Encoding::kBitVector;
}

Position BlockView::start_pos() const {
  if (const auto* u = AsUncompressed()) return u->start_pos();
  if (const auto* r = AsRle()) return r->start_pos();
  if (const auto* d = AsDict()) return d->start_pos();
  return AsBitVector()->start_pos();
}

uint32_t BlockView::num_values() const {
  if (const auto* u = AsUncompressed()) return u->num_values();
  if (const auto* r = AsRle()) return r->num_values();
  if (const auto* d = AsDict()) return d->num_values();
  return AsBitVector()->num_values();
}

Value BlockView::ValueAt(Position pos) const {
  if (const auto* u = AsUncompressed()) return u->ValueAt(pos);
  if (const auto* r = AsRle()) return r->ValueAt(pos);
  if (const auto* d = AsDict()) return d->ValueAt(pos);
  return AsBitVector()->ValueAt(pos);
}

void BlockView::Decompress(std::vector<Value>* out) const {
  if (const auto* u = AsUncompressed()) {
    out->insert(out->end(), u->values(), u->values() + u->num_values());
    return;
  }
  if (const auto* r = AsRle()) {
    r->ForEachRun([&](Value value, uint64_t, uint64_t len) {
      out->insert(out->end(), len, value);
    });
    return;
  }
  if (const auto* d = AsDict()) {
    const uint16_t* codes = d->codes();
    size_t base = out->size();
    out->resize(base + d->num_values());
    Value* dst = out->data() + base;
    for (uint32_t i = 0; i < d->num_values(); ++i) {
      dst[i] = d->DictValue(codes[i]);
    }
    return;
  }
  const auto* b = AsBitVector();
  CSTORE_DCHECK(b != nullptr);
  size_t base = out->size();
  out->resize(base + b->num_values());
  Value* dst = out->data() + base;
  for (uint32_t i = 0; i < b->num_distinct(); ++i) {
    Value v = b->DictValue(i);
    const uint64_t* words = b->Bitstring(i);
    size_t nwords = bit_util::WordsForBits(b->num_values());
    for (size_t w = 0; w < nwords; ++w) {
      uint64_t word = words[w];
      while (word != 0) {
        int bit = bit_util::CountTrailingZeros(word);
        dst[w * bit_util::kBitsPerWord + bit] = v;
        word &= word - 1;
      }
    }
  }
}

uint64_t BlockView::EvalPredicate(const Predicate& pred,
                                  position::SetBuilder* builder,
                                  position::Bitmap* bitmap) const {
  if (const auto* b = AsBitVector()) {
    CSTORE_DCHECK(bitmap != nullptr);
    return b->EvalPredicateInto(pred, bitmap);
  }
  CSTORE_DCHECK(builder != nullptr);
  if (const auto* u = AsUncompressed()) return u->EvalPredicate(pred, builder);
  if (const auto* r = AsRle()) return r->EvalPredicate(pred, builder);
  return AsDict()->EvalPredicate(pred, builder);
}

uint64_t BlockView::EvalPredicateAt(const Predicate& pred,
                                    std::span<const position::Range> ranges,
                                    position::SetBuilder* builder) const {
  if (ranges.empty()) return 0;
  const Position blk_begin = start_pos();
  // Tests value_at(p) at every position p of the ranges, in ascending order.
  auto refine = [&](auto&& value_at) {
    pred.Dispatch([&](auto cmp) {
      for (const position::Range& r : ranges) {
        AddMatches(r.begin, r.end - r.begin,
                   [&](uint64_t j) { return cmp(value_at(r.begin + j)); },
                   builder);
      }
    });
  };
  if (const auto* u = AsUncompressed()) {
    refine([&](Position p) { return u->values()[p - blk_begin]; });
  } else if (const auto* d = AsDict()) {
    refine([&](Position p) { return d->DictValue(d->codes()[p - blk_begin]); });
  } else if (const auto* r = AsRle()) {
    // Positions ascend, so the run cursor only moves forward.
    const RleTriple* runs = r->runs();
    uint32_t run = r->RunContaining(ranges.front().begin);
    refine([&](Position p) {
      while (p >= runs[run].start + runs[run].len) ++run;
      return runs[run].value;
    });
  } else {
    // Bit-vector: decompressed first (the planner never refines one by
    // position; Section 4.1).
    std::vector<Value> scratch;
    Decompress(&scratch);
    refine([&](Position p) { return scratch[p - blk_begin]; });
  }
  uint64_t evals = 0;
  for (const position::Range& r : ranges) evals += r.end - r.begin;
  return evals;
}

void BlockView::GatherRanges(std::span<const position::Range> ranges,
                             std::vector<Value>* out) const {
  const Position blk_begin = start_pos();
  if (const auto* u = AsUncompressed()) {
    const Value* vals = u->values();
    for (const position::Range& r : ranges) {
      out->insert(out->end(), vals + (r.begin - blk_begin),
                  vals + (r.end - blk_begin));
    }
    return;
  }
  if (const auto* r = AsRle()) {
    r->ForEachRunIn(ranges, [&](Value v, Position b, Position e) {
      out->insert(out->end(), e - b, v);
    });
    return;
  }
  // Dictionary and bit-vector: value by value.
  ForEachValueInRanges(ranges, [&](Position, Value v) { out->push_back(v); });
}

}  // namespace codec
}  // namespace cstore
