#include "position/position_set.h"

#include <algorithm>
#include <bit>

namespace cstore {
namespace position {

PositionSet PositionSet::Empty(Position begin, Position end) {
  return PositionSet(begin, end, RangeSet());
}

PositionSet PositionSet::All(Position begin, Position end) {
  RangeSet rs;
  rs.Append(begin, end);
  return PositionSet(begin, end, std::move(rs));
}

PositionSet PositionSet::FromRanges(Position begin, Position end,
                                    RangeSet rs) {
#ifndef NDEBUG
  for (const Range& r : rs.ranges()) {
    CSTORE_DCHECK(r.begin >= begin && r.end <= end);
  }
#endif
  return PositionSet(begin, end, std::move(rs));
}

PositionSet PositionSet::FromBitmap(Bitmap bm) {
  Position b = bm.base();
  Position e = bm.end();
  return PositionSet(b, e, std::move(bm));
}

PositionSet PositionSet::FromList(Position begin, Position end, PosList pl) {
#ifndef NDEBUG
  for (Position p : pl.positions()) {
    CSTORE_DCHECK(p >= begin && p < end);
  }
#endif
  return PositionSet(begin, end, std::move(pl));
}

uint64_t PositionSet::Cardinality() const {
  switch (rep()) {
    case Rep::kRanges:
      return ranges().Cardinality();
    case Rep::kBitmap:
      return bitmap().CountSet();
    case Rep::kList:
      return list().size();
  }
  return 0;
}

bool PositionSet::IsEmpty() const {
  switch (rep()) {
    case Rep::kRanges:
      return ranges().empty();
    case Rep::kBitmap:
      return !bitmap().AnySet();
    case Rep::kList:
      return list().empty();
  }
  return true;
}

bool PositionSet::Contains(Position p) const {
  if (p < window_begin_ || p >= window_end_) return false;
  switch (rep()) {
    case Rep::kRanges:
      return ranges().Contains(p);
    case Rep::kBitmap:
      return bitmap().Get(p);
    case Rep::kList:
      return list().Contains(p);
  }
  return false;
}

Bitmap PositionSet::ToBitmap() const {
  if (rep() == Rep::kBitmap) return bitmap();
  Bitmap bm(window_begin_, window_size());
  ForEachRange([&](Position b, Position e) { bm.SetRange(b, e); });
  return bm;
}

PosList PositionSet::ToList() const {
  if (rep() == Rep::kList) return list();
  PosList pl;
  ForEachPosition([&](Position p) { pl.Append(p); });
  return pl;
}

RangeSet PositionSet::ToRanges() const {
  if (rep() == Rep::kRanges) return ranges();
  RangeSet rs;
  ForEachRange([&](Position b, Position e) { rs.Append(b, e); });
  return rs;
}

std::vector<Position> PositionSet::ToVector() const {
  std::vector<Position> out;
  out.reserve(Cardinality());
  ForEachPosition([&](Position p) { out.push_back(p); });
  return out;
}

PositionSet PositionSet::Slice(Position begin, Position end) const {
  begin = std::max(begin, window_begin_);
  end = std::min(end, window_end_);
  if (begin >= end) return Empty(begin, begin);
  switch (rep()) {
    case Rep::kRanges: {
      RangeSet rs;
      for (const Range& r : ranges().ranges()) {
        Position b = std::max(r.begin, begin);
        Position e = std::min(r.end, end);
        if (b < e) rs.Append(b, e);
      }
      return FromRanges(begin, end, std::move(rs));
    }
    case Rep::kBitmap: {
      Bitmap bm(begin, end - begin);
      bitmap().ForEachRun([&](Position b, Position e) {
        b = std::max(b, begin);
        e = std::min(e, end);
        if (b < e) bm.SetRange(b, e);
      });
      return FromBitmap(std::move(bm));
    }
    case Rep::kList: {
      PosList pl;
      for (Position p : list().positions()) {
        if (p >= begin && p < end) pl.Append(p);
      }
      return FromList(begin, end, std::move(pl));
    }
  }
  return Empty(begin, end);
}

PositionSet PositionSet::Intersect(const PositionSet& a,
                                   const PositionSet& b) {
  Position begin = std::max(a.window_begin_, b.window_begin_);
  Position end = std::min(a.window_end_, b.window_end_);
  if (begin >= end) return Empty(begin, begin);

  // Normalize to a common window if needed (the chunked executor always
  // supplies matching windows, so this is the rare path).
  if (a.window_begin_ != begin || a.window_end_ != end) {
    return Intersect(a.Slice(begin, end), b);
  }
  if (b.window_begin_ != begin || b.window_end_ != end) {
    return Intersect(a, b.Slice(begin, end));
  }

  Rep ra = a.rep();
  Rep rb = b.rep();

  // range ∧ range: merge the sorted range lists.
  if (ra == Rep::kRanges && rb == Rep::kRanges) {
    return FromRanges(begin, end,
                      RangeSet::Intersect(a.ranges(), b.ranges()));
  }

  // Single range ∧ bitmap: the paper's constant-time case — mask the
  // bitmap's boundary words.
  if (ra == Rep::kRanges && rb == Rep::kBitmap &&
      a.ranges().num_ranges() == 1) {
    Bitmap out = b.bitmap();
    const Range& r = a.ranges().ranges()[0];
    out.MaskToRange(r.begin, r.end);
    return FromBitmap(std::move(out));
  }
  if (rb == Rep::kRanges && ra == Rep::kBitmap &&
      b.ranges().num_ranges() == 1) {
    Bitmap out = a.bitmap();
    const Range& r = b.ranges().ranges()[0];
    out.MaskToRange(r.begin, r.end);
    return FromBitmap(std::move(out));
  }

  // list ∧ anything: probe the other side per listed position.
  if (ra == Rep::kList || rb == Rep::kList) {
    const PositionSet& lst = (ra == Rep::kList) ? a : b;
    const PositionSet& other = (ra == Rep::kList) ? b : a;
    if (other.rep() == Rep::kList) {
      return FromList(begin, end,
                      PosList::Intersect(lst.list(), other.list()));
    }
    PosList out;
    for (Position p : lst.list().positions()) {
      if (other.Contains(p)) out.Append(p);
    }
    return FromList(begin, end, std::move(out));
  }

  // Remaining combinations: word-at-a-time AND over bitmaps.
  Bitmap bma = a.ToBitmap();
  Bitmap bmb = b.ToBitmap();
  bma.AndWith(bmb);
  return FromBitmap(std::move(bma));
}

PositionSet PositionSet::Union(const PositionSet& a, const PositionSet& b) {
  Position begin = std::min(a.window_begin_, b.window_begin_);
  Position end = std::max(a.window_end_, b.window_end_);
  if (a.rep() == Rep::kRanges && b.rep() == Rep::kRanges) {
    return FromRanges(begin, end, RangeSet::Union(a.ranges(), b.ranges()));
  }
  if (a.rep() == Rep::kList && b.rep() == Rep::kList) {
    return FromList(begin, end, PosList::Union(a.list(), b.list()));
  }
  Bitmap out(begin, end - begin);
  a.ForEachRange([&](Position rb, Position re) { out.SetRange(rb, re); });
  b.ForEachRange([&](Position rb, Position re) { out.SetRange(rb, re); });
  return FromBitmap(std::move(out));
}

PositionSet PositionSet::Compacted() const {
  uint64_t card = Cardinality();
  if (card == 0) return Empty(window_begin_, window_end_);
  if (card == window_size()) return All(window_begin_, window_end_);

  switch (rep()) {
    case Rep::kRanges:
      return *this;
    case Rep::kBitmap: {
      // Few runs → ranged representation; sparse → list. The run count is
      // probed with an early exit so dense bitmaps pay no materialization.
      if (bitmap().CountRuns(SetBuilder::kMaxRanges) <=
          SetBuilder::kMaxRanges) {
        return FromRanges(window_begin_, window_end_, ToRanges());
      }
      if (card * SetBuilder::kListDensity < window_size()) {
        return FromList(window_begin_, window_end_, ToList());
      }
      return *this;
    }
    case Rep::kList: {
      if (card * SetBuilder::kListDensity >= window_size()) {
        return FromBitmap(ToBitmap());
      }
      return *this;
    }
  }
  return *this;
}

SetBuilder::SetBuilder(Position window_begin, Position window_end)
    : window_begin_(window_begin), window_end_(window_end) {
  CSTORE_DCHECK(window_begin <= window_end);
}

void SetBuilder::AddRange(Position b, Position e) {
  if (b >= e) return;
  CSTORE_DCHECK(b >= window_begin_ && e <= window_end_);
  if (use_bitmap_) {
    bitmap_.SetRange(b, e);
    return;
  }
  ranges_.Append(b, e);
  if (ranges_.num_ranges() > kMaxRanges) {
    // Too fragmented for a range list: replay into a bitmap.
    bitmap_ = Bitmap(window_begin_, window_end_ - window_begin_);
    for (const Range& r : ranges_.ranges()) {
      bitmap_.SetRange(r.begin, r.end);
    }
    ranges_ = RangeSet();
    use_bitmap_ = true;
  }
}

void SetBuilder::AddWord(Position base, uint64_t word) {
  if (word == 0) return;
  CSTORE_DCHECK(base >= window_begin_ &&
                base + bit_util::kBitsPerWord - std::countl_zero(word) <=
                    window_end_);
  if (!use_bitmap_) {
    // One AddRange per run of set bits, until the ranges overflow into a
    // bitmap; then the rest of the word takes the bitmap path below.
    do {
      const int b = std::countr_zero(word);
      const int len = std::countr_one(word >> b);
      AddRange(base + b, base + b + len);
      if (b + len == static_cast<int>(bit_util::kBitsPerWord)) return;
      word &= ~bit_util::LowBitsMask(b + len);
    } while (word != 0 && !use_bitmap_);
    if (word == 0) return;
  }
  const uint64_t off = base - window_begin_;
  const unsigned shift = off % bit_util::kBitsPerWord;
  uint64_t* w = bitmap_.mutable_words() + off / bit_util::kBitsPerWord;
  w[0] |= word << shift;
  if (shift != 0 && (word >> (bit_util::kBitsPerWord - shift)) != 0) {
    w[1] |= word >> (bit_util::kBitsPerWord - shift);
  }
}

PositionSet SetBuilder::Build() && {
  if (!use_bitmap_) {
    return PositionSet::FromRanges(window_begin_, window_end_,
                                   std::move(ranges_));
  }
  uint64_t card = bitmap_.CountSet();
  uint64_t window = window_end_ - window_begin_;
  if (window > 0 && card * kListDensity < window) {
    PosList pl;
    bitmap_.ForEachSet([&](Position p) { pl.Append(p); });
    return PositionSet::FromList(window_begin_, window_end_, std::move(pl));
  }
  return PositionSet::FromBitmap(std::move(bitmap_));
}

}  // namespace position
}  // namespace cstore
