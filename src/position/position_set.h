// PositionSet: a set of valid positions within a covering window
// [window_begin, window_end), in one of the paper's three position
// descriptor forms (Section 3.6):
//
//   * Ranged positions  — RangeSet (sorted disjoint [begin,end) ranges)
//   * Bit-mapped        — Bitmap (one bit per covered position)
//   * Listed positions  — PosList (explicit sorted positions)
//
// Intersection dispatches on representation, preserving the paper's fast
// paths: range∧range is a merge of range lists, bitmap∧bitmap is a
// word-at-a-time AND, and single-range∧bitmap is a constant-time boundary
// masking of the bitmap (Section 2.1.1).

#ifndef CSTORE_POSITION_POSITION_SET_H_
#define CSTORE_POSITION_POSITION_SET_H_

#include <cstdint>
#include <variant>
#include <vector>

#include "position/bitmap.h"
#include "position/pos_list.h"
#include "position/range_set.h"
#include "util/common.h"
#include "util/logging.h"

namespace cstore {
namespace position {

class PositionSet {
 public:
  enum class Rep { kRanges, kBitmap, kList };

  /// Empty set over the given window.
  static PositionSet Empty(Position begin, Position end);

  /// Every position in [begin, end) valid.
  static PositionSet All(Position begin, Position end);

  static PositionSet FromRanges(Position begin, Position end, RangeSet rs);
  static PositionSet FromBitmap(Bitmap bm);
  static PositionSet FromList(Position begin, Position end, PosList pl);

  Rep rep() const {
    if (std::holds_alternative<RangeSet>(rep_)) return Rep::kRanges;
    if (std::holds_alternative<Bitmap>(rep_)) return Rep::kBitmap;
    return Rep::kList;
  }

  Position window_begin() const { return window_begin_; }
  Position window_end() const { return window_end_; }
  uint64_t window_size() const { return window_end_ - window_begin_; }

  uint64_t Cardinality() const;
  bool IsEmpty() const;
  bool Contains(Position p) const;

  const RangeSet& ranges() const { return std::get<RangeSet>(rep_); }
  const Bitmap& bitmap() const { return std::get<Bitmap>(rep_); }
  const PosList& list() const { return std::get<PosList>(rep_); }

  /// Intersection; windows must overlap, the result window is the overlap.
  static PositionSet Intersect(const PositionSet& a, const PositionSet& b);

  /// Union; the result window is the union-extent of both windows.
  static PositionSet Union(const PositionSet& a, const PositionSet& b);

  /// Restricts the set (and window) to [begin, end).
  PositionSet Slice(Position begin, Position end) const;

  /// Converts to each representation (exact).
  Bitmap ToBitmap() const;
  PosList ToList() const;
  RangeSet ToRanges() const;

  /// Picks the cheapest representation for the set's density: contiguous →
  /// single range; sparse bitmap → list; dense list → bitmap.
  PositionSet Compacted() const;

  /// fn(begin, end) for every maximal run of valid positions, ascending.
  template <typename Fn>
  void ForEachRange(Fn&& fn) const {
    switch (rep()) {
      case Rep::kRanges:
        for (const Range& r : ranges().ranges()) fn(r.begin, r.end);
        break;
      case Rep::kBitmap:
        bitmap().ForEachRun(fn);
        break;
      case Rep::kList: {
        const auto& ps = list().positions();
        size_t i = 0;
        while (i < ps.size()) {
          size_t j = i + 1;
          while (j < ps.size() && ps[j] == ps[j - 1] + 1) ++j;
          fn(ps[i], ps[j - 1] + 1);
          i = j;
        }
        break;
      }
    }
  }

  /// fn(pos) for every valid position, ascending.
  template <typename Fn>
  void ForEachPosition(Fn&& fn) const {
    switch (rep()) {
      case Rep::kRanges:
        for (const Range& r : ranges().ranges()) {
          for (Position p = r.begin; p < r.end; ++p) fn(p);
        }
        break;
      case Rep::kBitmap:
        bitmap().ForEachSet(fn);
        break;
      case Rep::kList:
        for (Position p : list().positions()) fn(p);
        break;
    }
  }

  std::vector<Position> ToVector() const;

 private:
  PositionSet(Position b, Position e, std::variant<RangeSet, Bitmap, PosList> r)
      : window_begin_(b), window_end_(e), rep_(std::move(r)) {}

  Position window_begin_ = 0;
  Position window_end_ = 0;
  std::variant<RangeSet, Bitmap, PosList> rep_;
};

/// Accumulates matching positions (in ascending order) and chooses the
/// representation: stays ranged while the matches form few runs, upgrades to
/// a bitmap when runs proliferate, and downgrades to a list at build time if
/// the result is sparse.
class SetBuilder {
 public:
  /// Ranges kept before switching to a bitmap.
  static constexpr size_t kMaxRanges = 128;
  /// Build() emits a listed representation when fewer than 1/kListDensity of
  /// window positions are set.
  static constexpr uint64_t kListDensity = 64;

  SetBuilder(Position window_begin, Position window_end);

  Position window_begin() const { return window_begin_; }
  Position window_end() const { return window_end_; }

  /// Adds [b, e); calls must be position-ascending (b >= previous e allowed
  /// to coalesce/extend).
  void AddRange(Position b, Position e);

  void Add(Position p) { AddRange(p, p + 1); }

  /// Adds base + j for every set bit j of `word`: 64 verdicts in one call.
  /// Calls ascend as AddRange's do. `base` need not be 64-aligned within
  /// the window (a write-store tail block starts anywhere); aligned words
  /// are one OR into the bitmap. The representation chosen is the one the
  /// same positions added one range at a time would give.
  void AddWord(Position base, uint64_t word);

  PositionSet Build() &&;

 private:
  Position window_begin_;
  Position window_end_;
  bool use_bitmap_ = false;
  RangeSet ranges_;
  Bitmap bitmap_;
};

}  // namespace position
}  // namespace cstore

#endif  // CSTORE_POSITION_POSITION_SET_H_
