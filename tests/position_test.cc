// Position-set tests: the three representations, their conversions, the
// intersection/union algebra (checked against a naive std::set model), the
// representation-selection heuristics of SetBuilder/Compacted, and the
// RunCursor that matches a selection's runs to column blocks.

#include <algorithm>
#include <set>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "position/position_set.h"
#include "position/run_cursor.h"
#include "test_util.h"
#include "util/random.h"

namespace cstore {
namespace {

using position::Bitmap;
using position::PosList;
using position::PositionSet;
using position::Range;
using position::RangeSet;
using position::RunCursor;
using position::SetBuilder;

// --- RangeSet ---

TEST(RangeSetTest, AppendCoalescesAdjacent) {
  RangeSet rs;
  rs.Append(0, 10);
  rs.Append(10, 20);  // adjacent → coalesced
  rs.Append(25, 30);
  EXPECT_EQ(rs.num_ranges(), 2u);
  EXPECT_EQ(rs.Cardinality(), 25u);
  EXPECT_TRUE(rs.Contains(0));
  EXPECT_TRUE(rs.Contains(19));
  EXPECT_FALSE(rs.Contains(20));
  EXPECT_TRUE(rs.Contains(29));
  EXPECT_FALSE(rs.Contains(30));
}

TEST(RangeSetTest, EmptyAppendsIgnored) {
  RangeSet rs;
  rs.Append(5, 5);
  EXPECT_TRUE(rs.empty());
}

TEST(RangeSetTest, IntersectStreams) {
  RangeSet a;
  a.Append(0, 100);
  a.Append(200, 300);
  RangeSet b;
  b.Append(50, 250);
  RangeSet c = RangeSet::Intersect(a, b);
  ASSERT_EQ(c.num_ranges(), 2u);
  EXPECT_EQ(c.ranges()[0], (Range{50, 100}));
  EXPECT_EQ(c.ranges()[1], (Range{200, 250}));
}

TEST(RangeSetTest, UnionMergesOverlaps) {
  RangeSet a;
  a.Append(0, 10);
  a.Append(20, 30);
  RangeSet b;
  b.Append(5, 25);
  RangeSet c = RangeSet::Union(a, b);
  ASSERT_EQ(c.num_ranges(), 1u);
  EXPECT_EQ(c.ranges()[0], (Range{0, 30}));
}

// --- Bitmap ---

TEST(BitmapTest, SetRangeAndCount) {
  Bitmap bm(100, 256);
  bm.SetRange(110, 200);
  EXPECT_EQ(bm.CountSet(), 90u);
  EXPECT_FALSE(bm.Get(109));
  EXPECT_TRUE(bm.Get(110));
  EXPECT_TRUE(bm.Get(199));
  EXPECT_FALSE(bm.Get(200));
}

TEST(BitmapTest, SetRangeWithinOneWord) {
  Bitmap bm(0, 64);
  bm.SetRange(3, 9);
  EXPECT_EQ(bm.CountSet(), 6u);
  for (Position p = 3; p < 9; ++p) EXPECT_TRUE(bm.Get(p));
}

TEST(BitmapTest, AndOrSameWindow) {
  Bitmap a(0, 200);
  Bitmap b(0, 200);
  a.SetRange(0, 100);
  b.SetRange(50, 150);
  Bitmap and_ = Bitmap::And(a, b);
  EXPECT_EQ(and_.CountSet(), 50u);
  Bitmap or_ = Bitmap::Or(a, b);
  EXPECT_EQ(or_.CountSet(), 150u);
}

TEST(BitmapTest, MaskToRangeIsConstantTimeIntersection) {
  Bitmap bm(0, 1000);
  bm.SetRange(0, 1000);
  bm.MaskToRange(100, 900);
  EXPECT_EQ(bm.CountSet(), 800u);
  EXPECT_FALSE(bm.Get(99));
  EXPECT_TRUE(bm.Get(100));
  EXPECT_TRUE(bm.Get(899));
  EXPECT_FALSE(bm.Get(900));
}

TEST(BitmapTest, MaskToEmptyRangeClearsAll) {
  Bitmap bm(0, 128);
  bm.SetRange(0, 128);
  bm.MaskToRange(64, 64);
  EXPECT_EQ(bm.CountSet(), 0u);
}

TEST(BitmapTest, ForEachRunFindsMaximalRuns) {
  Bitmap bm(10, 300);
  bm.SetRange(10, 20);
  bm.SetRange(75, 140);  // crosses a word boundary
  bm.Set(309);           // final position
  std::vector<std::pair<Position, Position>> runs;
  bm.ForEachRun([&](Position b, Position e) { runs.emplace_back(b, e); });
  ASSERT_EQ(runs.size(), 3u);
  EXPECT_EQ(runs[0], std::make_pair(Position{10}, Position{20}));
  EXPECT_EQ(runs[1], std::make_pair(Position{75}, Position{140}));
  EXPECT_EQ(runs[2], std::make_pair(Position{309}, Position{310}));
}

TEST(BitmapTest, CountRunsEarlyExit) {
  Bitmap bm(0, 6400);
  for (Position p = 0; p < 6400; p += 2) bm.Set(p);  // 3200 runs
  EXPECT_GT(bm.CountRuns(100), 100u);
  EXPECT_EQ(bm.CountRuns(10000), 3200u);
}

TEST(BitmapTest, RunWalksMatchNaiveBitWalk) {
  // ForEachRun and CountRuns find run boundaries a word at a time; a
  // bit-by-bit walk is the reference. Densities from empty to full, with
  // runs long enough to cover whole all-zero and all-one words and to
  // cross word boundaries, sizes that are not a multiple of 64, and a
  // non-zero base.
  Random rng(0xb17);
  for (int round = 0; round < 200; ++round) {
    const Position base = rng.Uniform(3) == 0 ? 0 : rng.Uniform(1 << 20);
    const uint64_t nbits = 1 + rng.Uniform(700);
    const double density = round % 10 == 0 ? 0.0
                           : round % 10 == 1 ? 1.0
                                             : rng.NextDouble();
    const double mean_run = 1.0 + rng.NextDouble() * 150.0;
    Bitmap bm(base, nbits);
    // Alternate set and clear stretches with geometric lengths.
    bool set = rng.NextDouble() < density;
    for (uint64_t i = 0; i < nbits;) {
      uint64_t len = 1 + rng.Uniform(static_cast<uint64_t>(2 * mean_run));
      len = std::min<uint64_t>(len, nbits - i);
      if (set) bm.SetRange(base + i, base + i + len);
      i += len;
      set = density >= 1.0 || (density > 0.0 && rng.NextDouble() < density);
    }
    std::vector<std::pair<Position, Position>> want;
    for (uint64_t i = 0; i < nbits;) {
      if (!bm.Get(base + i)) {
        ++i;
        continue;
      }
      uint64_t j = i;
      while (j < nbits && bm.Get(base + j)) ++j;
      want.emplace_back(base + i, base + j);
      i = j;
    }
    std::vector<std::pair<Position, Position>> got;
    bm.ForEachRun([&](Position b, Position e) { got.emplace_back(b, e); });
    const std::string where = "round " + std::to_string(round) + " base " +
                              std::to_string(base) + " nbits " +
                              std::to_string(nbits);
    EXPECT_EQ(got, want) << where;
    EXPECT_EQ(bm.CountRuns(nbits), want.size()) << where;
    if (!want.empty()) {
      EXPECT_GT(bm.CountRuns(want.size() - 1), want.size() - 1) << where;
    }
  }
}

TEST(BitmapTest, ForEachSetAscending) {
  Bitmap bm(5, 100);
  bm.Set(7);
  bm.Set(68);
  bm.Set(104);
  std::vector<Position> got;
  bm.ForEachSet([&](Position p) { got.push_back(p); });
  EXPECT_EQ(got, (std::vector<Position>{7, 68, 104}));
}

// --- PosList ---

TEST(PosListTest, IntersectAndUnion) {
  PosList a({1, 3, 5, 7, 9});
  PosList b({3, 4, 5, 9, 10});
  PosList i = PosList::Intersect(a, b);
  EXPECT_EQ(i.positions(), (std::vector<Position>{3, 5, 9}));
  PosList u = PosList::Union(a, b);
  EXPECT_EQ(u.positions(), (std::vector<Position>{1, 3, 4, 5, 7, 9, 10}));
}

TEST(PosListTest, Contains) {
  PosList a({2, 4, 6});
  EXPECT_TRUE(a.Contains(4));
  EXPECT_FALSE(a.Contains(5));
}

// --- PositionSet algebra (property tests vs. naive sets) ---

std::set<Position> ToStdSet(const PositionSet& ps) {
  std::set<Position> out;
  ps.ForEachPosition([&](Position p) { out.insert(p); });
  return out;
}

/// The set of positions i with bits[i], over [0, bits.size()), in the
/// requested representation.
PositionSet FromBits(PositionSet::Rep rep, const std::vector<bool>& bits) {
  const size_t n = bits.size();
  switch (rep) {
    case PositionSet::Rep::kRanges: {
      RangeSet rs;
      size_t i = 0;
      while (i < n) {
        if (!bits[i]) {
          ++i;
          continue;
        }
        size_t j = i;
        while (j < n && bits[j]) ++j;
        rs.Append(i, j);
        i = j;
      }
      return PositionSet::FromRanges(0, n, std::move(rs));
    }
    case PositionSet::Rep::kBitmap: {
      Bitmap bm(0, n);
      for (size_t i = 0; i < n; ++i) {
        if (bits[i]) bm.Set(i);
      }
      return PositionSet::FromBitmap(std::move(bm));
    }
    case PositionSet::Rep::kList: {
      PosList pl;
      for (size_t i = 0; i < n; ++i) {
        if (bits[i]) pl.Append(i);
      }
      return PositionSet::FromList(0, n, std::move(pl));
    }
  }
  return PositionSet::Empty(0, n);
}

/// Builds a random PositionSet over [0, n) in the requested representation.
PositionSet RandomSet(PositionSet::Rep rep, size_t n, double density,
                      Random* rng, std::set<Position>* model) {
  std::vector<bool> bits(n);
  for (size_t i = 0; i < n; ++i) {
    bits[i] = rng->Bernoulli(density);
    if (bits[i]) model->insert(i);
  }
  return FromBits(rep, bits);
}

struct AlgebraCase {
  PositionSet::Rep rep_a;
  PositionSet::Rep rep_b;
  double density_a;
  double density_b;
};

class PositionAlgebraTest : public ::testing::TestWithParam<AlgebraCase> {};

TEST_P(PositionAlgebraTest, IntersectAndUnionMatchNaive) {
  const AlgebraCase& tc = GetParam();
  Random rng(0xabcdef);
  const size_t n = 5000;
  for (int round = 0; round < 5; ++round) {
    std::set<Position> ma;
    std::set<Position> mb;
    PositionSet a = RandomSet(tc.rep_a, n, tc.density_a, &rng, &ma);
    PositionSet b = RandomSet(tc.rep_b, n, tc.density_b, &rng, &mb);

    std::set<Position> want_and;
    std::set_intersection(ma.begin(), ma.end(), mb.begin(), mb.end(),
                          std::inserter(want_and, want_and.begin()));
    std::set<Position> want_or;
    std::set_union(ma.begin(), ma.end(), mb.begin(), mb.end(),
                   std::inserter(want_or, want_or.begin()));

    PositionSet got_and = PositionSet::Intersect(a, b);
    EXPECT_EQ(ToStdSet(got_and), want_and);
    EXPECT_EQ(got_and.Cardinality(), want_and.size());

    PositionSet got_or = PositionSet::Union(a, b);
    EXPECT_EQ(ToStdSet(got_or), want_or);

    // Compaction must not change contents.
    EXPECT_EQ(ToStdSet(got_and.Compacted()), want_and);
  }
}

INSTANTIATE_TEST_SUITE_P(
    RepPairs, PositionAlgebraTest,
    ::testing::Values(
        AlgebraCase{PositionSet::Rep::kRanges, PositionSet::Rep::kRanges, 0.5,
                    0.5},
        AlgebraCase{PositionSet::Rep::kBitmap, PositionSet::Rep::kBitmap, 0.5,
                    0.9},
        AlgebraCase{PositionSet::Rep::kList, PositionSet::Rep::kList, 0.01,
                    0.02},
        AlgebraCase{PositionSet::Rep::kRanges, PositionSet::Rep::kBitmap, 0.3,
                    0.7},
        AlgebraCase{PositionSet::Rep::kRanges, PositionSet::Rep::kList, 0.6,
                    0.05},
        AlgebraCase{PositionSet::Rep::kBitmap, PositionSet::Rep::kList, 0.8,
                    0.03}));

TEST(PositionSetTest, SingleRangeBitmapFastPath) {
  // range ∧ bitmap with one range exercises the constant-time masking path.
  RangeSet rs;
  rs.Append(100, 900);
  PositionSet a = PositionSet::FromRanges(0, 1000, std::move(rs));
  Bitmap bm(0, 1000);
  for (Position p = 0; p < 1000; p += 3) bm.Set(p);
  PositionSet b = PositionSet::FromBitmap(std::move(bm));
  PositionSet got = PositionSet::Intersect(a, b);
  EXPECT_EQ(got.rep(), PositionSet::Rep::kBitmap);
  got.ForEachPosition([&](Position p) {
    EXPECT_GE(p, 100u);
    EXPECT_LT(p, 900u);
    EXPECT_EQ(p % 3, 0u);
  });
  // Multiples of 3 in [100, 900): 102, 105, ..., 897.
  EXPECT_EQ(got.Cardinality(), (897u - 102u) / 3 + 1);
}

TEST(PositionSetTest, WindowsNormalizedOnIntersect) {
  PositionSet a = PositionSet::All(0, 100);
  PositionSet b = PositionSet::All(50, 150);
  PositionSet c = PositionSet::Intersect(a, b);
  EXPECT_EQ(c.window_begin(), 50u);
  EXPECT_EQ(c.window_end(), 100u);
  EXPECT_EQ(c.Cardinality(), 50u);
}

TEST(PositionSetTest, DisjointWindowsIntersectEmpty) {
  PositionSet a = PositionSet::All(0, 100);
  PositionSet b = PositionSet::All(200, 300);
  PositionSet c = PositionSet::Intersect(a, b);
  EXPECT_TRUE(c.IsEmpty());
}

TEST(PositionSetTest, SliceClipsContents) {
  PositionSet a = PositionSet::All(0, 100);
  PositionSet s = a.Slice(30, 60);
  EXPECT_EQ(s.window_begin(), 30u);
  EXPECT_EQ(s.window_end(), 60u);
  EXPECT_EQ(s.Cardinality(), 30u);
}

TEST(PositionSetTest, ConversionsRoundTrip) {
  Random rng(99);
  std::set<Position> model;
  PositionSet a = RandomSet(PositionSet::Rep::kBitmap, 2000, 0.2, &rng,
                            &model);
  EXPECT_EQ(ToStdSet(PositionSet::FromList(0, 2000, a.ToList())), model);
  EXPECT_EQ(ToStdSet(PositionSet::FromRanges(0, 2000, a.ToRanges())), model);
  EXPECT_EQ(ToStdSet(PositionSet::FromBitmap(a.ToBitmap())), model);
  EXPECT_EQ(a.ToVector().size(), model.size());
}

// --- SetBuilder representation choice ---

TEST(SetBuilderTest, ContiguousStaysRanged) {
  SetBuilder b(0, 100000);
  b.AddRange(5000, 60000);
  PositionSet ps = std::move(b).Build();
  EXPECT_EQ(ps.rep(), PositionSet::Rep::kRanges);
  EXPECT_EQ(ps.Cardinality(), 55000u);
}

TEST(SetBuilderTest, FragmentedUpgradesToBitmapOrList) {
  // Every third position: far more than kMaxRanges runs, dense enough that
  // a list is not chosen.
  SetBuilder b(0, 30000);
  for (Position p = 0; p < 30000; p += 3) b.Add(p);
  PositionSet ps = std::move(b).Build();
  EXPECT_EQ(ps.rep(), PositionSet::Rep::kBitmap);
  EXPECT_EQ(ps.Cardinality(), 10000u);
}

TEST(SetBuilderTest, SparseBecomesList) {
  SetBuilder b(0, 100000);
  for (Position p = 0; p < 100000; p += 700) b.Add(p);  // 143 sparse points
  PositionSet ps = std::move(b).Build();
  EXPECT_EQ(ps.rep(), PositionSet::Rep::kList);
  EXPECT_EQ(ps.Cardinality(), 143u);
}

TEST(SetBuilderTest, AdjacentAddsCoalesce) {
  SetBuilder b(0, 1000);
  for (Position p = 100; p < 900; ++p) b.Add(p);  // one logical run
  PositionSet ps = std::move(b).Build();
  EXPECT_EQ(ps.rep(), PositionSet::Rep::kRanges);
  EXPECT_EQ(ps.ranges().num_ranges(), 1u);
}

TEST(CompactedTest, AllAndEmptyNormalize) {
  PositionSet all = PositionSet::FromBitmap([] {
    Bitmap bm(0, 500);
    bm.SetRange(0, 500);
    return bm;
  }());
  EXPECT_EQ(all.Compacted().rep(), PositionSet::Rep::kRanges);
  PositionSet empty = PositionSet::FromBitmap(Bitmap(0, 500));
  EXPECT_TRUE(empty.Compacted().IsEmpty());
  EXPECT_EQ(empty.Compacted().rep(), PositionSet::Rep::kRanges);
}

// --- RunCursor ---

/// Start positions of the blocks of a column of n positions, `per_block`
/// each (the last one shorter).
std::vector<uint64_t> BlockStarts(uint64_t n, uint64_t per_block) {
  std::vector<uint64_t> starts;
  for (uint64_t b = 0; b < n; b += per_block) starts.push_back(b);
  return starts;
}

/// The maximal runs of set bits inside [b, e).
std::vector<Range> NaiveClip(const std::vector<bool>& bits, Position b,
                             Position e) {
  std::vector<Range> out;
  for (Position p = b; p < e; ++p) {
    if (!bits[p]) continue;
    if (!out.empty() && out.back().end == p) {
      ++out.back().end;
    } else {
      out.push_back(Range{p, p + 1});
    }
  }
  return out;
}

std::vector<Range> Clipped(RunCursor* cursor, Position b, Position e) {
  const std::span<const Range> runs = cursor->Clip(b, e);
  return std::vector<Range>(runs.begin(), runs.end());
}

TEST(RunCursorTest, ClipsEveryRepresentationToEveryBlock) {
  // 21 blocks of 1 000 positions, the last one 500 long. Runs are short
  // (many per block) or up to 2.5 blocks long (crossing block boundaries);
  // gaps up to 2.5 blocks leave blocks with no valid position, and every
  // selection starts mid-block.
  const size_t n = 20500;
  const uint64_t per_block = 1000;
  const std::vector<uint64_t> starts = BlockStarts(n, per_block);
  Random rng(17);
  for (PositionSet::Rep rep : {PositionSet::Rep::kRanges,
                               PositionSet::Rep::kBitmap,
                               PositionSet::Rep::kList}) {
    for (int round = 0; round < 6; ++round) {
      const uint64_t max_run = round % 2 == 0 ? 40 : 2500;
      std::vector<bool> bits(n);
      for (size_t p = 1 + rng.Uniform(per_block - 1); p < n;) {
        const size_t len = 1 + rng.Uniform(max_run);
        for (size_t i = p; i < std::min(n, p + len); ++i) bits[i] = true;
        p += len + 1 + rng.Uniform(2500);
      }
      const PositionSet sel = FromBits(rep, bits);
      const std::string where = "rep " +
                                std::to_string(static_cast<int>(sel.rep())) +
                                " round " + std::to_string(round);

      // Every block in order.
      RunCursor cursor(sel);
      std::vector<uint64_t> want_blocks;
      for (uint64_t blk = 0; blk < starts.size(); ++blk) {
        const Position b = starts[blk];
        const Position e = std::min<Position>(b + per_block, n);
        const std::vector<Range> want = NaiveClip(bits, b, e);
        EXPECT_EQ(Clipped(&cursor, b, e), want) << where << " block " << blk;
        if (!want.empty()) want_blocks.push_back(blk);
      }
      EXPECT_EQ(RunCursor(sel).Blocks(starts), want_blocks) << where;

      // A mini-column with gaps between its blocks: a pipelined scan
      // pinned every third block only.
      RunCursor gapped(sel);
      for (uint64_t blk = 1; blk < starts.size(); blk += 3) {
        const Position b = starts[blk];
        const Position e = std::min<Position>(b + per_block, n);
        EXPECT_EQ(Clipped(&gapped, b, e), NaiveClip(bits, b, e))
            << where << " gapped block " << blk;
      }
    }
  }
}

TEST(RunCursorTest, RunCrossingBlocksIsSplitNotDropped) {
  // A 30 000-row uncompressed column: blocks of 8 128 positions.
  const std::vector<uint64_t> starts = BlockStarts(30000, 8128);
  RangeSet rs;
  rs.Append(5000, 17000);  // starts mid-block 0, ends mid-block 2
  rs.Append(29990, 30000);
  const PositionSet sel = PositionSet::FromRanges(0, 30000, std::move(rs));
  RunCursor cursor(sel);
  EXPECT_EQ(Clipped(&cursor, 0, 8128), (std::vector<Range>{{5000, 8128}}));
  EXPECT_EQ(Clipped(&cursor, 8128, 16256),
            (std::vector<Range>{{8128, 16256}}));
  EXPECT_EQ(Clipped(&cursor, 16256, 24384),
            (std::vector<Range>{{16256, 17000}}));
  EXPECT_EQ(Clipped(&cursor, 24384, 30000),
            (std::vector<Range>{{29990, 30000}}));
  EXPECT_EQ(RunCursor(sel).Blocks(starts),
            (std::vector<uint64_t>{0, 1, 2, 3}));
}

TEST(RunCursorTest, BlocksAscendWithoutDuplicates) {
  const std::vector<uint64_t> starts = BlockStarts(30000, 8128);
  SetBuilder builder(0, 30000);
  builder.AddRange(0, 10);       // block 0
  builder.AddRange(100, 200);    // block 0 again
  builder.AddRange(9000, 9010);  // block 1
  builder.AddRange(9020, 9030);  // block 1 again
  EXPECT_EQ(RunCursor(std::move(builder).Build()).Blocks(starts),
            (std::vector<uint64_t>{0, 1}));
}

TEST(RunCursorTest, EmptySelectionHasNoBlocksAndNoRuns) {
  const PositionSet sel = PositionSet::Empty(0, 30000);
  EXPECT_TRUE(RunCursor(sel).Blocks(BlockStarts(30000, 8128)).empty());
  RunCursor cursor(sel);
  EXPECT_TRUE(cursor.Clip(0, 8128).empty());
  EXPECT_TRUE(cursor.Clip(8128, 16256).empty());
}

}  // namespace
}  // namespace cstore
