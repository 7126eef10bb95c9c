// Operator-level tests: DS1/DS1-pipelined/DS2/DS4/SPC/AND/Merge behaviour,
// mini-column pass-through, and the executor's statistics.

#include <iterator>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "db/database.h"
#include "exec/and_op.h"
#include "exec/ds_scan.h"
#include "exec/gather.h"
#include "exec/merge_op.h"
#include "test_util.h"

namespace cstore {
namespace {

using codec::Encoding;
using codec::Predicate;
using exec::ExecStats;
using exec::MultiColumnChunk;
using exec::TupleChunk;
using testing::TempDir;

class ExecTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db::Database::Options opts;
    opts.dir = dir_.path();
    opts.pool_frames = 1024;
    auto db = db::Database::Open(opts);
    ASSERT_TRUE(db.ok());
    db_ = std::move(db).value();
  }

  const codec::ColumnReader* Load(const std::string& name, Encoding enc,
                                  const std::vector<Value>& vals) {
    Status st = db_->CreateColumn(name, enc, vals);
    EXPECT_TRUE(st.ok()) << st.ToString();
    auto r = db_->GetColumn(name);
    EXPECT_TRUE(r.ok());
    return *r;
  }

  /// Drains a MultiColumnOp, returning all valid positions.
  std::vector<Position> DrainPositions(exec::MultiColumnOp* op) {
    std::vector<Position> out;
    MultiColumnChunk chunk;
    while (true) {
      auto has = op->Next(&chunk);
      EXPECT_TRUE(has.ok()) << has.status().ToString();
      if (!*has) break;
      chunk.desc.ForEachPosition([&](Position p) { out.push_back(p); });
    }
    return out;
  }

  /// Drains a TupleOp, returning (position, row) pairs.
  std::vector<std::pair<Position, std::vector<Value>>> DrainTuples(
      exec::TupleOp* op) {
    std::vector<std::pair<Position, std::vector<Value>>> out;
    TupleChunk chunk;
    while (true) {
      auto has = op->Next(&chunk);
      EXPECT_TRUE(has.ok()) << has.status().ToString();
      if (!*has) break;
      for (size_t i = 0; i < chunk.num_tuples(); ++i) {
        std::vector<Value> row(chunk.tuple(i),
                               chunk.tuple(i) + chunk.width());
        out.emplace_back(chunk.position(i), std::move(row));
      }
    }
    return out;
  }

  TempDir dir_;
  std::unique_ptr<db::Database> db_;
};

TEST_F(ExecTest, DS1ScanEmitsMatchingPositions) {
  std::vector<Value> vals = testing::RunnyValues(150000, 100, 1.0, 3);
  const auto* col = Load("c", Encoding::kUncompressed, vals);
  ExecStats stats;
  exec::DS1Scan scan(col, 0, Predicate::LessThan(40), true, &stats);
  std::vector<Position> got = DrainPositions(&scan);
  EXPECT_EQ(got, testing::NaiveMatches(vals, Predicate::LessThan(40)));
  // Every block is fetched at least once; blocks straddling window
  // boundaries are fetched (as pool hits) by both windows.
  EXPECT_GE(stats.blocks_fetched, col->num_blocks());
  EXPECT_GE(stats.predicate_evals, vals.size());
}

TEST_F(ExecTest, DS1ScanAttachesMiniColumns) {
  std::vector<Value> vals = testing::RunnyValues(70000, 10, 4.0, 5);
  const auto* col = Load("c", Encoding::kRle, vals);
  ExecStats stats;
  exec::DS1Scan scan(col, 7, Predicate::True(), true, &stats);
  MultiColumnChunk chunk;
  ASSERT_OK_AND_ASSIGN(bool has, scan.Next(&chunk));
  ASSERT_TRUE(has);
  ASSERT_EQ(chunk.minis.size(), 1u);
  EXPECT_EQ(chunk.minis[0].column(), 7u);
  EXPECT_NE(chunk.FindMini(7), nullptr);
  EXPECT_EQ(chunk.FindMini(3), nullptr);
  // The mini-column serves values without touching the reader.
  std::vector<Value> gathered;
  chunk.FindMini(7)->GatherValues(chunk.desc, &gathered);
  EXPECT_EQ(gathered.size(), chunk.desc.Cardinality());
}

TEST_F(ExecTest, DS1ScanWithoutMiniAttachesNothing) {
  std::vector<Value> vals = testing::RunnyValues(20000, 10, 1.0, 7);
  const auto* col = Load("c", Encoding::kUncompressed, vals);
  ExecStats stats;
  exec::DS1Scan scan(col, 0, Predicate::True(), false, &stats);
  MultiColumnChunk chunk;
  ASSERT_OK_AND_ASSIGN(bool has, scan.Next(&chunk));
  ASSERT_TRUE(has);
  EXPECT_TRUE(chunk.minis.empty());
}

TEST_F(ExecTest, DS1PipelinedRefinesAndSkips) {
  const size_t n = 300000;
  // Column a: sorted → highly selective prefix predicate clusters matches.
  std::vector<Value> a = testing::SortedRunnyValues(n, 10000, 2.0, 11);
  std::vector<Value> b = testing::RunnyValues(n, 100, 1.0, 13);
  const auto* ca = Load("a", Encoding::kUncompressed, a);
  const auto* cb = Load("b", Encoding::kUncompressed, b);

  ExecStats stats;
  exec::DS1Scan first(ca, 0, Predicate::LessThan(100), true, &stats);
  exec::DS1PipelinedScan second(&first, cb, 1, Predicate::LessThan(50), true,
                                &stats);
  std::vector<Position> got = DrainPositions(&second);

  std::vector<Position> expected;
  for (size_t i = 0; i < n; ++i) {
    if (a[i] < 100 && b[i] < 50) expected.push_back(i);
  }
  EXPECT_EQ(got, expected);
  EXPECT_GT(stats.blocks_skipped, 0u);
}

TEST_F(ExecTest, DS2ScanProducesPosValueTuples) {
  std::vector<Value> vals = testing::RunnyValues(60000, 50, 1.0, 17);
  const auto* col = Load("c", Encoding::kUncompressed, vals);
  ExecStats stats;
  exec::DS2Scan scan(col, Predicate::GreaterEqual(25), &stats);
  auto got = DrainTuples(&scan);
  auto expected = testing::NaiveMatches(vals, Predicate::GreaterEqual(25));
  ASSERT_EQ(got.size(), expected.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].first, expected[i]);
    EXPECT_EQ(got[i].second[0], vals[expected[i]]);
  }
  EXPECT_EQ(stats.tuples_constructed, got.size());
}

TEST_F(ExecTest, DS4ExtendsTuplesAndSkipsBlocks) {
  const size_t n = 200000;
  std::vector<Value> a = testing::SortedRunnyValues(n, 1000, 2.0, 19);
  std::vector<Value> b = testing::RunnyValues(n, 10, 1.0, 23);
  const auto* ca = Load("a", Encoding::kUncompressed, a);
  const auto* cb = Load("b", Encoding::kUncompressed, b);

  ExecStats stats;
  exec::DS2Scan leaf(ca, Predicate::LessThan(20), &stats);  // ~2% cluster
  exec::DS4ScanMerge ds4(&leaf, cb, Predicate::LessThan(5), &stats);
  auto got = DrainTuples(&ds4);

  size_t expected = 0;
  for (size_t i = 0; i < n; ++i) {
    if (a[i] < 20 && b[i] < 5) {
      ASSERT_LT(expected, got.size());
      EXPECT_EQ(got[expected].first, i);
      EXPECT_EQ(got[expected].second[0], a[i]);
      EXPECT_EQ(got[expected].second[1], b[i]);
      ++expected;
    }
  }
  EXPECT_EQ(got.size(), expected);
  // The clustered 2% predicate leaves most of b's blocks untouched: only
  // a's full scan plus the handful of b blocks containing candidates are
  // fetched.
  EXPECT_LT(stats.blocks_fetched, ca->num_blocks() + 5);
}

/// Number of (run, window) overlaps in `vals`: the predicate evaluations
/// DS2Scan makes over the RLE-encoded column (runs are maximal, as the
/// writer stores them).
uint64_t RunWindowOverlaps(const std::vector<Value>& vals, Position begin,
                           Position end) {
  uint64_t overlaps = 0;
  for (Position i = begin; i < end; ++i) {
    if (i % kChunkPositions == 0 || vals[i] != vals[i - 1]) ++overlaps;
  }
  return overlaps;
}

TEST_F(ExecTest, DS2ScanClipsWideRleBlocksToEachWindow) {
  // Runs of ~1 000 positions put all of `runny` into one RLE block spanning
  // every window; `single` is one run wider than any window.
  const size_t n = 300000;
  const std::vector<Value> runny = testing::RunnyValues(n, 50, 1000.0, 41);
  const std::vector<Value> single(n, 7);
  const auto* runny_col = Load("runny", Encoding::kRle, runny);
  const auto* single_col = Load("single", Encoding::kRle, single);
  ASSERT_LT(runny_col->num_blocks(), n / kChunkPositions);
  ASSERT_EQ(single_col->num_blocks(), 1u);

  struct Case {
    const codec::ColumnReader* col;
    const std::vector<Value>* vals;
    Predicate pred;
  };
  const Case cases[] = {
      {runny_col, &runny, Predicate::LessThan(20)},
      {runny_col, &runny, Predicate::Equal(3)},
      {runny_col, &runny, Predicate::True()},
      {runny_col, &runny, Predicate::GreaterThan(1000)},
      {single_col, &single, Predicate::Equal(7)},
      {single_col, &single, Predicate::LessThan(7)},
  };
  for (size_t ci = 0; ci < std::size(cases); ++ci) {
    const Case& c = cases[ci];
    ExecStats stats;
    exec::DS2Scan scan(c.col, c.pred, &stats);
    auto got = DrainTuples(&scan);
    const std::vector<Position> want = testing::NaiveMatches(*c.vals, c.pred);
    ASSERT_EQ(got.size(), want.size()) << "case " << ci;
    for (size_t i = 0; i < got.size(); ++i) {
      ASSERT_EQ(got[i].first, want[i]) << "case " << ci << " row " << i;
      ASSERT_EQ(got[i].second[0], (*c.vals)[want[i]]) << "case " << ci;
    }
    // One evaluation per run a window overlaps, never one per position.
    EXPECT_EQ(stats.predicate_evals, RunWindowOverlaps(*c.vals, 0, n))
        << "case " << ci;
    EXPECT_EQ(stats.tuples_constructed, want.size()) << "case " << ci;
  }

  // Morsels split the count at window boundaries: the parts sum to the
  // whole scan's.
  const Position cut = 2 * kChunkPositions;
  ExecStats head_stats;
  ExecStats tail_stats;
  exec::DS2Scan head(runny_col, Predicate::LessThan(20), &head_stats,
                     position::Range{0, cut});
  exec::DS2Scan tail(runny_col, Predicate::LessThan(20), &tail_stats,
                     position::Range{cut, n});
  const size_t rows = DrainTuples(&head).size() + DrainTuples(&tail).size();
  EXPECT_EQ(rows, testing::NaiveMatches(runny, Predicate::LessThan(20)).size());
  EXPECT_EQ(head_stats.predicate_evals, RunWindowOverlaps(runny, 0, cut));
  EXPECT_EQ(tail_stats.predicate_evals, RunWindowOverlaps(runny, cut, n));
}

TEST_F(ExecTest, DS4ScanMergeMatchesNaiveOnEveryEncoding) {
  // `b` has many short runs per block across many blocks; the DS2 leaf
  // over `a` feeds DS4 once densely and once sparsely.
  const size_t n = 250000;
  const std::vector<Value> a = testing::RunnyValues(n, 100, 1.0, 43);
  const std::vector<Value> b = testing::RunnyValues(n, 20, 3.0, 47);
  const auto* ca = Load("a", Encoding::kUncompressed, a);
  const Predicate merge_pred = Predicate::LessThan(12);
  for (Encoding enc :
       {Encoding::kRle, Encoding::kDict, Encoding::kBitVector}) {
    const auto* cb =
        Load(std::string("b_") + codec::EncodingName(enc), enc, b);
    if (enc == Encoding::kRle) {
      ASSERT_GT(cb->num_blocks(), 10u);
    }
    for (Predicate leaf_pred : {Predicate::LessThan(90), Predicate::Equal(7)}) {
      ExecStats stats;
      exec::DS2Scan leaf(ca, leaf_pred, &stats);
      exec::DS4ScanMerge ds4(&leaf, cb, merge_pred, &stats);
      auto got = DrainTuples(&ds4);

      std::vector<std::pair<Position, std::vector<Value>>> want;
      uint64_t leaf_rows = 0;
      for (size_t i = 0; i < n; ++i) {
        if (!leaf_pred.Eval(a[i])) continue;
        ++leaf_rows;
        if (merge_pred.Eval(b[i])) {
          want.emplace_back(i, std::vector<Value>{a[i], b[i]});
        }
      }
      const std::string where = std::string(codec::EncodingName(enc)) +
                                (leaf_rows * 2 > n ? " dense" : " sparse");
      EXPECT_EQ(got, want) << where;
      // DS2 evaluates every value of the uncompressed leaf; DS4 jumps once
      // per input tuple.
      EXPECT_EQ(stats.predicate_evals, n + leaf_rows) << where;
      EXPECT_EQ(stats.tuples_constructed, leaf_rows + want.size()) << where;
    }
  }
}

/// Predicate evaluations DS1Scan makes over `col` (holding `vals`): one per
/// value when uncompressed; per (run, block, window) overlap on RLE (the
/// writer splits runs at block ends); per distinct value of each (block,
/// window) overlap on dictionary and bit-vector blocks.
uint64_t DS1Evals(const codec::ColumnReader& col,
                  const std::vector<Value>& vals) {
  const std::vector<uint64_t>& starts = col.meta().block_start_pos;
  if (col.meta().encoding == Encoding::kUncompressed) return vals.size();
  uint64_t evals = 0;
  for (size_t b = 0; b < starts.size(); ++b) {
    const Position begin = starts[b];
    const Position end = b + 1 < starts.size() ? starts[b + 1] : vals.size();
    const uint64_t windows =
        (end - 1) / kChunkPositions - begin / kChunkPositions + 1;
    if (col.meta().encoding != Encoding::kRle) {
      evals += windows * std::set<Value>(vals.begin() + begin,
                                         vals.begin() + end)
                             .size();
      continue;
    }
    for (Position p = begin; p < end; ++p) {
      evals += p == begin || p % kChunkPositions == 0 || vals[p] != vals[p - 1];
    }
  }
  return evals;
}

TEST_F(ExecTest, DS1ScanEvaluatesOnlyItsWindow) {
  // 8 128-value plain blocks straddle the 64K windows; a straddling block
  // is evaluated once per window over its overlap only, so a plain column
  // costs exactly one evaluation per value (evaluating it in full per
  // window would count 8 128 extra per straddle). n is off the 64 grid, so
  // the last block is too.
  const size_t n = 150037;
  const std::vector<Value> vals = testing::RunnyValues(n, 10, 2.0, 61);
  const std::vector<Value> runny = testing::RunnyValues(n, 10, 30.0, 67);
  struct Case {
    const codec::ColumnReader* col;
    const std::vector<Value>* vals;
  };
  const Case cases[] = {
      {Load("plain", Encoding::kUncompressed, vals), &vals},
      {Load("dict", Encoding::kDict, vals), &vals},
      {Load("bv", Encoding::kBitVector, vals), &vals},
      {Load("rle", Encoding::kRle, runny), &runny},
  };
  for (const Case& c : cases) {
    for (const Predicate& pred : testing::OnePredicatePerOp(4, 6)) {
      const std::string where =
          std::string(codec::EncodingName(c.col->meta().encoding)) + " " +
          pred.ToString();
      ExecStats stats;
      exec::DS1Scan scan(c.col, 0, pred, false, &stats);
      EXPECT_EQ(DrainPositions(&scan), testing::NaiveMatches(*c.vals, pred))
          << where;
      EXPECT_EQ(stats.predicate_evals, DS1Evals(*c.col, *c.vals)) << where;
      // Morsels split at a window boundary count the same in total.
      const Position cut = kChunkPositions;
      ExecStats head_stats;
      ExecStats tail_stats;
      exec::DS1Scan head(c.col, 0, pred, false, &head_stats,
                         position::Range{0, cut});
      exec::DS1Scan tail(c.col, 0, pred, false, &tail_stats,
                         position::Range{cut, n});
      DrainPositions(&head);
      DrainPositions(&tail);
      EXPECT_EQ(head_stats.predicate_evals + tail_stats.predicate_evals,
                stats.predicate_evals)
          << where;
    }
  }
}

TEST_F(ExecTest, ScanKernelsMatchPerValueEvalForEveryOp) {
  // Every operator that evaluates predicates value by value, under each of
  // the 8 predicate operators and on every encoding, against a per-value
  // Predicate::Eval. The leaf column's matches form ranges that start and end
  // mid-word: runs of ~20 (dense, a bitmap descriptor) and ~2% singletons
  // (a list).
  const size_t n = 150037;
  const std::vector<Value> vals = testing::RunnyValues(n, 10, 1.5, 71);
  const std::vector<Value> runny = testing::RunnyValues(n, 10, 25.0, 73);
  const std::vector<Value> dense = testing::RunnyValues(n, 2, 20.0, 79);
  const std::vector<Value> sparse = testing::RunnyValues(n, 50, 1.0, 83);
  const auto* dense_col = Load("dense", Encoding::kUncompressed, dense);
  const auto* sparse_col = Load("sparse", Encoding::kUncompressed, sparse);
  struct Leaf {
    const codec::ColumnReader* col;
    const std::vector<Value>* vals;
    Predicate pred;
  };
  const Leaf leaves[] = {{dense_col, &dense, Predicate::Equal(0)},
                            {sparse_col, &sparse, Predicate::Equal(7)}};
  struct Case {
    const codec::ColumnReader* col;
    const std::vector<Value>* vals;
  };
  const Case cases[] = {
      {Load("plain", Encoding::kUncompressed, vals), &vals},
      {Load("dict", Encoding::kDict, vals), &vals},
      {Load("bv", Encoding::kBitVector, vals), &vals},
      {Load("rle", Encoding::kRle, runny), &runny},
  };
  for (const Case& c : cases) {
    const Encoding enc = c.col->meta().encoding;
    const std::vector<Value>& v = *c.vals;
    for (const Predicate& pred : testing::OnePredicatePerOp(4, 6)) {
      const std::string where =
          std::string(codec::EncodingName(enc)) + " " + pred.ToString();
      const std::vector<Position> want = testing::NaiveMatches(v, pred);
      // DS2: one evaluation per value, or per (run, window) overlap on
      // RLE. SPC decompresses first: one per value.
      std::vector<std::pair<Position, std::vector<Value>>> want_rows;
      for (Position p : want) want_rows.emplace_back(p, std::vector{v[p]});
      ExecStats ds2_stats;
      exec::DS2Scan ds2(c.col, pred, &ds2_stats);
      EXPECT_EQ(DrainTuples(&ds2), want_rows) << where << " ds2";
      EXPECT_EQ(ds2_stats.predicate_evals,
                enc == Encoding::kRle ? DS1Evals(*c.col, v) : n)
          << where << " ds2";
      ExecStats spc_stats;
      exec::SpcScan spc({{c.col, pred}}, &spc_stats);
      EXPECT_EQ(DrainTuples(&spc), want_rows) << where << " spc";
      EXPECT_EQ(spc_stats.predicate_evals, n) << where << " spc";
      for (const Leaf& d : leaves) {
        std::vector<Position> both;
        std::vector<std::pair<Position, std::vector<Value>>> both_rows;
        uint64_t leaf_matches = 0;
        for (size_t i = 0; i < n; ++i) {
          if (!d.pred.Eval((*d.vals)[i])) continue;
          ++leaf_matches;
          if (!pred.Eval(v[i])) continue;
          both.push_back(i);
          both_rows.emplace_back(i, std::vector{(*d.vals)[i], v[i]});
        }
        // DS1-pipelined refines at the leaf's matches: one evaluation per
        // candidate position, whatever the encoding.
        ExecStats lm_stats;
        exec::DS1Scan leaf(d.col, 0, d.pred, false, &lm_stats);
        exec::DS1PipelinedScan refine(&leaf, c.col, 1, pred, false,
                                      &lm_stats);
        EXPECT_EQ(DrainPositions(&refine), both) << where << " ds1p";
        EXPECT_EQ(lm_stats.predicate_evals, n + leaf_matches)
            << where << " ds1p";
        // DS4 jumps to each input tuple's position.
        ExecStats em_stats;
        exec::DS2Scan em_leaf(d.col, d.pred, &em_stats);
        exec::DS4ScanMerge ds4(&em_leaf, c.col, pred, &em_stats);
        EXPECT_EQ(DrainTuples(&ds4), both_rows) << where << " ds4";
        EXPECT_EQ(em_stats.predicate_evals, n + leaf_matches)
            << where << " ds4";
      }
    }
  }
}

TEST_F(ExecTest, SpcFiltersColumnByColumn) {
  // k = 3: the third predicate sees only the rows that passed the first
  // two, so the count is n + |pass a| + |pass a and b|, as a row-at-a-time
  // short circuit counts.
  const size_t n = 150037;
  const std::vector<Value> a = testing::RunnyValues(n, 10, 1.0, 89);
  const std::vector<Value> b = testing::RunnyValues(n, 10, 6.0, 97);
  const std::vector<Value> c = testing::RunnyValues(n, 10, 1.0, 101);
  const auto* ca = Load("a", Encoding::kUncompressed, a);
  const auto* cb = Load("b", Encoding::kRle, b);
  const auto* cc = Load("c", Encoding::kDict, c);
  const Predicate pa = Predicate::LessThan(5);
  const Predicate pb = Predicate::NotEqual(3);
  const Predicate pc = Predicate::Between(2, 7);

  ExecStats stats;
  exec::SpcScan spc({{ca, pa}, {cb, pb}, {cc, pc}}, &stats);
  auto got = DrainTuples(&spc);
  std::vector<std::pair<Position, std::vector<Value>>> want;
  uint64_t evals = 0;
  for (size_t i = 0; i < n; ++i) {
    ++evals;
    if (!pa.Eval(a[i])) continue;
    ++evals;
    if (!pb.Eval(b[i])) continue;
    ++evals;
    if (pc.Eval(c[i])) want.emplace_back(i, std::vector{a[i], b[i], c[i]});
  }
  EXPECT_EQ(got, want);
  EXPECT_EQ(stats.predicate_evals, evals);
  EXPECT_EQ(stats.tuples_constructed, want.size());
}

TEST_F(ExecTest, SpcConstructsShortCircuit) {
  const size_t n = 100000;
  std::vector<Value> a = testing::RunnyValues(n, 10, 1.0, 29);
  std::vector<Value> b = testing::RunnyValues(n, 10, 1.0, 31);
  const auto* ca = Load("a", Encoding::kUncompressed, a);
  const auto* cb = Load("b", Encoding::kRle, b);

  ExecStats stats;
  exec::SpcScan spc({{ca, Predicate::LessThan(3)}, {cb, Predicate::LessThan(9)}},
                    &stats);
  auto got = DrainTuples(&spc);
  size_t count = 0;
  size_t evals_expected = 0;
  for (size_t i = 0; i < n; ++i) {
    ++evals_expected;  // pred a always evaluated
    if (a[i] < 3) {
      ++evals_expected;  // pred b only when a passes (short-circuit)
      if (b[i] < 9) ++count;
    }
  }
  EXPECT_EQ(got.size(), count);
  EXPECT_EQ(stats.predicate_evals, evals_expected);
}

TEST_F(ExecTest, AndIntersectsAlignedChunks) {
  const size_t n = 250000;
  std::vector<Value> a = testing::RunnyValues(n, 100, 1.0, 37);
  std::vector<Value> b = testing::RunnyValues(n, 100, 1.0, 41);
  std::vector<Value> c = testing::RunnyValues(n, 100, 1.0, 43);
  const auto* ca = Load("a", Encoding::kUncompressed, a);
  const auto* cb = Load("b", Encoding::kUncompressed, b);
  const auto* cc = Load("c", Encoding::kUncompressed, c);

  ExecStats stats;
  exec::DS1Scan s1(ca, 0, Predicate::LessThan(50), true, &stats);
  exec::DS1Scan s2(cb, 1, Predicate::LessThan(70), true, &stats);
  exec::DS1Scan s3(cc, 2, Predicate::GreaterEqual(20), true, &stats);
  exec::AndOp and_op({&s1, &s2, &s3}, &stats);

  // Check positions and that all three mini-columns arrive merged.
  std::vector<Position> got;
  MultiColumnChunk chunk;
  while (true) {
    ASSERT_OK_AND_ASSIGN(bool has, and_op.Next(&chunk));
    if (!has) break;
    EXPECT_EQ(chunk.minis.size(), 3u);
    chunk.desc.ForEachPosition([&](Position p) { got.push_back(p); });
  }
  std::vector<Position> expected;
  for (size_t i = 0; i < n; ++i) {
    if (a[i] < 50 && b[i] < 70 && c[i] >= 20) expected.push_back(i);
  }
  EXPECT_EQ(got, expected);
  EXPECT_GT(stats.position_ands, 0u);
}

TEST_F(ExecTest, MergeStitchesFromMinisWithoutRefetch) {
  const size_t n = 150000;
  std::vector<Value> a = testing::SortedRunnyValues(n, 300, 8.0, 47);
  std::vector<Value> b = testing::RunnyValues(n, 7, 2.0, 53);
  const auto* ca = Load("a", Encoding::kRle, a);
  const auto* cb = Load("b", Encoding::kUncompressed, b);

  ExecStats stats;
  exec::DS1Scan s1(ca, 0, Predicate::LessThan(150), true, &stats);
  exec::DS1Scan s2(cb, 1, Predicate::LessThan(6), true, &stats);
  exec::AndOp and_op({&s1, &s2}, &stats);
  exec::MergeOp merge(&and_op, {{0, nullptr}, {1, nullptr}}, &stats);
  // Null fallback readers prove the mini-columns carry all needed data.
  auto got = DrainTuples(&merge);

  size_t j = 0;
  for (size_t i = 0; i < n; ++i) {
    if (a[i] < 150 && b[i] < 6) {
      ASSERT_LT(j, got.size());
      EXPECT_EQ(got[j].first, i);
      EXPECT_EQ(got[j].second[0], a[i]);
      EXPECT_EQ(got[j].second[1], b[i]);
      ++j;
    }
  }
  EXPECT_EQ(got.size(), j);
}

TEST_F(ExecTest, GatherFallsBackToReaderWithoutMini) {
  const size_t n = 50000;
  std::vector<Value> a = testing::RunnyValues(n, 100, 1.0, 59);
  const auto* ca = Load("a", Encoding::kUncompressed, a);

  ExecStats stats;
  MultiColumnChunk chunk;
  chunk.begin = 0;
  chunk.end = n;
  position::SetBuilder builder(0, n);
  for (Position p = 100; p < 200; ++p) builder.Add(p);
  for (Position p = 40000; p < 40010; ++p) builder.Add(p);
  chunk.desc = std::move(builder).Build();

  std::vector<Value> got;
  ASSERT_OK(exec::GatherColumnValues(chunk, 0, ca, &stats, &got));
  ASSERT_EQ(got.size(), 110u);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(got[i], a[100 + i]);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(got[100 + i], a[40000 + i]);
  EXPECT_GT(stats.blocks_fetched, 0u);
}

TEST_F(ExecTest, IndexScanLeafEmitsRangeWithoutFetches) {
  const size_t n = 200000;
  std::vector<Value> a(n);
  for (size_t i = 0; i < n; ++i) a[i] = static_cast<Value>(i / 100);
  const auto* ca = Load("ix", Encoding::kUncompressed, a);
  ASSERT_TRUE(ca->meta().sorted);

  ExecStats stats;
  auto range_r = ca->PositionRangeFor(Predicate::LessThan(500));
  ASSERT_TRUE(range_r.ok());
  exec::IndexScan scan(ca, *range_r, &stats);
  std::vector<Position> got = DrainPositions(&scan);
  ASSERT_EQ(got.size(), 50000u);
  EXPECT_EQ(got.front(), 0u);
  EXPECT_EQ(got.back(), 49999u);
  // The whole point: no blocks read at execution time.
  EXPECT_EQ(stats.blocks_fetched, 0u);
}

TEST_F(ExecTest, IndexScanPipelinedIntersectsInput) {
  const size_t n = 150000;
  std::vector<Value> a = testing::RunnyValues(n, 100, 1.0, 77);
  std::vector<Value> sorted(n);
  for (size_t i = 0; i < n; ++i) sorted[i] = static_cast<Value>(i / 10);
  const auto* ca = Load("ipa", Encoding::kUncompressed, a);
  const auto* cs = Load("ips", Encoding::kUncompressed, sorted);

  ExecStats stats;
  exec::DS1Scan first(ca, 0, Predicate::LessThan(30), true, &stats);
  auto range_r = cs->PositionRangeFor(Predicate::Between(2000, 9999));
  ASSERT_TRUE(range_r.ok());
  exec::IndexScan second(&first, cs, *range_r, &stats);
  std::vector<Position> got = DrainPositions(&second);

  std::vector<Position> expected;
  for (size_t i = 0; i < n; ++i) {
    if (a[i] < 30 && sorted[i] >= 2000 && sorted[i] <= 9999) {
      expected.push_back(i);
    }
  }
  EXPECT_EQ(got, expected);
}

TEST_F(ExecTest, TupleChunkLayout) {
  exec::TupleChunk chunk(3);
  EXPECT_TRUE(chunk.empty());
  Value row1[3] = {1, 2, 3};
  chunk.AppendTuple(10, row1);
  Value* slots = chunk.AppendTuple(20);
  slots[0] = 4;
  slots[1] = 5;
  slots[2] = 6;
  ASSERT_EQ(chunk.num_tuples(), 2u);
  EXPECT_EQ(chunk.position(0), 10u);
  EXPECT_EQ(chunk.position(1), 20u);
  EXPECT_EQ(chunk.value(0, 0), 1);
  EXPECT_EQ(chunk.value(0, 2), 3);
  EXPECT_EQ(chunk.value(1, 1), 5);
  // Row-major contiguity.
  EXPECT_EQ(chunk.data(),
            (std::vector<Value>{1, 2, 3, 4, 5, 6}));
  chunk.Reset(2);
  EXPECT_EQ(chunk.width(), 2u);
  EXPECT_TRUE(chunk.empty());
}

TEST_F(ExecTest, ChunkTupleEmitterAppends) {
  exec::TupleChunk chunk(2);
  exec::ChunkTupleEmitter emitter(&chunk);
  exec::TupleEmitter* sink = &emitter;
  Value row[2] = {7, 8};
  sink->Emit(42, row);
  ASSERT_EQ(chunk.num_tuples(), 1u);
  EXPECT_EQ(chunk.position(0), 42u);
  EXPECT_EQ(chunk.value(0, 1), 8);
}

TEST_F(ExecTest, TupleChunkAppendAdoptsWidthThenConcatenates) {
  exec::TupleChunk first(2);
  Value r1[2] = {1, 2};
  Value r2[2] = {3, 4};
  first.AppendTuple(5, r1);
  first.AppendTuple(9, r2);
  exec::TupleChunk second(2);
  Value r3[2] = {5, 6};
  second.AppendTuple(12, r3);

  exec::TupleChunk all;  // width 0 until the first append
  all.Append(first);
  all.Append(exec::TupleChunk(2));  // an empty chunk adds nothing
  all.Append(second);
  EXPECT_EQ(all.width(), 2u);
  EXPECT_EQ(all.positions(), (std::vector<Position>{5, 9, 12}));
  EXPECT_EQ(all.data(), (std::vector<Value>{1, 2, 3, 4, 5, 6}));

  // An empty chunk takes the width of what is appended, rows or not.
  exec::TupleChunk empty;
  empty.Append(exec::TupleChunk(3));
  EXPECT_EQ(empty.width(), 3u);
  EXPECT_TRUE(empty.empty());
}

TEST_F(ExecTest, WindowCursorCoversColumnExactly) {
  std::vector<Value> a(150000, 1);
  const auto* ca = Load("wc", Encoding::kUncompressed, a);
  exec::WindowCursor cursor(ca);
  Position covered = 0;
  int windows = 0;
  while (!cursor.done()) {
    EXPECT_EQ(cursor.begin(), covered);
    EXPECT_GT(cursor.end(), cursor.begin());
    EXPECT_LE(cursor.end(), a.size());
    covered = cursor.end();
    ++windows;
    cursor.Advance();
  }
  EXPECT_EQ(covered, a.size());
  EXPECT_EQ(windows, static_cast<int>(
                         (a.size() + kChunkPositions - 1) / kChunkPositions));
}

TEST_F(ExecTest, MiniColumnValueAtAcrossBlocks) {
  std::vector<Value> a = testing::RunnyValues(30000, 1000, 1.0, 79);
  const auto* ca = Load("mv", Encoding::kUncompressed, a);
  ExecStats stats;
  exec::DS1Scan scan(ca, 0, Predicate::True(), true, &stats);
  MultiColumnChunk chunk;
  ASSERT_OK_AND_ASSIGN(bool has, scan.Next(&chunk));
  ASSERT_TRUE(has);
  const exec::MiniColumn* mini = chunk.FindMini(0);
  ASSERT_NE(mini, nullptr);
  for (Position p : {Position{0}, Position{8127}, Position{8128},
                     Position{20000}}) {
    EXPECT_EQ(mini->ValueAt(p), a[p]) << p;
  }
}

TEST_F(ExecTest, EmptyColumnChunking) {
  // A column with exactly one chunk window worth of values.
  std::vector<Value> a(static_cast<size_t>(kChunkPositions), 5);
  const auto* ca = Load("a", Encoding::kUncompressed, a);
  ExecStats stats;
  exec::DS1Scan scan(ca, 0, Predicate::Equal(5), false, &stats);
  MultiColumnChunk chunk;
  ASSERT_OK_AND_ASSIGN(bool has, scan.Next(&chunk));
  ASSERT_TRUE(has);
  EXPECT_EQ(chunk.begin, 0u);
  EXPECT_EQ(chunk.end, kChunkPositions);
  EXPECT_EQ(chunk.desc.Cardinality(), kChunkPositions);
  ASSERT_OK_AND_ASSIGN(bool more, scan.Next(&chunk));
  EXPECT_FALSE(more);
}

}  // namespace
}  // namespace cstore
