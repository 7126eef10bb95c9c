// Codec tests: write/read round-trips for all encodings, predicate
// evaluation fast paths, positional gathers, and metadata integrity.

#include <algorithm>
#include <cstring>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "codec/column_reader.h"
#include "codec/column_writer.h"
#include "position/position_set.h"
#include "position/run_cursor.h"
#include "storage/buffer_pool.h"
#include "storage/file_manager.h"
#include "test_util.h"

namespace cstore {
namespace {

using codec::ColumnReader;
using codec::ColumnWriter;
using codec::Encoding;
using codec::Predicate;
using testing::TempDir;

class CodecTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto fm = storage::FileManager::Open(dir_.path());
    ASSERT_TRUE(fm.ok());
    files_ = std::move(fm).value();
    pool_ = std::make_unique<storage::BufferPool>(files_.get(), 512);
  }

  std::unique_ptr<ColumnReader> WriteAndOpen(const std::string& name,
                                             Encoding enc,
                                             const std::vector<Value>& vals) {
    auto writer_r = ColumnWriter::Create(files_.get(), name, enc);
    EXPECT_TRUE(writer_r.ok());
    auto writer = std::move(writer_r).value();
    for (Value v : vals) {
      Status st = writer->Append(v);
      EXPECT_TRUE(st.ok()) << st.ToString();
    }
    auto meta_r = writer->Finish();
    EXPECT_TRUE(meta_r.ok()) << meta_r.status().ToString();
    auto reader_r = ColumnReader::Open(files_.get(), pool_.get(), name);
    EXPECT_TRUE(reader_r.ok()) << reader_r.status().ToString();
    return std::move(reader_r).value();
  }

  std::vector<Value> ReadAll(const ColumnReader& reader) {
    std::vector<Value> out;
    for (uint64_t b = 0; b < reader.num_blocks(); ++b) {
      auto blk = reader.FetchBlock(b);
      EXPECT_TRUE(blk.ok());
      blk->view.Decompress(&out);
    }
    return out;
  }

  TempDir dir_;
  std::unique_ptr<storage::FileManager> files_;
  std::unique_ptr<storage::BufferPool> pool_;
};

TEST_F(CodecTest, UncompressedRoundTripSmall) {
  std::vector<Value> vals = {5, -3, 0, 42, 1000000007, -9};
  auto reader = WriteAndOpen("c1", Encoding::kUncompressed, vals);
  EXPECT_EQ(reader->num_values(), vals.size());
  EXPECT_EQ(ReadAll(*reader), vals);
  EXPECT_EQ(reader->meta().min_value, -9);
  EXPECT_EQ(reader->meta().max_value, 1000000007);
}

TEST_F(CodecTest, UncompressedRoundTripMultiBlock) {
  // > 8128 values forces multiple blocks.
  std::vector<Value> vals = testing::RunnyValues(30000, 1000, 1.0, 7);
  auto reader = WriteAndOpen("c2", Encoding::kUncompressed, vals);
  EXPECT_GT(reader->num_blocks(), 1u);
  EXPECT_EQ(ReadAll(*reader), vals);
}

TEST_F(CodecTest, RleRoundTrip) {
  std::vector<Value> vals = testing::SortedRunnyValues(50000, 40, 100.0, 11);
  auto reader = WriteAndOpen("c3", Encoding::kRle, vals);
  EXPECT_EQ(ReadAll(*reader), vals);
  // RLE should be tiny: 50k values with avg run 100 → ~500 runs, 1 block.
  EXPECT_EQ(reader->num_blocks(), 1u);
  EXPECT_GT(reader->meta().AverageRunLength(), 10.0);
}

TEST_F(CodecTest, RleManyRunsSpansBlocks) {
  // Alternating values → every run has length 1; 10000 runs > 2729/block.
  std::vector<Value> vals;
  for (int i = 0; i < 10000; ++i) vals.push_back(i % 2);
  auto reader = WriteAndOpen("c4", Encoding::kRle, vals);
  EXPECT_GT(reader->num_blocks(), 1u);
  EXPECT_EQ(ReadAll(*reader), vals);
}

TEST_F(CodecTest, DictRoundTrip) {
  std::vector<Value> vals = testing::RunnyValues(100000, 300, 2.0, 14);
  auto reader = WriteAndOpen("cd", Encoding::kDict, vals);
  EXPECT_EQ(ReadAll(*reader), vals);
  // 16384 positions per block: 100000/16384 → 7 blocks.
  EXPECT_EQ(reader->num_blocks(), 7u);
}

TEST_F(CodecTest, DictTooManyDistinctPerBlockFails) {
  auto writer_r = ColumnWriter::Create(files_.get(), "cdx", Encoding::kDict);
  ASSERT_TRUE(writer_r.ok());
  auto writer = std::move(writer_r).value();
  Status st = Status::OK();
  for (Value v = 0; v < 20000 && st.ok(); ++v) {
    st = writer->Append(v);  // all distinct: 16384 distinct in one block
  }
  if (st.ok()) st = writer->Finish().status();
  EXPECT_TRUE(st.IsNotSupported()) << st.ToString();
}

TEST_F(CodecTest, BitVectorRoundTrip) {
  std::vector<Value> vals = testing::RunnyValues(100000, 7, 1.0, 13);
  auto reader = WriteAndOpen("c5", Encoding::kBitVector, vals);
  EXPECT_EQ(ReadAll(*reader), vals);
  EXPECT_EQ(reader->meta().num_distinct, 7u);
}

TEST_F(CodecTest, BitVectorHighCardinalityShrinksBlocks) {
  // 100 distinct values: the writer must shrink the per-block position
  // count to fit 100 bit-strings.
  std::vector<Value> vals = testing::RunnyValues(80000, 100, 1.0, 17);
  auto reader = WriteAndOpen("c6", Encoding::kBitVector, vals);
  EXPECT_EQ(ReadAll(*reader), vals);
}

TEST_F(CodecTest, BitVectorAllDistinctShrinksToMinimumBlocks) {
  // Worst case for bit-vector encoding: every value distinct. The writer
  // adaptively shrinks blocks (down to 512 positions) so the k bit-strings
  // still fit; the data must round-trip even though the encoding degrades
  // to many small blocks.
  std::vector<Value> vals;
  for (Value v = 0; v < 40000; ++v) vals.push_back(v);
  auto reader = WriteAndOpen("c7", Encoding::kBitVector, vals);
  EXPECT_GE(reader->num_blocks(), 40000u / codec::kBitVectorDefaultPositions);
  EXPECT_EQ(ReadAll(*reader), vals);
}

TEST_F(CodecTest, ValueAtRandomAccess) {
  for (Encoding enc : {Encoding::kUncompressed, Encoding::kRle,
                       Encoding::kBitVector, Encoding::kDict}) {
    std::vector<Value> vals = testing::RunnyValues(20000, 6, 8.0, 23);
    auto reader = WriteAndOpen(
        std::string("va") + codec::EncodingName(enc), enc, vals);
    Random rng(99);
    for (int i = 0; i < 500; ++i) {
      Position p = rng.Uniform(vals.size());
      auto v = reader->ValueAt(p);
      ASSERT_TRUE(v.ok());
      EXPECT_EQ(*v, vals[p]) << "encoding " << codec::EncodingName(enc)
                             << " pos " << p;
    }
  }
}

TEST_F(CodecTest, ValueAtOutOfRange) {
  std::vector<Value> vals = {1, 2, 3};
  auto reader = WriteAndOpen("oor", Encoding::kUncompressed, vals);
  EXPECT_FALSE(reader->ValueAt(3).ok());
}

TEST_F(CodecTest, BlockStartPositionsIndex) {
  std::vector<Value> vals = testing::RunnyValues(40000, 1000, 1.0, 31);
  auto reader = WriteAndOpen("idx", Encoding::kUncompressed, vals);
  const auto& meta = reader->meta();
  ASSERT_EQ(meta.block_start_pos.size(), meta.num_blocks);
  EXPECT_EQ(meta.block_start_pos[0], 0u);
  for (Position p : {Position{0}, Position{8127}, Position{8128},
                     Position{39999}}) {
    uint64_t b = meta.BlockContaining(p);
    EXPECT_LE(meta.block_start_pos[b], p);
    if (b + 1 < meta.num_blocks) {
      EXPECT_LT(p, meta.block_start_pos[b + 1]);
    }
  }
}

// --- Predicate evaluation across encodings (property test) ---

struct PredEvalCase {
  Encoding encoding;
  double run_len;
  int domain;
};

class PredicateEvalTest
    : public CodecTest,
      public ::testing::WithParamInterface<PredEvalCase> {};

TEST_P(PredicateEvalTest, MatchesNaiveScan) {
  const PredEvalCase& p = GetParam();
  std::vector<Value> vals =
      testing::RunnyValues(70000, p.domain, p.run_len, 37);
  auto reader = WriteAndOpen("pe", p.encoding, vals);

  const Predicate preds[] = {
      Predicate::LessThan(p.domain / 2),
      Predicate::Equal(1),
      Predicate::GreaterEqual(p.domain - 1),
      Predicate::Between(1, p.domain / 3),
      Predicate::True(),
      Predicate::LessThan(-5),  // empty result
  };
  for (const Predicate& pred : preds) {
    std::vector<Position> expected = testing::NaiveMatches(vals, pred);
    // Evaluate block by block, accumulating positions.
    std::vector<Position> got;
    for (uint64_t b = 0; b < reader->num_blocks(); ++b) {
      auto blk = reader->FetchBlock(b);
      ASSERT_TRUE(blk.ok());
      Position s = blk->view.start_pos();
      Position e = blk->view.end_pos();
      position::PositionSet result = position::PositionSet::Empty(s, e);
      if (blk->view.PredicateNeedsBitmap()) {
        position::Bitmap bm(s, e - s);
        blk->view.EvalPredicate(pred, nullptr, &bm);
        result = position::PositionSet::FromBitmap(std::move(bm));
      } else {
        position::SetBuilder builder(s, e);
        blk->view.EvalPredicate(pred, &builder, nullptr);
        result = std::move(builder).Build();
      }
      result.ForEachPosition([&](Position pos) { got.push_back(pos); });
    }
    EXPECT_EQ(got, expected) << "pred " << pred.ToString() << " on "
                             << codec::EncodingName(p.encoding);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Encodings, PredicateEvalTest,
    ::testing::Values(PredEvalCase{Encoding::kUncompressed, 1.0, 50},
                      PredEvalCase{Encoding::kUncompressed, 20.0, 10},
                      PredEvalCase{Encoding::kRle, 50.0, 12},
                      PredEvalCase{Encoding::kRle, 2.0, 5},
                      PredEvalCase{Encoding::kBitVector, 1.0, 7},
                      PredEvalCase{Encoding::kBitVector, 10.0, 12},
                      PredEvalCase{Encoding::kDict, 1.0, 200},
                      PredEvalCase{Encoding::kDict, 5.0, 40}));

// --- Positional reads across encodings ---

class GatherTest : public CodecTest,
                   public ::testing::WithParamInterface<Encoding> {};

TEST_P(GatherTest, GatherMatchesNaive) {
  Encoding enc = GetParam();
  std::vector<Value> vals = testing::RunnyValues(50000, 7, 10.0, 41);
  auto reader = WriteAndOpen("ga", enc, vals);
  const Position n = vals.size();

  // Scattered positions (listed), then runs that cross block boundaries
  // and leave whole blocks unselected (ranged), and their bitmap.
  Random rng(5);
  position::PosList pl;
  for (Position p = 0; p < n; ++p) {
    if (rng.Bernoulli(0.13)) pl.Append(p);
  }
  position::RangeSet rs;
  for (Position p = 3001; p + 11000 < n; p += 29000) rs.Append(p, p + 11000);
  std::vector<position::PositionSet> sels;
  sels.push_back(position::PositionSet::FromList(0, n, std::move(pl)));
  sels.push_back(position::PositionSet::FromRanges(0, n, rs));
  sels.push_back(position::PositionSet::FromBitmap(sels.back().ToBitmap()));

  for (const position::PositionSet& sel : sels) {
    const std::vector<Position> want_pos = sel.ToVector();
    std::vector<Value> want;
    for (Position p : want_pos) want.push_back(vals[p]);

    // Through the blocks the cursor lists, and through every block.
    std::vector<Value> gathered;
    position::RunCursor gather_runs(sel);
    for (uint64_t b : gather_runs.Blocks(reader->meta().block_start_pos)) {
      ASSERT_OK_AND_ASSIGN(codec::EncodedBlock blk, reader->FetchBlock(b));
      blk.view.GatherRanges(
          gather_runs.Clip(blk.view.start_pos(), blk.view.end_pos()),
          &gathered);
    }
    std::vector<Position> visited_pos;
    std::vector<Value> visited;
    position::RunCursor visit_runs(sel);
    for (uint64_t b = 0; b < reader->num_blocks(); ++b) {
      ASSERT_OK_AND_ASSIGN(codec::EncodedBlock blk, reader->FetchBlock(b));
      blk.view.ForEachValueInRanges(
          visit_runs.Clip(blk.view.start_pos(), blk.view.end_pos()),
          [&](Position p, Value v) {
            visited_pos.push_back(p);
            visited.push_back(v);
          });
    }
    const int rep = static_cast<int>(sel.rep());
    EXPECT_EQ(gathered, want) << "rep " << rep;
    EXPECT_EQ(visited, want) << "rep " << rep;
    EXPECT_EQ(visited_pos, want_pos) << "rep " << rep;
  }
}

INSTANTIATE_TEST_SUITE_P(Encodings, GatherTest,
                         ::testing::Values(Encoding::kUncompressed,
                                           Encoding::kRle,
                                           Encoding::kBitVector,
                                           Encoding::kDict));

TEST_F(CodecTest, MetaSerializationRoundTrip) {
  codec::ColumnMeta meta;
  meta.encoding = Encoding::kRle;
  meta.num_values = 12345;
  meta.num_blocks = 3;
  meta.min_value = -7;
  meta.max_value = 99;
  meta.num_distinct = 42;
  meta.num_runs = 321;
  meta.sorted = true;
  meta.block_start_pos = {0, 5000, 10000};
  meta.block_first_value = {-7, 13, 57};
  auto bytes = meta.Serialize();
  auto back = codec::ColumnMeta::Deserialize(bytes);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->encoding, meta.encoding);
  EXPECT_EQ(back->num_values, meta.num_values);
  EXPECT_EQ(back->num_blocks, meta.num_blocks);
  EXPECT_EQ(back->min_value, meta.min_value);
  EXPECT_EQ(back->max_value, meta.max_value);
  EXPECT_EQ(back->num_distinct, meta.num_distinct);
  EXPECT_EQ(back->num_runs, meta.num_runs);
  EXPECT_EQ(back->sorted, meta.sorted);
  EXPECT_EQ(back->block_start_pos, meta.block_start_pos);
  EXPECT_EQ(back->block_first_value, meta.block_first_value);
}

// --- Sorted-column index lookups (Section 2.1.1) ---

class IndexLookupTest : public CodecTest,
                        public ::testing::WithParamInterface<Encoding> {};

TEST_P(IndexLookupTest, PositionRangeMatchesNaiveScan) {
  Encoding enc = GetParam();
  std::vector<Value> vals = testing::SortedRunnyValues(60000, 12, 40.0, 71);
  auto reader = WriteAndOpen(
      std::string("ix") + codec::EncodingName(enc), enc, vals);
  ASSERT_TRUE(reader->meta().sorted);

  const Predicate preds[] = {
      Predicate::LessThan(6),     Predicate::LessEqual(6),
      Predicate::Equal(3),        Predicate::GreaterEqual(9),
      Predicate::GreaterThan(9),  Predicate::Between(2, 7),
      Predicate::LessThan(-1),    Predicate::GreaterThan(100),
      Predicate::Equal(100),      Predicate::True(),
  };
  for (const Predicate& pred : preds) {
    ASSERT_TRUE(reader->SupportsIndexLookup(pred)) << pred.ToString();
    auto range = reader->PositionRangeFor(pred);
    ASSERT_TRUE(range.ok()) << pred.ToString();
    std::vector<Position> expected = testing::NaiveMatches(vals, pred);
    if (expected.empty()) {
      EXPECT_TRUE(range->empty()) << pred.ToString();
    } else {
      EXPECT_EQ(range->begin, expected.front()) << pred.ToString();
      EXPECT_EQ(range->end, expected.back() + 1) << pred.ToString();
      EXPECT_EQ(range->length(), expected.size()) << pred.ToString();
    }
  }
  // NotEqual cannot be one range.
  EXPECT_FALSE(reader->SupportsIndexLookup(Predicate::NotEqual(3)));
  EXPECT_FALSE(reader->PositionRangeFor(Predicate::NotEqual(3)).ok());
}

INSTANTIATE_TEST_SUITE_P(Encodings, IndexLookupTest,
                         ::testing::Values(Encoding::kUncompressed,
                                           Encoding::kRle,
                                           Encoding::kBitVector,
                                           Encoding::kDict));

TEST_F(CodecTest, UnsortedColumnRefusesIndexLookup) {
  std::vector<Value> vals = {5, 1, 9, 2};
  auto reader = WriteAndOpen("unsorted", Encoding::kUncompressed, vals);
  EXPECT_FALSE(reader->meta().sorted);
  EXPECT_FALSE(reader->SupportsIndexLookup(Predicate::LessThan(3)));
  EXPECT_FALSE(reader->LowerBound(3, false).ok());
}

TEST_F(CodecTest, SortedDetectionSurvivesRuns) {
  auto w = ColumnWriter::Create(files_.get(), "sruns", Encoding::kRle);
  ASSERT_TRUE(w.ok());
  ASSERT_OK((*w)->AppendRun(1, 100));
  ASSERT_OK((*w)->AppendRun(5, 100));
  ASSERT_OK((*w)->AppendRun(5, 50));
  ASSERT_OK_AND_ASSIGN(codec::ColumnMeta meta, (*w)->Finish());
  EXPECT_TRUE(meta.sorted);

  auto w2 = ColumnWriter::Create(files_.get(), "nruns", Encoding::kRle);
  ASSERT_TRUE(w2.ok());
  ASSERT_OK((*w2)->AppendRun(5, 100));
  ASSERT_OK((*w2)->AppendRun(1, 100));
  ASSERT_OK_AND_ASSIGN(codec::ColumnMeta meta2, (*w2)->Finish());
  EXPECT_FALSE(meta2.sorted);
}

TEST_F(CodecTest, CorruptSidecarRejected) {
  std::vector<char> garbage = {'x', 'y', 'z'};
  EXPECT_FALSE(codec::ColumnMeta::Deserialize(garbage).ok());
}

TEST_F(CodecTest, AppendRunFastPath) {
  auto writer_r = ColumnWriter::Create(files_.get(), "runs", Encoding::kRle);
  ASSERT_TRUE(writer_r.ok());
  auto writer = std::move(writer_r).value();
  ASSERT_OK(writer->AppendRun(7, 10000));
  ASSERT_OK(writer->AppendRun(8, 1));
  ASSERT_OK(writer->AppendRun(8, 4999));  // extends the same run
  ASSERT_OK_AND_ASSIGN(codec::ColumnMeta meta, writer->Finish());
  EXPECT_EQ(meta.num_values, 15000u);
  EXPECT_EQ(meta.num_runs, 2u);

  auto reader_r = ColumnReader::Open(files_.get(), pool_.get(), "runs");
  ASSERT_TRUE(reader_r.ok());
  auto all = ReadAll(**reader_r);
  ASSERT_EQ(all.size(), 15000u);
  EXPECT_EQ(all[0], 7);
  EXPECT_EQ(all[9999], 7);
  EXPECT_EQ(all[10000], 8);
  EXPECT_EQ(all[14999], 8);
}

// --- Word-at-a-time predicate kernels ---

/// Packs `vals` into one in-memory block of `enc` (uncompressed, RLE or
/// dictionary) covering positions [start, start + vals.size()).
void PackBlock(Encoding enc, Position start, const std::vector<Value>& vals,
               storage::Page* page) {
  storage::BlockHeader* h = page->header();
  h->magic = storage::BlockHeader::kMagic;
  h->encoding = static_cast<uint8_t>(enc);
  h->num_values = static_cast<uint32_t>(vals.size());
  h->start_pos = start;
  std::vector<char> payload;
  auto append = [&payload](const void* src, size_t len) {
    const char* c = static_cast<const char*>(src);
    payload.insert(payload.end(), c, c + len);
  };
  switch (enc) {
    case Encoding::kUncompressed:
      append(vals.data(), vals.size() * sizeof(Value));
      break;
    case Encoding::kRle: {
      std::vector<codec::RleTriple> runs;
      for (size_t i = 0; i < vals.size(); ++i) {
        if (i > 0 && vals[i] == vals[i - 1]) {
          ++runs.back().len;
        } else {
          runs.push_back(codec::RleTriple{vals[i], start + i, 1});
        }
      }
      append(runs.data(), runs.size() * sizeof(codec::RleTriple));
      break;
    }
    case Encoding::kDict: {
      std::vector<Value> dict = vals;
      std::sort(dict.begin(), dict.end());
      dict.erase(std::unique(dict.begin(), dict.end()), dict.end());
      const codec::DictPayloadHeader ph{static_cast<uint32_t>(dict.size()), 0};
      append(&ph, sizeof(ph));
      append(dict.data(), dict.size() * sizeof(Value));
      for (Value v : vals) {
        const auto code = static_cast<uint16_t>(
            std::lower_bound(dict.begin(), dict.end(), v) - dict.begin());
        append(&code, sizeof(code));
      }
      break;
    }
    case Encoding::kBitVector:
      FAIL() << "bit-vector blocks are not packed here";
  }
  ASSERT_LE(payload.size(), storage::kPagePayloadSize);
  h->payload_len = static_cast<uint32_t>(payload.size());
  std::memcpy(page->payload(), payload.data(), payload.size());
}

/// Positions of [lo, hi) (block offsets from `start`) whose value passes.
std::vector<Position> PerValueMatches(const std::vector<Value>& vals,
                                      Position start, Position lo,
                                      Position hi, const Predicate& pred) {
  std::vector<Position> out;
  for (Position p = lo; p < hi; ++p) {
    if (pred.Eval(vals[p - start])) out.push_back(p);
  }
  return out;
}

TEST(PredicateKernelTest, WordKernelsMatchPerValueEval) {
  // 5 013 values: the block's length is off the 64-position grid. One block
  // starts on the grid (a read-store block); the other starts at 150 000,
  // off it, as a write-store tail block does after 150 000 read-store rows.
  const size_t n = 5013;
  for (Position start : {Position{3 * 8128}, Position{150000}}) {
    const Position end = start + n;
    // Builder windows: the block itself; one holding the block's start and
    // ending mid-block, mid-word; one starting mid-block, mid-word; one
    // position.
    const position::Range windows[] = {{start, end},
                                       {start - 1000, start + 2000},
                                       {start + 2001, end + 77},
                                       {start + 129, start + 130}};
    // Refine ranges that start and end mid-word.
    const std::vector<position::Range> refine = {{start + 3, start + 70},
                                                 {start + 130, start + 131},
                                                 {start + 200, start + 1000},
                                                 {start + 1001, end - 5}};
    for (Encoding enc :
         {Encoding::kUncompressed, Encoding::kDict, Encoding::kRle}) {
      // Short runs push the builder into a bitmap; long runs keep it ranged.
      for (double run_len : {3.0, 200.0}) {
        const std::vector<Value> vals = testing::RunnyValues(
            n, 10, run_len, 53 + static_cast<uint64_t>(run_len));
        storage::Page page;
        PackBlock(enc, start, vals, &page);
        ASSERT_OK_AND_ASSIGN(codec::BlockView view,
                             codec::BlockView::FromPage(page));
        ASSERT_EQ(view.start_pos(), start);
        ASSERT_EQ(view.end_pos(), end);
        for (const Predicate& pred : testing::OnePredicatePerOp(4, 6)) {
          const std::string where = std::string(codec::EncodingName(enc)) +
                                    " start " + std::to_string(start) +
                                    " run " + std::to_string(run_len) + " " +
                                    pred.ToString();
          for (const position::Range& w : windows) {
            const Position lo = std::max(w.begin, start);
            const Position hi = std::min(w.end, end);
            position::SetBuilder builder(w.begin, w.end);
            const uint64_t evals = view.EvalPredicate(pred, &builder, nullptr);
            position::PositionSet got = std::move(builder).Build();
            const std::vector<Position> want =
                PerValueMatches(vals, start, lo, hi, pred);
            EXPECT_EQ(got.ToVector(), want) << where << " window " << w.begin;
            // Per value, per overlapped run, or once per dictionary entry.
            uint64_t want_evals = hi - lo;
            if (enc == Encoding::kRle) {
              want_evals = 0;
              for (Position p = lo; p < hi; ++p) {
                want_evals += p == lo || vals[p - start] != vals[p - 1 - start];
              }
            } else if (enc == Encoding::kDict) {
              want_evals = std::set<Value>(vals.begin(), vals.end()).size();
            }
            EXPECT_EQ(evals, want_evals) << where << " window " << w.begin;
            // The same positions added one range at a time pick the same
            // representation.
            position::SetBuilder by_range(w.begin, w.end);
            got.ForEachRange(
                [&](Position b, Position e) { by_range.AddRange(b, e); });
            EXPECT_EQ(got.rep(), std::move(by_range).Build().rep()) << where;
          }

          position::SetBuilder builder(start - 37, end + 11);
          const uint64_t evals =
              view.EvalPredicateAt(pred, refine, &builder);
          std::vector<Position> want;
          uint64_t want_evals = 0;
          for (const position::Range& r : refine) {
            const std::vector<Position> part =
                PerValueMatches(vals, start, r.begin, r.end, pred);
            want.insert(want.end(), part.begin(), part.end());
            want_evals += r.end - r.begin;
          }
          EXPECT_EQ(std::move(builder).Build().ToVector(), want)
              << where << " refine";
          EXPECT_EQ(evals, want_evals) << where << " refine";
        }
      }
    }
  }
}

TEST(PredicateKernelTest, AddWordMatchesAddRangeAtEveryOffset) {
  // Every shift of a word against the window's 64-position grid, in both
  // builder representations.
  Random rng(59);
  for (Position shift = 0; shift < 64; ++shift) {
    for (uint64_t density : {2u, 40u}) {
      const Position wb = 1000 * 64;
      position::SetBuilder words(wb, wb + 40 * 64);
      position::SetBuilder ranges(wb, wb + 40 * 64);
      for (Position base = wb + shift; base + 64 <= wb + 40 * 64;
           base += 64) {
        uint64_t word = 0;
        for (int j = 0; j < 64; ++j) {
          if (rng.Uniform(density) != 0) word |= uint64_t{1} << j;
        }
        words.AddWord(base, word);
        for (int j = 0; j < 64; ++j) {
          if ((word >> j) & 1) ranges.Add(base + j);
        }
      }
      position::PositionSet a = std::move(words).Build();
      position::PositionSet b = std::move(ranges).Build();
      EXPECT_EQ(a.rep(), b.rep()) << "shift " << shift;
      EXPECT_EQ(a.ToVector(), b.ToVector()) << "shift " << shift;
    }
  }
}

}  // namespace
}  // namespace cstore
