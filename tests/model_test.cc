// Cost-model tests: formula sanity (Figures 1-6), monotonicity properties,
// plan-prediction behaviour matching the paper's qualitative claims, the
// calibrator, and the advisor's choices.

#include <cmath>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "model/advisor.h"
#include "model/calibrate.h"
#include "model/cost_model.h"
#include "test_util.h"

namespace cstore {
namespace {

using model::Advisor;
using model::ColumnStats;
using model::Cost;
using model::CostParams;
using model::SelectionModelInput;
using plan::Strategy;

ColumnStats MakeCol(double blocks, double tuples, double rl = 1.0,
                    codec::Encoding enc = codec::Encoding::kUncompressed) {
  ColumnStats c;
  c.num_blocks = blocks;
  c.num_tuples = tuples;
  c.run_length = rl;
  c.encoding = enc;
  return c;
}

CostParams Paper() { return CostParams::Paper2006(); }

TEST(CostModelTest, DS1MatchesHandComputedFormula) {
  CostParams p = Paper();
  ColumnStats col = MakeCol(10, 80000, 4.0);
  col.fraction_cached = 0.0;
  Cost c = model::DS1Cost(col, 0.5, p);
  double cpu = 10 * p.bic + 80000 * (p.tic_col + p.fc) / 4.0 +
               0.5 * 80000 * p.fc;
  double io = (10 / p.pf * p.seek + 10 * p.read);
  EXPECT_DOUBLE_EQ(c.cpu, cpu);
  EXPECT_DOUBLE_EQ(c.io, io);
}

TEST(CostModelTest, IndexScanMatchesHandComputedFormula) {
  CostParams p = Paper();
  // 150 000 sorted uncompressed values in 19 blocks; `=` has two bounds.
  ColumnStats col = MakeCol(19, 150000);
  Cost c = model::IndexScanCost(col, 2, p);
  // Per bound: binary search over 19 block first values, the boundary
  // block, binary search over its 150000 / 19 values.
  double search = std::log2(20.0) * p.fc + p.bic +
                  std::log2(1.0 + 150000.0 / 19.0) * p.fc;
  // One range descriptor per window: ceil(150000 / 65536) = 3.
  ASSERT_EQ(kChunkPositions, Position{65536});
  double windows = 3 * (p.tic_col + p.fc);
  EXPECT_DOUBLE_EQ(c.cpu, 2 * search + windows);
  EXPECT_DOUBLE_EQ(c.io, 2 * (p.seek + p.read));  // cold boundary blocks

  // A one-sided range searches once; a cached column reads nothing.
  col.fraction_cached = 1.0;
  Cost one = model::IndexScanCost(col, 1, p);
  EXPECT_DOUBLE_EQ(one.cpu, search + windows);
  EXPECT_DOUBLE_EQ(one.io, 0.0);

  // RLE: the in-block search runs over the block's runs, not its values.
  ColumnStats rle = MakeCol(2, 600000, 80, codec::Encoding::kRle);
  double rle_search = std::log2(3.0) * p.fc + p.bic +
                      std::log2(1.0 + 600000.0 / (2 * 80.0)) * p.fc;
  EXPECT_DOUBLE_EQ(model::IndexScanCost(rle, 2, p).cpu,
                   2 * rle_search + 10 * (p.tic_col + p.fc));

  // No predicate: no search at all, only the descriptors.
  EXPECT_DOUBLE_EQ(model::IndexScanCost(rle, 0, p).cpu,
                   10 * (p.tic_col + p.fc));
}

TEST(CostModelTest, DS2ChargesTupleIteratorOnOutput) {
  CostParams p = Paper();
  ColumnStats col = MakeCol(10, 80000);
  Cost c1 = model::DS1Cost(col, 0.5, p);
  Cost c2 = model::DS2Cost(col, 0.5, p);
  // Case 2's step 5 costs (TIC_TUP + FC) instead of FC per match.
  EXPECT_DOUBLE_EQ(c2.cpu - c1.cpu, 0.5 * 80000 * p.tic_tup);
  EXPECT_DOUBLE_EQ(c2.io, c1.io);
}

TEST(CostModelTest, DS3IoZeroWhenAlreadyAccessed) {
  CostParams p = Paper();
  ColumnStats col = MakeCol(10, 80000);
  Cost warm = model::DS3Cost(col, 1000, 10, 0.1, true, p);
  Cost cold = model::DS3Cost(col, 1000, 10, 0.1, false, p);
  EXPECT_DOUBLE_EQ(warm.io, 0.0);
  EXPECT_GT(cold.io, 0.0);
  EXPECT_DOUBLE_EQ(warm.cpu, cold.cpu);
}

TEST(CostModelTest, DS3RangedPositionsCheaperThanSingles) {
  CostParams p = Paper();
  ColumnStats col = MakeCol(10, 80000);
  Cost ranged = model::DS3Cost(col, 10000, 10000, 1.0, true, p);
  Cost singles = model::DS3Cost(col, 10000, 1, 1.0, true, p);
  EXPECT_LT(ranged.cpu, singles.cpu);
}

TEST(CostModelTest, AndBitInputsUseWordParallelism) {
  CostParams p = Paper();
  // Fragmented lists: bit-string AND should be much cheaper than per-run
  // iteration at run length 1.
  Cost ranges = model::AndCost({50000, 50000}, {1.0, 1.0}, false, p);
  Cost bits = model::AndCost({50000, 50000}, {1.0, 1.0}, true, p);
  EXPECT_LT(bits.cpu, ranges.cpu / 4);
}

TEST(CostModelTest, MergeLinearInValuesAndWidth) {
  CostParams p = Paper();
  EXPECT_DOUBLE_EQ(model::MergeCost(1000, 2, p).cpu,
                   2 * model::MergeCost(500, 2, p).cpu);
  EXPECT_DOUBLE_EQ(model::MergeCost(1000, 4, p).cpu,
                   2 * model::MergeCost(1000, 2, p).cpu);
}

TEST(CostModelTest, SpcShortCircuitReflectedInCost) {
  CostParams p = Paper();
  std::vector<ColumnStats> cols = {MakeCol(10, 80000), MakeCol(10, 80000)};
  // A selective first predicate shrinks the work on the second column.
  Cost selective = model::SpcCost(cols, {0.01, 0.9}, p);
  Cost permissive = model::SpcCost(cols, {0.9, 0.01}, p);
  EXPECT_LT(selective.cpu, permissive.cpu);
  EXPECT_DOUBLE_EQ(selective.io, permissive.io);  // always a full scan
}

TEST(CostModelTest, PositionRunLength) {
  EXPECT_DOUBLE_EQ(model::PositionRunLength(0.5, 100, true), 100.0);
  EXPECT_DOUBLE_EQ(model::PositionRunLength(0.5, 100, false), 2.0);
  EXPECT_NEAR(model::PositionRunLength(0.96, 100, false), 25.0, 1e-9);
  EXPECT_DOUBLE_EQ(model::PositionRunLength(1.0, 100, false), 100.0);
  EXPECT_DOUBLE_EQ(model::PositionRunLength(0.1, 0, false), 1.0);
}

class PredictionTest : public ::testing::Test {
 protected:
  SelectionModelInput RleInput() const {
    // The paper's Section 3.7 setup: both columns RLE, col1 clustered.
    SelectionModelInput in;
    in.col1 = MakeCol(1, 600000, 80, codec::Encoding::kRle);
    in.col2 = MakeCol(5, 600000, 12, codec::Encoding::kRle);
    in.sf1 = 0.5;
    in.sf2 = 0.96;
    in.col1_clustered = true;
    return in;
  }
};

TEST_F(PredictionTest, AllStrategiesFiniteAndPositive) {
  SelectionModelInput in = RleInput();
  for (Strategy s : plan::kAllStrategies) {
    Cost c = model::PredictSelection(s, in, Paper());
    EXPECT_GT(c.total(), 0.0) << StrategyName(s);
    EXPECT_LT(c.total(), 1e12) << StrategyName(s);
  }
}

TEST_F(PredictionTest, MonotoneInSelectivity) {
  SelectionModelInput in = RleInput();
  for (Strategy s : plan::kAllStrategies) {
    double prev = -1;
    for (double sf1 : {0.0, 0.25, 0.5, 0.75, 1.0}) {
      in.sf1 = sf1;
      double t = model::PredictSelection(s, in, Paper()).total();
      EXPECT_GE(t, prev) << StrategyName(s) << " at sf1=" << sf1;
      prev = t;
    }
  }
}

TEST_F(PredictionTest, LmPipelinedWinsAtLowSelectivityClustered) {
  SelectionModelInput in = RleInput();
  in.sf1 = 0.01;
  CostParams p = Paper();
  double lm_pipe =
      model::PredictSelection(Strategy::kLmPipelined, in, p).total();
  double em_par =
      model::PredictSelection(Strategy::kEmParallel, in, p).total();
  EXPECT_LT(lm_pipe, em_par);
}

TEST_F(PredictionTest, EmParallelIoIndependentOfSelectivity) {
  SelectionModelInput in = RleInput();
  CostParams p = Paper();
  in.sf1 = 0.0;
  double io_low = model::PredictSelection(Strategy::kEmParallel, in, p).io;
  in.sf1 = 1.0;
  double io_high = model::PredictSelection(Strategy::kEmParallel, in, p).io;
  EXPECT_DOUBLE_EQ(io_low, io_high);
}

TEST_F(PredictionTest, LmPipelinedIoScalesWithSelectivity) {
  SelectionModelInput in = RleInput();
  in.col2 = MakeCol(74, 600000, 1, codec::Encoding::kUncompressed);
  CostParams p = Paper();
  in.sf1 = 0.01;
  double io_low = model::PredictSelection(Strategy::kLmPipelined, in, p).io;
  in.sf1 = 1.0;
  double io_high = model::PredictSelection(Strategy::kLmPipelined, in, p).io;
  EXPECT_LT(io_low, io_high / 10);
}

TEST_F(PredictionTest, AggregationMakesLmFlat) {
  // The paper's Figure 12(b) shape: with aggregation, LM on RLE data is
  // nearly selectivity-independent while EM keeps growing.
  SelectionModelInput in = RleInput();
  CostParams p = Paper();
  double groups = 2500;

  in.sf1 = 0.1;
  double lm_low =
      model::PredictAggregation(Strategy::kLmParallel, in, groups, p).total();
  double em_low =
      model::PredictAggregation(Strategy::kEmParallel, in, groups, p).total();
  in.sf1 = 1.0;
  double lm_high =
      model::PredictAggregation(Strategy::kLmParallel, in, groups, p).total();
  double em_high =
      model::PredictAggregation(Strategy::kEmParallel, in, groups, p).total();

  EXPECT_LT(lm_high, em_high);                 // LM beats EM
  EXPECT_LT(lm_high - lm_low, em_high - em_low);  // and is flatter
}

TEST_F(PredictionTest, AggregationCheaperThanSelectionForLm) {
  // Constructing only group tuples must not cost more than constructing
  // every output tuple.
  SelectionModelInput in = RleInput();
  CostParams p = Paper();
  double sel =
      model::PredictSelection(Strategy::kLmParallel, in, p).total();
  double agg =
      model::PredictAggregation(Strategy::kLmParallel, in, 2500, p).total();
  EXPECT_LT(agg, sel);
}

// --- Join model (two-phase: serial build + parallel probe) ------------------

model::JoinModelInput JoinInput(int workers) {
  model::JoinModelInput in;
  in.left_key = MakeCol(40, 300000);
  in.left_payload = MakeCol(40, 300000);
  in.sf = 0.5;
  in.right_key = MakeCol(4, 30000);
  in.right_payload = MakeCol(4, 30000);
  in.num_workers = workers;
  return in;
}

TEST(JoinModelTest, BuildIsNeverDiscountedByWorkers) {
  CostParams p = Paper();
  for (exec::JoinRightMode mode :
       {exec::JoinRightMode::kMaterialized, exec::JoinRightMode::kMultiColumn,
        exec::JoinRightMode::kSingleColumn}) {
    Cost build1, probe1, build4, probe4;
    Cost total1 = model::PredictJoin(mode, JoinInput(1), p, &build1, &probe1);
    Cost total4 = model::PredictJoin(mode, JoinInput(4), p, &build4, &probe4);
    // The phases themselves don't depend on the worker count...
    EXPECT_DOUBLE_EQ(build1.cpu, build4.cpu);
    EXPECT_DOUBLE_EQ(probe1.cpu, probe4.cpu);
    // ...the total discounts only the probe CPU: serial total = build +
    // probe; 4-worker total = build + probe * factor. So the modelled
    // speedup is strictly below the probe-only factor (Amdahl).
    EXPECT_DOUBLE_EQ(total1.cpu, build1.cpu + probe1.cpu);
    EXPECT_DOUBLE_EQ(total4.cpu,
                     build4.cpu + probe4.cpu * model::ParallelCpuFactor(4));
    EXPECT_LT(total4.cpu, total1.cpu);
    EXPECT_GT(total4.cpu, build1.cpu);  // the serial floor
  }
}

TEST(JoinModelTest, ModePredictionsMatchPaperOrdering) {
  CostParams p = Paper();
  model::JoinModelInput in = JoinInput(1);
  Cost mat = model::PredictJoin(exec::JoinRightMode::kMaterialized, in, p);
  Cost sc = model::PredictJoin(exec::JoinRightMode::kSingleColumn, in, p);
  // At sf=0.5 the single-column mode's out-of-order payload fetches charge
  // per-access seeks; it must predict worse than constructing inner tuples
  // up front (Figure 13's crossover is at much lower selectivity).
  EXPECT_GT(sc.total(), mat.total());
  // Multi-column reads both inner columns at build; single-column only the
  // key — its build must be the cheaper of the two.
  Cost mc_build, sc_build;
  model::PredictJoin(exec::JoinRightMode::kMultiColumn, in, p, &mc_build);
  model::PredictJoin(exec::JoinRightMode::kSingleColumn, in, p, &sc_build);
  EXPECT_LT(sc_build.total(), mc_build.total());
}

TEST(AdvisorTest, JoinRankingAndExplain) {
  Advisor advisor(Paper());
  model::JoinModelInput in = JoinInput(4);
  std::vector<model::JoinPrediction> ranked = advisor.RankJoin(in);
  ASSERT_EQ(ranked.size(), 3u);
  EXPECT_LE(ranked[0].cost.total(), ranked[1].cost.total());
  EXPECT_LE(ranked[1].cost.total(), ranked[2].cost.total());
  EXPECT_EQ(advisor.ChooseJoinMode(in), ranked[0].mode);
  std::string report = advisor.ExplainJoin(in);
  EXPECT_NE(report.find("<- chosen"), std::string::npos);
  EXPECT_NE(report.find("build"), std::string::npos);
  EXPECT_NE(report.find("4 probe workers"), std::string::npos);
}

TEST(CalibratorTest, ProducesPlausibleConstants) {
  model::Calibrator::Options opts;
  opts.loop_size = 1 << 18;
  opts.repetitions = 2;
  model::Calibrator cal(opts);
  storage::DiskModel disk;  // disabled
  CostParams p = cal.Run(disk);
  // All CPU constants positive and below a microsecond on any sane machine.
  EXPECT_GT(p.fc, 0.0);
  EXPECT_LT(p.fc, 1.0);
  EXPECT_GT(p.tic_col, 0.0);
  EXPECT_GT(p.tic_tup, 0.0);
  EXPECT_GT(p.bic, 0.0);
  // Disk off → I/O constants zero.
  EXPECT_DOUBLE_EQ(p.seek, 0.0);
  EXPECT_DOUBLE_EQ(p.read, 0.0);
  EXPECT_EQ(p.word_bits, kWordBits);
}

TEST(CalibratorTest, UsesDiskModelWhenEnabled) {
  model::Calibrator::Options opts;
  opts.loop_size = 1 << 16;
  opts.repetitions = 1;
  model::Calibrator cal(opts);
  storage::DiskModel::Params dp;
  dp.enabled = true;
  dp.seek_micros = 1234;
  dp.read_micros = 567;
  storage::DiskModel disk(dp);
  CostParams p = cal.Run(disk);
  EXPECT_DOUBLE_EQ(p.seek, 1234.0);
  EXPECT_DOUBLE_EQ(p.read, 567.0);
}

TEST(CalibratorTest, ForProcessMeasuresOnceAcrossThreads) {
  // Every caller — from any thread, for any database — gets the same CPU
  // constants; only the I/O constants follow the DiskModel passed in.
  storage::DiskModel off;
  std::vector<CostParams> got(4);
  std::vector<std::thread> threads;
  for (size_t i = 0; i < got.size(); ++i) {
    threads.emplace_back(
        [&got, &off, i] { got[i] = model::Calibrator::ForProcess(off); });
  }
  for (std::thread& t : threads) t.join();
  storage::DiskModel::Params dp;
  dp.enabled = true;
  dp.seek_micros = 1234;
  dp.read_micros = 567;
  got.push_back(model::Calibrator::ForProcess(storage::DiskModel(dp)));
  for (const CostParams& p : got) {
    EXPECT_GT(p.fc, 0.0);
    EXPECT_DOUBLE_EQ(p.fc, got[0].fc);
    EXPECT_DOUBLE_EQ(p.tic_col, got[0].tic_col);
    EXPECT_DOUBLE_EQ(p.tic_tup, got[0].tic_tup);
    EXPECT_DOUBLE_EQ(p.bic, got[0].bic);
  }
  EXPECT_DOUBLE_EQ(got[0].seek, 0.0);
  EXPECT_DOUBLE_EQ(got.back().seek, 1234.0);
  EXPECT_DOUBLE_EQ(got.back().read, 567.0);
}

TEST(AdvisorTest, RanksAllFourStrategies) {
  Advisor advisor(Paper());
  SelectionModelInput in;
  in.col1 = MakeCol(3, 600000, 80, codec::Encoding::kRle);
  in.col2 = MakeCol(74, 600000, 1, codec::Encoding::kUncompressed);
  in.sf1 = 0.5;
  in.sf2 = 0.96;
  auto ranked = advisor.RankSelection(in);
  ASSERT_EQ(ranked.size(), 4u);
  for (size_t i = 1; i < ranked.size(); ++i) {
    if (ranked[i - 1].supported && ranked[i].supported) {
      EXPECT_LE(ranked[i - 1].cost.total(), ranked[i].cost.total());
    }
  }
}

TEST(AdvisorTest, BitVectorDemotesLmPipelined) {
  Advisor advisor(Paper());
  SelectionModelInput in;
  in.col1 = MakeCol(3, 600000, 80, codec::Encoding::kRle);
  in.col2 = MakeCol(20, 600000, 1, codec::Encoding::kBitVector);
  in.sf1 = 0.01;  // would otherwise favour pipelined LM
  auto ranked = advisor.RankSelection(in);
  EXPECT_FALSE(ranked.back().supported);
  EXPECT_EQ(ranked.back().strategy, Strategy::kLmPipelined);
  EXPECT_NE(advisor.ChooseSelection(in), Strategy::kLmPipelined);
}

TEST(AdvisorTest, PlannerVerdictDecidesLmPipelined) {
  // The SQL front end hands the advisor the planner's verdict over every
  // filter: a bit-vector third filter refuses LM-pipelined although col2
  // is plain, and an output-only bit-vector col2 (gathered, never
  // position-filtered) leaves it legal.
  Advisor advisor(Paper());
  SelectionModelInput in;
  in.col1 = MakeCol(3, 600000, 80, codec::Encoding::kRle);
  in.col2 = MakeCol(74, 600000, 1, codec::Encoding::kUncompressed);
  in.sf1 = 0.01;
  in.lm_pipelined_supported = false;
  EXPECT_EQ(advisor.RankSelection(in).back().strategy,
            Strategy::kLmPipelined);
  EXPECT_FALSE(advisor.RankSelection(in).back().supported);
  EXPECT_FALSE(advisor.RankAggregation(in, 10).back().supported);
  EXPECT_FALSE(advisor.RankSort(in, 10).back().supported);
  EXPECT_NE(Advisor::Heuristic(in, true), Strategy::kLmPipelined);

  in.col2 = MakeCol(20, 600000, 1, codec::Encoding::kBitVector);
  in.sf2 = 1.0;
  in.lm_pipelined_supported = true;
  for (const model::StrategyPrediction& p : advisor.RankSelection(in)) {
    EXPECT_TRUE(p.supported) << StrategyName(p.strategy);
  }
}

/// SELECT k, v FROM t WHERE k = c over 150 000 rows stored sorted by k
/// (uncompressed, 10 rows per key; v unpredicated), warm: the CPU terms
/// decide, as in a server with disk simulation off.
SelectionModelInput SortedPointLookup() {
  SelectionModelInput in;
  in.col1 = MakeCol(19, 150000);
  in.col2 = MakeCol(19, 150000);
  in.sf1 = 10.0 / 150000;
  in.sf2 = 1.0;
  in.col1_clustered = true;
  in.col1_index = true;
  in.bounds1 = 2;
  in.bounds2 = 0;
  return in;
}

CostParams WarmParams() {
  CostParams p = Paper();
  p.seek = 0;
  p.read = 0;
  return p;
}

TEST(AdvisorTest, SortedPointLookupRanksLmPipelinedFirst) {
  Advisor advisor(WarmParams());
  SelectionModelInput in = SortedPointLookup();
  for (int workers : {1, 2}) {
    in.num_workers = workers;
    std::vector<model::StrategyPrediction> ranked = advisor.RankSelection(in);
    EXPECT_EQ(ranked.front().strategy, Strategy::kLmPipelined) << workers;
    EXPECT_EQ(advisor.ChooseSelection(in), Strategy::kLmPipelined);
  }
  EXPECT_NE(advisor.ExplainSelection(in).find(
                "clustered, index-scan} col2{uncompressed, |C|=19, RL=1.0, "
                "sf=1.000}"),
            std::string::npos)
      << advisor.ExplainSelection(in);

  // Priced as a full scan of k — what the planner does once the index is
  // off — the same lookup ranks EM-parallel first.
  in.col1_index = false;
  EXPECT_EQ(advisor.ChooseSelection(in), Strategy::kEmParallel);
  EXPECT_EQ(advisor.ExplainSelection(in).find("index-scan"),
            std::string::npos);
}

TEST(AdvisorTest, IndexTermReachesAggregationAndSort) {
  // PredictAggregation and PredictSort build on the selection prediction,
  // so the index lookup is cheaper there too, and an LM aggregation still
  // costs less than the LM selection it replaces the top of.
  CostParams p = WarmParams();
  SelectionModelInput indexed = SortedPointLookup();
  SelectionModelInput scanned = indexed;
  scanned.col1_index = false;
  for (Strategy s : {Strategy::kLmParallel, Strategy::kLmPipelined}) {
    EXPECT_LT(model::PredictAggregation(s, indexed, 1, p).total(),
              model::PredictAggregation(s, scanned, 1, p).total())
        << StrategyName(s);
    EXPECT_LT(model::PredictAggregation(s, indexed, 1, p).total(),
              model::PredictSelection(s, indexed, p).total())
        << StrategyName(s);
    EXPECT_LT(model::PredictSort(s, indexed, 5, p).total(),
              model::PredictSort(s, scanned, 5, p).total())
        << StrategyName(s);
  }
  Advisor advisor(p);
  EXPECT_EQ(advisor.RankAggregation(indexed, 1).front().strategy,
            Strategy::kLmPipelined);
  EXPECT_EQ(advisor.RankSort(indexed, 5).front().strategy,
            Strategy::kLmPipelined);
}

TEST(AdvisorTest, IndexAnsweredColumnPaysMergeIo) {
  // The merge's DS3 over an index-answered column is not already accessed:
  // cold, it pays that column's I/O, which a scanned column's mini-columns
  // saved.
  CostParams p = Paper();
  SelectionModelInput in = SortedPointLookup();
  in.sf1 = 0.5;
  in.bounds1 = 1;
  Cost indexed = model::PredictSelection(Strategy::kLmParallel, in, p);
  in.col1_index = false;
  Cost scanned = model::PredictSelection(Strategy::kLmParallel, in, p);
  Cost ds1 = model::DS1Cost(in.col1, in.sf1, p);
  Cost index = model::IndexScanCost(in.col1, 1, p);
  Cost ds3_cold = model::DS3Cost(in.col1, 75000, 75000, 0.5, false, p);
  EXPECT_DOUBLE_EQ(indexed.io - scanned.io,
                   index.io - ds1.io + ds3_cold.io);
}

TEST(AdvisorTest, IndexAnsweredBitVectorCol2KeepsLmPipelined) {
  // The planner refines by an index-answered col2 without position-filtering
  // its bit-vectors, so LM-pipelined stays supported.
  Advisor advisor(Paper());
  SelectionModelInput in;
  in.col1 = MakeCol(3, 600000, 80, codec::Encoding::kRle);
  in.col2 = MakeCol(20, 600000, 1, codec::Encoding::kBitVector);
  in.sf1 = 0.01;
  in.col2_index = true;
  in.bounds2 = 1;
  for (const model::StrategyPrediction& pred : advisor.RankSelection(in)) {
    EXPECT_TRUE(pred.supported) << StrategyName(pred.strategy);
  }
  EXPECT_EQ(Advisor::Heuristic(in, false), Strategy::kLmPipelined);
  std::string report = advisor.ExplainSelection(in);
  EXPECT_EQ(report.find("unsupported"), std::string::npos) << report;
  EXPECT_NE(report.find("bitvector, |C|=20, RL=1.0, sf=1.000, index-scan}"),
            std::string::npos)
      << report;
}

TEST(AdvisorTest, HeuristicFollowsPaperConclusion) {
  SelectionModelInput in;
  in.col1 = MakeCol(74, 600000, 1, codec::Encoding::kUncompressed);
  in.col2 = MakeCol(74, 600000, 1, codec::Encoding::kUncompressed);
  in.col1_clustered = true;

  // High selectivity, no aggregation, no compression → EM.
  in.sf1 = 0.9;
  in.sf2 = 0.96;
  EXPECT_EQ(Advisor::Heuristic(in, false), Strategy::kEmParallel);

  // Aggregated → LM.
  EXPECT_TRUE(plan::IsLate(Advisor::Heuristic(in, true)));

  // Highly selective → LM (pipelined for a clustered first predicate).
  in.sf1 = 0.01;
  EXPECT_EQ(Advisor::Heuristic(in, false), Strategy::kLmPipelined);

  // Light-weight compression → LM.
  in.sf1 = 0.9;
  in.col1.encoding = codec::Encoding::kRle;
  EXPECT_TRUE(plan::IsLate(Advisor::Heuristic(in, false)));
}

}  // namespace
}  // namespace cstore
