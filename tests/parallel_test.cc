// Morsel-driven parallel execution: determinism and thread-safety tests.
//
// The contract under test: for every materialization strategy, a query's
// result *bag* — output_tuples and the order-independent checksum — is
// bit-identical across num_workers ∈ {1, 2, 4}, and the num_workers=1 path
// equals pulling the plan directly, including tuple order.

#include <atomic>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "api/connection.h"
#include "db/database.h"
#include "exec/morsel_source.h"
#include "plan/executor.h"
#include "plan/parallel.h"
#include "plan/planner.h"
#include "test_util.h"
#include "tpch/loader.h"

namespace cstore {
namespace {

using plan::Strategy;
using testing::TempDir;

// SF 0.1 ≈ 600 K lineitem rows ≈ 10 chunk windows: enough for one morsel
// per window across 4 workers.
constexpr double kScaleFactor = 0.1;

class ParallelTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db::Database::Options opts;
    opts.dir = dir_.path();
    opts.pool_frames = 4096;
    auto db = db::Database::Open(opts);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    db_ = std::move(db).value();
    auto li = tpch::LoadLineitem(db_.get(), kScaleFactor);
    ASSERT_TRUE(li.ok()) << li.status().ToString();
    li_ = *li;
    ASSERT_GT(li_.num_rows, 4 * kChunkPositions)
        << "need several chunk windows for a meaningful parallel test";
  }

  /// Two-predicate selection over the lineitem slice. Column encodings are
  /// RLE (sorted shipdate) + uncompressed, which every strategy supports.
  plan::SelectionQuery MidSelectivityQuery() const {
    plan::SelectionQuery q;
    Value mid = (li_.shipdate->meta().min_value +
                 li_.shipdate->meta().max_value) /
                2;
    q.columns.push_back({li_.shipdate, codec::Predicate::LessThan(mid)});
    q.columns.push_back({li_.quantity, codec::Predicate::LessThan(30)});
    return q;
  }

  /// One-window-per-morsel config so 4 workers actually run concurrently.
  static plan::PlanConfig WorkerConfig(int workers) {
    plan::PlanConfig config;
    config.num_workers = workers;
    config.morsel_positions = kChunkPositions;
    return config;
  }

  TempDir dir_;
  std::unique_ptr<db::Database> db_;
  tpch::LineitemColumns li_;
};

TEST_F(ParallelTest, SelectionDeterministicAcrossWorkerCounts) {
  plan::SelectionQuery q = MidSelectivityQuery();
  for (Strategy s : plan::kAllStrategies) {
    ASSERT_OK_AND_ASSIGN(api::QueryResult serial,
                         api::Connection(db_.get()).Query(
                             plan::PlanTemplate::Selection(q, s,
                                                           WorkerConfig(1))));
    EXPECT_GT(serial.stats.output_tuples, 0u) << StrategyName(s);
    for (int workers : {2, 4}) {
      ASSERT_OK_AND_ASSIGN(api::QueryResult parallel,
                           api::Connection(db_.get()).Query(
                               plan::PlanTemplate::Selection(
                                   q, s, WorkerConfig(workers))));
      EXPECT_EQ(parallel.stats.output_tuples, serial.stats.output_tuples)
          << StrategyName(s) << " workers=" << workers;
      EXPECT_EQ(parallel.stats.checksum, serial.stats.checksum)
          << StrategyName(s) << " workers=" << workers;
      EXPECT_EQ(parallel.tuples.num_tuples(), serial.tuples.num_tuples())
          << StrategyName(s) << " workers=" << workers;
    }
  }
}

TEST_F(ParallelTest, SelectionWorkCountersIdenticalAcrossWorkerCounts) {
  // Morsels split the scan at chunk-window boundaries and every work
  // counter is kept per window, so a selection does the same counted work
  // at every worker count. One named exception: EM-pipelined's DS4 merge
  // refetches the block that straddles each morsel boundary — real extra
  // work, so its blocks_fetched may only grow. The chunk-pool counters
  // (scratch-buffer recycling per plan instance) are not work counters.
  const Value mid =
      (li_.shipdate->meta().min_value + li_.shipdate->meta().max_value) / 2;
  std::vector<plan::SelectionQuery> queries = {MidSelectivityQuery()};
  for (codec::Encoding e : {codec::Encoding::kUncompressed,
                            codec::Encoding::kRle,
                            codec::Encoding::kBitVector}) {
    plan::SelectionQuery q;
    q.columns.push_back({li_.shipdate, codec::Predicate::LessThan(mid)});
    q.columns.push_back({li_.linenum(e), codec::Predicate::LessThan(5)});
    queries.push_back(q);
  }
  // returnflag is one RLE block of three runs, far wider than a window:
  // DS2 clips it to each window and evaluates once per overlapped run, so
  // its counters still split exactly at window-aligned morsels.
  plan::SelectionQuery wide_rle;
  ASSERT_GT(li_.returnflag->meta().num_values,
            li_.returnflag->num_blocks() * kChunkPositions);
  wide_rle.columns.push_back(
      {li_.returnflag,
       codec::Predicate::LessThan(li_.returnflag->meta().max_value)});
  wide_rle.columns.push_back({li_.quantity, codec::Predicate::LessThan(30)});
  queries.push_back(wide_rle);
  api::Connection conn(db_.get());
  for (size_t qi = 0; qi < queries.size(); ++qi) {
    for (Strategy s : plan::kAllStrategies) {
      Result<api::QueryResult> serial = conn.Query(
          plan::PlanTemplate::Selection(queries[qi], s, WorkerConfig(1)));
      if (serial.status().IsNotSupported()) continue;  // LM-pipelined on BV
      ASSERT_OK(serial.status());
      const exec::ExecStats& want = serial->stats.exec;
      for (int workers : {2, 4}) {
        ASSERT_OK_AND_ASSIGN(
            api::QueryResult parallel,
            conn.Query(plan::PlanTemplate::Selection(queries[qi], s,
                                                     WorkerConfig(workers))));
        const exec::ExecStats& got = parallel.stats.exec;
        const std::string where = std::string(StrategyName(s)) + " query " +
                                  std::to_string(qi) + " workers=" +
                                  std::to_string(workers);
        if (s == Strategy::kEmPipelined) {
          EXPECT_GE(got.blocks_fetched, want.blocks_fetched) << where;
        } else {
          EXPECT_EQ(got.blocks_fetched, want.blocks_fetched) << where;
        }
        EXPECT_EQ(got.blocks_skipped, want.blocks_skipped) << where;
        EXPECT_EQ(got.predicate_evals, want.predicate_evals) << where;
        EXPECT_EQ(got.values_gathered, want.values_gathered) << where;
        EXPECT_EQ(got.tuples_constructed, want.tuples_constructed) << where;
        EXPECT_EQ(got.position_ands, want.position_ands) << where;
      }
    }
  }
}

TEST_F(ParallelTest, SingleWorkerMatchesDirectSerialExecutor) {
  plan::SelectionQuery q = MidSelectivityQuery();
  for (Strategy s : plan::kAllStrategies) {
    // The reference, independent of the executor: build the plan and pull
    // its root directly.
    ASSERT_OK_AND_ASSIGN(auto plan, plan::BuildSelectionPlan(q, s, {}));
    plan::RunStats direct;
    std::vector<std::pair<Position, Value>> direct_rows;
    exec::TupleChunk chunk;
    while (true) {
      ASSERT_OK_AND_ASSIGN(bool has, plan->root()->Next(&chunk));
      if (!has) break;
      direct.checksum += plan::ChunkDigest(chunk);
      direct.output_tuples += chunk.num_tuples();
      for (size_t i = 0; i < chunk.num_tuples(); ++i) {
        direct_rows.emplace_back(chunk.position(i), chunk.value(i, 0));
      }
    }

    ASSERT_OK_AND_ASSIGN(api::QueryResult via_template,
                         api::Connection(db_.get()).Query(
                             plan::PlanTemplate::Selection(q, s,
                                                           WorkerConfig(1))));
    EXPECT_EQ(via_template.stats.output_tuples, direct.output_tuples)
        << StrategyName(s);
    EXPECT_EQ(via_template.stats.checksum, direct.checksum)
        << StrategyName(s);
    // Serial path preserves exact tuple order, not just the bag.
    ASSERT_EQ(via_template.tuples.num_tuples(), direct_rows.size())
        << StrategyName(s);
    for (size_t i = 0; i < direct_rows.size(); ++i) {
      ASSERT_EQ(via_template.tuples.position(i), direct_rows[i].first)
          << StrategyName(s) << " row " << i;
      ASSERT_EQ(via_template.tuples.value(i, 0), direct_rows[i].second)
          << StrategyName(s) << " row " << i;
    }
  }
}

TEST_F(ParallelTest, AggregationDeterministicAcrossWorkerCounts) {
  plan::AggQuery q;
  q.selection = MidSelectivityQuery();
  q.group_index = 0;  // GROUP BY shipdate
  q.agg_index = 1;    // SUM(quantity)
  q.func = exec::AggFunc::kSum;
  for (Strategy s : plan::kAllStrategies) {
    ASSERT_OK_AND_ASSIGN(api::QueryResult serial,
                         api::Connection(db_.get()).Query(
                             plan::PlanTemplate::Agg(q, s, WorkerConfig(1))));
    EXPECT_GT(serial.stats.output_tuples, 0u) << StrategyName(s);
    for (int workers : {2, 4}) {
      ASSERT_OK_AND_ASSIGN(api::QueryResult parallel,
                           api::Connection(db_.get()).Query(
                               plan::PlanTemplate::Agg(q, s,
                                                       WorkerConfig(workers))));
      EXPECT_EQ(parallel.stats.output_tuples, serial.stats.output_tuples)
          << StrategyName(s) << " workers=" << workers;
      EXPECT_EQ(parallel.stats.checksum, serial.stats.checksum)
          << StrategyName(s) << " workers=" << workers;
      // Aggregate groups are emitted sorted, so even tuple order matches.
      ASSERT_EQ(parallel.tuples.num_tuples(), serial.tuples.num_tuples());
      for (size_t i = 0; i < serial.tuples.num_tuples(); ++i) {
        ASSERT_EQ(parallel.tuples.value(i, 0), serial.tuples.value(i, 0));
        ASSERT_EQ(parallel.tuples.value(i, 1), serial.tuples.value(i, 1));
      }
    }
  }
}

TEST_F(ParallelTest, AllAggFunctionsMergeExactly) {
  using exec::AggFunc;
  for (AggFunc func : {AggFunc::kSum, AggFunc::kCount, AggFunc::kMin,
                       AggFunc::kMax, AggFunc::kAvg}) {
    plan::AggQuery q;
    q.selection = MidSelectivityQuery();
    q.group_index = 0;
    q.agg_index = 1;
    q.func = func;
    ASSERT_OK_AND_ASSIGN(api::QueryResult serial,
                         api::Connection(db_.get()).Query(
                             plan::PlanTemplate::Agg(q, Strategy::kLmParallel,
                                                     WorkerConfig(1))));
    ASSERT_OK_AND_ASSIGN(api::QueryResult parallel,
                         api::Connection(db_.get()).Query(
                             plan::PlanTemplate::Agg(q, Strategy::kLmParallel,
                                                     WorkerConfig(4))));
    EXPECT_EQ(parallel.stats.checksum, serial.stats.checksum)
        << exec::AggFuncName(func);
    EXPECT_EQ(parallel.stats.output_tuples, serial.stats.output_tuples)
        << exec::AggFuncName(func);
  }
}

TEST_F(ParallelTest, GlobalAggregationMergesAcrossWorkers) {
  plan::AggQuery q;
  q.selection = MidSelectivityQuery();
  q.agg_index = 1;
  q.func = exec::AggFunc::kSum;
  q.global = true;
  ASSERT_OK_AND_ASSIGN(api::QueryResult serial,
                       api::Connection(db_.get()).Query(
                           plan::PlanTemplate::Agg(q, Strategy::kEmParallel,
                                                   WorkerConfig(1))));
  ASSERT_OK_AND_ASSIGN(api::QueryResult parallel,
                       api::Connection(db_.get()).Query(
                           plan::PlanTemplate::Agg(q, Strategy::kEmParallel,
                                                   WorkerConfig(4))));
  ASSERT_EQ(serial.tuples.num_tuples(), 1u);
  ASSERT_EQ(parallel.tuples.num_tuples(), 1u);
  EXPECT_EQ(parallel.tuples.value(0, 1), serial.tuples.value(0, 1));
  EXPECT_EQ(parallel.stats.checksum, serial.stats.checksum);
}

TEST(MorselSourceTest, CoversPositionSpaceExactlyOnce) {
  exec::MorselSource source(10 * kChunkPositions + 17, kChunkPositions);
  EXPECT_EQ(source.num_morsels(), 11u);
  position::Range r;
  Position covered = 0;
  Position expected_begin = 0;
  while (source.Next(&r)) {
    EXPECT_EQ(r.begin, expected_begin);
    EXPECT_EQ(r.begin % kChunkPositions, 0u);
    covered += r.length();
    expected_begin = r.end;
  }
  EXPECT_EQ(covered, 10 * kChunkPositions + 17);
}

TEST(MorselSourceTest, RoundsMorselSizeUpToChunkAlignment) {
  exec::MorselSource source(4 * kChunkPositions, kChunkPositions + 1);
  EXPECT_EQ(source.morsel_positions(), 2 * kChunkPositions);
  EXPECT_EQ(source.num_morsels(), 2u);
}

TEST(MorselSourceTest, CancelStopsHandingOutMorsels) {
  exec::MorselSource source(100 * kChunkPositions, kChunkPositions);
  position::Range r;
  ASSERT_TRUE(source.Next(&r));
  source.Cancel();
  EXPECT_FALSE(source.Next(&r));
}

TEST(MorselSourceTest, ConcurrentClaimsAreDisjointAndComplete) {
  const Position total = 64 * kChunkPositions;
  exec::MorselSource source(total, kChunkPositions);
  std::atomic<uint64_t> claimed{0};
  std::atomic<uint64_t> morsels{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&]() {
      position::Range r;
      while (source.Next(&r)) {
        claimed.fetch_add(r.length());
        morsels.fetch_add(1);
      }
    });
  }
  for (auto& t : threads) t.join();
  // fetch_add hands out each morsel exactly once, so lengths sum to the
  // whole position space.
  EXPECT_EQ(claimed.load(), total);
  EXPECT_EQ(morsels.load(), 64u);
}

TEST(BufferPoolConcurrencyTest, ConcurrentFetchesAccountEveryRequest) {
  TempDir dir;
  db::Database::Options opts;
  opts.dir = dir.path();
  opts.pool_frames = 64;
  auto db_or = db::Database::Open(opts);
  ASSERT_TRUE(db_or.ok());
  auto db = std::move(db_or).value();
  std::vector<Value> vals = testing::RunnyValues(200000, 1000, 4.0, 7);
  ASSERT_OK(db->CreateColumn("conc", codec::Encoding::kUncompressed, vals));
  ASSERT_OK_AND_ASSIGN(const codec::ColumnReader* col, db->GetColumn("conc"));

  db->pool()->ResetStats();
  const int kThreads = 8;
  const int kRounds = 4;
  std::atomic<uint64_t> fetches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&]() {
      for (int round = 0; round < kRounds; ++round) {
        for (uint64_t b = 0; b < col->num_blocks(); ++b) {
          auto blk = col->FetchBlock(b);
          ASSERT_TRUE(blk.ok());
          fetches.fetch_add(1);
          // Touch the payload so pins stay alive across real work.
          volatile Value v = blk->view.ValueAt(blk->view.start_pos());
          (void)v;
        }
      }
    });
  }
  for (auto& t : threads) t.join();

  storage::IoStats stats = db->pool()->stats();
  EXPECT_EQ(stats.cache_hits + stats.physical_reads, fetches.load());
  EXPECT_GE(stats.physical_reads, col->num_blocks());
}

}  // namespace
}  // namespace cstore
