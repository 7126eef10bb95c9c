// Shared-pool scheduler: concurrent mixed-query execution tests.
//
// The contract under test (src/sched/scheduler.h): K concurrent queries of
// mixed shapes (selections, aggregations, joins) and mixed materialization
// strategies, sharing one worker pool, each produce output_tuples and an
// order-independent checksum bit-identical to their serial (workers=1)
// runs; every ticket completes even when queries far outnumber workers;
// per-query ExecStats are not cross-contaminated by concurrent neighbors;
// and errors surface through the failing query's ticket without disturbing
// the rest of the batch.

#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "api/connection.h"
#include "db/database.h"
#include "exec/morsel_source.h"
#include "obs/query_log.h"
#include "plan/parallel.h"
#include "sched/scheduler.h"
#include "test_util.h"
#include "tpch/loader.h"

namespace cstore {
namespace {

using plan::Strategy;
using testing::TempDir;

// SF 0.1 ≈ 600 K lineitem rows ≈ 10 chunk windows: enough morsels that a
// 4-worker pool genuinely interleaves queries.
constexpr double kScaleFactor = 0.1;

/// One database shared by the whole suite (loading dominates test time).
class SchedTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    dir_ = new TempDir();
    db::Database::Options opts;
    opts.dir = dir_->path();
    opts.pool_frames = 4096;
    auto db = db::Database::Open(opts);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    db_ = std::move(db).value().release();
    auto li = tpch::LoadLineitem(db_, kScaleFactor);
    ASSERT_TRUE(li.ok()) << li.status().ToString();
    li_ = new tpch::LineitemColumns(*li);
    auto jc = tpch::LoadJoinTables(db_, kScaleFactor);
    ASSERT_TRUE(jc.ok()) << jc.status().ToString();
    jc_ = new tpch::JoinColumns(*jc);
  }

  static void TearDownTestSuite() {
    delete jc_;
    delete li_;
    delete db_;
    delete dir_;
    jc_ = nullptr;
    li_ = nullptr;
    db_ = nullptr;
    dir_ = nullptr;
  }

  static plan::SelectionQuery MidSelectivityQuery() {
    plan::SelectionQuery q;
    Value mid = (li_->shipdate->meta().min_value +
                 li_->shipdate->meta().max_value) /
                2;
    q.columns.push_back({li_->shipdate, codec::Predicate::LessThan(mid)});
    q.columns.push_back({li_->quantity, codec::Predicate::LessThan(30)});
    return q;
  }

  /// The mixed batch: selections and aggregations across all four
  /// strategies plus a join — every query shape the engine has.
  static std::vector<plan::PlanTemplate> MixedTemplates() {
    std::vector<plan::PlanTemplate> templates;
    plan::SelectionQuery sel = MidSelectivityQuery();
    plan::AggQuery agg;
    agg.selection = sel;
    agg.group_index = 0;
    agg.agg_index = 1;
    agg.func = exec::AggFunc::kSum;
    plan::JoinQuery join;
    join.left_key = jc_->orders_custkey;
    join.left_pred = codec::Predicate::LessThan(
        (jc_->orders_custkey->meta().min_value +
         jc_->orders_custkey->meta().max_value) /
        2);
    join.left_payload = jc_->orders_shipdate;
    join.right_key = jc_->customer_custkey;
    join.right_payload = jc_->customer_nationcode;
    for (Strategy s : plan::kAllStrategies) {
      templates.push_back(plan::PlanTemplate::Selection(sel, s));
    }
    for (Strategy s : plan::kAllStrategies) {
      templates.push_back(plan::PlanTemplate::Agg(agg, s));
    }
    templates.push_back(plan::PlanTemplate::Join(
        join, exec::JoinRightMode::kMaterialized));
    return templates;
  }

  /// Serial ground truth for a template: a 1-worker standalone session's
  /// run.
  static plan::RunStats SerialRun(plan::PlanTemplate tmpl) {
    tmpl.config.num_workers = 1;
    Result<api::QueryResult> r = api::Connection(db_).Query(tmpl);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return r.ok() ? r->stats : plan::RunStats();
  }

  static TempDir* dir_;
  static db::Database* db_;
  static tpch::LineitemColumns* li_;
  static tpch::JoinColumns* jc_;
};

TempDir* SchedTest::dir_ = nullptr;
db::Database* SchedTest::db_ = nullptr;
tpch::LineitemColumns* SchedTest::li_ = nullptr;
tpch::JoinColumns* SchedTest::jc_ = nullptr;

TEST_F(SchedTest, ConcurrentMixedQueriesMatchSerialRuns) {
  std::vector<plan::PlanTemplate> templates = MixedTemplates();
  std::vector<plan::RunStats> serial;
  serial.reserve(templates.size());
  for (const plan::PlanTemplate& tmpl : templates) {
    serial.push_back(SerialRun(tmpl));
    EXPECT_GT(serial.back().output_tuples, 0u);
  }

  sched::Scheduler::Options opts;
  opts.num_workers = 4;
  sched::Scheduler scheduler(opts);
  api::Connection conn(db_, &scheduler);
  std::vector<api::PendingResult> pending;
  pending.reserve(templates.size());
  for (const plan::PlanTemplate& tmpl : templates) {
    pending.push_back(conn.Submit(tmpl));
  }
  for (size_t i = 0; i < pending.size(); ++i) {
    ASSERT_OK_AND_ASSIGN(api::QueryResult result, pending[i].Wait());
    EXPECT_EQ(result.stats.checksum, serial[i].checksum) << "query " << i;
    EXPECT_EQ(result.stats.output_tuples, serial[i].output_tuples)
        << "query " << i;
    EXPECT_EQ(result.tuples.num_tuples(), serial[i].output_tuples)
        << "query " << i;
  }
}

TEST_F(SchedTest, TicketsCompleteUnderQueuePressure) {
  // Far more queries than workers: 27 queries on a 2-worker pool.
  std::vector<plan::PlanTemplate> templates = MixedTemplates();
  std::vector<uint64_t> checksums;
  for (const plan::PlanTemplate& tmpl : templates) {
    checksums.push_back(SerialRun(tmpl).checksum);
  }

  sched::Scheduler::Options opts;
  opts.num_workers = 2;
  sched::Scheduler scheduler(opts);
  std::vector<sched::QueryTicket> tickets;
  const int kRounds = 3;
  for (int round = 0; round < kRounds; ++round) {
    for (const plan::PlanTemplate& tmpl : templates) {
      tickets.push_back(scheduler.Submit(tmpl));
    }
  }
  for (size_t i = 0; i < tickets.size(); ++i) {
    const sched::ExecResult& r = tickets[i].Wait();
    ASSERT_TRUE(r.status.ok()) << "query " << i << ": "
                               << r.status.ToString();
    EXPECT_EQ(r.stats.checksum, checksums[i % checksums.size()])
        << "query " << i;
  }
}

TEST_F(SchedTest, ExecStatsNotCrossContaminated) {
  std::vector<plan::PlanTemplate> templates = MixedTemplates();
  sched::Scheduler::Options opts;
  opts.num_workers = 4;

  // Solo run of query 0 through its own pool: the per-query baseline with
  // identical morsel sizing (same pool width → same auto-sized morsels).
  exec::ExecStats solo;
  {
    sched::Scheduler scheduler(opts);
    const sched::ExecResult& r =
        scheduler.Submit(templates[0]).Wait();
    ASSERT_TRUE(r.status.ok()) << r.status.ToString();
    solo = r.stats.exec;
  }

  // The same query racing the whole mixed batch on a shared pool.
  sched::Scheduler scheduler(opts);
  std::vector<sched::QueryTicket> tickets;
  for (const plan::PlanTemplate& tmpl : templates) {
    tickets.push_back(scheduler.Submit(tmpl));
  }
  const sched::ExecResult& r = tickets[0].Wait();
  ASSERT_TRUE(r.status.ok()) << r.status.ToString();
  EXPECT_EQ(r.stats.exec.blocks_fetched, solo.blocks_fetched);
  EXPECT_EQ(r.stats.exec.blocks_skipped, solo.blocks_skipped);
  EXPECT_EQ(r.stats.exec.predicate_evals, solo.predicate_evals);
  EXPECT_EQ(r.stats.exec.values_gathered, solo.values_gathered);
  EXPECT_EQ(r.stats.exec.tuples_constructed, solo.tuples_constructed);
  EXPECT_EQ(r.stats.exec.position_ands, solo.position_ands);
  for (sched::QueryTicket& t : tickets) {
    EXPECT_TRUE(t.Wait().status.ok());
  }
}

TEST_F(SchedTest, IoStatsAttributedPerQueryNotPerPool) {
  // RunStats::io must be the query's own buffer-pool traffic, not a
  // snapshot of the shared counters: total block requests (hits +
  // physical reads) per query are deterministic — the same windows fetch
  // the same blocks — so a query racing a noisy batch must report exactly
  // what it reports running alone.
  std::vector<plan::PlanTemplate> templates = MixedTemplates();
  sched::Scheduler::Options opts;
  opts.num_workers = 4;

  uint64_t solo_requests = 0;
  {
    sched::Scheduler scheduler(opts);
    const sched::ExecResult& r =
        scheduler.Submit(templates[0]).Wait();
    ASSERT_TRUE(r.status.ok()) << r.status.ToString();
    solo_requests = r.stats.io.cache_hits + r.stats.io.physical_reads;
  }
  ASSERT_GT(solo_requests, 0u);

  sched::Scheduler scheduler(opts);
  std::vector<sched::QueryTicket> tickets;
  for (const plan::PlanTemplate& tmpl : templates) {
    tickets.push_back(scheduler.Submit(tmpl));
  }
  const sched::ExecResult& r = tickets[0].Wait();
  ASSERT_TRUE(r.status.ok()) << r.status.ToString();
  EXPECT_EQ(r.stats.io.cache_hits + r.stats.io.physical_reads,
            solo_requests);
  // The neighbors collectively touched far more blocks than query 0; with
  // pool-snapshot attribution their traffic would have bled into it.
  uint64_t batch_requests = 0;
  for (sched::QueryTicket& t : tickets) {
    const sched::ExecResult& tr = t.Wait();
    EXPECT_TRUE(tr.status.ok());
    batch_requests += tr.stats.io.cache_hits + tr.stats.io.physical_reads;
  }
  EXPECT_GT(batch_requests, solo_requests);
}

TEST_F(SchedTest, PriorityQueriesCompleteAndStayCorrect) {
  std::vector<plan::PlanTemplate> templates = MixedTemplates();
  std::vector<uint64_t> checksums;
  for (const plan::PlanTemplate& tmpl : templates) {
    checksums.push_back(SerialRun(tmpl).checksum);
  }
  sched::Scheduler::Options opts;
  opts.num_workers = 4;
  sched::Scheduler scheduler(opts);
  std::vector<sched::QueryTicket> tickets;
  for (size_t i = 0; i < templates.size(); ++i) {
    // Alternate priorities 1..3: correctness must be priority-independent.
    tickets.push_back(scheduler.Submit(templates[i], nullptr,
                                       1 + static_cast<int>(i % 3)));
  }
  for (size_t i = 0; i < tickets.size(); ++i) {
    const sched::ExecResult& r = tickets[i].Wait();
    ASSERT_TRUE(r.status.ok()) << r.status.ToString();
    EXPECT_EQ(r.stats.checksum, checksums[i]) << "query " << i;
  }
}

TEST_F(SchedTest, InstantiationErrorSurfacesOnTicketOnly) {
  // LM-pipelined over a bit-vector column beyond the first is NotSupported
  // (Section 4.1) — every morsel's Instantiate fails.
  plan::SelectionQuery bad;
  bad.columns.push_back(
      {li_->shipdate, codec::Predicate::LessThan(li_->max_shipdate)});
  bad.columns.push_back({li_->linenum_bv, codec::Predicate::LessThan(5)});
  plan::PlanTemplate bad_tmpl =
      plan::PlanTemplate::Selection(bad, Strategy::kLmPipelined);
  plan::PlanTemplate good_tmpl = MixedTemplates()[0];
  uint64_t good_checksum = SerialRun(good_tmpl).checksum;

  sched::Scheduler::Options opts;
  opts.num_workers = 4;
  sched::Scheduler scheduler(opts);
  sched::QueryTicket bad_ticket = scheduler.Submit(bad_tmpl);
  sched::QueryTicket good_ticket = scheduler.Submit(good_tmpl);
  EXPECT_FALSE(bad_ticket.Wait().status.ok());
  const sched::ExecResult& good = good_ticket.Wait();
  ASSERT_TRUE(good.status.ok()) << good.status.ToString();
  EXPECT_EQ(good.stats.checksum, good_checksum);
}

TEST_F(SchedTest, JoinBuildBarrierGatesProbeMorsels) {
  // A join on the shared pool runs its serial build as a phase-one task;
  // probe morsels (gated on the barrier) then interleave with a concurrent
  // scan. Results must match the serial run exactly, and neighbors must be
  // undisturbed.
  std::vector<plan::PlanTemplate> templates = MixedTemplates();
  plan::PlanTemplate join_tmpl = templates.back();  // the join
  join_tmpl.config.morsel_positions = kChunkPositions;
  plan::PlanTemplate scan_tmpl = templates.front();
  uint64_t join_checksum = SerialRun(join_tmpl).checksum;
  uint64_t scan_checksum = SerialRun(scan_tmpl).checksum;

  sched::Scheduler::Options opts;
  opts.num_workers = 4;
  sched::Scheduler scheduler(opts);
  std::vector<sched::QueryTicket> tickets;
  for (int i = 0; i < 3; ++i) {
    tickets.push_back(scheduler.Submit(join_tmpl));
    tickets.push_back(scheduler.Submit(scan_tmpl));
  }
  for (size_t i = 0; i < tickets.size(); ++i) {
    const sched::ExecResult r = tickets[i].Wait();
    ASSERT_TRUE(r.status.ok()) << r.status.ToString();
    EXPECT_EQ(r.stats.checksum,
              i % 2 == 0 ? join_checksum : scan_checksum)
        << (i % 2 == 0 ? "join" : "scan") << " #" << i;
  }
}

TEST_F(SchedTest, JoinBuildFailureSurfacesOnTicket) {
  // Mismatched column lengths fail in the build phase (the first task the
  // barrier dispatches); the error must cancel the probe morsels and
  // resolve the ticket, leaving a concurrent good query untouched.
  plan::JoinQuery bad;
  bad.left_key = jc_->orders_custkey;
  bad.left_pred = codec::Predicate::True();
  bad.left_payload = jc_->orders_shipdate;
  bad.right_key = jc_->customer_custkey;
  bad.right_payload = jc_->orders_shipdate;  // wrong length vs right_key
  plan::PlanTemplate bad_tmpl =
      plan::PlanTemplate::Join(bad, exec::JoinRightMode::kMaterialized);
  plan::PlanTemplate good_tmpl = MixedTemplates()[0];
  uint64_t good_checksum = SerialRun(good_tmpl).checksum;

  sched::Scheduler::Options opts;
  opts.num_workers = 4;
  sched::Scheduler scheduler(opts);
  sched::QueryTicket bad_ticket = scheduler.Submit(bad_tmpl);
  sched::QueryTicket good_ticket = scheduler.Submit(good_tmpl);
  EXPECT_FALSE(bad_ticket.Wait().status.ok());
  const sched::ExecResult good = good_ticket.Wait();
  ASSERT_TRUE(good.status.ok()) << good.status.ToString();
  EXPECT_EQ(good.stats.checksum, good_checksum);
}

TEST_F(SchedTest, SchedulerDestructorDrainsUnwaitedTickets) {
  plan::PlanTemplate tmpl = MixedTemplates()[0];
  uint64_t checksum = SerialRun(tmpl).checksum;
  sched::QueryTicket abandoned;
  {
    sched::Scheduler::Options opts;
    opts.num_workers = 2;
    sched::Scheduler scheduler(opts);
    abandoned = scheduler.Submit(tmpl);
    // Destructor runs with the query possibly still in flight.
  }
  const sched::ExecResult& r = abandoned.Wait();
  ASSERT_TRUE(r.status.ok()) << r.status.ToString();
  EXPECT_EQ(r.stats.checksum, checksum);
}

TEST_F(SchedTest, PooledSubmitMatchesSynchronousQuery) {
  api::Connection conn(db_);
  const std::vector<std::string> sqls = {
      "SELECT shipdate, quantity FROM lineitem WHERE quantity < 30",
      "SELECT shipdate, SUM(quantity) FROM lineitem WHERE quantity < 40 "
      "GROUP BY shipdate",
      "SELECT SUM(quantity) FROM lineitem WHERE linenum < 4",
      "SELECT bogus FROM nowhere",  // binds must fail, ticket must drain
  };
  std::vector<Result<api::QueryResult>> serial;
  for (const std::string& sql : sqls) {
    serial.push_back(conn.Query(sql));
  }

  sched::Scheduler::Options opts;
  opts.num_workers = 4;
  sched::Scheduler scheduler(opts);
  api::Connection pooled(db_, &scheduler);
  std::vector<api::PendingResult> pending;
  for (const std::string& sql : sqls) pending.push_back(pooled.Submit(sql));
  ASSERT_EQ(pending.size(), sqls.size());
  for (size_t i = 0; i < pending.size(); ++i) {
    Result<api::QueryResult> batch = pending[i].Wait();
    ASSERT_EQ(batch.ok(), serial[i].ok()) << sqls[i];
    if (!batch.ok()) continue;
    EXPECT_EQ(batch->stats.checksum, serial[i]->stats.checksum) << sqls[i];
    EXPECT_EQ(batch->stats.output_tuples, serial[i]->stats.output_tuples)
        << sqls[i];
    EXPECT_EQ(batch->column_names, serial[i]->column_names) << sqls[i];
    EXPECT_EQ(batch->tuples.num_tuples(), serial[i]->tuples.num_tuples())
        << sqls[i];
  }
}

/// Every chunk a sink received, in delivery order.
struct SinkLog {
  std::vector<exec::TupleChunk> chunks;

  sched::Scheduler::Sink Sink() {
    return [this](exec::TupleChunk&& chunk) {
      chunks.push_back(std::move(chunk));
    };
  }
};

TEST_F(SchedTest, SelectionSinkReceivesEveryRowInOneChunk) {
  // Two-window morsels give each worker several output chunks per morsel
  // and several morsels; finalize hands the sink one chunk holding them
  // all, and the rows equal a 1-worker session's.
  for (Strategy s : plan::kAllStrategies) {
    plan::PlanConfig config;
    config.morsel_positions = 2 * kChunkPositions;
    const plan::PlanTemplate tmpl =
        plan::PlanTemplate::Selection(MidSelectivityQuery(), s, config);
    ASSERT_OK_AND_ASSIGN(api::QueryResult serial,
                         api::Connection(db_).Query(tmpl));
    const exec::TupleChunk& inline_rows = serial.tuples;
    const plan::RunStats& inline_stats = serial.stats;
    ASSERT_GT(inline_rows.num_tuples(), 2 * kChunkPositions)
        << StrategyName(s) << ": output must span several chunks";
    for (int workers : {2, 4}) {
      sched::Scheduler::Options opts;
      opts.num_workers = workers;
      sched::Scheduler scheduler(opts);
      SinkLog log;
      const sched::ExecResult r =
          scheduler.Submit(tmpl, log.Sink()).Wait();
      const std::string where =
          std::string(StrategyName(s)) + " workers=" + std::to_string(workers);
      ASSERT_OK(r.status);
      ASSERT_EQ(log.chunks.size(), 1u) << where;
      EXPECT_EQ(log.chunks[0].width(), inline_rows.width()) << where;
      EXPECT_EQ(r.stats.output_tuples, inline_rows.num_tuples()) << where;
      EXPECT_EQ(r.stats.checksum, inline_stats.checksum) << where;
      EXPECT_TRUE(testing::RowsByPosition(log.chunks[0]) ==
                  testing::RowsByPosition(inline_rows))
          << where;
    }
  }
}

TEST_F(SchedTest, SinkDeliveryPerQueryShape) {
  sched::Scheduler::Options opts;
  opts.num_workers = 4;
  sched::Scheduler scheduler(opts);

  // No qualifying row: a selection's sink is never called.
  plan::SelectionQuery none;
  none.columns.push_back({li_->quantity, codec::Predicate::LessThan(-1)});
  SinkLog empty;
  ASSERT_OK(scheduler
                .Submit(plan::PlanTemplate::Selection(none,
                                                      Strategy::kEmParallel), empty.Sink())
                .Wait()
                .status);
  EXPECT_TRUE(empty.chunks.empty());

  // GROUP BY: exactly one chunk, the merged groups.
  plan::AggQuery agg;
  agg.selection = MidSelectivityQuery();
  agg.group_index = 0;
  agg.agg_index = 1;
  agg.func = exec::AggFunc::kSum;
  SinkLog groups;
  const sched::ExecResult agg_r =
      scheduler
          .Submit(plan::PlanTemplate::Agg(agg, Strategy::kLmParallel), groups.Sink())
          .Wait();
  ASSERT_OK(agg_r.status);
  ASSERT_EQ(groups.chunks.size(), 1u);
  EXPECT_EQ(groups.chunks[0].num_tuples(), agg_r.stats.output_tuples);
  EXPECT_GT(agg_r.stats.output_tuples, 0u);

  // ORDER BY ... LIMIT: the k-way merge as one chunk, in order, with no
  // row beyond the limit.
  plan::SortQuery sort;
  sort.selection = MidSelectivityQuery();
  sort.sort_index = 1;
  sort.desc = true;
  sort.limit = 20000;
  SinkLog merged;
  const sched::ExecResult sort_r =
      scheduler
          .Submit(plan::PlanTemplate::Sort(sort, Strategy::kLmParallel), merged.Sink())
          .Wait();
  ASSERT_OK(sort_r.status);
  EXPECT_EQ(merged.chunks.size(), 1u) << "a sink receives one chunk";
  exec::TupleChunk ordered;
  for (const exec::TupleChunk& chunk : merged.chunks) ordered.Append(chunk);
  ASSERT_EQ(ordered.num_tuples(), sort.limit);
  EXPECT_EQ(sort_r.stats.output_tuples, sort.limit);
  for (size_t i = 1; i < ordered.num_tuples(); ++i) {
    ASSERT_GE(ordered.value(i - 1, 1), ordered.value(i, 1)) << "row " << i;
  }
}

TEST_F(SchedTest, CallerThreadRunExecutesOnCallingThread) {
  // Selection, GROUP BY, ORDER BY and join: every task and the finalize of
  // a caller-thread run execute on the thread that called, so the sink
  // sees that thread.
  std::vector<plan::PlanTemplate> templates = MixedTemplates();
  plan::SortQuery sort;
  sort.selection = MidSelectivityQuery();
  sort.sort_index = 1;
  sort.limit = 100;
  // MixedTemplates: four selections, four aggregations, then the join.
  const plan::PlanTemplate shapes[] = {
      templates[0], templates[4], templates.back(),
      plan::PlanTemplate::Sort(sort, Strategy::kLmParallel)};
  for (const plan::PlanTemplate& tmpl : shapes) {
    int calls = 0;
    std::thread::id sink_thread;
    const sched::ExecResult r = sched::RunOnCaller(
        tmpl, [&](exec::TupleChunk&& chunk) {
          ++calls;
          sink_thread = std::this_thread::get_id();
          EXPECT_GT(chunk.num_tuples(), 0u);
        });
    ASSERT_OK(r.status);
    EXPECT_EQ(calls, 1);
    EXPECT_EQ(sink_thread, std::this_thread::get_id());
    EXPECT_GT(r.stats.query_id, 0u);
  }
}

TEST_F(SchedTest, LargeGroupByAndSortMatchAcrossWorkerCounts) {
  // 131 072 groups arriving unsorted, and an ORDER BY without LIMIT over
  // four chunk windows: one worker (one accumulator, one run, on the
  // caller's thread) and 2 or 4 pool workers (merged partials and runs)
  // return the same rows in the same order and construct as many tuples.
  const size_t rows = 4 * kChunkPositions;
  const Value groups = 131072;
  std::vector<Value> keys(rows);
  std::vector<Value> vals(rows);
  for (size_t i = 0; i < rows; ++i) {
    keys[i] = static_cast<Value>(i * 7919) % groups;
    vals[i] = static_cast<Value>(i % 1000);
  }
  ASSERT_OK(db_->CreateColumn("wide.k", codec::Encoding::kUncompressed, keys));
  ASSERT_OK(db_->CreateColumn("wide.v", codec::Encoding::kUncompressed, vals));
  ASSERT_OK_AND_ASSIGN(const codec::ColumnReader* k, db_->GetColumn("wide.k"));
  ASSERT_OK_AND_ASSIGN(const codec::ColumnReader* v, db_->GetColumn("wide.v"));
  plan::SelectionQuery scan;
  scan.columns.push_back({k, codec::Predicate::True()});
  scan.columns.push_back({v, codec::Predicate::LessThan(900)});
  plan::AggQuery agg;
  agg.selection = scan;
  agg.group_index = 0;
  agg.agg_index = 1;
  agg.func = exec::AggFunc::kSum;
  plan::SortQuery sort;
  sort.selection = scan;
  sort.sort_index = 1;
  sort.desc = true;
  for (Strategy s : plan::kAllStrategies) {
    for (const plan::PlanTemplate& base :
         {plan::PlanTemplate::Agg(agg, s), plan::PlanTemplate::Sort(sort, s)}) {
      const std::string shape = std::string(StrategyName(s)) +
                                (base.kind == plan::PlanTemplate::Kind::kAgg
                                     ? " GROUP BY"
                                     : " ORDER BY");
      api::QueryResult serial;
      for (int workers : {1, 2, 4}) {
        plan::PlanTemplate tmpl = base;
        tmpl.config.num_workers = workers;
        ASSERT_OK_AND_ASSIGN(api::QueryResult r,
                             api::Connection(db_).Query(tmpl));
        const std::string where =
            shape + " workers=" + std::to_string(workers);
        if (workers == 1) {
          serial = std::move(r);
          ASSERT_GE(serial.tuples.num_tuples(),
                    base.kind == plan::PlanTemplate::Kind::kAgg
                        ? size_t{100000}
                        : 3 * kChunkPositions)
              << where;
          continue;
        }
        EXPECT_EQ(r.stats.checksum, serial.stats.checksum) << where;
        EXPECT_EQ(r.stats.exec.tuples_constructed,
                  serial.stats.exec.tuples_constructed)
            << where;
        ASSERT_EQ(r.tuples.num_tuples(), serial.tuples.num_tuples()) << where;
        ASSERT_EQ(r.tuples.width(), serial.tuples.width()) << where;
        for (size_t i = 0; i < r.tuples.num_tuples(); ++i) {
          ASSERT_EQ(r.tuples.position(i), serial.tuples.position(i))
              << where << " row " << i;
          for (uint32_t c = 0; c < r.tuples.width(); ++c) {
            ASSERT_EQ(r.tuples.value(i, c), serial.tuples.value(i, c))
                << where << " row " << i << " col " << c;
          }
        }
      }
    }
  }
}

TEST_F(SchedTest, FailingCallerThreadRunsSkipTheSinkAndLogOneError) {
  // LM-pipelined over a bit-vector second column is NotSupported at
  // instantiation; the join's payload has the wrong length, so its build
  // fails. Either way the error comes back, the sink is never called, and
  // the query log holds one "error" row.
  plan::SelectionQuery bad_scan;
  bad_scan.columns.push_back(
      {li_->shipdate, codec::Predicate::LessThan(li_->max_shipdate)});
  bad_scan.columns.push_back({li_->linenum_bv, codec::Predicate::LessThan(5)});
  plan::JoinQuery bad_join;
  bad_join.left_key = jc_->orders_custkey;
  bad_join.left_pred = codec::Predicate::True();
  bad_join.left_payload = jc_->orders_shipdate;
  bad_join.right_key = jc_->customer_custkey;
  bad_join.right_payload = jc_->orders_shipdate;  // wrong length
  const plan::PlanTemplate failing[] = {
      plan::PlanTemplate::Selection(bad_scan, Strategy::kLmPipelined),
      plan::PlanTemplate::Join(bad_join, exec::JoinRightMode::kMaterialized)};
  obs::QueryLog& log = obs::QueryLog::Global();
  for (const plan::PlanTemplate& tmpl : failing) {
    log.Clear();
    bool sink_called = false;
    const sched::ExecResult r = sched::RunOnCaller(
        tmpl,
        [&](exec::TupleChunk&&) { sink_called = true; }, "failing");
    EXPECT_FALSE(r.status.ok());
    if (tmpl.kind == plan::PlanTemplate::Kind::kSelection) {
      EXPECT_TRUE(r.status.IsNotSupported()) << r.status.ToString();
    }
    EXPECT_FALSE(sink_called);
    const std::vector<obs::QueryLogEntry> entries = log.Snapshot();
    ASSERT_EQ(entries.size(), 1u);
    EXPECT_EQ(entries[0].status, "error");
    EXPECT_EQ(entries[0].label, "failing");
    EXPECT_EQ(entries[0].workers, 1);
    EXPECT_EQ(entries[0].query_id, r.stats.query_id);
  }
}

TEST(AutoMorselTest, SmallTablesGetMoreThanOneMorsel) {
  // 10 windows, 4 workers: the old default (16-window morsels) clamped this
  // to a single morsel — one effective worker. Auto-sizing must hand out at
  // least min(4 * workers, num_windows) morsels.
  const Position total = 10 * kChunkPositions;
  Position morsel = exec::AutoMorselPositions(total, 4);
  EXPECT_EQ(morsel, kChunkPositions);
  EXPECT_EQ(exec::MorselSource(total, morsel).num_morsels(), 10u);
}

TEST(AutoMorselTest, LargeTablesKeepTheDefaultCap) {
  // 4 M windows / 2 workers: target would exceed the default morsel size;
  // cap at the default so per-morsel overhead stays amortized.
  const Position total = 4096 * kChunkPositions;
  EXPECT_EQ(exec::AutoMorselPositions(total, 2),
            exec::kDefaultMorselPositions);
}

TEST(AutoMorselTest, DegenerateInputsFallBackToDefault) {
  EXPECT_EQ(exec::AutoMorselPositions(0, 4), exec::kDefaultMorselPositions);
  EXPECT_EQ(exec::AutoMorselPositions(10 * kChunkPositions, 0),
            exec::kDefaultMorselPositions);
}

}  // namespace
}  // namespace cstore
