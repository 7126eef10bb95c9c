// api:: layer tests: Connection (sync / async / streaming / typed),
// PreparedStatement with `?` parameters (including re-execution across a
// concurrent compaction), RowCursor backpressure and cancellation, the
// UPDATE statement end to end, the join-side snapshot merge, EXPLAIN with
// `?` parameters, an execution error surfacing through the cursor, and the
// routing: a plan touching at most one window on the caller's thread on
// every session, standalone sessions inline at 1 worker and on long-lived
// session pools above.

#include <algorithm>
#include <atomic>
#include <limits>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "api/connection.h"
#include "db/database.h"
#include "obs/metrics.h"
#include "obs/query_log.h"
#include "plan/executor.h"
#include "test_util.h"
#include "util/random.h"

namespace cstore {
namespace {

using testing::TempDir;

constexpr int kWorkerCounts[] = {1, 2, 4};

class ApiTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db::Database::Options opts;
    opts.dir = dir_.path();
    auto db = db::Database::Open(opts);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    db_ = std::move(*db);

    const size_t n = 60000;
    a_ = testing::SortedRunnyValues(n, 500, 8.0, 1);
    b_ = testing::RunnyValues(n, 7, 2.0, 2);
    c_ = testing::RunnyValues(n, 100, 1.0, 3);
    ASSERT_OK(db_->CreateColumn("t.a", codec::Encoding::kRle, a_));
    ASSERT_OK(db_->CreateColumn("t.b", codec::Encoding::kUncompressed, b_));
    ASSERT_OK(db_->CreateColumn("t.c", codec::Encoding::kUncompressed, c_));
    ASSERT_OK(db_->RegisterTable(
        "t", {{"a", "t.a"}, {"b", "t.b"}, {"c", "t.c"}}));
  }

  /// Rows of `t` (by current reference vectors) passing a<alim && b<blim
  /// && c<clim.
  uint64_t CountRef(Value alim, Value blim, Value clim) {
    uint64_t n = 0;
    for (size_t i = 0; i < a_.size(); ++i) {
      if (a_[i] < alim && b_[i] < blim && c_[i] < clim) ++n;
    }
    return n;
  }

  /// Registers `big(x)`: enough rows for several 64K-position output
  /// windows, so streaming genuinely spans multiple chunks.
  size_t MakeBigTable() {
    const size_t n = 400000;
    std::vector<Value> big(n);
    for (size_t i = 0; i < n; ++i) big[i] = static_cast<Value>(i % 1000);
    EXPECT_OK(
        db_->CreateColumn("big.x", codec::Encoding::kUncompressed, big));
    EXPECT_OK(db_->RegisterTable("big", {{"x", "big.x"}}));
    return n;
  }

  TempDir dir_;
  std::unique_ptr<db::Database> db_;
  std::vector<Value> a_, b_, c_;
};

// --- Connection: sync / async / typed equivalence ---------------------------

TEST_F(ApiTest, QueryMatchesSecondSession) {
  api::Connection conn(db_.get());
  api::Connection other(db_.get());
  const char* statements[] = {
      "SELECT a, b FROM t WHERE a < 100 AND b < 6",
      "SELECT b FROM t WHERE a < 50",
      "SELECT a, SUM(b) FROM t WHERE b < 6 GROUP BY a",
      "SELECT COUNT(b) FROM t WHERE a < 100",
      "SELECT * FROM t WHERE a = 0",
  };
  for (const char* sql : statements) {
    // Advisor-chosen strategies may differ between the two sessions (each
    // calibrates its own cost model by timing real loops), but the result
    // bags must be identical regardless.
    ASSERT_OK_AND_ASSIGN(api::QueryResult via_conn, conn.Query(sql));
    ASSERT_OK_AND_ASSIGN(api::QueryResult via_other, other.Query(sql));
    EXPECT_EQ(via_conn.column_names, via_other.column_names) << sql;
    EXPECT_EQ(via_conn.tuples.num_tuples(), via_other.tuples.num_tuples())
        << sql;
    EXPECT_EQ(via_conn.stats.checksum, via_other.stats.checksum) << sql;
    // With an explicit strategy the two sessions must agree exactly.
    ASSERT_OK_AND_ASSIGN(
        api::QueryResult c2,
        conn.Query(sql, plan::Strategy::kLmParallel));
    ASSERT_OK_AND_ASSIGN(api::QueryResult e2,
                         other.Query(sql, plan::Strategy::kLmParallel));
    EXPECT_EQ(c2.strategy, e2.strategy) << sql;
    EXPECT_EQ(c2.stats.checksum, e2.stats.checksum) << sql;
  }
}

TEST_F(ApiTest, SubmitMatchesQuery) {
  api::Connection conn(db_.get());
  const char* sql = "SELECT a, b FROM t WHERE a < 250 AND b < 7";
  ASSERT_OK_AND_ASSIGN(api::QueryResult sync, conn.Query(sql));
  api::PendingResult pending = conn.Submit(sql);
  EXPECT_TRUE(pending.valid());
  ASSERT_OK_AND_ASSIGN(api::QueryResult async, pending.Wait());
  EXPECT_EQ(async.tuples.num_tuples(), sync.tuples.num_tuples());
  EXPECT_EQ(async.stats.checksum, sync.stats.checksum);
  EXPECT_EQ(async.column_names, sync.column_names);
}

TEST_F(ApiTest, SubmitCarriesErrorsInHandle) {
  api::Connection conn(db_.get());
  api::PendingResult bad = conn.Submit("SELECT nope FROM t");
  api::PendingResult good = conn.Submit("SELECT a FROM t WHERE a < 10");
  EXPECT_TRUE(bad.Wait().status().IsNotFound());
  EXPECT_TRUE(good.Wait().ok());
  // Default-constructed handles are waitable too.
  api::PendingResult empty;
  EXPECT_FALSE(empty.Wait().ok());
}

/// Queries the shared scheduler counter has seen: every pool run, on any
/// pool, adds one; a caller-thread run adds none.
uint64_t PoolQueries() {
  return obs::MetricsRegistry::Global()
      .GetCounter("cstore_sched_queries_total")
      ->value();
}

TEST_F(ApiTest, PooledConnectionRunsOnSharedScheduler) {
  MakeBigTable();
  sched::Scheduler::Options so;
  so.num_workers = 2;
  sched::Scheduler scheduler(so);
  api::Connection pooled(db_.get(), &scheduler);
  api::Connection standalone(db_.get());
  // t fits in one window, so the pooled session runs it on the caller's
  // thread; big spans seven and goes to the shared pool.
  for (const char* sql : {"SELECT a, SUM(b) FROM t GROUP BY a",
                          "SELECT COUNT(x) FROM big WHERE x < 500"}) {
    const uint64_t pool_before = PoolQueries();
    ASSERT_OK_AND_ASSIGN(api::QueryResult p, pooled.Query(sql));
    EXPECT_EQ(PoolQueries() - pool_before,
              std::string(sql).find("big") != std::string::npos ? 1u : 0u)
        << sql;
    ASSERT_OK_AND_ASSIGN(api::QueryResult s, standalone.Query(sql));
    EXPECT_EQ(p.stats.checksum, s.stats.checksum) << sql;
    EXPECT_EQ(p.tuples.num_tuples(), s.tuples.num_tuples()) << sql;
  }
}

// --- Standalone routing: inline at 1 worker, session pools above ----------

/// The rows of `r` as a sorted bag.
std::vector<std::vector<Value>> Bag(const api::QueryResult& r) {
  std::vector<std::vector<Value>> rows;
  for (size_t i = 0; i < r.tuples.num_tuples(); ++i) {
    rows.emplace_back(r.tuples.tuple(i), r.tuples.tuple(i) + r.tuples.width());
  }
  std::sort(rows.begin(), rows.end());
  return rows;
}

/// Worker count the query log recorded for the latest run of `label`.
int LoggedWorkers(const std::string& label) {
  int workers = 0;
  for (const obs::QueryLogEntry& e : obs::QueryLog::Global().Snapshot()) {
    if (e.label == label) workers = e.workers;
  }
  return workers;
}

TEST_F(ApiTest, TwoWorkerSessionMatchesOneWorker) {
  // Several chunk windows, so a 2-worker run splits into several morsels
  // and goes to the session pool.
  const size_t n = 5 * kChunkPositions;
  std::vector<Value> k(n), v(n);
  for (size_t i = 0; i < n; ++i) {
    k[i] = static_cast<Value>(i % 1000);
    v[i] = static_cast<Value>(i % 7);
  }
  ASSERT_OK(db_->CreateColumn("w.k", codec::Encoding::kUncompressed, k));
  ASSERT_OK(db_->CreateColumn("w.v", codec::Encoding::kUncompressed, v));
  ASSERT_OK(db_->RegisterTable("w", {{"k", "w.k"}, {"v", "w.v"}}));

  api::Connection one(db_.get());
  api::Connection::Settings settings;
  settings.num_workers = 2;
  api::Connection two(db_.get(), nullptr, settings);

  const char* statements[] = {
      "SELECT k, v FROM w WHERE k < 40 AND v < 3",
      "SELECT v, SUM(k) FROM w WHERE k < 500 GROUP BY v",
      "SELECT k, v FROM w WHERE v = 2 ORDER BY k DESC LIMIT 100",
  };
  for (const char* sql : statements) {
    ASSERT_OK_AND_ASSIGN(api::QueryResult want, one.Query(sql));
    EXPECT_EQ(LoggedWorkers(sql), 1) << sql;
    ASSERT_GT(want.tuples.num_tuples(), 0u) << sql;
    ASSERT_OK_AND_ASSIGN(api::QueryResult query, two.Query(sql));
    EXPECT_EQ(LoggedWorkers(sql), 2) << sql << ": not on the session pool";
    EXPECT_EQ(Bag(query), Bag(want)) << sql;
    EXPECT_EQ(query.stats.checksum, want.stats.checksum) << sql;
    ASSERT_OK_AND_ASSIGN(api::QueryResult submitted, two.Submit(sql).Wait());
    EXPECT_EQ(Bag(submitted), Bag(want)) << sql;
    EXPECT_EQ(submitted.column_names, want.column_names) << sql;
  }

  const char* param_sql = "SELECT k, v FROM w WHERE k < ? AND v < ?";
  ASSERT_OK_AND_ASSIGN(api::PreparedStatement p1, one.Prepare(param_sql));
  ASSERT_OK_AND_ASSIGN(api::PreparedStatement p2, two.Prepare(param_sql));
  for (Value klim : {Value{10}, Value{600}}) {
    ASSERT_OK_AND_ASSIGN(api::QueryResult want, p1.Execute({klim, 5}));
    ASSERT_OK_AND_ASSIGN(api::QueryResult got, p2.Execute({klim, 5}));
    EXPECT_EQ(Bag(got), Bag(want)) << "k < " << klim;
  }

  ASSERT_OK_AND_ASSIGN(const codec::ColumnReader* rk, db_->GetColumn("w.k"));
  ASSERT_OK_AND_ASSIGN(const codec::ColumnReader* rv, db_->GetColumn("w.v"));
  plan::SelectionQuery q;
  q.columns.push_back({rk, codec::Predicate::LessThan(30)});
  q.columns.push_back({rv, codec::Predicate::LessThan(4)});
  for (plan::Strategy s : plan::kAllStrategies) {
    plan::PlanConfig config;
    ASSERT_OK_AND_ASSIGN(
        api::QueryResult want,
        one.Query(plan::PlanTemplate::Selection(q, s, config)));
    config.num_workers = 2;
    const plan::PlanTemplate tmpl = plan::PlanTemplate::Selection(q, s, config);
    ASSERT_OK_AND_ASSIGN(api::QueryResult query, two.Query(tmpl));
    EXPECT_EQ(Bag(query), Bag(want)) << plan::StrategyName(s);
    ASSERT_OK_AND_ASSIGN(api::QueryResult submitted,
                         two.Submit(tmpl).Wait());
    EXPECT_EQ(Bag(submitted), Bag(want)) << plan::StrategyName(s);
  }
}

TEST_F(ApiTest, PooledResultsMatchTheInlineRun) {
  // Six windows and two-window morsels: every worker of a 2- or 4-worker
  // pool buffers several chunks, which finalize hands over as one result.
  const size_t n = 6 * kChunkPositions;
  std::vector<Value> k(n), v(n);
  for (size_t i = 0; i < n; ++i) {
    k[i] = static_cast<Value>(i % 1000);
    v[i] = static_cast<Value>(i % 7);
  }
  ASSERT_OK(db_->CreateColumn("w.k", codec::Encoding::kUncompressed, k));
  ASSERT_OK(db_->CreateColumn("w.v", codec::Encoding::kRle, v));
  ASSERT_OK(db_->RegisterTable("w", {{"k", "w.k"}, {"v", "w.v"}}));
  ASSERT_OK_AND_ASSIGN(const codec::ColumnReader* rk, db_->GetColumn("w.k"));
  ASSERT_OK_AND_ASSIGN(const codec::ColumnReader* rv, db_->GetColumn("w.v"));
  plan::SelectionQuery q;
  q.columns.push_back({rk, codec::Predicate::LessThan(900)});
  q.columns.push_back({rv, codec::Predicate::LessThan(6)});

  sched::Scheduler::Options so;
  so.num_workers = 4;
  sched::Scheduler shared(so);
  api::Connection one(db_.get());
  api::Connection pooled(db_.get(), &shared);
  std::vector<std::unique_ptr<api::Connection>> sessions;
  for (int workers : {2, 4}) {
    api::Connection::Settings settings;
    settings.num_workers = workers;
    sessions.push_back(
        std::make_unique<api::Connection>(db_.get(), nullptr, settings));
  }
  std::vector<api::Connection*> multi = {sessions[0].get(),
                                         sessions[1].get(), &pooled};

  for (plan::Strategy s : plan::kAllStrategies) {
    plan::PlanConfig config;
    config.morsel_positions = 2 * kChunkPositions;
    ASSERT_OK_AND_ASSIGN(
        api::QueryResult want,
        one.Query(plan::PlanTemplate::Selection(q, s, config)));
    ASSERT_GT(want.tuples.num_tuples(), 4 * kChunkPositions);
    const auto want_rows = testing::RowsByPosition(want.tuples);
    for (size_t ci = 0; ci < multi.size(); ++ci) {
      config.num_workers = ci == 0 ? 2 : 4;
      const plan::PlanTemplate tmpl =
          plan::PlanTemplate::Selection(q, s, config);
      const std::string where =
          std::string(plan::StrategyName(s)) + " connection " +
          std::to_string(ci);
      ASSERT_OK_AND_ASSIGN(api::QueryResult query, multi[ci]->Query(tmpl));
      EXPECT_TRUE(testing::RowsByPosition(query.tuples) == want_rows)
          << where;
      EXPECT_EQ(query.stats.checksum, want.stats.checksum) << where;
      ASSERT_OK_AND_ASSIGN(api::QueryResult submitted,
                           multi[ci]->Submit(tmpl).Wait());
      EXPECT_TRUE(testing::RowsByPosition(submitted.tuples) == want_rows)
          << where;
    }
  }

  // GROUP BY and ORDER BY ... LIMIT still arrive through the sink; the
  // sorted rows arrive in the 1-worker run's order.
  const char* group_sql = "SELECT v, SUM(k) FROM w WHERE k < 500 GROUP BY v";
  const char* order_sql =
      "SELECT k, v FROM w WHERE v = 2 ORDER BY k DESC LIMIT 9000";
  ASSERT_OK_AND_ASSIGN(api::QueryResult want_groups, one.Query(group_sql));
  ASSERT_OK_AND_ASSIGN(api::QueryResult want_order, one.Query(order_sql));
  ASSERT_EQ(want_order.tuples.num_tuples(), 9000u);
  for (api::Connection* conn : multi) {
    ASSERT_OK_AND_ASSIGN(api::QueryResult groups, conn->Query(group_sql));
    EXPECT_EQ(Bag(groups), Bag(want_groups));
    ASSERT_OK_AND_ASSIGN(api::QueryResult order,
                         conn->Submit(order_sql).Wait());
    EXPECT_EQ(order.tuples.positions(), want_order.tuples.positions());
    EXPECT_EQ(order.tuples.data(), want_order.tuples.data());
  }
}

TEST_F(ApiTest, ZeroRowResultsKeepTheProjectedWidth) {
  const size_t n = 6 * kChunkPositions;
  ASSERT_OK(db_->CreateColumn("z.k", codec::Encoding::kUncompressed,
                              std::vector<Value>(n, 5)));
  ASSERT_OK(db_->CreateColumn("z.v", codec::Encoding::kRle,
                              std::vector<Value>(n, 3)));
  ASSERT_OK(db_->RegisterTable("z", {{"k", "z.k"}, {"v", "z.v"}}));
  for (int workers : {1, 2, 4}) {
    api::Connection::Settings settings;
    settings.num_workers = workers;
    api::Connection conn(db_.get(), nullptr, settings);
    for (const char* sql : {"SELECT v FROM z WHERE k < 0",
                            "SELECT k, v FROM z WHERE k < 0 AND v = 3"}) {
      ASSERT_OK_AND_ASSIGN(api::QueryResult query, conn.Query(sql));
      ASSERT_OK_AND_ASSIGN(api::QueryResult submitted,
                           conn.Submit(sql).Wait());
      for (const api::QueryResult* r : {&query, &submitted}) {
        EXPECT_EQ(r->tuples.num_tuples(), 0u) << sql;
        EXPECT_EQ(r->tuples.width(), r->column_names.size())
            << sql << " workers=" << workers;
      }
    }
  }
}

TEST_F(ApiTest, UnmaterializedSubmitBuffersNothing) {
  const size_t n = MakeBigTable();
  ASSERT_OK_AND_ASSIGN(const codec::ColumnReader* x, db_->GetColumn("big.x"));
  plan::SelectionQuery q;
  q.columns.push_back({x, codec::Predicate::LessThan(500)});
  api::Connection::Settings settings;
  settings.num_workers = 2;
  api::Connection conn(db_.get(), nullptr, settings);
  plan::PlanConfig config;
  config.num_workers = 2;
  ASSERT_OK_AND_ASSIGN(
      api::QueryResult r,
      conn.Submit(plan::PlanTemplate::Selection(q, plan::Strategy::kEmParallel,
                                                config),
                  /*materialize=*/false)
          .Wait());
  EXPECT_EQ(r.stats.output_tuples, n / 2);  // the rows ran...
  EXPECT_EQ(r.tuples.num_tuples(), 0u);     // ...and none was kept
}

// --- Sorted-key lookups answered by the index ------------------------------

TEST_F(ApiTest, SortedKeyLookupRunsLmPipelinedOnTheIndex) {
  // `s` is stored sorted by k (10 rows per key), so the planner answers
  // `k = c` from the index and the advisor prices that plan: LM-pipelined.
  const size_t n = 150000;
  std::vector<Value> k(n), v(n);
  for (size_t i = 0; i < n; ++i) {
    k[i] = static_cast<Value>(i / 10);
    v[i] = static_cast<Value>((i * 7919) % 1000);
  }
  ASSERT_OK(db_->CreateColumn("s.k", codec::Encoding::kUncompressed, k));
  ASSERT_OK(db_->CreateColumn("s.v", codec::Encoding::kUncompressed, v));
  ASSERT_OK(db_->RegisterTable("s", {{"k", "s.k"}, {"v", "s.v"}}));
  std::vector<bool> live(n, true);

  // Brute force over the reference rows.
  auto want = [&](Value key) {
    std::vector<std::vector<Value>> rows;
    for (size_t i = 0; i < k.size(); ++i) {
      if (live[i] && k[i] == key) rows.push_back({k[i], v[i]});
    }
    std::sort(rows.begin(), rows.end());
    return rows;
  };

  sched::Scheduler shared1(sched::Scheduler::Options{1});
  sched::Scheduler shared2(sched::Scheduler::Options{2});
  api::Connection::Settings two_workers;
  two_workers.num_workers = 2;
  api::Connection standalone1(db_.get());
  api::Connection standalone2(db_.get(), nullptr, two_workers);
  api::Connection pooled1(db_.get(), &shared1);
  api::Connection pooled2(db_.get(), &shared2);
  api::Connection* sessions[] = {&standalone1, &standalone2, &pooled1,
                                 &pooled2};

  auto check = [&](const char* phase) {
    for (Value key : {Value{0}, Value{7}, Value{7777}, Value{14999}}) {
      const std::string sql =
          "SELECT k, v FROM s WHERE k = " + std::to_string(key);
      for (api::Connection* conn : sessions) {
        // Query runs the lookup on the caller's thread, Submit on a pool.
        ASSERT_OK_AND_ASSIGN(api::QueryResult query, conn->Query(sql));
        ASSERT_OK_AND_ASSIGN(api::QueryResult submitted,
                             conn->Submit(sql).Wait());
        for (const api::QueryResult* r : {&query, &submitted}) {
          const char* route = r == &query ? " (Query)" : " (Submit)";
          EXPECT_EQ(r->strategy, plan::Strategy::kLmPipelined)
              << phase << ": " << sql << route;
          EXPECT_EQ(Bag(*r), want(key)) << phase << ": " << sql << route;
          // The lookup never evaluates the predicate on the read store.
          EXPECT_LT(r->stats.exec.predicate_evals, 1000u)
              << phase << ": " << sql << route;
        }
      }
    }
  };
  check("read store");

  // Tail rows in the write store (one of them under an existing key) and
  // deletes: the snapshot path masks and extends the index plan.
  ASSERT_OK_AND_ASSIGN(
      api::QueryResult ins,
      standalone1.Query(
          "INSERT INTO s VALUES (15000, 1), (15000, 2), (7, 999), (0, 5)"));
  EXPECT_EQ(ins.rows_affected, 4u);
  for (auto [key, val] : {std::pair<Value, Value>{15000, 1}, {15000, 2},
                          {7, 999}, {0, 5}}) {
    k.push_back(key);
    v.push_back(val);
    live.push_back(true);
  }
  ASSERT_OK_AND_ASSIGN(
      api::QueryResult del,
      standalone1.Query("DELETE FROM s WHERE k = 7777 AND v < 500"));
  uint64_t deleted = 0;
  for (size_t i = 0; i < k.size(); ++i) {
    if (k[i] == 7777 && v[i] < 500) {
      live[i] = false;
      ++deleted;
    }
  }
  ASSERT_GT(deleted, 0u);
  EXPECT_EQ(del.rows_affected, deleted);
  check("after writes");
}

/// Rows system.query_log holds for `label`.
size_t LoggedRuns(const std::string& label) {
  size_t n = 0;
  for (const obs::QueryLogEntry& e : obs::QueryLog::Global().Snapshot()) {
    n += e.label == label;
  }
  return n;
}

TEST_F(ApiTest, PlansTouchingOneWindowRunOnTheCaller) {
  // `s` is stored sorted by k (10 rows per key) over three windows, with a
  // write-store tail and deletes in both stores.
  const size_t n = 180000;
  std::vector<Value> k(n), v(n);
  for (size_t i = 0; i < n; ++i) {
    k[i] = static_cast<Value>(i / 10);
    v[i] = static_cast<Value>((i * 7919) % 1000);
  }
  ASSERT_OK(db_->CreateColumn("s.k", codec::Encoding::kUncompressed, k));
  ASSERT_OK(db_->CreateColumn("s.v", codec::Encoding::kUncompressed, v));
  ASSERT_OK(db_->RegisterTable("s", {{"k", "s.k"}, {"v", "s.v"}}));
  api::Connection writer(db_.get());
  ASSERT_OK(writer
                .Query("INSERT INTO s VALUES (7, 1), (7, 2), (6554, 3), "
                       "(20000, 4), (20000, 5)")
                .status());
  ASSERT_OK_AND_ASSIGN(api::QueryResult del_read,
                       writer.Query("DELETE FROM s WHERE k = 7 AND v > 500"));
  ASSERT_GT(del_read.rows_affected, 0u);
  ASSERT_OK_AND_ASSIGN(api::QueryResult del_tail,
                       writer.Query("DELETE FROM s WHERE k = 20000 AND v = 4"));
  ASSERT_EQ(del_tail.rows_affected, 1u);

  sched::Scheduler shared(sched::Scheduler::Options{2});
  api::Connection pooled(db_.get(), &shared);
  api::Connection::Settings two_workers;
  two_workers.num_workers = 2;
  api::Connection standalone(db_.get(), nullptr, two_workers);
  api::Connection reference(db_.get());  // 1 worker: the reference run

  struct Case {
    std::string sql;  // one `?` per param
    std::vector<Value> params;
    plan::Strategy strategy;
    bool on_caller;
  };
  const std::vector<Case> cases = {
      // A point lookup, and a lookup straddling the first window boundary
      // (positions 65 530 to 65 549, plus a tail row), answered by the
      // index: at most one window's positions.
      {"SELECT k, v FROM s WHERE k = ?", {7}, plan::Strategy::kLmParallel,
       true},
      {"SELECT k, v FROM s WHERE k = ?", {7}, plan::Strategy::kLmPipelined,
       true},
      {"SELECT k, v FROM s WHERE k >= ? AND k <= ?", {6553, 6554},
       plan::Strategy::kLmParallel, true},
      {"SELECT k, v FROM s WHERE k >= ? AND k <= ?", {6553, 6554},
       plan::Strategy::kLmPipelined, true},
      {"SELECT k, v FROM s WHERE k >= ? AND k <= ? AND v < ?",
       {6553, 6554, 500}, plan::Strategy::kLmPipelined, true},
      // More than one window: a wide index range, the lookup under an EM
      // plan (which scans every window), and LM-parallel with a second
      // filter the index does not answer.
      {"SELECT k, v FROM s WHERE k < ?", {7000}, plan::Strategy::kLmParallel,
       false},
      {"SELECT k, v FROM s WHERE k = ?", {7}, plan::Strategy::kEmParallel,
       false},
      {"SELECT k, v FROM s WHERE k = ? AND v < ?", {7, 500},
       plan::Strategy::kLmParallel, false},
  };
  // The SQL text with its parameters written in, for Query and Stream.
  auto literal = [](const Case& c) {
    std::string out;
    size_t next = 0;
    for (char ch : c.sql) {
      if (ch == '?') {
        out += std::to_string(c.params[next++]);
      } else {
        out.push_back(ch);
      }
    }
    return out;
  };

  for (const Case& c : cases) {
    const std::string sql = literal(c);
    ASSERT_OK_AND_ASSIGN(api::QueryResult want,
                         reference.Query(sql, c.strategy));
    ASSERT_GT(want.tuples.num_tuples(), 0u) << sql;
    for (api::Connection* conn : {&pooled, &standalone}) {
      const char* session = conn == &pooled ? "shared pool" : "standalone";
      api::Connection::Settings settings = conn->settings();
      settings.strategy = c.strategy;
      conn->set_settings(settings);
      ASSERT_OK_AND_ASSIGN(api::PreparedStatement prepared,
                           conn->Prepare(c.sql));
      for (const char* path : {"Query", "Execute", "Stream"}) {
        const std::string label = path == std::string("Execute") ? c.sql : sql;
        const uint64_t pool_before = PoolQueries();
        const size_t logged_before = LoggedRuns(label);
        Result<api::QueryResult> got = Status::Internal("not run");
        if (path == std::string("Query")) {
          got = conn->Query(sql);
        } else if (path == std::string("Execute")) {
          got = prepared.Execute(c.params);
        } else {
          Result<api::RowCursor> cursor = conn->Stream(sql);
          ASSERT_TRUE(cursor.ok()) << cursor.status().ToString() << sql;
          // A caller-thread run's cursor holds its result from the start.
          EXPECT_EQ(cursor->finished(), c.on_caller) << session << ": " << sql;
          got = cursor->FetchAll();
        }
        ASSERT_TRUE(got.ok()) << got.status().ToString() << " " << session
                              << " " << path << ": " << sql;
        EXPECT_EQ(got->strategy, c.strategy) << session << " " << path;
        EXPECT_EQ(Bag(*got), Bag(want)) << session << " " << path << ": "
                                        << sql;
        EXPECT_EQ(got->stats.checksum, want.stats.checksum)
            << session << " " << path << ": " << sql;
        EXPECT_EQ(PoolQueries() - pool_before, c.on_caller ? 0u : 1u)
            << session << " " << path << ": " << sql;
        EXPECT_EQ(LoggedRuns(label), logged_before + 1)
            << session << " " << path << ": " << sql;
      }
    }
  }

  // A join touches its outer side plus the inner side its hash build
  // reads: a 4-row outer side over a three-window inner table runs on a
  // pool, over a 100-row one on the caller's thread.
  std::vector<Value> uk(n), up(n);
  for (size_t i = 0; i < n; ++i) {
    uk[i] = static_cast<Value>(i);
    up[i] = static_cast<Value>((i * 31) % 1000);
  }
  const std::vector<Value> ok = {7, 65540, 170000, 200000};
  ASSERT_OK(db_->CreateColumn("u.k", codec::Encoding::kUncompressed, uk));
  ASSERT_OK(db_->CreateColumn("u.p", codec::Encoding::kUncompressed, up));
  ASSERT_OK(db_->CreateColumn(
      "c.k", codec::Encoding::kUncompressed,
      std::vector<Value>(uk.begin(), uk.begin() + 100)));
  ASSERT_OK(db_->CreateColumn(
      "c.p", codec::Encoding::kUncompressed,
      std::vector<Value>(up.begin(), up.begin() + 100)));
  ASSERT_OK(db_->CreateColumn("o.k", codec::Encoding::kUncompressed, ok));
  ASSERT_OK(db_->CreateColumn("o.p", codec::Encoding::kUncompressed,
                              std::vector<Value>{1, 2, 3, 4}));
  plan::JoinQuery big_inner;
  ASSERT_OK_AND_ASSIGN(big_inner.left_key, db_->GetColumn("o.k"));
  ASSERT_OK_AND_ASSIGN(big_inner.left_payload, db_->GetColumn("o.p"));
  big_inner.left_pred = codec::Predicate::True();
  ASSERT_OK_AND_ASSIGN(big_inner.right_key, db_->GetColumn("u.k"));
  ASSERT_OK_AND_ASSIGN(big_inner.right_payload, db_->GetColumn("u.p"));
  plan::JoinQuery small_inner = big_inner;
  ASSERT_OK_AND_ASSIGN(small_inner.right_key, db_->GetColumn("c.k"));
  ASSERT_OK_AND_ASSIGN(small_inner.right_payload, db_->GetColumn("c.p"));
  for (const plan::JoinQuery* q : {&big_inner, &small_inner}) {
    const bool on_caller = q == &small_inner;
    const char* name = on_caller ? "small inner" : "big inner";
    plan::PlanConfig config;
    ASSERT_OK_AND_ASSIGN(
        api::QueryResult want,
        reference.Query(plan::PlanTemplate::Join(
            *q, exec::JoinRightMode::kMultiColumn, config)));
    ASSERT_GT(want.tuples.num_tuples(), 0u) << name;
    config.num_workers = 2;
    const plan::PlanTemplate tmpl =
        plan::PlanTemplate::Join(*q, exec::JoinRightMode::kMultiColumn, config);
    // Query on the shared pool; Stream on both sessions (a standalone
    // session's synchronous run of a one-morsel plan is on its caller
    // whatever it touches).
    const std::pair<api::Connection*, bool> routes[] = {
        {&pooled, false}, {&pooled, true}, {&standalone, true}};
    for (auto [conn, streamed] : routes) {
      const std::string route =
          std::string(name) +
          (conn == &pooled ? " shared pool" : " standalone") +
          (streamed ? " Stream" : " Query");
      const uint64_t pool_before = PoolQueries();
      Result<api::QueryResult> got = Status::Internal("not run");
      if (streamed) {
        Result<api::RowCursor> cursor = conn->Stream(tmpl);
        ASSERT_TRUE(cursor.ok()) << cursor.status().ToString() << route;
        EXPECT_EQ(cursor->finished(), on_caller) << route;
        got = cursor->FetchAll();
      } else {
        got = conn->Query(tmpl);
      }
      ASSERT_TRUE(got.ok()) << got.status().ToString() << " " << route;
      EXPECT_EQ(Bag(*got), Bag(want)) << route;
      EXPECT_EQ(got->stats.checksum, want.stats.checksum) << route;
      EXPECT_EQ(PoolQueries() - pool_before, on_caller ? 0u : 1u) << route;
    }
  }
}

// --- Cost-model calibration -------------------------------------------------

TEST_F(ApiTest, FreshSessionsPrintIdenticalExplainRankings) {
  // The CPU constants are calibrated once per process, so every session
  // prices a statement alike and picks the same strategy.
  MakeBigTable();
  const char* statements[] = {
      "SELECT x FROM big WHERE x < 500",
      "SELECT a, b FROM t WHERE a < 100 AND b < 6",
      "SELECT a, SUM(b) FROM t WHERE b < 6 GROUP BY a",
  };
  auto ranking = [&](const char* sql) {
    api::Connection fresh(db_.get());
    Result<std::string> report = fresh.Explain(sql);
    EXPECT_TRUE(report.ok()) << report.status().ToString();
    if (!report.ok()) return std::string();
    // The shared-resource section reports live pool counters; the
    // advisor's report is everything before it.
    return report->substr(0, report->find("-- shared-resource pressure"));
  };
  for (const char* sql : statements) {
    const std::string first = ranking(sql);
    EXPECT_NE(first.find("<- chosen"), std::string::npos) << first;
    for (int session = 0; session < 3; ++session) {
      EXPECT_EQ(ranking(sql), first) << sql;
    }
  }
}

TEST_F(ApiTest, PendingResultOutlivesStandaloneSession) {
  MakeBigTable();
  const char* sql = "SELECT x FROM big WHERE x < 10";
  api::Connection::Settings settings;
  settings.num_workers = 2;
  api::PendingResult pending;
  api::QueryResult want;
  {
    api::Connection conn(db_.get(), nullptr, settings);
    ASSERT_OK_AND_ASSIGN(want, conn.Query(sql));
    pending = conn.Submit(sql);
  }  // the session and its pools are gone
  ASSERT_OK_AND_ASSIGN(api::QueryResult got, pending.Wait());
  EXPECT_EQ(got.tuples.num_tuples(), want.tuples.num_tuples());
  EXPECT_EQ(got.stats.checksum, want.stats.checksum);
}

TEST_F(ApiTest, UndrainedCursorLeavesSessionPoolFree) {
  // Streams run on their own pool: a session holding a cursor whose
  // producers are parked on a full queue can still run statements.
  const size_t n = MakeBigTable();
  api::Connection::Settings settings;
  settings.num_workers = 2;
  settings.stream_queue_chunks = 1;  // the producers WILL block
  api::Connection conn(db_.get(), nullptr, settings);
  ASSERT_OK_AND_ASSIGN(api::RowCursor cursor,
                       conn.Stream("SELECT x FROM big"));
  exec::TupleChunk chunk;
  ASSERT_OK_AND_ASSIGN(bool has, cursor.Next(&chunk));
  ASSERT_TRUE(has);
  uint64_t streamed = chunk.num_tuples();

  const char* sql = "SELECT x FROM big WHERE x < 10";
  ASSERT_OK_AND_ASSIGN(api::QueryResult query, conn.Query(sql));
  EXPECT_EQ(query.tuples.num_tuples(), n / 100);
  ASSERT_OK_AND_ASSIGN(api::QueryResult submitted, conn.Submit(sql).Wait());
  EXPECT_EQ(submitted.stats.checksum, query.stats.checksum);

  ASSERT_OK_AND_ASSIGN(api::QueryResult rest, cursor.FetchAll());
  streamed += rest.tuples.num_tuples();
  EXPECT_EQ(streamed, n);
}

TEST_F(ApiTest, TypedTemplateMatchesFreshSession) {
  api::Connection conn(db_.get());
  ASSERT_OK_AND_ASSIGN(const codec::ColumnReader* ra, db_->GetColumn("t.a"));
  ASSERT_OK_AND_ASSIGN(const codec::ColumnReader* rb, db_->GetColumn("t.b"));
  plan::SelectionQuery q;
  q.columns.push_back({ra, codec::Predicate::LessThan(100)});
  q.columns.push_back({rb, codec::Predicate::LessThan(6)});
  for (plan::Strategy s : plan::kAllStrategies) {
    ASSERT_OK_AND_ASSIGN(api::QueryResult via_api,
                         conn.Query(plan::PlanTemplate::Selection(q, s)));
    ASSERT_OK_AND_ASSIGN(api::QueryResult via_db,
                         api::Connection(db_.get()).Query(
                             plan::PlanTemplate::Selection(q, s)));
    EXPECT_EQ(via_api.stats.checksum, via_db.stats.checksum);
    EXPECT_EQ(via_api.tuples.num_tuples(), via_db.tuples.num_tuples());
  }
}

TEST_F(ApiTest, SessionStrategyOverride) {
  api::Connection::Settings settings;
  settings.strategy = plan::Strategy::kEmPipelined;
  api::Connection conn(db_.get(), nullptr, settings);
  ASSERT_OK_AND_ASSIGN(api::QueryResult r,
                       conn.Query("SELECT a, b FROM t WHERE a < 100"));
  EXPECT_EQ(r.strategy, plan::Strategy::kEmPipelined);
  // Per-call override wins over the session's.
  ASSERT_OK_AND_ASSIGN(
      r, conn.Query("SELECT a, b FROM t WHERE a < 100",
                    plan::Strategy::kLmParallel));
  EXPECT_EQ(r.strategy, plan::Strategy::kLmParallel);
}

// --- RowCursor --------------------------------------------------------------

TEST_F(ApiTest, StreamDeliversIdenticalBag) {
  api::Connection conn(db_.get());
  const char* sql = "SELECT a, b FROM t WHERE a < 200 AND b < 7";
  ASSERT_OK_AND_ASSIGN(api::QueryResult sync, conn.Query(sql));

  ASSERT_OK_AND_ASSIGN(api::RowCursor cursor, conn.Stream(sql));
  EXPECT_EQ(cursor.column_names(),
            (std::vector<std::string>{"a", "b"}));
  uint64_t rows = 0;
  uint64_t digest = 0;
  exec::TupleChunk chunk;
  while (true) {
    auto has = cursor.Next(&chunk);
    ASSERT_OK(has.status());
    if (!*has) break;
    rows += chunk.num_tuples();
    digest += plan::ChunkDigest(chunk);  // wrapping add: order-independent
  }
  EXPECT_EQ(rows, sync.tuples.num_tuples());
  EXPECT_EQ(digest, sync.stats.checksum);
  EXPECT_EQ(cursor.stats().output_tuples, sync.stats.output_tuples);
}

TEST_F(ApiTest, StreamFetchAllIsTheCompatibilityPath) {
  api::Connection conn(db_.get());
  const char* sql = "SELECT b FROM t WHERE a < 50";
  ASSERT_OK_AND_ASSIGN(api::QueryResult sync, conn.Query(sql));
  ASSERT_OK_AND_ASSIGN(api::RowCursor cursor, conn.Stream(sql));
  ASSERT_OK_AND_ASSIGN(api::QueryResult streamed, cursor.FetchAll());
  ASSERT_EQ(streamed.tuples.num_tuples(), sync.tuples.num_tuples());
  ASSERT_EQ(streamed.tuples.width(), 1u);
  for (size_t i = 0; i < sync.tuples.num_tuples(); ++i) {
    EXPECT_EQ(streamed.tuples.value(i, 0), sync.tuples.value(i, 0));
  }
}

TEST_F(ApiTest, EmptyStreamKeepsOutputWidth) {
  api::Connection conn(db_.get());
  const char* sql = "SELECT a, b FROM t WHERE a < 0";
  ASSERT_OK_AND_ASSIGN(api::QueryResult sync, conn.Query(sql));
  ASSERT_OK_AND_ASSIGN(api::RowCursor cursor, conn.Stream(sql));
  ASSERT_OK_AND_ASSIGN(api::QueryResult streamed, cursor.FetchAll());
  EXPECT_EQ(streamed.tuples.num_tuples(), 0u);
  EXPECT_EQ(streamed.tuples.width(), sync.tuples.width());
  EXPECT_EQ(streamed.tuples.width(), streamed.column_names.size());
}

TEST_F(ApiTest, StreamAggregationDeliversMergedGroups) {
  api::Connection conn(db_.get());
  const char* sql = "SELECT a, SUM(b) FROM t GROUP BY a";
  ASSERT_OK_AND_ASSIGN(api::QueryResult sync, conn.Query(sql));
  ASSERT_OK_AND_ASSIGN(api::RowCursor cursor, conn.Stream(sql));
  ASSERT_OK_AND_ASSIGN(api::QueryResult streamed, cursor.FetchAll());
  EXPECT_EQ(streamed.tuples.num_tuples(), sync.tuples.num_tuples());
}

TEST_F(ApiTest, StreamSurfacesBindErrors) {
  api::Connection conn(db_.get());
  EXPECT_TRUE(conn.Stream("SELECT ghost FROM t").status().IsNotFound());
  EXPECT_FALSE(conn.Stream("INSERT INTO t VALUES (1, 2, 3)").ok());
}

TEST_F(ApiTest, StreamBackpressureBoundsMemory) {
  const size_t n = MakeBigTable();
  api::Connection::Settings settings;
  settings.stream_queue_chunks = 2;
  api::Connection conn(db_.get(), nullptr, settings);
  ASSERT_OK_AND_ASSIGN(api::RowCursor cursor,
                       conn.Stream("SELECT x FROM big"));
  uint64_t rows = 0;
  exec::TupleChunk chunk;
  while (true) {
    auto has = cursor.Next(&chunk);
    ASSERT_OK(has.status());
    if (!*has) break;
    rows += chunk.num_tuples();
  }
  EXPECT_EQ(rows, n);
  // The whole result is n values; the queue must have held well under half
  // of it at any instant (2-chunk capacity vs 7 output windows).
  EXPECT_LT(cursor.peak_buffered_bytes(), n * sizeof(Value) / 2);
}

TEST_F(ApiTest, DroppedCursorCancelsQuery) {
  MakeBigTable();
  api::Connection::Settings settings;
  settings.stream_queue_chunks = 1;  // the producer WILL block
  api::Connection conn(db_.get(), nullptr, settings);
  {
    ASSERT_OK_AND_ASSIGN(api::RowCursor cursor,
                         conn.Stream("SELECT x FROM big"));
    exec::TupleChunk chunk;
    auto has = cursor.Next(&chunk);
    ASSERT_OK(has.status());
    // Drop the cursor with the stream still open: must cancel cleanly, not
    // deadlock against the blocked producer.
  }
  // The connection keeps working afterwards.
  ASSERT_OK_AND_ASSIGN(api::QueryResult r,
                       conn.Query("SELECT a FROM t WHERE a < 10"));
  EXPECT_GT(r.tuples.num_tuples(), 0u);
}

TEST_F(ApiTest, DroppedCursorUnregistersAndLogsCancelled) {
  // A drop-to-cancel stream must leave no trace in system.queries and a
  // status="cancelled" row (not "error") in system.query_log.
  MakeBigTable();
  const char* sql = "SELECT x FROM big WHERE x < 999";
  api::Connection::Settings settings;
  settings.stream_queue_chunks = 1;
  api::Connection conn(db_.get(), nullptr, settings);
  {
    ASSERT_OK_AND_ASSIGN(api::RowCursor cursor, conn.Stream(sql));
    exec::TupleChunk chunk;
    auto has = cursor.Next(&chunk);
    ASSERT_OK(has.status());
    // Mid-stream: the query is live and visible.
    bool live = false;
    for (const auto& row : obs::LiveQueryRegistry::Global().Snapshot()) {
      if (row.label == sql) live = true;
    }
    EXPECT_TRUE(live);
  }
  // The destructor waited for the query to leave the scheduler, so both
  // introspection surfaces are already settled.
  for (const auto& row : obs::LiveQueryRegistry::Global().Snapshot()) {
    EXPECT_NE(row.label, sql) << "cancelled query still in system.queries";
  }
  bool found = false;
  for (const obs::QueryLogEntry& e : obs::QueryLog::Global().Snapshot()) {
    if (e.label != sql) continue;
    found = true;
    EXPECT_EQ(e.status, "cancelled");
  }
  EXPECT_TRUE(found) << "cancelled query missing from system.query_log";
}

// --- PreparedStatement ------------------------------------------------------

TEST_F(ApiTest, PreparedMatchesUnpreparedAcrossParams) {
  // Each form is prepared once per worker count. Every execution after
  // the first plans like one-shot SQL with the literals inlined: same
  // strategy, same work counters, same rows. The chunk-pool counters depend
  // on pool state and are left out. The parameter values move the
  // advisor's pick and the order of the b and c filters (a, answered by
  // its index, always goes first).
  struct Form {
    const char* sql;
    bool ordered;  // GROUP BY and ORDER BY rows come in a fixed order
  };
  const Form forms[] = {
      {"SELECT a, b FROM t WHERE a < ? AND b < ? AND c < ?", false},
      {"SELECT a, SUM(c) FROM t WHERE a < ? AND b < ? AND c < ? GROUP BY a",
       true},
      {"SELECT a, b, c FROM t WHERE a < ? AND b < ? AND c < ? "
       "ORDER BY c DESC LIMIT 25",
       true},
  };
  const std::vector<Value> params[] = {{0, 3, 50},    {57, 7, 10},
                                       {200, 3, 90},  {1000, 1, 100},
                                       {1000, 6, 10}, {1000, 7, 100}};
  auto inline_params = [](std::string sql, const std::vector<Value>& vals) {
    for (Value v : vals) sql.replace(sql.find('?'), 1, std::to_string(v));
    return sql;
  };
  auto rows = [](const api::QueryResult& r, bool ordered) {
    std::vector<std::vector<Value>> out;
    for (size_t i = 0; i < r.tuples.num_tuples(); ++i) {
      out.emplace_back(r.tuples.tuple(i),
                       r.tuples.tuple(i) + r.tuples.width());
    }
    if (!ordered) std::sort(out.begin(), out.end());
    return out;
  };

  struct Session {
    std::unique_ptr<api::Connection> conn;   // runs the prepared forms
    std::unique_ptr<api::Connection> other;  // runs the inlined SQL
    std::vector<api::PreparedStatement> prepared;  // one per form
  };
  std::vector<Session> sessions;
  for (int workers : {1, 2}) {
    api::Connection::Settings settings;
    settings.num_workers = workers;
    Session& s = sessions.emplace_back();
    s.conn = std::make_unique<api::Connection>(db_.get(), nullptr, settings);
    s.other = std::make_unique<api::Connection>(db_.get(), nullptr, settings);
    for (const Form& form : forms) {
      ASSERT_OK_AND_ASSIGN(api::PreparedStatement p,
                           s.conn->Prepare(form.sql));
      EXPECT_EQ(p.param_count(), 3);
      s.prepared.push_back(std::move(p));
    }
    // The first execution; the checks below cover re-executions only.
    for (api::PreparedStatement& p : s.prepared) {
      ASSERT_OK(p.Execute({100, 5, 50}).status());
    }
  }
  EXPECT_EQ(sessions[0].prepared[0].column_names(),
            (std::vector<std::string>{"a", "b"}));

  std::set<plan::Strategy> picked;
  for (bool after_writes : {false, true}) {
    if (after_writes) {
      // A write-store tail that takes the table past one chunk window (so
      // 2 workers split it into two morsels), then a delete mask.
      std::vector<std::vector<Value>> tail;
      Random rng(23);
      for (int i = 0; i < 12000; ++i) {
        tail.push_back({static_cast<Value>(rng.Uniform(500)),
                        static_cast<Value>(rng.Uniform(7)),
                        static_cast<Value>(rng.Uniform(100))});
        a_.push_back(tail.back()[0]);
        b_.push_back(tail.back()[1]);
        c_.push_back(tail.back()[2]);
      }
      ASSERT_OK(db_->Insert("t", tail));
      ASSERT_OK_AND_ASSIGN(
          uint64_t deleted,
          db_->DeleteWhere("t", {{"c", codec::Predicate::LessThan(20)}}));
      ASSERT_GT(deleted, 0u);
      size_t kept = 0;
      for (size_t i = 0; i < a_.size(); ++i) {
        if (c_[i] < 20) continue;
        a_[kept] = a_[i];
        b_[kept] = b_[i];
        c_[kept] = c_[i];
        ++kept;
      }
      a_.resize(kept);
      b_.resize(kept);
      c_.resize(kept);
    }
    for (Session& s : sessions) {
      const int workers = s.conn->settings().num_workers;
      for (size_t f = 0; f < std::size(forms); ++f) {
        for (const std::vector<Value>& vals : params) {
          const std::string sql = inline_params(forms[f].sql, vals);
          const std::string what = sql + " at " + std::to_string(workers) +
                                   " workers" +
                                   (after_writes ? ", after writes" : "");
          ASSERT_OK_AND_ASSIGN(api::QueryResult p,
                               s.prepared[f].Execute(vals));
          ASSERT_OK_AND_ASSIGN(api::QueryResult u, s.other->Query(sql));
          picked.insert(p.strategy);
          EXPECT_EQ(p.strategy, u.strategy) << what;
          EXPECT_EQ(rows(p, forms[f].ordered), rows(u, forms[f].ordered))
              << what;
          EXPECT_EQ(p.stats.checksum, u.stats.checksum) << what;
          const exec::ExecStats& pe = p.stats.exec;
          const exec::ExecStats& ue = u.stats.exec;
          EXPECT_EQ(pe.blocks_fetched, ue.blocks_fetched) << what;
          EXPECT_EQ(pe.blocks_skipped, ue.blocks_skipped) << what;
          EXPECT_EQ(pe.predicate_evals, ue.predicate_evals) << what;
          EXPECT_EQ(pe.values_gathered, ue.values_gathered) << what;
          EXPECT_EQ(pe.tuples_constructed, ue.tuples_constructed) << what;
          EXPECT_EQ(pe.position_ands, ue.position_ands) << what;
          if (f == 0) {
            EXPECT_EQ(p.tuples.num_tuples(),
                      CountRef(vals[0], vals[1], vals[2]))
                << what;
          }
        }
      }
    }
  }
  EXPECT_GE(picked.size(), 2u);
}

TEST_F(ApiTest, PreparedParamValidation) {
  api::Connection conn(db_.get());
  ASSERT_OK_AND_ASSIGN(api::PreparedStatement prepared,
                       conn.Prepare("SELECT a FROM t WHERE a = ?"));
  EXPECT_TRUE(prepared.Execute({}).status().IsInvalidArgument());
  EXPECT_TRUE(prepared.Execute({1, 2}).status().IsInvalidArgument());
  EXPECT_TRUE(prepared.Submit({}).Wait().status().IsInvalidArgument());
  // Parameterized statements cannot run un-prepared.
  EXPECT_TRUE(
      conn.Query("SELECT a FROM t WHERE a = ?").status().IsInvalidArgument());
  EXPECT_TRUE(conn.Submit("SELECT a FROM t WHERE a = ?")
                  .Wait()
                  .status()
                  .IsInvalidArgument());
  // Prepare validates eagerly.
  EXPECT_TRUE(conn.Prepare("SELECT a FROM missing WHERE a = ?")
                  .status()
                  .IsNotFound());
  EXPECT_FALSE(conn.Prepare("SELECT FROM t").ok());
}

TEST_F(ApiTest, PreparedBetweenParams) {
  api::Connection conn(db_.get());
  ASSERT_OK_AND_ASSIGN(
      api::PreparedStatement prepared,
      conn.Prepare("SELECT a FROM t WHERE a BETWEEN ? AND ?"));
  ASSERT_OK_AND_ASSIGN(api::QueryResult r, prepared.Execute({100, 199}));
  uint64_t expected = 0;
  for (Value v : a_) {
    if (v >= 100 && v <= 199) ++expected;
  }
  EXPECT_EQ(r.tuples.num_tuples(), expected);
}

TEST_F(ApiTest, PreparedSeesWritesBetweenExecutions) {
  api::Connection conn(db_.get());
  ASSERT_OK_AND_ASSIGN(api::PreparedStatement prepared,
                       conn.Prepare("SELECT COUNT(a) FROM t WHERE a = ?"));
  ASSERT_OK_AND_ASSIGN(api::QueryResult before, prepared.Execute({100000}));
  // A global aggregate over zero matching rows emits no row.
  EXPECT_EQ(before.tuples.num_tuples(), 0u);
  ASSERT_OK(db_->Insert("t", {{100000, 1, 1}, {100000, 2, 2}}));
  ASSERT_OK_AND_ASSIGN(api::QueryResult after, prepared.Execute({100000}));
  ASSERT_EQ(after.tuples.num_tuples(), 1u);
  EXPECT_EQ(after.tuples.value(0, 0), 2);
}

TEST_F(ApiTest, PreparedSubmitAndStream) {
  api::Connection conn(db_.get());
  ASSERT_OK_AND_ASSIGN(
      api::PreparedStatement prepared,
      conn.Prepare("SELECT a, b FROM t WHERE a < ? AND b < ?"));
  ASSERT_OK_AND_ASSIGN(api::QueryResult sync, prepared.Execute({100, 6}));
  ASSERT_OK_AND_ASSIGN(api::QueryResult async,
                       prepared.Submit({100, 6}).Wait());
  EXPECT_EQ(async.stats.checksum, sync.stats.checksum);
  ASSERT_OK_AND_ASSIGN(api::RowCursor cursor, prepared.Stream({100, 6}));
  ASSERT_OK_AND_ASSIGN(api::QueryResult streamed, cursor.FetchAll());
  EXPECT_EQ(streamed.tuples.num_tuples(), sync.tuples.num_tuples());
}

// Satellite: prepared-statement re-execution across a concurrent
// CompactTable — snapshot re-capture keeps results bit-identical before,
// during, and after compaction, at 1/2/4 workers.
TEST_F(ApiTest, PreparedAcrossConcurrentCompaction) {
  // Grow a write tail and delete a slice, so compaction has real work.
  std::vector<std::vector<Value>> rows;
  Random rng(17);
  for (int i = 0; i < 5000; ++i) {
    rows.push_back({static_cast<Value>(rng.Uniform(500)),
                    static_cast<Value>(rng.Uniform(7)),
                    static_cast<Value>(rng.Uniform(100))});
  }
  ASSERT_OK(db_->Insert("t", rows));
  ASSERT_OK_AND_ASSIGN(uint64_t deleted,
                       db_->DeleteWhere("t", {{"b", codec::Predicate::Equal(3)}}));
  ASSERT_GT(deleted, 0u);

  // Ground truth from a quiesced serial run.
  api::Connection serial(db_.get());
  const char* sql_form = "SELECT a, b FROM t WHERE a < 250 AND b < 5";
  ASSERT_OK_AND_ASSIGN(api::QueryResult truth, serial.Query(sql_form));

  for (int workers : kWorkerCounts) {
    api::Connection::Settings settings;
    settings.num_workers = workers;
    api::Connection conn(db_.get(), nullptr, settings);
    ASSERT_OK_AND_ASSIGN(
        api::PreparedStatement prepared,
        conn.Prepare("SELECT a, b FROM t WHERE a < ? AND b < ?"));

    // Fire a compaction concurrently with a burst of re-executions. The
    // writers are quiescent, so every snapshot the statement captures —
    // old generation, mid-swap, new generation — must produce the same
    // result bag.
    std::atomic<bool> compacted{false};
    std::thread compactor([&] {
      auto moved = db_->CompactTable("t");
      EXPECT_TRUE(moved.ok()) << moved.status().ToString();
      compacted.store(true);
    });
    int executions = 0;
    while (!compacted.load() || executions < 20) {
      ASSERT_OK_AND_ASSIGN(api::QueryResult r, prepared.Execute({250, 5}));
      EXPECT_EQ(r.tuples.num_tuples(), truth.tuples.num_tuples())
          << "workers=" << workers << " execution=" << executions;
      EXPECT_EQ(r.stats.checksum, truth.stats.checksum)
          << "workers=" << workers << " execution=" << executions;
      ++executions;
    }
    compactor.join();
    // And after the swap, with the new generation's readers.
    ASSERT_OK_AND_ASSIGN(api::QueryResult after, prepared.Execute({250, 5}));
    EXPECT_EQ(after.stats.checksum, truth.stats.checksum);
  }
}

// --- UPDATE -----------------------------------------------------------------

TEST_F(ApiTest, UpdateEndToEnd) {
  api::Connection conn(db_.get());
  uint64_t expected = 0;
  for (size_t i = 0; i < a_.size(); ++i) {
    if (a_[i] < 10 && b_[i] < 3) ++expected;
  }
  ASSERT_OK_AND_ASSIGN(
      api::QueryResult upd,
      conn.Query("UPDATE t SET b = 99, c = 1 WHERE a < 10 AND b < 3"));
  EXPECT_TRUE(upd.is_write);
  EXPECT_EQ(upd.rows_affected, expected);
  EXPECT_EQ(upd.column_names, (std::vector<std::string>{"rows_updated"}));

  // The rewritten rows carry the new values; no row was lost or duplicated.
  ASSERT_OK_AND_ASSIGN(api::QueryResult hit,
                       conn.Query("SELECT b, c FROM t WHERE b = 99"));
  EXPECT_EQ(hit.tuples.num_tuples(), expected);
  for (size_t i = 0; i < hit.tuples.num_tuples(); ++i) {
    EXPECT_EQ(hit.tuples.value(i, 1), 1);
  }
  ASSERT_OK_AND_ASSIGN(api::QueryResult gone,
                       conn.Query("SELECT a FROM t WHERE a < 10 AND b < 3"));
  EXPECT_EQ(gone.tuples.num_tuples(), 0u);
  ASSERT_OK_AND_ASSIGN(api::QueryResult total,
                       conn.Query("SELECT COUNT(a) FROM t"));
  EXPECT_EQ(static_cast<size_t>(total.tuples.value(0, 0)), a_.size());
}

TEST_F(ApiTest, UpdateFiltersOnlyItsWhereColumns) {
  // An UPDATE finds its rows with the 1-worker LM-parallel scan of SELECT
  // over every column: it filters only the WHERE columns and gathers the
  // rest, so its work counters are that SELECT's. A DELETE of the same
  // WHERE reads only the WHERE columns, so its counters are those of the
  // SELECT of its WHERE columns.
  const size_t n = 3 * kChunkPositions;
  std::vector<std::vector<Value>> want(n);
  std::vector<Value> a(n), b(n), c(n);
  for (size_t i = 0; i < n; ++i) {
    a[i] = static_cast<Value>(i / 4);  // sorted: answered by the index
    b[i] = static_cast<Value>((i * 7919) % 11);
    c[i] = static_cast<Value>(i % 97);
    want[i] = {a[i], b[i], c[i]};
  }
  ASSERT_OK(db_->CreateColumn("u.a", codec::Encoding::kUncompressed, a));
  ASSERT_OK(db_->CreateColumn("u.b", codec::Encoding::kUncompressed, b));
  ASSERT_OK(db_->CreateColumn("u.c", codec::Encoding::kUncompressed, c));
  ASSERT_OK(
      db_->RegisterTable("u", {{"a", "u.a"}, {"b", "u.b"}, {"c", "u.c"}}));

  struct Shape {
    const char* where;
    const char* where_columns;
    bool (*match)(const std::vector<Value>& row);
    Value set_c;
  };
  const Shape shapes[] = {
      {"a < 1000", "a",
       [](const std::vector<Value>& r) { return r[0] < 1000; }, 1000},
      {"b = 5", "b", [](const std::vector<Value>& r) { return r[1] == 5; },
       2000},
  };
  api::Connection conn(db_.get());
  for (const Shape& shape : shapes) {
    const std::string where = std::string(" WHERE ") + shape.where;
    ASSERT_OK_AND_ASSIGN(
        api::QueryResult select,
        conn.Query("SELECT a, b, c FROM u" + where, plan::Strategy::kLmParallel,
                   1));
    ASSERT_OK_AND_ASSIGN(
        api::QueryResult update,
        conn.Query("UPDATE u SET c = " + std::to_string(shape.set_c) + where));
    EXPECT_EQ(update.rows_affected, select.tuples.num_tuples()) << where;
    EXPECT_EQ(update.stats.exec.predicate_evals,
              select.stats.exec.predicate_evals)
        << where;
    EXPECT_EQ(update.stats.exec.blocks_fetched,
              select.stats.exec.blocks_fetched)
        << where;

    for (std::vector<Value>& row : want) {
      if (shape.match(row)) row[2] = shape.set_c;
    }
    std::sort(want.begin(), want.end());
    ASSERT_OK_AND_ASSIGN(api::QueryResult all,
                         conn.Query("SELECT a, b, c FROM u"));
    EXPECT_TRUE(Bag(all) == want) << where;
  }

  // The DELETEs run after both UPDATEs, so each still matches rows that the
  // UPDATEs moved into the write-store tail.
  for (const Shape& shape : shapes) {
    const std::string where = std::string(" WHERE ") + shape.where;
    ASSERT_OK_AND_ASSIGN(
        api::QueryResult select_where,
        conn.Query(std::string("SELECT ") + shape.where_columns + " FROM u" +
                       where,
                   plan::Strategy::kLmParallel, 1));
    ASSERT_OK_AND_ASSIGN(api::QueryResult del,
                         conn.Query("DELETE FROM u" + where));
    EXPECT_EQ(del.rows_affected, select_where.tuples.num_tuples()) << where;
    EXPECT_GT(del.rows_affected, 0u) << where;
    EXPECT_EQ(del.stats.exec.predicate_evals,
              select_where.stats.exec.predicate_evals)
        << where;
    EXPECT_EQ(del.stats.exec.blocks_fetched,
              select_where.stats.exec.blocks_fetched)
        << where;

    std::erase_if(want, shape.match);
    ASSERT_OK_AND_ASSIGN(api::QueryResult rest,
                         conn.Query("SELECT a, b, c FROM u"));
    EXPECT_TRUE(Bag(rest) == want) << where;
  }
}

TEST_F(ApiTest, DeleteOfUnknownWhereColumnChangesNothing) {
  api::Connection conn(db_.get());
  ASSERT_OK_AND_ASSIGN(api::QueryResult before,
                       conn.Query("SELECT a, b, c FROM t"));
  EXPECT_TRUE(
      conn.Query("DELETE FROM t WHERE ghost < 5").status().IsNotFound());
  EXPECT_TRUE(conn.Query("DELETE FROM t WHERE a < 5 AND ghost < 5")
                  .status()
                  .IsNotFound());
  ASSERT_OK_AND_ASSIGN(api::QueryResult after,
                       conn.Query("SELECT a, b, c FROM t"));
  EXPECT_EQ(Bag(after), Bag(before));
  ASSERT_OK_AND_ASSIGN(auto snap, db_->SnapshotTable("t"));
  EXPECT_FALSE(snap->has_state());
}

TEST_F(ApiTest, WritesApplyEveryConditionOnATwiceNamedColumn) {
  // Database::UpdateWhere / DeleteWhere take the conditions unfolded: a
  // column named twice must pass both of them.
  const std::vector<std::pair<std::string, codec::Predicate>> conds = {
      {"c", codec::Predicate::GreaterEqual(10)},
      {"c", codec::Predicate::LessThan(20)}};
  std::vector<std::vector<Value>> want;
  uint64_t hits = 0;
  for (size_t i = 0; i < a_.size(); ++i) {
    const bool hit = c_[i] >= 10 && c_[i] < 20;
    hits += hit;
    if (!hit) want.push_back({a_[i], b_[i], c_[i]});
  }
  ASSERT_GT(hits, 0u);
  ASSERT_OK_AND_ASSIGN(uint64_t updated,
                       db_->UpdateWhere("t", {{"b", 99}}, conds));
  EXPECT_EQ(updated, hits);
  api::Connection conn(db_.get());
  ASSERT_OK_AND_ASSIGN(api::QueryResult moved,
                       conn.Query("SELECT COUNT(a) FROM t WHERE b = 99"));
  EXPECT_EQ(static_cast<uint64_t>(moved.tuples.value(0, 0)), hits);
  ASSERT_OK_AND_ASSIGN(uint64_t deleted, db_->DeleteWhere("t", conds));
  EXPECT_EQ(deleted, hits);
  std::sort(want.begin(), want.end());
  ASSERT_OK_AND_ASSIGN(api::QueryResult rest,
                       conn.Query("SELECT a, b, c FROM t"));
  EXPECT_TRUE(Bag(rest) == want);
}

TEST_F(ApiTest, UpdateValidation) {
  api::Connection conn(db_.get());
  EXPECT_TRUE(
      conn.Query("UPDATE missing SET a = 1").status().IsNotFound());
  EXPECT_TRUE(
      conn.Query("UPDATE t SET ghost = 1").status().IsNotFound());
  EXPECT_TRUE(conn.Query("UPDATE t SET a = 1 WHERE ghost < 5")
                  .status()
                  .IsNotFound());
  // Double assignment of one column is rejected at parse time.
  EXPECT_FALSE(conn.Query("UPDATE t SET a = 1, a = 2").ok());
  // An unknown SET or WHERE column fails before the row-finding scan.
  plan::RunStats stats;
  EXPECT_TRUE(db_->UpdateWhere("t", {{"ghost", 1}}, {}, &stats)
                  .status()
                  .IsNotFound());
  EXPECT_TRUE(db_->UpdateWhere("t", {{"a", 1}},
                               {{"ghost", codec::Predicate::LessThan(5)}},
                               &stats)
                  .status()
                  .IsNotFound());
  EXPECT_TRUE(
      db_->DeleteWhere("t", {{"ghost", codec::Predicate::LessThan(5)}}, &stats)
          .status()
          .IsNotFound());
  EXPECT_EQ(stats.exec.blocks_fetched, 0u);
  EXPECT_EQ(stats.exec.predicate_evals, 0u);
}

TEST_F(ApiTest, UpdateIsSnapshotAtomic) {
  // A snapshot captured before the update sees none of it; one captured
  // after sees all of it (delete + re-insert commit together).
  ASSERT_OK_AND_ASSIGN(auto before, db_->SnapshotTable("t"));
  api::Connection conn(db_.get());
  ASSERT_OK_AND_ASSIGN(api::QueryResult upd,
                       conn.Query("UPDATE t SET c = 77 WHERE b = 2"));
  ASSERT_GT(upd.rows_affected, 0u);
  ASSERT_OK_AND_ASSIGN(auto after, db_->SnapshotTable("t"));
  EXPECT_EQ(before->total_rows() + upd.rows_affected, after->total_rows());
  EXPECT_EQ(before->deleted().size() + upd.rows_affected,
            after->deleted().size());
}

TEST_F(ApiTest, PreparedUpdateWithParams) {
  api::Connection conn(db_.get());
  ASSERT_OK_AND_ASSIGN(api::PreparedStatement upd,
                       conn.Prepare("UPDATE t SET b = ? WHERE a = ?"));
  EXPECT_TRUE(upd.is_write());
  EXPECT_EQ(upd.param_count(), 2);
  uint64_t expected = 0;
  for (Value v : a_) {
    if (v == 42) ++expected;
  }
  ASSERT_GT(expected, 0u);
  ASSERT_OK_AND_ASSIGN(api::QueryResult r, upd.Execute({500, 42}));
  EXPECT_EQ(r.rows_affected, expected);
  ASSERT_OK_AND_ASSIGN(api::QueryResult check,
                       conn.Query("SELECT COUNT(a) FROM t WHERE b = 500"));
  ASSERT_EQ(check.tuples.num_tuples(), 1u);
  EXPECT_EQ(static_cast<uint64_t>(check.tuples.value(0, 0)), expected);
  // Streaming a write statement is rejected.
  EXPECT_FALSE(upd.Stream({1, 2}).ok());
}

TEST_F(ApiTest, PreparedInsertAndDeleteWithParams) {
  api::Connection conn(db_.get());
  ASSERT_OK_AND_ASSIGN(api::PreparedStatement ins,
                       conn.Prepare("INSERT INTO t VALUES (?, ?, ?)"));
  for (Value v = 0; v < 5; ++v) {
    ASSERT_OK_AND_ASSIGN(api::QueryResult r,
                         ins.Execute({777000 + v, v, v}));
    EXPECT_EQ(r.rows_affected, 1u);
  }
  ASSERT_OK_AND_ASSIGN(
      api::QueryResult n,
      conn.Query("SELECT COUNT(a) FROM t WHERE a >= 777000"));
  EXPECT_EQ(n.tuples.value(0, 0), 5);
  ASSERT_OK_AND_ASSIGN(api::PreparedStatement del,
                       conn.Prepare("DELETE FROM t WHERE a = ?"));
  ASSERT_OK_AND_ASSIGN(api::QueryResult d, del.Execute({777003}));
  EXPECT_EQ(d.rows_affected, 1u);
  ASSERT_OK_AND_ASSIGN(
      n, conn.Query("SELECT COUNT(a) FROM t WHERE a >= 777000"));
  EXPECT_EQ(n.tuples.value(0, 0), 4);
}

TEST_F(ApiTest, ConcurrentUpdatesDoNotDuplicateRows) {
  // Scan-then-apply mutations serialize per table: racing UPDATEs of the
  // same rows must each rewrite the *latest* images, never re-insert a row
  // twice (and never resurrect concurrently deleted rows).
  api::Connection conn(db_.get());
  ASSERT_OK_AND_ASSIGN(api::QueryResult before,
                       conn.Query("SELECT COUNT(a) FROM t"));
  const int kThreads = 4;
  const int kRounds = 8;
  std::vector<std::thread> writers;
  std::atomic<int> failures{0};
  for (int w = 0; w < kThreads; ++w) {
    writers.emplace_back([&, w] {
      api::Connection worker_conn(db_.get());
      for (int r = 0; r < kRounds; ++r) {
        auto upd = worker_conn.Query(
            "UPDATE t SET c = " + std::to_string(w * 100 + r) +
            " WHERE a < 20");
        if (!upd.ok()) failures.fetch_add(1);
      }
    });
  }
  for (std::thread& t : writers) t.join();
  EXPECT_EQ(failures.load(), 0);
  ASSERT_OK_AND_ASSIGN(api::QueryResult after,
                       conn.Query("SELECT COUNT(a) FROM t"));
  EXPECT_EQ(after.tuples.value(0, 0), before.tuples.value(0, 0));
}

TEST_F(ApiTest, ExtremeParameterValuesAreSafe) {
  // `?` accepts any int64; bounds folding must not overflow at the domain
  // edges (v < INT64_MIN matches nothing, v > INT64_MAX matches nothing).
  api::Connection conn(db_.get());
  const Value kMin = std::numeric_limits<Value>::min();
  const Value kMax = std::numeric_limits<Value>::max();
  ASSERT_OK_AND_ASSIGN(api::PreparedStatement lt,
                       conn.Prepare("SELECT a FROM t WHERE a < ?"));
  ASSERT_OK_AND_ASSIGN(api::QueryResult none, lt.Execute({kMin}));
  EXPECT_EQ(none.tuples.num_tuples(), 0u);
  ASSERT_OK_AND_ASSIGN(api::QueryResult all, lt.Execute({kMax}));
  EXPECT_EQ(all.tuples.num_tuples(), a_.size());
  ASSERT_OK_AND_ASSIGN(api::PreparedStatement gt,
                       conn.Prepare("SELECT a FROM t WHERE a > ?"));
  ASSERT_OK_AND_ASSIGN(api::QueryResult none2, gt.Execute({kMax}));
  EXPECT_EQ(none2.tuples.num_tuples(), 0u);
  ASSERT_OK_AND_ASSIGN(api::QueryResult all2, gt.Execute({kMin}));
  EXPECT_EQ(all2.tuples.num_tuples(), a_.size());
}

// --- Join-side snapshot merge -----------------------------------------------

TEST_F(ApiTest, JoinMergesInnerSnapshotWithPendingWrites) {
  // orders ⋈ customer; customer gains uncompacted writes the hash build
  // must merge (this used to be a NotSupported guard — now it's correct
  // results under live writes).
  std::vector<Value> custkey{0, 1, 2, 3, 4, 5, 6, 7};
  std::vector<Value> nation{10, 11, 12, 13, 14, 15, 16, 17};
  std::vector<Value> o_cust{0, 1, 2, 3, 0, 1, 2, 3, 4, 5};
  std::vector<Value> o_ship{100, 101, 102, 103, 104, 105, 106, 107, 108, 109};
  ASSERT_OK(db_->CreateColumn("cust.key", codec::Encoding::kUncompressed,
                              custkey));
  ASSERT_OK(db_->CreateColumn("cust.nation", codec::Encoding::kUncompressed,
                              nation));
  ASSERT_OK(db_->CreateColumn("ord.cust", codec::Encoding::kUncompressed,
                              o_cust));
  ASSERT_OK(db_->CreateColumn("ord.ship", codec::Encoding::kUncompressed,
                              o_ship));
  ASSERT_OK(db_->RegisterTable(
      "customer", {{"key", "cust.key"}, {"nation", "cust.nation"}}));

  plan::JoinQuery join;
  ASSERT_OK_AND_ASSIGN(join.left_key, db_->GetColumn("ord.cust"));
  ASSERT_OK_AND_ASSIGN(join.left_payload, db_->GetColumn("ord.ship"));
  ASSERT_OK_AND_ASSIGN(join.right_key, db_->GetColumn("cust.key"));
  ASSERT_OK_AND_ASSIGN(join.right_payload, db_->GetColumn("cust.nation"));
  join.left_pred = codec::Predicate::LessThan(100);

  // Empty snapshot: bit-identical to no snapshot at all.
  ASSERT_OK_AND_ASSIGN(join.right_snapshot, db_->SnapshotTable("customer"));
  ASSERT_OK_AND_ASSIGN(api::QueryResult clean,
                       api::Connection(db_.get()).Query(
                           plan::PlanTemplate::Join(
                               join, exec::JoinRightMode::kMaterialized)));
  EXPECT_EQ(clean.tuples.num_tuples(), o_cust.size());

  // UPDATE moves customer 5's row to the write-store tail (old position
  // deleted); DELETE drops customer 4. A fresh inner snapshot sees both.
  ASSERT_OK_AND_ASSIGN(
      uint64_t updated,
      db_->UpdateWhere("customer", {{"nation", 99}},
                       {{"key", codec::Predicate::Equal(5)}}));
  EXPECT_EQ(updated, 1u);
  ASSERT_OK_AND_ASSIGN(uint64_t deleted,
                       db_->DeleteWhere("customer",
                                        {{"key", codec::Predicate::Equal(4)}}));
  EXPECT_EQ(deleted, 1u);
  ASSERT_OK_AND_ASSIGN(join.right_snapshot, db_->SnapshotTable("customer"));

  for (exec::JoinRightMode mode :
       {exec::JoinRightMode::kMaterialized, exec::JoinRightMode::kMultiColumn,
        exec::JoinRightMode::kSingleColumn}) {
    ASSERT_OK_AND_ASSIGN(api::QueryResult r,
                         api::Connection(db_.get()).Query(
                             plan::PlanTemplate::Join(join, mode)));
    // One order row (custkey 4) lost its match; key 5 now maps to 99.
    EXPECT_EQ(r.tuples.num_tuples(), o_cust.size() - 1)
        << JoinRightModeName(mode);
    std::map<Value, Value> seen;  // left payload → right payload
    for (size_t i = 0; i < r.tuples.num_tuples(); ++i) {
      seen[r.tuples.value(i, 0)] = r.tuples.value(i, 1);
    }
    EXPECT_EQ(seen.count(108), 0u) << JoinRightModeName(mode);  // deleted
    EXPECT_EQ(seen[109], 99) << JoinRightModeName(mode);        // updated
    EXPECT_EQ(seen[100], 10) << JoinRightModeName(mode);
  }

  // The scheduler path (build barrier + probe morsels) agrees.
  api::Connection conn(db_.get());
  ASSERT_OK_AND_ASSIGN(
      api::QueryResult via_submit,
      conn.Submit(plan::PlanTemplate::Join(
                      join, exec::JoinRightMode::kMaterialized, {}))
          .Wait());
  EXPECT_EQ(via_submit.tuples.num_tuples(), o_cust.size() - 1);

  // Without the snapshot the build still reads the read store alone.
  join.right_snapshot.reset();
  ASSERT_OK_AND_ASSIGN(api::QueryResult stale,
                       api::Connection(db_.get()).Query(
                           plan::PlanTemplate::Join(
                               join, exec::JoinRightMode::kMaterialized)));
  EXPECT_EQ(stale.tuples.num_tuples(), o_cust.size());
}

// --- Explain with parameters ------------------------------------------------

TEST_F(ApiTest, ExplainAcceptsParameters) {
  api::Connection conn(db_.get());
  // Parameterless EXPLAIN keeps working as before.
  ASSERT_OK_AND_ASSIGN(std::string plain,
                       conn.Explain("SELECT a, b FROM t WHERE a < 100"));
  EXPECT_NE(plain.find("<- chosen"), std::string::npos);

  // `?` parameters bind like a prepared execution; the report reflects the
  // bound predicate's selectivity.
  const char* sql = "SELECT a, b FROM t WHERE a < ? AND b < ?";
  ASSERT_OK_AND_ASSIGN(std::string narrow,
                       conn.Explain(sql, std::vector<Value>{5, 3}));
  ASSERT_OK_AND_ASSIGN(std::string wide,
                       conn.Explain(sql, std::vector<Value>{490, 7}));
  EXPECT_NE(narrow.find("<- chosen"), std::string::npos);
  EXPECT_NE(narrow, wide);  // different selectivities, different report

  // Parameter counts must match exactly, as in a prepared execution.
  EXPECT_FALSE(conn.Explain(sql, std::vector<Value>{5}).ok());
  EXPECT_FALSE(conn.Explain(sql, std::vector<Value>{5, 3, 9}).ok());
  EXPECT_FALSE(conn.Explain(sql).ok());
  // Writes are not explainable.
  EXPECT_FALSE(conn.Explain("DELETE FROM t WHERE a < 5").ok());
}

// --- RowCursor errors ------------------------------------------------------

TEST_F(ApiTest, StreamSurfacesQueryErrorThroughNext) {
  api::Connection conn(db_.get());
  // A query that fails at execution: LM-pipelined position-filtering over a
  // bit-vector column is unsupported, and the failure surfaces mid-run.
  std::vector<Value> bv = testing::RunnyValues(80000, 3, 2.0, 9);
  ASSERT_OK(db_->CreateColumn("bv.y", codec::Encoding::kBitVector, bv));
  ASSERT_OK(db_->RegisterTable("bv", {{"y", "bv.y"}}));
  plan::SelectionQuery q;
  ASSERT_OK_AND_ASSIGN(const codec::ColumnReader* y, db_->GetColumn("bv.y"));
  q.columns.push_back({y, codec::Predicate::LessThan(2)});
  q.columns.push_back({y, codec::Predicate::LessThan(2)});
  plan::PlanConfig config;
  config.use_sorted_index = false;
  auto tmpl =
      plan::PlanTemplate::Selection(q, plan::Strategy::kLmPipelined, config);
  ASSERT_OK_AND_ASSIGN(api::RowCursor cursor, conn.Stream(tmpl));
  exec::TupleChunk chunk;
  // Drain to completion; the plan error must surface through Next.
  Status final_status = Status::OK();
  while (true) {
    Result<bool> has = cursor.Next(&chunk);
    if (!has.ok()) {
      final_status = has.status();
      break;
    }
    if (!*has) break;
  }
  EXPECT_FALSE(final_status.ok());
}

}  // namespace
}  // namespace cstore
