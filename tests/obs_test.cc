// Observability suite: trace spans, metrics math, EXPLAIN ANALYZE.
//
// The contracts under test:
//  * TraceRecorder spans recorded during an 8-worker mixed scheduler batch
//    are complete (duration assigned) and strictly nested per thread —
//    any two spans on one thread either nest or are disjoint — with morsel
//    spans from at least two workers and build/finalize phases present.
//    This test is in the TSan CI matrix: it is the data-race check for the
//    per-thread buffer design.
//  * EXPLAIN ANALYZE per-operator actuals agree with the run's RunStats
//    (root tuple operator rows == output_tuples) and surface end to end
//    through SQL.
//  * Histogram percentiles match a brute-force sort to within the log2
//    bucket's bounds, and the mean is exact.
//  * Running a query with tracing enabled changes nothing about its result
//    (bit-identical checksum, rows, stats that matter).

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <functional>
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
#include "exec/sys_scan.h"
#include "obs/metrics.h"
#include "obs/profile.h"
#include "obs/query_log.h"
#include "obs/trace.h"
#include "plan/parallel.h"
#include "sched/scheduler.h"
#include "test_util.h"
#include "tpch/dates.h"
#include "tpch/loader.h"
#include "util/string_dict.h"

namespace cstore {
namespace {

using plan::Strategy;
using testing::TempDir;

constexpr double kScaleFactor = 0.05;

class ObsTest : public ::testing::Test {
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

  void TearDown() override {
    // Never leak tracing into a neighboring test.
    obs::TraceRecorder::Global().set_enabled(false);
  }

  static plan::SelectionQuery Selection() {
    plan::SelectionQuery sel;
    Value mid = (li_->shipdate->meta().min_value +
                 li_->shipdate->meta().max_value) /
                2;
    sel.columns.push_back({li_->shipdate, codec::Predicate::LessThan(mid)});
    sel.columns.push_back({li_->quantity, codec::Predicate::LessThan(30)});
    return sel;
  }

  static plan::JoinQuery Join() {
    plan::JoinQuery q;
    q.left_key = jc_->orders_custkey;
    q.left_pred = codec::Predicate::LessThan(
        static_cast<Value>(jc_->num_customers / 2));
    q.left_payload = jc_->orders_shipdate;
    q.right_key = jc_->customer_custkey;
    q.right_payload = jc_->customer_nationcode;
    return q;
  }

  static TempDir* dir_;
  static db::Database* db_;
  static tpch::LineitemColumns* li_;
  static tpch::JoinColumns* jc_;
};

TempDir* ObsTest::dir_ = nullptr;
db::Database* ObsTest::db_ = nullptr;
tpch::LineitemColumns* ObsTest::li_ = nullptr;
tpch::JoinColumns* ObsTest::jc_ = nullptr;

// ---------------------------------------------------------------------------
// Histogram math
// ---------------------------------------------------------------------------

TEST(ObsHistogramTest, PercentilesWithinBucketOfBruteForce) {
  obs::Histogram h;
  std::vector<uint64_t> values;
  uint64_t x = 88172645463325252ull;  // xorshift64
  for (int i = 0; i < 20000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    uint64_t v = x % 1000000;
    values.push_back(v);
    h.Observe(v);
  }
  std::sort(values.begin(), values.end());
  obs::Histogram::Snapshot snap = h.snapshot();
  ASSERT_EQ(snap.count, values.size());

  for (double q : {0.0, 0.5, 0.9, 0.95, 0.99, 1.0}) {
    size_t idx = static_cast<size_t>(q * (values.size() - 1));
    uint64_t exact = values[idx];
    double est = snap.Percentile(q);
    // The estimate interpolates inside the bucket holding the rank-q
    // sample, so it lands within that bucket's bounds.
    int b = obs::Histogram::BucketOf(exact);
    double lo = b == 0 ? 0.0 : static_cast<double>(1ull << (b - 1));
    double hi = b == 0 ? 0.0 : lo * 2;
    EXPECT_GE(est, lo) << "q=" << q << " exact=" << exact;
    EXPECT_LE(est, hi) << "q=" << q << " exact=" << exact;
  }

  uint64_t sum = 0;
  for (uint64_t v : values) sum += v;
  EXPECT_DOUBLE_EQ(snap.Mean(),
                   static_cast<double>(sum) / values.size());
}

TEST(ObsHistogramTest, EmptyAndSingleton) {
  obs::Histogram h;
  EXPECT_EQ(h.snapshot().Percentile(0.99), 0.0);
  EXPECT_EQ(h.snapshot().Mean(), 0.0);
  h.Observe(42);
  obs::Histogram::Snapshot snap = h.snapshot();
  EXPECT_EQ(snap.count, 1u);
  EXPECT_GE(snap.Percentile(0.5), 32.0);
  EXPECT_LE(snap.Percentile(0.5), 64.0);
}

TEST(ObsMetricsTest, RegistryKindsAndDump) {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  obs::Counter* c = reg.GetCounter("obs_test_counter", "test counter");
  ASSERT_NE(c, nullptr);
  c->Inc(3);
  EXPECT_EQ(c, reg.GetCounter("obs_test_counter"));  // stable pointer
  EXPECT_EQ(reg.GetGauge("obs_test_counter"), nullptr);  // kind conflict

  obs::Gauge* g = reg.GetGauge("obs_test_gauge", "test gauge");
  ASSERT_NE(g, nullptr);
  g->Set(7);

  obs::Histogram* h =
      reg.GetHistogram("obs_test_hist{kind=\"x\"}", "test histogram");
  ASSERT_NE(h, nullptr);
  h->Observe(100);

  std::string text = reg.PrometheusText();
  EXPECT_NE(text.find("obs_test_counter 3"), std::string::npos) << text;
  EXPECT_NE(text.find("obs_test_gauge 7"), std::string::npos) << text;
  EXPECT_NE(text.find("obs_test_hist_count{kind=\"x\"} 1"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("quantile=\"0.5\""), std::string::npos) << text;
}

// ---------------------------------------------------------------------------
// Trace spans under a concurrent mixed batch
// ---------------------------------------------------------------------------

TEST_F(ObsTest, SpansCompleteAndStrictlyNestedUnderMixedBatch) {
  obs::TraceRecorder& rec = obs::TraceRecorder::Global();
  rec.Clear();
  rec.set_enabled(true);

  {
    sched::Scheduler::Options so;
    so.num_workers = 8;
    sched::Scheduler scheduler(so);
    api::Connection conn(db_, &scheduler);
    plan::SelectionQuery sel = Selection();
    plan::JoinQuery join = Join();

    std::vector<api::PendingResult> pending;
    const Strategy strategies[] = {Strategy::kEmPipelined,
                                   Strategy::kEmParallel,
                                   Strategy::kLmPipelined,
                                   Strategy::kLmParallel};
    for (int round = 0; round < 4; ++round) {
      for (Strategy s : strategies) {
        pending.push_back(
            conn.Submit(plan::PlanTemplate::Selection(sel, s), false));
      }
      pending.push_back(conn.Submit(
          plan::PlanTemplate::Join(join, exec::JoinRightMode::kMultiColumn),
          false));
    }
    for (auto& p : pending) {
      auto r = p.Wait();
      ASSERT_TRUE(r.ok()) << r.status().ToString();
    }
  }
  rec.set_enabled(false);

  std::vector<obs::TraceEvent> events = rec.Snapshot();
  ASSERT_FALSE(events.empty());

  std::map<uint32_t, std::vector<const obs::TraceEvent*>> by_tid;
  std::set<std::string> names;
  std::set<uint32_t> morsel_tids;
  for (const obs::TraceEvent& e : events) {
    names.insert(e.name);
    if (e.phase == 'i') continue;  // instants carry no duration
    EXPECT_EQ(e.phase, 'X');
    by_tid[e.tid].push_back(&e);
    if (std::string(e.name) == "morsel") morsel_tids.insert(e.tid);
  }

  // The batch exercised every instrumented phase.
  EXPECT_TRUE(names.count("morsel")) << "no morsel spans";
  EXPECT_TRUE(names.count("join_build")) << "no join build spans";
  EXPECT_TRUE(names.count("finalize")) << "no finalize spans";
  EXPECT_TRUE(names.count("queue_wait")) << "no queue-wait instants";
  // 8 workers, 20 queries: execution cannot have stayed on one thread.
  EXPECT_GE(morsel_tids.size(), 2u);

  // Strict nesting: any two complete spans on one thread either nest or
  // are disjoint. A worker's spans are sequential scopes; overlap without
  // containment would mean a span survived outside its RAII scope.
  for (const auto& [tid, spans] : by_tid) {
    for (size_t i = 0; i < spans.size(); ++i) {
      uint64_t a0 = spans[i]->start_ns;
      uint64_t a1 = a0 + spans[i]->dur_ns;
      for (size_t j = i + 1; j < spans.size(); ++j) {
        uint64_t b0 = spans[j]->start_ns;
        uint64_t b1 = b0 + spans[j]->dur_ns;
        bool disjoint = a1 <= b0 || b1 <= a0;
        bool a_in_b = b0 <= a0 && a1 <= b1;
        bool b_in_a = a0 <= b0 && b1 <= a1;
        ASSERT_TRUE(disjoint || a_in_b || b_in_a)
            << "tid " << tid << ": spans '" << spans[i]->name << "' ["
            << a0 << "," << a1 << ") and '" << spans[j]->name << "' ["
            << b0 << "," << b1 << ") overlap without nesting";
      }
    }
  }

  // The export is loadable JSON with the Chrome trace_event envelope.
  std::string json = rec.ExportChromeJson();
  EXPECT_EQ(json.rfind("{\"traceEvents\":[", 0), 0u);
  EXPECT_EQ(json.substr(json.size() - 3), "]}\n");
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  rec.Clear();
}

TEST_F(ObsTest, DisabledAndEnabledTracingProduceIdenticalResults) {
  api::Connection conn(db_);
  const std::string sql =
      "SELECT shipdate, SUM(quantity) FROM lineitem "
      "WHERE shipdate < '1995-06-01' GROUP BY shipdate";

  obs::TraceRecorder& rec = obs::TraceRecorder::Global();
  rec.set_enabled(false);
  ASSERT_OK_AND_ASSIGN(api::QueryResult off, conn.Query(sql, {}, 2));
  rec.set_enabled(true);
  ASSERT_OK_AND_ASSIGN(api::QueryResult on, conn.Query(sql, {}, 2));
  rec.set_enabled(false);
  rec.Clear();

  EXPECT_EQ(off.stats.output_tuples, on.stats.output_tuples);
  EXPECT_EQ(off.stats.checksum, on.stats.checksum);
  EXPECT_EQ(off.stats.exec.blocks_fetched, on.stats.exec.blocks_fetched);
  EXPECT_EQ(off.tuples.num_tuples(), on.tuples.num_tuples());
}

// ---------------------------------------------------------------------------
// EXPLAIN ANALYZE
// ---------------------------------------------------------------------------

TEST_F(ObsTest, PlanProfileActualsMatchRunStats) {
  auto profile = std::make_shared<obs::PlanProfile>();
  plan::PlanConfig config;
  config.num_workers = 2;
  config.profile = profile;
  plan::PlanTemplate tmpl = plan::PlanTemplate::Selection(
      Selection(), Strategy::kLmParallel, config);
  ASSERT_OK_AND_ASSIGN(api::QueryResult result,
                       api::Connection(db_).Query(tmpl));
  const plan::RunStats& stats = result.stats;
  ASSERT_GT(stats.output_tuples, 0u);

  auto rows = profile->rows();
  ASSERT_FALSE(rows.empty());
  uint64_t root_rows = 0;
  int root_index = -1;
  for (const auto& [key, row] : rows) {
    EXPECT_GE(row.actuals.calls, 1u) << row.name;
    // Tuple-section root = highest ownership index in section kTuple.
    if (key.first == static_cast<int>(obs::OpSection::kTuple) &&
        key.second > root_index) {
      root_index = key.second;
      root_rows = row.actuals.rows;
    }
  }
  ASSERT_GE(root_index, 0) << "no tuple-section operators profiled";
  // The tuple pipeline's root emits exactly what the executor counted.
  EXPECT_EQ(root_rows, stats.output_tuples);
  EXPECT_GT(profile->TotalTimeNs(), 0u);
}

TEST_F(ObsTest, ExplainAnalyzeSqlEndToEnd) {
  api::Connection conn(db_);
  ASSERT_OK_AND_ASSIGN(
      api::QueryResult r,
      conn.Query("EXPLAIN ANALYZE SELECT shipdate, SUM(quantity) FROM "
                 "lineitem WHERE shipdate < '1995-06-01' GROUP BY "
                 "shipdate"));
  ASSERT_FALSE(r.explain_text.empty());
  EXPECT_EQ(r.tuples.num_tuples(), 0u);  // report instead of rows
  EXPECT_NE(r.explain_text.find("strategy:"), std::string::npos)
      << r.explain_text;
  EXPECT_NE(r.explain_text.find("plan (actual"), std::string::npos)
      << r.explain_text;
  EXPECT_NE(r.explain_text.find("calls="), std::string::npos)
      << r.explain_text;
  EXPECT_NE(r.explain_text.find("actual: wall="), std::string::npos)
      << r.explain_text;
  EXPECT_GT(r.stats.output_tuples, 0u);  // it really executed
  // The deterministic work counters print next to the wall time.
  EXPECT_GT(r.stats.exec.predicate_evals, 0u);
  EXPECT_NE(r.explain_text.find(
                "  predicate_evals=" +
                std::to_string(r.stats.exec.predicate_evals) + "  "),
            std::string::npos)
      << r.explain_text;
  EXPECT_NE(r.explain_text.find(
                "  tuples_constructed=" +
                std::to_string(r.stats.exec.tuples_constructed) + "  "),
            std::string::npos)
      << r.explain_text;

  // Plain EXPLAIN predicts without executing: no actuals section.
  ASSERT_OK_AND_ASSIGN(
      api::QueryResult plan_only,
      conn.Query("EXPLAIN SELECT shipdate FROM lineitem WHERE shipdate < "
                 "'1995-06-01'"));
  ASSERT_FALSE(plan_only.explain_text.empty());
  EXPECT_EQ(plan_only.explain_text.find("plan (actual"), std::string::npos)
      << plan_only.explain_text;

  // EXPLAIN is Query-only: not preparable, not streamable, SELECT-only.
  EXPECT_FALSE(conn.Prepare("EXPLAIN SELECT shipdate FROM lineitem").ok());
  EXPECT_FALSE(conn.Stream("EXPLAIN SELECT shipdate FROM lineitem").ok());
  EXPECT_FALSE(
      conn.Query("EXPLAIN DELETE FROM lineitem WHERE linenum = 1").ok());
}

TEST_F(ObsTest, ExplainAnalyzeApiWithParams) {
  api::Connection conn(db_);
  ASSERT_OK_AND_ASSIGN(
      api::QueryResult r,
      conn.ExplainAnalyze(
          "SELECT shipdate FROM lineitem WHERE shipdate < ?",
          {static_cast<Value>(tpch::StringToDay("1995-06-01"))}));
  EXPECT_NE(r.explain_text.find("plan (actual"), std::string::npos);
  EXPECT_GT(r.stats.output_tuples, 0u);
  // Wrong arity is an error, not a crash.
  EXPECT_FALSE(
      conn.ExplainAnalyze("SELECT shipdate FROM lineitem WHERE shipdate < ?",
                          {})
          .ok());
}

TEST_F(ObsTest, ExplainAnalyzeRunIsLoggedWithItsStatementText) {
  api::Connection conn(db_);
  const std::string select = "SELECT linenum FROM lineitem WHERE linenum < 3";
  const std::string explain = "EXPLAIN ANALYZE " + select;
  // The label system.query_log shows for the one run `run` makes.
  auto logged_label = [&](const std::function<Status()>& run) -> Value {
    obs::QueryLog::Global().Clear();
    Status st = run();
    EXPECT_TRUE(st.ok()) << st.ToString();
    auto rows = conn.Query("SELECT label FROM system.query_log");
    EXPECT_TRUE(rows.ok()) << rows.status().ToString();
    if (!rows.ok() || rows->tuples.num_tuples() != 1) return 0;
    return rows->tuples.tuple(0)[0];
  };
  util::StringDict& dict = util::StringDict::Global();
  // Query and Submit log the whole EXPLAIN ANALYZE statement.
  EXPECT_EQ(logged_label([&] { return conn.Query(explain).status(); }),
            dict.Intern(explain));
  EXPECT_EQ(
      logged_label([&] { return conn.Submit(explain).Wait().status(); }),
      dict.Intern(explain));
  // ExplainAnalyze logs the SELECT it was given.
  EXPECT_EQ(logged_label([&] { return conn.ExplainAnalyze(select).status(); }),
            dict.Intern(select));
}

TEST_F(ObsTest, ConnectionMetricsDump) {
  api::Connection conn(db_);
  ASSERT_OK(conn.Query("SELECT shipdate FROM lineitem WHERE shipdate < "
                       "'1995-01-01'")
                .status());
  std::string text = conn.Metrics();
  EXPECT_NE(text.find("cstore_bufferpool_hit_ratio"), std::string::npos);
  EXPECT_NE(text.find("cstore_chunk_pool_acquires"), std::string::npos);
  EXPECT_NE(text.find("cstore_retired_fds"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Query log ring
// ---------------------------------------------------------------------------

TEST(QueryLogTest, RingWraparoundKeepsNewestInSeqOrder) {
  obs::QueryLog log(8);
  for (int i = 0; i < 20; ++i) {
    obs::QueryLogEntry e;
    e.rows_out = static_cast<uint64_t>(i);
    log.Record(std::move(e));
  }
  EXPECT_EQ(log.total_recorded(), 20u);
  std::vector<obs::QueryLogEntry> entries = log.Snapshot();
  ASSERT_EQ(entries.size(), 8u);
  // The 8 survivors are exactly records 12..19, oldest first.
  for (size_t i = 0; i < entries.size(); ++i) {
    EXPECT_EQ(entries[i].seq, 12 + i);
    EXPECT_EQ(entries[i].rows_out, 12 + i);
  }
}

TEST(QueryLogTest, DisabledRecordsNothing) {
  obs::QueryLog log(8);
  log.set_enabled(false);
  obs::QueryLogEntry e;
  log.Record(std::move(e));
  EXPECT_EQ(log.total_recorded(), 0u);
  EXPECT_TRUE(log.Snapshot().empty());
}

// In the TSan CI matrix: 8 finalizing threads hammer one ring through the
// wrap path while a 9th snapshots it. Consistency contract: every snapshot
// holds <= capacity entries with strictly ascending seq, and each entry's
// payload is the one recorded under that seq (no torn slots).
TEST(QueryLogTest, ConcurrentWritersAndSnapshotsStayConsistent) {
  obs::QueryLog log(64);
  constexpr int kThreads = 8;
  constexpr int kPerThread = 500;
  std::atomic<bool> stop{false};
  std::thread reader([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      std::vector<obs::QueryLogEntry> snap = log.Snapshot();
      ASSERT_LE(snap.size(), 64u);
      for (size_t i = 0; i < snap.size(); ++i) {
        // Every visible slot holds a complete Record()ed entry, never a
        // half-written one (the stripe lock covers the whole copy).
        ASSERT_EQ(snap[i].rows_out, 7u);
        ASSERT_EQ(snap[i].label, "writer entry");
        if (i > 0) {
          ASSERT_GT(snap[i].seq, snap[i - 1].seq);
        }
      }
    }
  });
  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&] {
      for (int i = 0; i < kPerThread; ++i) {
        obs::QueryLogEntry e;
        e.rows_out = 7;
        e.label = "writer entry";
        log.Record(std::move(e));
      }
    });
  }
  for (auto& w : writers) w.join();
  stop.store(true, std::memory_order_relaxed);
  reader.join();
  EXPECT_EQ(log.total_recorded(),
            static_cast<uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(log.Snapshot().size(), 64u);
}

TEST(QueryLogTest, SlowThresholdFlagsOnlyCrossingEntries) {
  obs::QueryLog log(8);
  log.SetSlowThresholdMicros(1000);
  obs::QueryLogEntry fast;
  fast.total_usec = 500;
  log.Record(std::move(fast));
  obs::QueryLogEntry slow;
  slow.total_usec = 1500;
  slow.label = "the slow one";
  log.Record(std::move(slow));
  std::vector<obs::QueryLogEntry> entries = log.Snapshot();
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_FALSE(entries[0].slow);
  EXPECT_TRUE(entries[1].slow);

  // Threshold 0 disables the check entirely.
  log.Clear();
  log.SetSlowThresholdMicros(0);
  obs::QueryLogEntry e;
  e.total_usec = UINT64_MAX;
  log.Record(std::move(e));
  EXPECT_FALSE(log.Snapshot()[0].slow);
}

// ---------------------------------------------------------------------------
// Trace buffer cap
// ---------------------------------------------------------------------------

TEST(TraceCapTest, PerThreadCapDropsAndCounts) {
  obs::TraceRecorder& rec = obs::TraceRecorder::Global();
  rec.Clear();
  rec.set_max_events_per_thread(16);
  rec.set_enabled(true);
  const uint64_t dropped_before = rec.dropped_events();
  for (int i = 0; i < 50; ++i) {
    rec.Instant("cap_test", "test", "i", i);
  }
  rec.set_enabled(false);
  EXPECT_EQ(rec.Snapshot().size(), 16u);
  EXPECT_EQ(rec.dropped_events() - dropped_before, 34u);
  // The drop counter surfaces through the registry (and system.metrics).
  obs::Counter* c = obs::MetricsRegistry::Global().GetCounter(
      "cstore_trace_dropped_spans");
  ASSERT_NE(c, nullptr);
  EXPECT_GE(c->value(), 34u);
  rec.set_max_events_per_thread(
      obs::TraceRecorder::kDefaultMaxEventsPerThread);
  rec.Clear();
}

// ---------------------------------------------------------------------------
// system.* virtual tables + query log end to end
// ---------------------------------------------------------------------------

TEST_F(ObsTest, QueryLogRowMatchesRunStats) {
  obs::QueryLog& log = obs::QueryLog::Global();
  log.Clear();
  obs::TraceRecorder& rec = obs::TraceRecorder::Global();
  rec.Clear();
  rec.set_enabled(true);
  sched::Scheduler::Options so;
  so.num_workers = 4;
  sched::Scheduler scheduler(so);
  api::Connection conn(db_, &scheduler);
  ASSERT_OK_AND_ASSIGN(
      api::QueryResult r,
      conn.Query(plan::PlanTemplate::Selection(Selection(),
                                               Strategy::kEmParallel)));
  rec.set_enabled(false);
  std::vector<obs::QueryLogEntry> entries = log.Snapshot();
  ASSERT_EQ(entries.size(), 1u);
  const obs::QueryLogEntry& e = entries[0];
  EXPECT_EQ(e.label, "plan:selection");
  EXPECT_EQ(e.strategy, "EM-parallel");
  EXPECT_EQ(e.status, "ok");
  EXPECT_EQ(e.workers, 4);
  EXPECT_EQ(e.priority, 1);
  // The log row is the query's own RunStats, field for field.
  EXPECT_EQ(e.rows_out, r.stats.output_tuples);
  EXPECT_EQ(e.cache_hits, r.stats.io.cache_hits);
  EXPECT_EQ(e.physical_reads, r.stats.io.physical_reads);
  EXPECT_EQ(e.bytes_read,
            (r.stats.io.cache_hits + r.stats.io.physical_reads) * kPageSize);
  EXPECT_EQ(e.pool_lock_acquisitions, r.stats.io.pool_lock_acquisitions);
  EXPECT_EQ(e.chunk_pool_acquires, r.stats.exec.chunk_pool_acquires);
  EXPECT_EQ(e.chunk_pool_reuses, r.stats.exec.chunk_pool_reuses);
  EXPECT_EQ(e.total_usec, static_cast<uint64_t>(r.stats.wall_micros));
  EXPECT_EQ(e.queue_wait_usec + e.exec_usec, e.total_usec);
  EXPECT_GT(e.query_id, 0u);
  // One id: the log row, the result's RunStats and the "query" arg of the
  // traced query's morsel spans.
  EXPECT_EQ(e.query_id, r.stats.query_id);
  size_t morsel_spans = 0;
  for (const obs::TraceEvent& ev : rec.Snapshot()) {
    if (std::string(ev.name) != "morsel") continue;
    ++morsel_spans;
    bool found = false;
    for (int i = 0; i < ev.num_args; ++i) {
      if (std::string(ev.arg_keys[i]) == "query") {
        EXPECT_EQ(ev.arg_vals[i], static_cast<int64_t>(r.stats.query_id));
        found = true;
      }
    }
    EXPECT_TRUE(found) << "morsel span without a query arg";
  }
  EXPECT_GT(morsel_spans, 0u);
  rec.Clear();

  // A caller-thread run (a standalone 1-worker session) carries its log
  // row's id too.
  log.Clear();
  api::Connection inline_conn(db_);
  ASSERT_OK_AND_ASSIGN(
      api::QueryResult ri,
      inline_conn.Query(plan::PlanTemplate::Selection(
          Selection(), Strategy::kEmParallel)));
  entries = log.Snapshot();
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0].workers, 1);
  EXPECT_GT(ri.stats.query_id, 0u);
  EXPECT_EQ(entries[0].query_id, ri.stats.query_id);
  EXPECT_NE(ri.stats.query_id, r.stats.query_id);
}

TEST_F(ObsTest, FinalizeSpanRecordedBeforeWaitReturns) {
  // A client that stops tracing as soon as Wait() returns must still find
  // that query's finalize span: the scheduler records it before it
  // publishes the result.
  obs::TraceRecorder& rec = obs::TraceRecorder::Global();
  rec.Clear();
  rec.set_enabled(true);
  sched::Scheduler::Options so;
  so.num_workers = 2;
  sched::Scheduler scheduler(so);
  api::Connection conn(db_, &scheduler);
  const plan::PlanTemplate tmpl =
      plan::PlanTemplate::Selection(Selection(), Strategy::kLmParallel);
  int missing = 0;
  for (int i = 0; i < 60; ++i) {
    ASSERT_OK_AND_ASSIGN(api::QueryResult r, conn.Submit(tmpl, false).Wait());
    bool found = false;
    for (const obs::TraceEvent& ev : rec.Snapshot()) {
      if (std::string(ev.name) != "finalize") continue;
      for (int a = 0; a < ev.num_args; ++a) {
        found |= std::string(ev.arg_keys[a]) == "query" &&
                 ev.arg_vals[a] == static_cast<int64_t>(r.stats.query_id);
      }
    }
    missing += found ? 0 : 1;
  }
  rec.set_enabled(false);
  rec.Clear();
  EXPECT_EQ(missing, 0) << "of 60 queries, finalize spans missing";
}

TEST_F(ObsTest, StreamSqlRecordsFrontEndSpans) {
  // Stream(sql) is the server's SELECT path: a traced stream shows its
  // SQL-layer time like Query does.
  obs::TraceRecorder& rec = obs::TraceRecorder::Global();
  rec.Clear();
  rec.set_enabled(true);
  {
    api::Connection conn(db_);
    ASSERT_OK_AND_ASSIGN(
        api::RowCursor cursor,
        conn.Stream("SELECT shipdate FROM lineitem "
                    "WHERE shipdate < '1995-01-01'"));
    uint64_t rows = 0;
    exec::TupleChunk chunk;
    while (true) {
      ASSERT_OK_AND_ASSIGN(bool has, cursor.Next(&chunk));
      if (!has) break;
      rows += chunk.num_tuples();
    }
    EXPECT_GT(rows, 0u);
  }
  rec.set_enabled(false);
  std::set<std::string> names;
  for (const obs::TraceEvent& e : rec.Snapshot()) names.insert(e.name);
  rec.Clear();
  EXPECT_TRUE(names.count("parse")) << "no parse span";
  EXPECT_TRUE(names.count("bind")) << "no bind span";
  EXPECT_TRUE(names.count("plan")) << "no plan span";
}

TEST_F(ObsTest, QueryLogRecordsSqlTextAndStandalonePath) {
  obs::QueryLog& log = obs::QueryLog::Global();
  api::Connection conn(db_);  // standalone: no scheduler
  const std::string sql =
      "SELECT shipdate FROM lineitem WHERE shipdate < '1995-01-01'";
  // One row per statement on both standalone routes: inline at 1 worker,
  // the session pool at 2 (where the query waits in a real queue).
  for (int workers : {1, 2}) {
    log.Clear();
    ASSERT_OK_AND_ASSIGN(api::QueryResult r, conn.Query(sql, {}, workers));
    std::vector<obs::QueryLogEntry> entries = log.Snapshot();
    ASSERT_EQ(entries.size(), 1u) << "workers=" << workers;
    EXPECT_EQ(entries[0].label, sql);
    EXPECT_EQ(entries[0].status, "ok");
    EXPECT_EQ(entries[0].queue_wait_usec + entries[0].exec_usec,
              entries[0].total_usec)
        << "workers=" << workers;
    EXPECT_EQ(entries[0].rows_out, r.stats.output_tuples);
  }
}

TEST_F(ObsTest, SystemTablesAnswerThroughAllStrategies) {
  // Ground truth planted in the registry.
  obs::Counter* probe = obs::MetricsRegistry::Global().GetCounter(
      "obs_systable_probe", "system-table cross-check");
  ASSERT_NE(probe, nullptr);
  probe->Inc(42);

  api::Connection conn(db_);
  const std::string sql =
      "SELECT value FROM system.metrics WHERE name = 'obs_systable_probe'";
  const Strategy strategies[] = {Strategy::kEmPipelined,
                                 Strategy::kEmParallel,
                                 Strategy::kLmPipelined,
                                 Strategy::kLmParallel};
  for (Strategy s : strategies) {
    ASSERT_OK_AND_ASSIGN(api::QueryResult r, conn.Query(sql, s));
    ASSERT_EQ(r.tuples.num_tuples(), 1u) << plan::StrategyName(s);
    EXPECT_EQ(r.tuples.tuple(0)[0], 42) << plan::StrategyName(s);
  }

  // Aggregation over the same virtual rows.
  ASSERT_OK_AND_ASSIGN(
      api::QueryResult agg,
      conn.Query("SELECT SUM(value) FROM system.metrics WHERE name = "
                 "'obs_systable_probe'"));
  ASSERT_EQ(agg.tuples.num_tuples(), 1u);
  EXPECT_EQ(agg.tuples.tuple(0)[0], 42);

  // A pooled session: Query runs a system table this small on the caller's
  // thread, Submit on the scheduler's pool.
  sched::Scheduler::Options so;
  so.num_workers = 4;
  sched::Scheduler scheduler(so);
  api::Connection pooled(db_, &scheduler);
  ASSERT_OK_AND_ASSIGN(api::QueryResult pr, pooled.Query(sql, {}));
  ASSERT_EQ(pr.tuples.num_tuples(), 1u);
  EXPECT_EQ(pr.tuples.tuple(0)[0], 42);
  ASSERT_OK_AND_ASSIGN(api::QueryResult submitted, pooled.Submit(sql).Wait());
  ASSERT_EQ(submitted.tuples.num_tuples(), 1u);
  EXPECT_EQ(submitted.tuples.tuple(0)[0], 42);
}

TEST_F(ObsTest, SystemQueriesTablesPoolsAndLogCrossCheck) {
  api::Connection conn(db_);

  // system.queries: plant a live query and read it back by label.
  auto lq = std::make_shared<obs::LiveQuery>();
  lq->query_id = obs::NextQueryId();
  lq->label = "held for inspection";
  lq->priority = 3;
  lq->submit_usec = obs::MonotonicMicros();
  lq->morsels_total = 5;
  lq->state.store(1, std::memory_order_relaxed);
  lq->morsels_done.store(2, std::memory_order_relaxed);
  obs::LiveQueryRegistry::Global().Register(lq);
  ASSERT_OK_AND_ASSIGN(
      api::QueryResult live,
      conn.Query("SELECT query_id, priority, morsels_done, morsels_total "
                 "FROM system.queries WHERE label = 'held for inspection'"));
  obs::LiveQueryRegistry::Global().Unregister(lq->query_id);
  ASSERT_EQ(live.tuples.num_tuples(), 1u);
  EXPECT_EQ(live.tuples.tuple(0)[0],
            static_cast<Value>(lq->query_id));
  EXPECT_EQ(live.tuples.tuple(0)[1], 3);
  EXPECT_EQ(live.tuples.tuple(0)[2], 2);
  EXPECT_EQ(live.tuples.tuple(0)[3], 5);

  // system.tables: the lineitem registration, checked against the catalog.
  ASSERT_OK_AND_ASSIGN(std::vector<std::string> li_cols,
                       db_->TableColumns("lineitem"));
  ASSERT_OK_AND_ASSIGN(
      api::QueryResult tab,
      conn.Query("SELECT columns, base_rows, ws_rows FROM system.tables "
                 "WHERE table = 'lineitem'"));
  ASSERT_EQ(tab.tuples.num_tuples(), 1u);
  EXPECT_EQ(tab.tuples.tuple(0)[0],
            static_cast<Value>(li_cols.size()));
  EXPECT_EQ(tab.tuples.tuple(0)[1],
            static_cast<Value>(li_->shipdate->num_values()));

  // system.pools: buffer-pool counters equal the IoStats ground truth
  // (a system-table scan serves in-memory tail blocks — it does no
  // buffer-pool I/O itself, so the value cannot move between the snapshot
  // and this check).
  const storage::IoStats io = db_->pool()->stats();
  ASSERT_OK_AND_ASSIGN(
      api::QueryResult pool_rows,
      conn.Query("SELECT value FROM system.pools WHERE pool = 'buffer_pool' "
                 "AND metric = 'cache_hits'"));
  ASSERT_EQ(pool_rows.tuples.num_tuples(), 1u);
  EXPECT_EQ(pool_rows.tuples.tuple(0)[0],
            static_cast<Value>(io.cache_hits));

  // system.query_log: a finished query shows up with its SQL text as the
  // (dictionary-encoded) label, and the logged row count matches.
  obs::QueryLog::Global().Clear();
  const std::string marked =
      "SELECT quantity FROM lineitem WHERE quantity < 10";
  ASSERT_OK_AND_ASSIGN(api::QueryResult marked_r, conn.Query(marked, {}, 1));
  ASSERT_OK_AND_ASSIGN(
      api::QueryResult logged,
      conn.Query("SELECT label, rows_out, status FROM system.query_log"));
  ASSERT_GE(logged.tuples.num_tuples(), 1u);
  const Value want_label = util::StringDict::Global().Intern(marked);
  const Value want_ok = util::StringDict::Global().Intern("ok");
  bool found = false;
  for (size_t i = 0; i < logged.tuples.num_tuples(); ++i) {
    if (logged.tuples.tuple(i)[0] != want_label) continue;
    found = true;
    EXPECT_EQ(logged.tuples.tuple(i)[1],
              static_cast<Value>(marked_r.stats.output_tuples));
    EXPECT_EQ(logged.tuples.tuple(i)[2], want_ok);
  }
  EXPECT_TRUE(found) << "marked query not present in system.query_log";

  // Writes against any system table are rejected.
  EXPECT_FALSE(db_->Insert("system.metrics", {{1, 2, 3}}).ok());
  EXPECT_FALSE(conn.Query("DELETE FROM system.query_log WHERE seq = 0").ok());
  EXPECT_FALSE(
      conn.Query("UPDATE system.metrics SET value = 0 WHERE value = 42")
          .ok());
}

TEST(SystemTableStorageTest, ReadingSystemTablesWritesNoFile) {
  // System tables are registered over in-memory zero-row readers: querying
  // every one of them, before and after a reopen, leaves a fresh directory
  // empty.
  TempDir dir;
  auto files_in_dir = [&dir] {
    size_t n = 0;
    for ([[maybe_unused]] const auto& entry :
         std::filesystem::directory_iterator(dir.path())) {
      ++n;
    }
    return n;
  };
  db::Database::Options opts;
  opts.dir = dir.path();
  for (int open = 0; open < 2; ++open) {
    ASSERT_OK_AND_ASSIGN(std::unique_ptr<db::Database> db,
                         db::Database::Open(opts));
    api::Connection conn(db.get());
    for (const exec::SysTableDef& def : exec::SysTables()) {
      const std::string sql = std::string("SELECT ") + def.columns[0].name +
                              " FROM " + def.name;
      const Status st = conn.Query(sql).status();
      ASSERT_TRUE(st.ok()) << sql << ": " << st.ToString();
      EXPECT_EQ(files_in_dir(), 0u) << "open " << open << ": " << sql;
    }
  }
}

TEST(StringDictTest, InternLookupRoundTrip) {
  util::StringDict& dict = util::StringDict::Global();
  Value id = dict.Intern("round-trip probe");
  EXPECT_GE(id, util::StringDict::kBase);
  EXPECT_TRUE(util::StringDict::IsDictId(id));
  EXPECT_FALSE(util::StringDict::IsDictId(12345));
  EXPECT_EQ(dict.Intern("round-trip probe"), id);  // stable
  const std::string* s = dict.Lookup(id);
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(*s, "round-trip probe");
  EXPECT_EQ(dict.Lookup(42), nullptr);
}

}  // namespace
}  // namespace cstore
