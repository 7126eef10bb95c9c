// api::Connection — the one client surface of the engine.
//
// A Connection is a session handle over a Database plus (optionally) a
// shared sched::Scheduler. It owns per-session settings (worker count,
// strategy override, scheduler priority), captures a read-your-writes
// snapshot per statement, and exposes every way of running work through
// one unified result shape:
//
//   Query(sql)    — synchronous; returns a materialized api::QueryResult
//   Submit(sql)   — asynchronous; returns an api::PendingResult handle
//   Stream(sql)   — streaming; returns an api::RowCursor with backpressure
//   Prepare(sql)  — parse/bind once, execute many times with `?` params;
//                   each execution resolves, advises and plans as one-shot
//                   SQL does, under a fresh snapshot
//   Query/Submit/Stream(plan::PlanTemplate) — the typed-plan path the
//                   paper-figure benches use (no SQL, no projection)
//
// Every query runs through one executor (sched/scheduler.h), in one of two
// places. Query, a prepared Execute and Stream choose by one rule on every
// session (RunsOnCaller):
//
//   * The caller's thread (sched::RunOnCaller), when the plan touches at
//     most one window's positions (PlanTemplate::TouchedPositions() <=
//     kChunkPositions): an index lookup, or a scan of a table of one
//     window. A morsel is at least one window, so a pool could only hand
//     the whole plan to one worker, and the two thread hand-offs would
//     dominate a point query's latency. A standalone session's synchronous
//     query with work for one worker runs there too, whatever its size. A
//     stream run there returns a cursor that already holds its one result
//     chunk and its final stats.
//   * A pool, otherwise. Pooled connections run on the shared scheduler,
//     interleaving with other sessions' queries at morsel granularity.
//     Standalone connections own long-lived session pools instead — one
//     sched::Scheduler per worker count the session runs at, created on
//     first use — but a stream gets a private pool per cursor
//     (RowCursor::own_scheduler_). A consumer that stops reading blocks
//     the producing worker in ChunkQueue::Push; on a shared session pool,
//     a session that runs another statement while it holds an undrained
//     cursor would deadlock.
//
// Submit always goes to a pool.
//
// Destroying a standalone Connection waits for its submitted queries, so
// their PendingResults still resolve afterwards.
//
// Every session prices plans with the same cost-model constants: the CPU
// constants are calibrated once per process (model::Calibrator::ForProcess)
// and combined with the database's DiskModel on each call, so two sessions
// never disagree on a pick.
//
// Thread safety: a Connection may be shared across threads for Query /
// Submit / Stream of *independent* statements (the underlying catalog and
// scheduler are thread-safe). Session mutation — set_settings — belongs to
// setup, before the Connection is shared. PreparedStatement objects are
// single-threaded.

#ifndef CSTORE_API_CONNECTION_H_
#define CSTORE_API_CONNECTION_H_

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "api/result.h"
#include "api/statement.h"
#include "db/database.h"
#include "model/advisor.h"
#include "model/cost_params.h"
#include "sched/scheduler.h"
#include "sql/ast.h"
#include "util/status.h"

namespace cstore {
namespace api {

class Connection {
 public:
  struct Settings {
    // Worker count of a standalone connection's queries: its session pool
    // width (1 = synchronous queries run on the caller's thread) and the
    // advisor's parallelism input. Pooled connections take parallelism from
    // the scheduler's pool width. A plan touching at most one window runs
    // on the caller's thread at any width.
    int num_workers = 1;
    // Session-wide strategy override; the advisor picks when unset.
    // Per-call overrides win over this.
    std::optional<plan::Strategy> strategy;
    // Scheduler priority for submitted queries (>= 1: that many consecutive
    // morsel claims per rotation).
    int priority = 1;
    // RowCursor bound: chunks buffered between producer and consumer before
    // backpressure stalls the producing worker.
    size_t stream_queue_chunks = 4;
    // Optional shared gauge of bytes currently buffered in this session's
    // streaming queues (added on push, subtracted on pop/cancel). The SQL
    // server points every session at one gauge so admission control can
    // shed on total buffered output; null = no accounting. Not owned; must
    // outlive the session's cursors.
    std::atomic<int64_t>* stream_byte_account = nullptr;
  };

  /// `scheduler == nullptr` makes a standalone session (session pools);
  /// otherwise every query runs on the shared pool. Neither `db` nor
  /// `scheduler` is owned; both must outlive the Connection.
  explicit Connection(db::Database* db, sched::Scheduler* scheduler = nullptr);
  Connection(db::Database* db, sched::Scheduler* scheduler,
             Settings settings);
  /// Waits for every query submitted to the session pools.
  ~Connection();
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  db::Database* database() const { return db_; }
  sched::Scheduler* scheduler() const { return scheduler_; }
  const Settings& settings() const { return settings_; }
  void set_settings(Settings settings) { settings_ = std::move(settings); }

  // --- SQL --------------------------------------------------------------

  /// Executes one statement (SELECT / INSERT / DELETE / UPDATE) against a
  /// write snapshot captured at bind time. `num_workers` > 0 overrides the
  /// session's worker count for this call. Statements containing `?` must
  /// go through Prepare.
  Result<QueryResult> Query(const std::string& sql,
                            std::optional<plan::Strategy> strategy = {},
                            int num_workers = 0);

  /// Parses, binds, and strategy-advises now (errors are carried in the
  /// handle); execution proceeds concurrently on the session's scheduler
  /// (a standalone session's pool of settings().num_workers). Write
  /// statements execute at submit time, so later statements observe them.
  PendingResult Submit(const std::string& sql,
                       std::optional<plan::Strategy> strategy = {});

  /// Streaming execution of a SELECT: chunks flow to the returned cursor
  /// through a bounded queue (see Settings::stream_queue_chunks). A plan
  /// that touches at most one window runs here, on the caller's thread,
  /// and the cursor holds its result.
  Result<RowCursor> Stream(const std::string& sql,
                           std::optional<plan::Strategy> strategy = {});

  /// Parses (span "parse") and binds (span "bind") once; the returned
  /// statement executes many times with `?` parameter values, each
  /// execution planned like one-shot SQL under a fresh snapshot. A write's
  /// target table must exist, so a prepare fails fast; EXPLAIN is a
  /// one-shot diagnostic and is rejected. The statement borrows this
  /// Connection and must not outlive it.
  Result<PreparedStatement> Prepare(const std::string& sql);

  /// The advisor's per-strategy cost report for `sql`, without executing.
  /// Statements with `?` parameters take their values via `params` (one per
  /// placeholder, in order) — the report then reflects the parameterized
  /// predicates' selectivities, exactly as a prepared execution would see
  /// them.
  Result<std::string> Explain(const std::string& sql, int num_workers = 0);
  Result<std::string> Explain(const std::string& sql,
                              const std::vector<Value>& params,
                              int num_workers = 0);

  /// EXPLAIN ANALYZE: executes the SELECT and returns a QueryResult whose
  /// explain_text holds the plan annotated with per-operator actual
  /// time/calls/rows next to the cost model's predictions (result rows are
  /// not materialized; stats are the real run's). Equivalent to
  /// Query("EXPLAIN ANALYZE " + sql).
  Result<QueryResult> ExplainAnalyze(const std::string& sql,
                                     const std::vector<Value>& params = {},
                                     int num_workers = 0);

  /// Prometheus-style metrics dump: the process-wide MetricsRegistry
  /// (scheduler counters, queue depth, latency histograms) plus this
  /// database's gauges — buffer-pool hit ratio and lock contention,
  /// retired fds, chunk-pool pressure.
  std::string Metrics() const;

  // --- Typed plans ------------------------------------------------------

  /// Runs a typed plan template, where RunsOnCaller says. On a pool,
  /// standalone sessions honour `tmpl.config.num_workers` (the session
  /// pool of that width); pooled sessions let the pool decide parallelism.
  /// `materialize = false` skips output buffering entirely — Wait() returns
  /// stats and an empty tuple chunk (what benches measuring QPS/latency
  /// want).
  Result<QueryResult> Query(const plan::PlanTemplate& tmpl);
  PendingResult Submit(const plan::PlanTemplate& tmpl,
                       bool materialize = true);
  Result<RowCursor> Stream(const plan::PlanTemplate& tmpl);

 private:
  friend class PreparedStatement;
  using Runnable = internal::Runnable;

  int EffectiveWorkers(int per_call) const;
  /// The pool a query of `workers` runs on: the shared scheduler of a
  /// pooled session, else the session pool of that width (created on
  /// first use).
  sched::Scheduler* PoolFor(int workers);
  model::CostParams Params() const;
  /// The advisor's view of `scan` as planned under `config`: its first two
  /// filters in plan order, its worker count, which columns the planner
  /// answers from the index, and the planner's verdict on LM-pipelined.
  model::SelectionModelInput ModelInputFor(const plan::SelectionQuery& scan,
                                           const plan::PlanConfig& config);
  double GroupEstimateFor(const plan::AggQuery& agg);
  /// `agg` may be null for plain selections.
  Result<plan::Strategy> ChooseStrategy(const plan::SelectionQuery& scan,
                                        const plan::AggQuery* agg,
                                        std::optional<plan::Strategy> per_call,
                                        const plan::PlanConfig& config);
  /// The one route from a bound SELECT to its plan, taken by one-shot SQL
  /// and by every prepared execution (span "plan"): resolves `bound` for
  /// `params` under `snapshot` (internal::ResolveSelect: reader refresh,
  /// condition fold, conjunction order), chooses the strategy and builds
  /// the plan template.
  Result<Runnable> PlanBound(
      internal::BoundSelect* bound, const std::vector<Value>& params,
      std::shared_ptr<const write::WriteSnapshot> snapshot,
      std::optional<plan::Strategy> per_call, int num_workers);

  /// A SELECT through the SQL front end: bound and planned.
  struct PlannedSelect {
    internal::BoundSelect bound;
    Runnable run;
  };
  /// Binds a parsed SELECT (span "bind"), then plans it with `params`
  /// under its bind-time snapshot (PlanBound).
  Result<PlannedSelect> PlanSelect(const sql::ParsedStatement& stmt,
                                   std::optional<plan::Strategy> strategy,
                                   int num_workers,
                                   const std::vector<Value>& params);
  /// The SQL front end of Query/Submit/Stream(sql): parses `sql` (span
  /// "parse") and rejects `?` parameters. A plain SELECT is then planned
  /// into `*planned`, labelled with its SQL text; EXPLAIN and write
  /// statements come back unplanned for the caller to dispatch.
  Result<sql::ParsedStatement> FrontEnd(const std::string& sql,
                                        std::optional<plan::Strategy> strategy,
                                        int num_workers,
                                        PlannedSelect* planned);

  /// Executes a write statement immediately (all kinds but kSelect).
  Result<QueryResult> ExecuteWrite(const sql::ParsedStatement& stmt,
                                   const std::vector<Value>& params);

  /// EXPLAIN / EXPLAIN ANALYZE back end (stmt.explain selects which): the
  /// advisor's prediction report, plus — for ANALYZE — the executed plan's
  /// per-operator actuals. The run is labelled `sql` in the query log.
  Result<QueryResult> ExplainStatement(const sql::ParsedStatement& stmt,
                                       const std::string& sql,
                                       std::optional<plan::Strategy> strategy,
                                       int num_workers,
                                       const std::vector<Value>& params);
  /// Explain / ExplainAnalyze: parses a SELECT (span "parse"), checks its
  /// parameter count, and explains it as `kind`.
  Result<QueryResult> ExplainSql(const std::string& sql,
                                 const std::vector<Value>& params,
                                 int num_workers,
                                 sql::ParsedStatement::Explain kind);

  /// Shared-resource pressure section appended to Explain output: buffer
  /// pool mutex contention, retired fds, chunk-pool recycling.
  std::string PressureReport() const;

  /// Where a Query, Execute or Stream of `tmpl` runs: true for the
  /// caller's thread (sched::RunOnCaller), false for a pool. On every
  /// session, a plan that touches at most kChunkPositions positions
  /// (PlanTemplate::TouchedPositions) runs on the caller. A standalone
  /// session's synchronous run with work for one worker does too; a
  /// `streamed` one of more than one window does not, since the caller
  /// would hold its whole result at once.
  bool RunsOnCaller(const plan::PlanTemplate& tmpl, bool streamed) const;
  /// Runs `tmpl` to completion, where RunsOnCaller says.
  Result<QueryResult> RunTemplateSync(const plan::PlanTemplate& tmpl,
                                      const std::string& label = {});
  Result<QueryResult> RunRunnableSync(const Runnable& run);
  PendingResult SubmitRunnable(const Runnable& run, bool materialize = true);
  Result<RowCursor> StreamRunnable(const Runnable& run);

  db::Database* db_;
  sched::Scheduler* scheduler_;  // null = standalone session
  Settings settings_;
  // Standalone session pools, keyed by worker count; destroying a pool
  // drains the queries submitted to it.
  std::mutex pools_mu_;
  std::map<int, std::unique_ptr<sched::Scheduler>> pools_;
};

}  // namespace api
}  // namespace cstore

#endif  // CSTORE_API_CONNECTION_H_
