// The query executor: many concurrent queries on one worker pool, and a
// query no pool could split on the caller's thread.
//
// A query runs as tasks plus one finalize. A task is a join's hash build
// (PlanTemplate::BuildJoinTable), a background job, or one plan instance
// drained over a morsel into its worker's partial. Finalize combines the
// per-(query, worker) partials — checksum, tuple counts, ExecStats, I/O,
// aggregation accumulators, sort runs, buffered output chunks — once the
// last task completes, hands the result to the sink and writes the
// query's system.query_log row. Only where the tasks run differs:
//
//   * Submit(PlanTemplate) enqueues a query on the pool and returns a
//     QueryTicket, a waitable handle resolving to its ExecResult (Status +
//     RunStats). Workers claim the next morsel from the active queries in
//     weighted round-robin order (a query with priority p takes p
//     consecutive morsels per rotation), so K queries interleave instead of
//     queueing behind each other. A join's build task is claimed like a
//     morsel; its probe morsels become runnable once the table is
//     published, and meanwhile the rotation skips the query, so the build
//     costs the query latency, never the pool throughput. Empty scans are
//     one task. No lock is taken on the output path during execution.
//   * RunOnCaller runs the build task (joins only) and one task over the
//     full position range on the calling thread, then finalizes there:
//     for a plan no pool could split (api/connection.h states the rule).
//
// Correctness contract (tests/sched_test.cc): for every query in a
// concurrent mixed batch, output_tuples and the order-independent checksum
// are bit-identical to that query's 1-worker run, and per-query ExecStats
// are not cross-contaminated. RunStats::io is attributed per (query,
// worker) through the buffer pool's thread-local sink, so a query's
// reported I/O is its own even with concurrent neighbors on the pool.
//
// wall_micros measures submit → finalize on a pool (queueing latency is
// part of a query's reported latency, which is what a throughput bench
// wants) and start → finalize on the caller's thread. A caller-thread run
// writes its system.query_log row and nothing else: the cstore_sched_*
// metrics (queries and morsels executed, the in-flight gauge admission
// control reads, queue wait), the latency histograms and system.queries
// count pool work only.

#ifndef CSTORE_SCHED_SCHEDULER_H_
#define CSTORE_SCHED_SCHEDULER_H_

#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "plan/parallel.h"
#include "sched/worker_pool.h"
#include "util/status.h"

namespace cstore {
namespace sched {

/// Final outcome of one submitted query.
struct ExecResult {
  Status status;
  plan::RunStats stats;
};

namespace internal {
struct QueryState;
}  // namespace internal

/// Waitable per-query handle returned by Scheduler::Submit. Copyable and
/// cheap (shared state); outlives the Scheduler safely for queries that
/// already finished (the Scheduler destructor drains all submitted work).
class QueryTicket {
 public:
  QueryTicket() = default;

  /// Blocks until the query finalizes and returns its result. Idempotent.
  /// Returns by value so `scheduler.Submit(...).Wait()` — where the
  /// temporary ticket (possibly the query state's last owner) dies at the
  /// end of the expression — hands back a self-contained result instead of
  /// a dangling reference.
  ExecResult Wait() const;

  bool Done() const;
  bool valid() const { return state_ != nullptr; }

 private:
  friend class Scheduler;
  explicit QueryTicket(std::shared_ptr<internal::QueryState> state)
      : state_(std::move(state)) {}

  std::shared_ptr<internal::QueryState> state_;
};

class Scheduler {
 public:
  struct Options {
    // Worker threads in the pool. 0 = hardware concurrency.
    int num_workers = 0;
  };

  /// Receives a query's output, invoked at most once, at finalization, on
  /// the finalizing thread: one chunk holding every row (rows of several
  /// workers in worker order, sorted rows in order). The chunk is handed
  /// over: the sink may keep it by move. Aggregations always deliver their
  /// groups; a selection or sort with no row never calls it. Not called at
  /// all if the query failed.
  using Sink = std::function<void(exec::TupleChunk&&)>;

  /// Streaming variant: invoked *during* execution, from whichever worker
  /// produced the chunk — concurrently for parallel scans, so it must be
  /// thread-safe. Output is never buffered in the scheduler (this is what
  /// bounds a streaming consumer's memory). Returning false cancels the
  /// query: remaining morsels are dropped and the ticket resolves to a
  /// Cancelled status. Aggregations still deliver their single merged chunk
  /// at finalization (through this sink). If the query fails mid-run, chunks
  /// already streamed stay delivered; the error surfaces on the ticket.
  using StreamSink = std::function<bool(const exec::TupleChunk&)>;

  /// Full submission request: exactly one of `sink` / `stream_sink` may be
  /// set. `on_complete` (optional) runs after the query's result is
  /// published (ticket waiters are already releasable) — streaming callers
  /// use it to close their queue.
  struct SubmitOptions {
    Sink sink;
    StreamSink stream_sink;
    std::function<void()> on_complete;
    int priority = 1;
    // Human-readable identity of the query in system.queries /
    // system.query_log: SQL text for SQL paths, "plan:<kind>" otherwise.
    std::string label;
  };

  Scheduler();  // Options() — hardware-sized pool
  explicit Scheduler(Options options);

  /// Drains every submitted query (tickets all complete), then stops and
  /// joins the workers.
  ~Scheduler();

  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  /// Enqueues a query for execution on the shared pool. `tmpl.config`'s
  /// morsel size is honoured (auto-sized from the table and pool width when
  /// left at the default); `tmpl.config.num_workers` is ignored — the pool
  /// decides parallelism. `priority >= 1` gives the query that many
  /// consecutive morsel claims per round-robin rotation.
  QueryTicket Submit(const plan::PlanTemplate& tmpl, Sink sink = nullptr,
                     int priority = 1);

  /// As above, with the full option set (streaming sinks, completion hook).
  QueryTicket Submit(const plan::PlanTemplate& tmpl, SubmitOptions options);

  /// Enqueues generic background work (e.g. a TupleMover compaction pass)
  /// as a single indivisible task on the same pool: it interleaves with
  /// query morsels under the usual weighted round-robin, so `priority = 1`
  /// makes it the lowest-priority participant. The ticket resolves to the
  /// job's returned Status (RunStats carries wall time and the job's own
  /// attributed I/O).
  QueryTicket SubmitJob(std::function<Status()> job, int priority = 1);

  int num_workers() const { return num_workers_; }

 private:
  struct Task {
    std::shared_ptr<internal::QueryState> query;
    position::Range morsel;
    // A join's build task: its completion unblocks the query's morsel
    // claims.
    bool build = false;
  };

  /// What a query had to offer when a worker asked it for work.
  enum class Claim {
    kClaimed,    // *out holds a task
    kWaiting,    // nothing *now*, but more once its build completes — skip
    kExhausted,  // never anything again — drop from the rotation
  };

  void WorkerLoop(int worker_id);
  /// Claims the next task in weighted round-robin order. Removes exhausted
  /// queries from the rotation; queries waiting on their build are skipped
  /// but stay. Caller holds mu_.
  bool TryClaimLocked(Task* out);
  Claim ClaimFromLocked(internal::QueryState* q, Task* out);
  /// Finalizes the query, settles its pool metrics and fills the ticket.
  /// Called exactly once per query, off the scheduler lock.
  void Finalize(const std::shared_ptr<internal::QueryState>& q);

  const int num_workers_;

  std::mutex mu_;
  std::condition_variable cv_;
  // Submit-ordered rotation of queries that still have unclaimed morsels.
  std::vector<std::shared_ptr<internal::QueryState>> active_;
  size_t rr_ = 0;      // rotation cursor into active_
  int credits_ = 0;    // remaining consecutive claims for active_[rr_]
  bool shutdown_ = false;

  // Last member: workers start in the constructor's final step and touch
  // everything above, so the pool must be destroyed (joined) first.
  std::unique_ptr<WorkerPool> pool_;
};

/// Runs `tmpl` on the calling thread as a 1-worker query: the join's build
/// task, one task over the full position range, then finalize — the same
/// code a pool runs, so rows, row order, checksum and ExecStats equal a
/// 1-worker pool's. `sink` (optional) receives the result as Submit's does;
/// a failed run never calls it. Writes the query's system.query_log row
/// (an empty `label` becomes "plan:<kind>"); no scheduler metric counts it.
ExecResult RunOnCaller(const plan::PlanTemplate& tmpl, Scheduler::Sink sink,
                       const std::string& label = {}, int priority = 1);

/// Registers the scheduler's metric families (queue depth, latency
/// histograms, ...) without creating a pool. system.metrics calls this so
/// the gauges exist — at zero — even in a process that has only run
/// standalone queries.
void EnsureSchedMetricsRegistered();

}  // namespace sched
}  // namespace cstore

#endif  // CSTORE_SCHED_SCHEDULER_H_
