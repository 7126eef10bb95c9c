#include "sched/scheduler.h"

#include <algorithm>
#include <cstdint>
#include <span>
#include <thread>
#include <utility>

#include "exec/aggregate.h"
#include "exec/chunk_pool.h"
#include "exec/morsel_source.h"
#include "exec/sort.h"
#include "obs/metrics.h"
#include "obs/query_log.h"
#include "obs/trace.h"
#include "plan/executor.h"
#include "plan/planner.h"
#include "storage/buffer_pool.h"
#include "storage/page.h"
#include "util/stopwatch.h"

namespace cstore {
namespace sched {

namespace {

/// Hot-path metric pointers, resolved once per process (stable for the
/// registry's lifetime — see MetricsRegistry::GetCounter).
struct SchedMetrics {
  obs::Counter* queries_total;
  obs::Counter* jobs_total;
  obs::Counter* morsels_total;
  obs::Gauge* inflight_queries;
  obs::Gauge* queue_depth;
  obs::Histogram* queue_wait;
  // Indexed by plan::Strategy; joins get their own slot.
  obs::Histogram* latency_by_strategy[5];

  static SchedMetrics& Get() {
    static SchedMetrics* m = [] {
      auto* r = new SchedMetrics();
      obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
      r->queries_total = reg.GetCounter(
          "cstore_sched_queries_total", "Queries submitted to the scheduler");
      r->jobs_total = reg.GetCounter("cstore_sched_jobs_total",
                                     "Background jobs submitted");
      r->morsels_total = reg.GetCounter("cstore_sched_morsels_total",
                                        "Morsel tasks executed");
      r->inflight_queries =
          reg.GetGauge("cstore_sched_inflight_queries",
                       "Submitted queries not yet finalized");
      r->queue_depth = reg.GetGauge(
          "cstore_sched_queue_depth",
          "Queries in the round-robin rotation with unclaimed work");
      r->queue_wait = reg.GetHistogram(
          "cstore_sched_queue_wait_usec",
          "Submit-to-first-claim wait per query, microseconds");
      const char* names[5] = {
          "cstore_query_latency_usec{strategy=\"EM-pipelined\"}",
          "cstore_query_latency_usec{strategy=\"EM-parallel\"}",
          "cstore_query_latency_usec{strategy=\"LM-pipelined\"}",
          "cstore_query_latency_usec{strategy=\"LM-parallel\"}",
          "cstore_query_latency_usec{strategy=\"join\"}"};
      for (int i = 0; i < 5; ++i) {
        r->latency_by_strategy[i] = reg.GetHistogram(
            names[i], "Submit-to-finalize latency, microseconds");
      }
      return r;
    }();
    return *m;
  }
};

const char* PlanKindName(plan::PlanTemplate::Kind kind) {
  switch (kind) {
    case plan::PlanTemplate::Kind::kSelection:
      return "selection";
    case plan::PlanTemplate::Kind::kAgg:
      return "agg";
    case plan::PlanTemplate::Kind::kJoin:
      return "join";
    case plan::PlanTemplate::Kind::kSort:
      return "sort";
  }
  return "?";
}

/// A query's display label: its SQL text, or "plan:<kind>" when it has
/// none.
std::string LabelFor(const plan::PlanTemplate& tmpl, std::string label) {
  return label.empty() ? std::string("plan:") + PlanKindName(tmpl.kind)
                       : std::move(label);
}

std::shared_ptr<obs::LiveQuery> RegisterLive(uint64_t query_id,
                                             const std::string& label,
                                             int priority,
                                             uint64_t morsels_total) {
  auto live = std::make_shared<obs::LiveQuery>();
  live->query_id = query_id;
  live->label = label;
  live->priority = priority;
  live->submit_usec = obs::MonotonicMicros();
  live->morsels_total = morsels_total;
  obs::LiveQueryRegistry::Global().Register(live);
  return live;
}

}  // namespace

namespace internal {

/// All state of one query. Mutable scheduling fields (in_flight, claim
/// cursors, error) are guarded by *mu: the Scheduler's mutex, or a
/// caller-thread run's own. Each entry of `partials` is written by exactly
/// one worker and read by the finalizer, which observed every writer's
/// completion under that mutex first.
struct QueryState {
  // A pool query owns its template (Submit copies it into own_tmpl); a
  // caller-thread run borrows the caller's for its duration.
  plan::PlanTemplate own_tmpl;
  const plan::PlanTemplate* tmpl = &own_tmpl;
  std::mutex* mu = nullptr;
  Scheduler::Sink sink;
  // Streaming mode: chunks leave through here during execution instead of
  // being buffered in partials (thread-safe by contract; false = cancel).
  Scheduler::StreamSink stream_sink;
  // Runs once, after the result is published on the ticket.
  std::function<void()> on_complete;
  int priority = 1;
  // Generic background work (SubmitJob): runs instead of a plan.
  std::function<Status()> job;

  // Work distribution. Empty scans are one indivisible task; everything
  // else claims chunk-aligned morsels from the source. Two-phase queries
  // (joins) additionally run one build task first: the phase dependency
  // below gates every other claim on build_done.
  std::unique_ptr<exec::MorselSource> source;
  bool single_task = false;
  bool single_claimed = false;  // guarded by Scheduler::mu_
  bool needs_build = false;     // template has a build phase
  bool build_claimed = false;   // guarded by mu_
  bool build_done = false;      // guarded by mu_; set before morsel claims
  // Build-phase wall time: build task claimed → table published, both
  // read on `timer`. Guarded by mu_.
  double build_claimed_us = 0;
  uint64_t build_micros = 0;
  int in_flight = 0;         // claimed but not completed; guarded by mu_
  bool finalized = false;    // guarded by mu_
  Status error;              // first failure; guarded by *mu

  // The build task's product, shared read-only by every probe morsel.
  // Written by the build worker before build_done is published under mu_,
  // so probe workers (which observed build_done under mu_ when claiming)
  // read it race-free without further synchronization.
  std::shared_ptr<const exec::JoinBuildTable> shared_build;

  /// Per-worker partial results of a pool query. Output chunks are
  /// buffered here instead of being pushed through a locked sink on every
  /// emit — the whole point of the per-worker-buffer design.
  struct Partial {
    uint64_t checksum = 0;
    uint64_t tuples = 0;
    exec::ExecStats exec;
    // This worker's buffer-pool traffic for this query (attributed via the
    // pool's thread-local sink, so concurrent neighbors never bleed in).
    storage::IoStats io;
    std::unique_ptr<exec::GroupAccumulator> acc;  // aggregations only
    std::vector<exec::TupleChunk> chunks;         // selections/joins w/ sink
    std::vector<exec::TupleChunk> sort_runs;      // sorts: per-morsel runs
  };
  std::vector<Partial> partials;

  Stopwatch timer;  // submit (or the caller's start) → finalize

  // Identity: the process-unique id of the query's system.query_log row,
  // also the "query" arg on its spans and RunStats::query_id; the display
  // label; the live entry in system.queries while running on a pool; and
  // the measured submit-to-first-claim wait (guarded by mu, read by the
  // finalizer after every worker completed). first_claimed (guarded by mu)
  // gates the one-shot queue-wait sample.
  uint64_t query_id = 0;
  bool first_claimed = false;
  std::string label;
  std::shared_ptr<obs::LiveQuery> live;
  uint64_t queue_wait_us = 0;

  // Completion signal (its own mutex so Wait never contends with dispatch).
  std::mutex done_mu;
  std::condition_variable done_cv;
  bool done = false;
  ExecResult result;

  /// True once no further task will ever be handed out (all morsels
  /// claimed, or cancelled by an error). Caller holds *mu.
  bool DrainedLocked() const {
    // A pending (or in-flight) build will still release work once it
    // completes. On failure nothing more is dispatched (claims return
    // kExhausted) and the source is cancelled, so the error.ok() guards let
    // a failed query drain even though build_done never latches.
    if (needs_build && !build_done && error.ok()) return false;
    if (single_task) return single_claimed || !error.ok();
    return source->Exhausted();
  }
};

}  // namespace internal

using internal::QueryState;

ExecResult QueryTicket::Wait() const {
  QueryState* q = state_.get();
  std::unique_lock<std::mutex> lock(q->done_mu);
  q->done_cv.wait(lock, [q] { return q->done; });
  return q->result;  // copied under the lock; see header
}

bool QueryTicket::Done() const {
  QueryState* q = state_.get();
  std::lock_guard<std::mutex> lock(q->done_mu);
  return q->done;
}

namespace {

int ResolveWorkers(int requested) {
  if (requested > 0) return requested;
  unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 4 : static_cast<int>(hw);
}

void FailQuery(QueryState* q, const Status& status) {
  std::lock_guard<std::mutex> lock(*q->mu);
  if (q->error.ok()) q->error = status;
  if (q->source) q->source->Cancel();
}

/// Executes one task of `q` on the calling thread — its job, its join
/// build, or one plan instance over `morsel` — into `partial`, the running
/// worker's. Lock-free but for recording a failure.
void RunTask(QueryState* q, QueryState::Partial& partial, int worker_id,
             position::Range morsel, bool build) {
  // Route this thread's buffer-pool traffic — plan construction included —
  // to this (query, worker) partial.
  storage::BufferPool::ScopedIoAttribution attribution(&partial.io);

  if (q->job) {
    obs::SpanTimer span("job", "sched");
    span.Arg("query", static_cast<int64_t>(q->query_id));
    span.Arg("worker", worker_id);
    Status st = q->job();
    if (!st.ok()) FailQuery(q, st);
    return;
  }

  const plan::PlanTemplate& tmpl = *q->tmpl;
  if (build) {
    // The join's hash build. The table is stored before the query's probe
    // task can be claimed (on a pool, WorkerLoop then marks build_done
    // under mu), so every probe reads it race-free.
    obs::SpanTimer span("join_build", "sched");
    span.Arg("query", static_cast<int64_t>(q->query_id));
    span.Arg("worker", worker_id);
    Result<std::shared_ptr<const exec::JoinBuildTable>> table =
        tmpl.BuildJoinTable(&partial.exec);
    if (!table.ok()) {
      FailQuery(q, table.status());
      return;
    }
    q->shared_build = std::move(*table);
    return;
  }

  const bool is_agg = tmpl.kind == plan::PlanTemplate::Kind::kAgg;
  const bool is_sort = tmpl.kind == plan::PlanTemplate::Kind::kSort;
  // Sort morsels are run formation, not plain scans — named apart so traces
  // show the two-phase shape (runs here, "sort_merge" at finalization).
  obs::SpanTimer span(is_sort ? "sort_run" : "morsel", "exec");
  span.Arg("query", static_cast<int64_t>(q->query_id));
  span.Arg("begin", static_cast<int64_t>(morsel.begin));
  span.Arg("end", static_cast<int64_t>(morsel.end));
  span.Arg("worker", worker_id);

  Result<std::unique_ptr<plan::Plan>> plan_or =
      tmpl.Instantiate(morsel, q->shared_build.get());
  if (!plan_or.ok()) {
    FailQuery(q, plan_or.status());
    return;
  }
  plan::Plan* plan = plan_or->get();
  if (tmpl.config.profile) plan->EnableProfiling();
  // Aggregate and sort roots only accumulate (their Next emits nothing);
  // finalize emits the merged groups or runs.
  const bool buffer_output = !is_agg && !is_sort && q->sink != nullptr;
  const bool stream_output = !is_agg && !is_sort && q->stream_sink != nullptr;
  // Scratch chunk recycled across morsels: a warmed worker drains its plan
  // through a buffer whose capacity survived previous tasks.
  exec::PooledChunk chunk_handle = exec::AcquireChunk(&partial.exec);
  exec::TupleChunk& chunk = *chunk_handle;
  while (true) {
    Result<bool> has = plan->root()->Next(&chunk);
    if (!has.ok()) {
      FailQuery(q, has.status());
      return;
    }
    if (!*has) break;
    partial.checksum += plan::ChunkDigest(chunk);
    partial.tuples += chunk.num_tuples();
    if (buffer_output && !chunk.empty()) partial.chunks.push_back(chunk);
    if (stream_output && !chunk.empty() && !q->stream_sink(chunk)) {
      FailQuery(q, Status::Cancelled("stream consumer cancelled the query"));
      return;
    }
  }
  partial.exec.Merge(plan->stats());
  if (tmpl.config.profile) plan->FlushProfile(tmpl.config.profile.get());
  if (is_agg) {
    // A worker's first accumulator is moved in; later ones merge into it.
    exec::GroupAccumulator acc = plan->agg_op()->TakeAccumulator();
    if (partial.acc == nullptr) {
      partial.acc = std::make_unique<exec::GroupAccumulator>(std::move(acc));
    } else {
      partial.acc->MergeFrom(acc);
    }
  }
  if (is_sort) {
    exec::TupleChunk run = plan->sort_op()->TakeRun();
    if (!run.empty()) partial.sort_runs.push_back(std::move(run));
  }
}

/// Appends q's row to obs::QueryLog::Global(), carrying exactly the
/// RunStats its finalize publishes. The row takes q's label: finalize is
/// its last reader. The exec time logged is stats.wall_micros minus
/// `queue_wait_usec`.
void RecordQueryLog(QueryState& q, const Status& status, int workers,
                    uint64_t queue_wait_usec, const plan::RunStats& stats) {
  obs::QueryLog& log = obs::QueryLog::Global();
  if (!log.enabled()) return;
  obs::QueryLogEntry e;
  e.query_id = q.query_id;
  e.label = std::move(q.label);
  e.strategy = q.job                                          ? "job"
               : q.tmpl->kind == plan::PlanTemplate::Kind::kJoin ? "join"
               : q.tmpl->kind == plan::PlanTemplate::Kind::kSort
                   ? "sort"
                   : plan::StrategyName(q.tmpl->strategy);
  e.status = status.ok()            ? "ok"
             : status.IsCancelled() ? "cancelled"
                                    : "error";
  e.workers = workers;
  e.priority = q.priority;
  e.total_usec = static_cast<uint64_t>(stats.wall_micros);
  e.queue_wait_usec = queue_wait_usec;
  e.exec_usec =
      e.total_usec >= queue_wait_usec ? e.total_usec - queue_wait_usec : 0;
  e.rows_out = stats.output_tuples;
  e.cache_hits = stats.io.cache_hits;
  e.physical_reads = stats.io.physical_reads;
  e.bytes_read = (e.cache_hits + e.physical_reads) * kPageSize;
  e.pool_lock_acquisitions = stats.io.pool_lock_acquisitions;
  e.pool_lock_contended = stats.io.pool_lock_contended;
  e.pool_lock_wait_ns = stats.io.pool_lock_wait_ns;
  e.chunk_pool_acquires = stats.exec.chunk_pool_acquires;
  e.chunk_pool_reuses = stats.exec.chunk_pool_reuses;
  log.Record(std::move(e));
}

/// Turns the partials of q's workers into its result once every task
/// completed: sums the counters and I/O, hands the merged groups, the
/// merged sort runs or the buffered rows to the sink (or stream), assembles
/// RunStats and writes the query-log row. `workers` is the width the query
/// ran at.
ExecResult FinalizeQuery(QueryState* q,
                         std::span<QueryState::Partial> partials,
                         int workers) {
  obs::SpanTimer span("finalize", "sched");
  span.Arg("query", static_cast<int64_t>(q->query_id));
  ExecResult result;
  uint64_t queue_wait_us = 0;
  {
    // Error is written under mu by workers; every worker that touched this
    // query completed (observed under mu) before finalization, so a plain
    // read here would be safe — but take the lock to keep TSan and future
    // refactors honest.
    std::lock_guard<std::mutex> lock(*q->mu);
    result.status = q->error;
    queue_wait_us = q->queue_wait_us;
    result.stats.build_wall_micros = q->build_micros;
  }
  uint64_t checksum = 0;
  uint64_t tuples = 0;
  exec::ExecStats exec_total;
  storage::IoStats io_total;
  for (const QueryState::Partial& p : partials) {
    checksum += p.checksum;
    tuples += p.tuples;
    exec_total.Merge(p.exec);
    io_total += p.io;
  }
  // Aggregate and sort plans emit nothing while they run: their rows are
  // counted, digested and charged as constructed here, one chunk at a time.
  // Returns false iff a stream consumer declined the chunk.
  auto emit = [&](exec::TupleChunk& out) {
    checksum += plan::ChunkDigest(out);
    tuples += out.num_tuples();
    exec_total.tuples_constructed += out.num_tuples();
    if (q->sink) {
      q->sink(std::move(out));
    } else if (q->stream_sink && !out.empty()) {
      return q->stream_sink(out);
    }
    return true;
  };
  if (result.status.ok() && !q->job) {
    const plan::PlanTemplate& tmpl = *q->tmpl;
    if (tmpl.kind == plan::PlanTemplate::Kind::kAgg) {
      // A lone partial is emitted as is; the others merge into the first.
      exec::GroupAccumulator* merged = nullptr;
      for (QueryState::Partial& p : partials) {
        if (p.acc == nullptr) continue;
        if (merged == nullptr) {
          merged = p.acc.get();
        } else {
          merged->MergeFrom(*p.acc);
        }
      }
      exec::TupleChunk out;
      if (merged != nullptr) merged->Emit(&out);
      emit(out);
    } else if (tmpl.kind == plan::PlanTemplate::Kind::kSort) {
      // K-way merge of the per-morsel sorted runs: the single ordered
      // emission point, so sorted output (rows *and* their order) is
      // identical for every worker count. A sink takes the merge as one
      // chunk, and a lone run as is (its instance already applied the
      // LIMIT); a stream takes 8192-row chunks, and declining one cancels
      // the query cleanly — remaining rows are dropped and the result is
      // Cancelled.
      obs::SpanTimer merge_span("sort_merge", "sched");
      merge_span.Arg("query", static_cast<int64_t>(q->query_id));
      Stopwatch merge_timer;
      std::vector<const exec::TupleChunk*> runs;
      exec::TupleChunk* lone = nullptr;
      for (QueryState::Partial& p : partials) {
        for (exec::TupleChunk& run : p.sort_runs) {
          runs.push_back(&run);
          lone = &run;
        }
      }
      const bool kept =
          q->sink && runs.size() == 1
              ? emit(*lone)
              : exec::MergeSortedRuns(
                    runs, tmpl.sort.sort_index, tmpl.sort.desc,
                    tmpl.sort.limit,
                    /*chunk_rows=*/q->sink ? SIZE_MAX : 8192, emit);
      if (!kept) {
        result.status =
            Status::Cancelled("stream consumer cancelled the query");
      }
      result.stats.merge_wall_micros =
          static_cast<uint64_t>(merge_timer.ElapsedMicros());
    } else if (q->sink && tuples > 0) {
      // Per-worker buffers concatenated once, in worker order, into one
      // chunk sized up front — the sink sees bag semantics without ever
      // having serialized the workers. A lone chunk is handed over as is.
      exec::TupleChunk all;
      for (QueryState::Partial& p : partials) {
        for (exec::TupleChunk& chunk : p.chunks) {
          if (chunk.num_tuples() == tuples) {
            all = std::move(chunk);
            continue;
          }
          if (all.empty()) {
            all.Reset(chunk.width());
            all.Reserve(tuples);
          }
          all.Append(chunk);
        }
        p.chunks.clear();  // release each worker's copy as it is merged
      }
      q->sink(std::move(all));
    }
  }
  result.stats.wall_micros = q->timer.ElapsedMicros();
  result.stats.io = io_total;
  result.stats.charged_io_micros = result.stats.io.charged_io_micros;
  result.stats.output_tuples = tuples;
  result.stats.checksum = checksum;
  result.stats.exec = exec_total;
  result.stats.query_id = q->query_id;
  RecordQueryLog(*q, result.status, workers, queue_wait_us, result.stats);
  return result;
}

}  // namespace

Scheduler::Scheduler() : Scheduler(Options{}) {}

Scheduler::Scheduler(Options options)
    : num_workers_(ResolveWorkers(options.num_workers)) {
  pool_ = std::make_unique<WorkerPool>(
      num_workers_, [this](int id) { WorkerLoop(id); });
}

Scheduler::~Scheduler() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  cv_.notify_all();
  pool_.reset();  // joins; workers drain all remaining queries first
}

QueryTicket Scheduler::Submit(const plan::PlanTemplate& tmpl, Sink sink,
                              int priority) {
  SubmitOptions options;
  options.sink = std::move(sink);
  options.priority = priority;
  return Submit(tmpl, std::move(options));
}

QueryTicket Scheduler::Submit(const plan::PlanTemplate& tmpl,
                              SubmitOptions options) {
  auto q = std::make_shared<QueryState>();
  q->own_tmpl = tmpl;
  q->mu = &mu_;
  q->sink = std::move(options.sink);
  q->stream_sink = std::move(options.stream_sink);
  q->on_complete = std::move(options.on_complete);
  q->priority = std::max(1, options.priority);
  q->partials.resize(num_workers_);
  uint64_t morsels_total = 1;
  const Position total = tmpl.TotalPositions();
  if (total == 0) {
    // Nothing to partition: one indivisible task (for a join, an empty
    // outer side, which still runs after the build phase).
    q->single_task = true;
  } else {
    const Position morsel = tmpl.MorselPositions(num_workers_);
    q->source = std::make_unique<exec::MorselSource>(total, morsel);
    morsels_total = (total + morsel - 1) / morsel;
  }
  q->needs_build = tmpl.NeedsBuildPhase();
  if (q->needs_build) ++morsels_total;
  q->timer.Restart();
  q->query_id = obs::NextQueryId();
  q->label = LabelFor(tmpl, std::move(options.label));
  q->live = RegisterLive(q->query_id, q->label, q->priority, morsels_total);
  SchedMetrics& m = SchedMetrics::Get();
  m.queries_total->Inc();
  m.inflight_queries->Add(1);
  {
    std::lock_guard<std::mutex> lock(mu_);
    active_.push_back(q);
    m.queue_depth->Set(static_cast<int64_t>(active_.size()));
  }
  cv_.notify_all();
  return QueryTicket(std::move(q));
}

QueryTicket Scheduler::SubmitJob(std::function<Status()> job, int priority) {
  auto q = std::make_shared<QueryState>();
  q->mu = &mu_;
  q->job = std::move(job);
  q->priority = std::max(1, priority);
  q->single_task = true;
  q->partials.resize(num_workers_);
  q->timer.Restart();
  q->query_id = obs::NextQueryId();
  q->label = "job";
  q->live = RegisterLive(q->query_id, q->label, q->priority, 1);
  SchedMetrics& m = SchedMetrics::Get();
  m.jobs_total->Inc();
  m.inflight_queries->Add(1);
  {
    std::lock_guard<std::mutex> lock(mu_);
    active_.push_back(q);
    m.queue_depth->Set(static_cast<int64_t>(active_.size()));
  }
  cv_.notify_all();
  return QueryTicket(std::move(q));
}

Scheduler::Claim Scheduler::ClaimFromLocked(QueryState* q, Task* out) {
  out->build = false;
  if (q->needs_build && !q->build_done) {
    // Phase dependency: the build task runs before anything else of the
    // query. A failed query dispatches nothing further.
    if (!q->error.ok()) return Claim::kExhausted;
    if (q->build_claimed) return Claim::kWaiting;  // build still running
    q->build_claimed = true;
    q->build_claimed_us = q->timer.ElapsedMicros();
    out->build = true;
    out->morsel = exec::kFullScanRange;
  } else if (q->single_task) {
    if (q->single_claimed || !q->error.ok()) return Claim::kExhausted;
    q->single_claimed = true;
    out->morsel = exec::kFullScanRange;
  } else {
    position::Range morsel;
    if (!q->source->Next(&morsel)) return Claim::kExhausted;
    out->morsel = morsel;
  }
  ++q->in_flight;
  if (!q->first_claimed) {
    // Submit-to-first-claim latency: how long the query sat in the
    // rotation before any worker picked it up. Recorded as an instant
    // event (a duration span here would overlap the claiming worker's own
    // spans and break strict nesting on its track).
    q->first_claimed = true;
    const uint64_t wait_us = static_cast<uint64_t>(q->timer.ElapsedMicros());
    q->queue_wait_us = wait_us;
    q->live->state.store(1, std::memory_order_relaxed);  // running
    SchedMetrics::Get().queue_wait->Observe(wait_us);
    obs::TraceRecorder& rec = obs::TraceRecorder::Global();
    if (rec.enabled()) {
      obs::TraceEvent e;
      e.name = "queue_wait";
      e.cat = "sched";
      e.phase = 'i';
      e.start_ns = rec.NowNs();
      e.AddArg("query", static_cast<int64_t>(q->query_id));
      e.AddArg("wait_us", static_cast<int64_t>(wait_us));
      rec.Record(e);
    }
  }
  return Claim::kClaimed;
}

bool Scheduler::TryClaimLocked(Task* out) {
  // One skip per build-blocked query: when a full pass yields only waiting
  // queries there is nothing runnable until a build completes (its worker
  // notifies), so the caller sleeps instead of spinning.
  size_t waiting = 0;
  while (!active_.empty() && waiting < active_.size()) {
    if (rr_ >= active_.size()) {
      rr_ = 0;
      credits_ = 0;
    }
    std::shared_ptr<QueryState>& q = active_[rr_];
    if (credits_ <= 0) credits_ = q->priority;
    switch (ClaimFromLocked(q.get(), out)) {
      case Claim::kClaimed:
        out->query = q;
        if (--credits_ <= 0) ++rr_;
        return true;
      case Claim::kWaiting:
        ++waiting;
        ++rr_;
        credits_ = 0;
        continue;
      case Claim::kExhausted:
        // Exhausted (or cancelled): drop from the rotation. Completion of
        // its in-flight morsels finalizes it; if none remain it is already
        // done. The rotation shrank, so restart the waiting count.
        active_.erase(active_.begin() + rr_);
        SchedMetrics::Get().queue_depth->Set(
            static_cast<int64_t>(active_.size()));
        credits_ = 0;
        waiting = 0;
        continue;
    }
  }
  return false;
}

void Scheduler::WorkerLoop(int worker_id) {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    Task task;
    if (TryClaimLocked(&task)) {
      lock.unlock();
      QueryState* q = task.query.get();
      // Progress for system.queries: every task (build, job, morsel) counts.
      q->live->morsels_done.fetch_add(1, std::memory_order_relaxed);
      if (!task.build && !q->job) SchedMetrics::Get().morsels_total->Inc();
      RunTask(q, q->partials[worker_id], worker_id, task.morsel,
              task.build);
      bool finalize;
      lock.lock();
      --q->in_flight;
      if (task.build) {
        // The table was stored by RunTask; publishing build_done here,
        // under mu_, releases the probe morsels. A failed build dispatches
        // nothing more (claims return kExhausted). Either way, wake the
        // pool: idle workers may be sleeping on an all-waiting rotation.
        if (q->error.ok()) {
          q->build_done = true;
          q->build_micros = static_cast<uint64_t>(q->timer.ElapsedMicros() -
                                                  q->build_claimed_us);
        }
        cv_.notify_all();
      }
      finalize = !q->finalized && q->in_flight == 0 && q->DrainedLocked();
      if (finalize) q->finalized = true;
      if (finalize) {
        lock.unlock();
        Finalize(task.query);
        lock.lock();
      }
      continue;
    }
    if (shutdown_) return;
    cv_.wait(lock);
  }
}

void Scheduler::Finalize(const std::shared_ptr<QueryState>& q) {
  ExecResult result = FinalizeQuery(q.get(), q->partials, num_workers_);
  SchedMetrics& m = SchedMetrics::Get();
  m.inflight_queries->Sub(1);
  if (!q->job) {
    const int slot = q->tmpl->kind == plan::PlanTemplate::Kind::kJoin
                         ? 4
                         : static_cast<int>(q->tmpl->strategy);
    m.latency_by_strategy[slot]->Observe(
        static_cast<uint64_t>(result.stats.wall_micros));
  }
  obs::LiveQueryRegistry::Global().Unregister(q->query_id);
  {
    std::lock_guard<std::mutex> lock(q->done_mu);
    q->result = std::move(result);
    q->done = true;
  }
  q->done_cv.notify_all();
  if (q->on_complete) q->on_complete();
}

ExecResult RunOnCaller(const plan::PlanTemplate& tmpl, Scheduler::Sink sink,
                       const std::string& label, int priority) {
  std::mutex mu;
  QueryState q;
  q.tmpl = &tmpl;
  q.mu = &mu;
  q.sink = std::move(sink);
  q.priority = std::max(1, priority);
  q.query_id = obs::NextQueryId();
  q.label = LabelFor(tmpl, label);
  // The one worker's partial, on this stack (q.partials serves pools).
  QueryState::Partial partial;
  if (tmpl.NeedsBuildPhase()) {
    RunTask(&q, partial, /*worker_id=*/0, exec::kFullScanRange,
            /*build=*/true);
    q.build_micros = static_cast<uint64_t>(q.timer.ElapsedMicros());
  }
  if (q.error.ok()) {
    RunTask(&q, partial, /*worker_id=*/0, exec::kFullScanRange,
            /*build=*/false);
  }
  return FinalizeQuery(&q, {&partial, 1}, /*workers=*/1);
}

void EnsureSchedMetricsRegistered() { SchedMetrics::Get(); }

}  // namespace sched
}  // namespace cstore
