// Unified client-facing result types of the api:: layer.
//
// Every way of running a query — sync api::Connection::Query, async
// Submit, streaming Stream, or a PreparedStatement execution — resolves to
// the same api::QueryResult. One result shape, one waitable handle
// (api::PendingResult), one streaming cursor (api::RowCursor).
//
// RowCursor is the bounded-memory path: output chunks flow from the
// scheduler's workers through a bounded ChunkQueue straight to the
// consumer. When the consumer lags, the queue fills and the producing
// worker blocks — backpressure — so peak memory is queue capacity, not
// result size. The consumer reads with the blocking Next(), which also
// surfaces an execution error raised after Stream() returned; FetchAll()
// drains the cursor into a materialized QueryResult for callers that want
// the old semantics.
//
// A stream of a plan that touches at most one window's positions runs
// inside Stream() on the caller's thread (api/connection.h): its cursor
// already holds the one result chunk and the final stats, with no pool and
// no queue behind it, and Next() hands out the chunk, then the status.

#ifndef CSTORE_API_RESULT_H_
#define CSTORE_API_RESULT_H_

#include <atomic>
#include <condition_variable>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "exec/tuple_chunk.h"
#include "plan/executor.h"
#include "plan/strategy.h"
#include "sched/scheduler.h"
#include "util/status.h"

namespace cstore {
namespace api {

class Connection;
class PreparedStatement;

/// A fully-materialized query result: the one result shape every execution
/// path produces. SQL paths fill column_names/strategy; write statements
/// set is_write/rows_affected (their `tuples` holds one row with the count);
/// typed-plan paths fill tuples/stats alone.
struct QueryResult {
  std::vector<std::string> column_names;  // empty for typed-plan queries
  exec::TupleChunk tuples;                // concatenation of output chunks
  plan::RunStats stats;
  plan::Strategy strategy = plan::Strategy::kLmParallel;  // what ran (reads)
  bool is_write = false;
  uint64_t rows_affected = 0;  // writes: rows inserted/deleted/updated
  // EXPLAIN / EXPLAIN ANALYZE: the rendered report (predictions, and for
  // ANALYZE the executed plan's per-operator actuals). Empty otherwise.
  // stats.query_id keys the run's system.query_log row and its trace spans.
  std::string explain_text;
};

/// Projects `in` onto `output_slots` (indices into the scan width). An
/// empty slot list or an identity mapping returns `in` unchanged.
exec::TupleChunk ProjectChunk(const std::vector<uint32_t>& output_slots,
                              exec::TupleChunk&& in);

/// Bounded thread-safe chunk queue between scheduler workers (producers)
/// and a RowCursor (consumer). Push blocks while the queue is at capacity —
/// that block is the backpressure that bounds a streaming query's memory.
class ChunkQueue {
 public:
  explicit ChunkQueue(size_t capacity_chunks)
      : capacity_(capacity_chunks == 0 ? 1 : capacity_chunks) {}

  /// Points this queue's buffered-byte accounting at an external gauge
  /// (bytes are added on Push, subtracted on Pop/Cancel). The server hands
  /// every session the same gauge, so "output bytes currently buffered
  /// across all streaming queries" is one atomic read — what admission
  /// control sheds on. Setup only: call before the first Push.
  void set_byte_account(std::atomic<int64_t>* gauge) { byte_account_ = gauge; }

  /// Blocks until there is room (or the consumer cancelled). Returns false
  /// once cancelled — producers should stop the query.
  bool Push(const exec::TupleChunk& chunk);

  /// Producer side is done; consumers drain the remainder then see
  /// end-of-stream.
  void Finish();

  /// Blocks for the next chunk. False = finished and drained (or
  /// cancelled).
  bool Pop(exec::TupleChunk* out);

  /// Consumer gives up: drops buffered chunks, unblocks producers (their
  /// pushes fail fast from now on).
  void Cancel();

  /// High-water mark of values (tuples × width) buffered at once — what a
  /// streaming consumer's peak memory actually was.
  uint64_t peak_buffered_values() const;

 private:
  const size_t capacity_;
  std::atomic<int64_t>* byte_account_ = nullptr;  // not owned; may be null
  mutable std::mutex mu_;
  std::condition_variable can_push_;
  std::condition_variable can_pop_;
  std::deque<exec::TupleChunk> chunks_;
  uint64_t buffered_values_ = 0;
  uint64_t peak_buffered_values_ = 0;
  bool finished_ = false;
  bool cancelled_ = false;
};

/// Waitable handle of one asynchronously submitted statement: resolves to
/// the statement's QueryResult (or its error — statements that failed to
/// parse/bind are still waitable, so a batch is always fully drainable).
/// Write statements execute at submit time; Wait just hands the carried
/// result back. Single use: the tuple buffer is moved out by Wait.
class PendingResult {
 public:
  PendingResult() = default;

  /// Blocks until the statement finishes and returns its result.
  Result<QueryResult> Wait();

  bool Done() const;
  /// True for every handle a Submit call returned — including statements
  /// that failed to parse/bind (their error comes from Wait(), so a batch
  /// is fully drainable). Only default-constructed handles are invalid.
  bool valid() const { return engaged_; }

 private:
  friend class Connection;
  friend class PreparedStatement;

  Status early_ = Status::Internal("default-constructed PendingResult");
  bool engaged_ = false;  // set by every Submit path
  sched::QueryTicket ticket_;
  // Filled by the scheduler's (sequentially invoked) finalization sink.
  std::shared_ptr<QueryResult> buffer_;
  std::vector<uint32_t> output_slots_;  // projection; empty = identity
  std::vector<std::string> column_names_;
  plan::Strategy strategy_ = plan::Strategy::kLmParallel;
  // Write statements (executed at submit time) carry their result here.
  std::optional<QueryResult> immediate_;
};

/// Streaming cursor over a query's output chunks, read with the blocking
/// Next (or FetchAll). Move-only; destroying an unfinished cursor cancels
/// the query. Chunk order across workers is unspecified (bag semantics)
/// exactly as in the materialized paths. A cursor whose query ran on the
/// caller's thread is finished from the start: it holds the result and
/// never blocks.
class RowCursor {
 public:
  RowCursor() = default;
  RowCursor(RowCursor&&) = default;
  RowCursor& operator=(RowCursor&&) = default;
  RowCursor(const RowCursor&) = delete;
  RowCursor& operator=(const RowCursor&) = delete;

  /// Cancels the query if the stream was not fully drained, then waits for
  /// it to leave the scheduler.
  ~RowCursor();

  /// Blocks for the next output chunk; false = end of stream. A query
  /// error surfaces here (possibly after some chunks were already
  /// delivered — streaming cannot undo what it handed out).
  Result<bool> Next(exec::TupleChunk* chunk);

  /// Drains the rest of the stream into a materialized QueryResult — the
  /// compatibility path (peak memory = result size again).
  Result<QueryResult> FetchAll();

  const std::vector<std::string>& column_names() const {
    return column_names_;
  }
  plan::Strategy strategy() const { return strategy_; }

  /// Final RunStats; valid once Next returned false (or FetchAll returned).
  const plan::RunStats& stats() const { return stats_; }

  /// High-water mark of buffered result bytes while streaming (valid any
  /// time; final after the stream ends). A caller-thread run held its
  /// whole result, so that is its peak.
  uint64_t peak_buffered_bytes() const;

  bool valid() const { return queue_ != nullptr || finished_; }

  /// True once the query has ended: from the start for a run on the
  /// caller's thread (the cursor holds its result), once Next returned
  /// false for a pool run. Until then chunks may still be on their way.
  bool finished() const { return finished_; }

 private:
  friend class Connection;
  friend class PreparedStatement;

  /// Waits for the query's final result once the stream ended.
  Status FinishStream();

  // A pool run's chunks arrive through queue_; a caller-thread run's one
  // chunk waits in held_ (empty once Next handed it out).
  std::shared_ptr<ChunkQueue> queue_;
  exec::TupleChunk held_;
  uint64_t held_bytes_ = 0;
  sched::QueryTicket ticket_;
  // A standalone connection's stream runs on a private pool parked here,
  // not on the session pool: see Connection's header for the deadlock a
  // shared pool would risk.
  std::shared_ptr<sched::Scheduler> own_scheduler_;
  std::vector<uint32_t> output_slots_;
  std::vector<std::string> column_names_;
  plan::Strategy strategy_ = plan::Strategy::kLmParallel;
  plan::RunStats stats_;
  bool finished_ = false;
  Status final_status_;
};

}  // namespace api
}  // namespace cstore

#endif  // CSTORE_API_RESULT_H_
