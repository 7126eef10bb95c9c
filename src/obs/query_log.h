// Always-on query history and live-query registry — the data sources behind
// the system.query_log and system.queries virtual tables.
//
// QueryLog is a fixed-capacity ring of finished-query records. One row per
// completed query or background job, carrying everything RunStats/IoStats
// already measured (and previously merged once and thrown away): strategy,
// workers, queue-wait/exec/total microseconds, rows out, bytes read,
// pool-lock contention, chunk-pool pressure. Recording is lock-striped: a
// global atomic sequence assigns each record a slot (seq % capacity); only
// that slot's stripe mutex is taken, so concurrent finalizing workers never
// serialize behind one lock. A slot is overwritten only by a *newer*
// sequence — when two writers race on a wrapped slot, the later query wins
// regardless of arrival order, preserving "ring keeps the most recent
// `capacity` queries" exactly.
//
// A configurable slow-query threshold marks entries and emits one
// CSTORE_LOG warning line per slow query; 0 (the default) disables it.
//
// LiveQueryRegistry tracks queries currently inside a scheduler: submit
// time, queued/running state, morsel progress. The scheduler registers at
// Submit, ticks per morsel (relaxed atomics — no lock on the hot path),
// and unregisters at finalize.

#ifndef CSTORE_OBS_QUERY_LOG_H_
#define CSTORE_OBS_QUERY_LOG_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace cstore {
namespace obs {

/// One finished query (or background job), as recorded at finalize time.
/// All duration fields are microseconds. exec_usec = total - queue wait:
/// time actually spent on workers (including any morsel interleaving gaps).
struct QueryLogEntry {
  uint64_t seq = 0;       // assigned by the ring; global completion order
  uint64_t query_id = 0;  // matches system.queries while it was live
  std::string label;      // SQL text, or "plan:<kind>" for typed plans
  std::string strategy;   // "EM-pipelined" etc., "join", or "job"
  std::string status;     // "ok" | "error" | "cancelled"
  int workers = 0;
  int priority = 0;
  uint64_t queue_wait_usec = 0;
  uint64_t exec_usec = 0;
  uint64_t total_usec = 0;
  uint64_t rows_out = 0;
  uint64_t bytes_read = 0;  // (cache hits + physical reads) × page size
  uint64_t cache_hits = 0;
  uint64_t physical_reads = 0;
  uint64_t pool_lock_acquisitions = 0;
  uint64_t pool_lock_contended = 0;
  uint64_t pool_lock_wait_ns = 0;
  uint64_t chunk_pool_acquires = 0;
  uint64_t chunk_pool_reuses = 0;
  bool slow = false;  // total_usec >= the threshold at record time
};

class QueryLog {
 public:
  static constexpr size_t kDefaultCapacity = 1024;
  static constexpr size_t kStripes = 8;

  explicit QueryLog(size_t capacity = kDefaultCapacity);

  /// The process-wide log every scheduler records into (leaked singleton).
  static QueryLog& Global();

  /// Appends one finished-query record (no-op while disabled). Sets
  /// entry.seq and entry.slow; emits a CSTORE_LOG warning when the entry
  /// crosses the slow threshold.
  void Record(QueryLogEntry entry);

  /// All retained entries, oldest first (ascending seq).
  std::vector<QueryLogEntry> Snapshot() const;

  /// Toggle recording (benches measure the off/on overhead delta).
  void set_enabled(bool on) {
    enabled_.store(on, std::memory_order_relaxed);
  }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Queries with total time >= this are flagged slow and warned about;
  /// 0 disables the check.
  void SetSlowThresholdMicros(uint64_t usec) {
    slow_threshold_usec_.store(usec, std::memory_order_relaxed);
  }
  uint64_t slow_threshold_micros() const {
    return slow_threshold_usec_.load(std::memory_order_relaxed);
  }

  /// Total records ever accepted (monotone; exceeds capacity after wrap).
  uint64_t total_recorded() const {
    return next_seq_.load(std::memory_order_relaxed);
  }

  size_t capacity() const { return capacity_; }

  /// Testing hook: forget every entry and restart the sequence.
  void Clear();

 private:
  struct Slot {
    bool used = false;
    QueryLogEntry entry;
  };

  const size_t capacity_;
  std::atomic<bool> enabled_{true};
  std::atomic<uint64_t> slow_threshold_usec_{0};
  std::atomic<uint64_t> next_seq_{0};
  mutable std::mutex stripe_mu_[kStripes];
  std::vector<Slot> slots_;
};

/// Allocates process-unique query ids (shared by every scheduler and the
/// standalone execution path, so system.queries/system.query_log ids never
/// collide across pools).
uint64_t NextQueryId();

/// Microseconds on the monotonic clock — the time base of the live
/// registry's age computation and the slow-query log lines.
uint64_t MonotonicMicros();

/// One query currently inside a scheduler. The scheduler owns the mutable
/// fields; readers take consistent-enough relaxed snapshots.
struct LiveQuery {
  uint64_t query_id = 0;
  std::string label;
  int priority = 0;
  uint64_t submit_usec = 0;   // MonotonicMicros() at submit
  uint64_t morsels_total = 0;
  std::atomic<uint32_t> state{0};  // 0 = queued, 1 = running
  std::atomic<uint64_t> morsels_done{0};

  static const char* StateName(uint32_t s) {
    return s == 0 ? "queued" : "running";
  }
};

class LiveQueryRegistry {
 public:
  /// The process-wide registry (leaked singleton).
  static LiveQueryRegistry& Global();

  void Register(std::shared_ptr<LiveQuery> q);
  void Unregister(uint64_t query_id);

  /// Value copy of one live query, safe to hold after it finishes.
  struct Row {
    uint64_t query_id;
    std::string label;
    int priority;
    uint64_t age_usec;  // now - submit
    uint32_t state;
    uint64_t morsels_done;
    uint64_t morsels_total;
  };

  /// All currently live queries, oldest submit first.
  std::vector<Row> Snapshot() const;

  size_t size() const;

 private:
  mutable std::mutex mu_;
  std::map<uint64_t, std::shared_ptr<LiveQuery>> live_;
};

}  // namespace obs
}  // namespace cstore

#endif  // CSTORE_OBS_QUERY_LOG_H_
