// TupleMover: the background half of the write path. Watches the tables'
// write stores and, when one accumulates enough pending rows, compacts them
// into properly encoded read-store column blocks (via codec/column_writer —
// the merge the C-Store lineage performs from WOS to ROS).
//
// The mover itself is a tiny trigger thread; the actual compaction work is
// submitted to the existing sched::Scheduler pool as a *low-priority
// background job* (Scheduler::SubmitJob), so it interleaves with query
// morsels under the normal weighted round-robin instead of stealing a
// dedicated core. Compaction preserves logical positions (write-store rows
// keep the positions they were assigned at insert), so query results are
// identical before and after a move.
//
// Determinism hook for tests: ForceCompaction() runs one full pass —
// through the same scheduler-job path — synchronously, regardless of
// thresholds.

#ifndef CSTORE_WRITE_TUPLE_MOVER_H_
#define CSTORE_WRITE_TUPLE_MOVER_H_

#include <condition_variable>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "sched/scheduler.h"
#include "util/status.h"

namespace cstore {
namespace write {

class TupleMover {
 public:
  struct Options {
    // Compact a table once this many rows are pending in its write store.
    uint64_t threshold_rows = 4096;
    // Poll cadence of the trigger thread.
    int poll_millis = 25;
  };

  /// How the mover talks to the database without a dependency cycle
  /// (db/ sits above write/).
  struct Hooks {
    // Tables that currently have a write store.
    std::function<std::vector<std::string>()> list_tables;
    // Pending (uncompacted) rows of one table.
    std::function<uint64_t(const std::string&)> pending_rows;
    // Synchronously compact one table's pending rows.
    std::function<Status(const std::string&)> compact;
  };

  /// Starts the trigger thread immediately. `scheduler` must outlive the
  /// mover.
  TupleMover(Hooks hooks, sched::Scheduler* scheduler, Options options);
  TupleMover(Hooks hooks, sched::Scheduler* scheduler);  // default Options
  ~TupleMover();

  TupleMover(const TupleMover&) = delete;
  TupleMover& operator=(const TupleMover&) = delete;

  /// Stops the trigger thread (idempotent). In-flight compaction jobs
  /// finish first.
  void Stop();

  /// Test hook: compacts every table with pending rows — through the
  /// scheduler-job path — and blocks until done. Deterministic: after it
  /// returns, no rows submitted before the call remain pending.
  Status ForceCompaction();

  /// Completed compaction passes (tables moved).
  uint64_t moves_completed() const;

 private:
  void Loop();
  /// Submits one compaction job per table at-or-over `threshold` pending
  /// rows and waits for them; returns the first error.
  Status CompactEligible(uint64_t threshold);

  Hooks hooks_;
  sched::Scheduler* scheduler_;
  Options options_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  uint64_t moves_ = 0;
  std::thread thread_;  // last: joins in Stop()
};

}  // namespace write
}  // namespace cstore

#endif  // CSTORE_WRITE_TUPLE_MOVER_H_
