// What one query run reports: RunStats, and the order-independent digest of
// its output tuples. The executor (sched/scheduler.h) pulls each plan to
// completion and iterates over every output tuple — the paper charges
// numOutTuples * TIC_TUP at the top of each query for this.

#ifndef CSTORE_PLAN_EXECUTOR_H_
#define CSTORE_PLAN_EXECUTOR_H_

#include "exec/exec_stats.h"
#include "plan/planner.h"
#include "storage/buffer_pool.h"
#include "util/status.h"

namespace cstore {
namespace plan {

struct RunStats {
  // Wall-clock execution time (CPU + real I/O, which is page-cache fast).
  double wall_micros = 0;
  // Simulated disk time charged by the DiskModel for cold block reads.
  double charged_io_micros = 0;
  uint64_t output_tuples = 0;
  // Order-independent digest of the result set; equal digests across
  // strategies ⇒ identical result bags.
  uint64_t checksum = 0;
  exec::ExecStats exec;
  storage::IoStats io;
  // Id of the query's system.query_log row, also the "query" arg on its
  // trace spans (queue wait, build, morsels, finalize). Set at finalize.
  uint64_t query_id = 0;
  // Two-phase queries only (zero otherwise). build_wall_micros: wall time
  // of the join's build phase, part of wall_micros — on a pool from its
  // build task's claim to the table's publication, on the caller's thread
  // the build task's run. merge_wall_micros: wall time of the finalize
  // merge (the sort's k-way run merge). EXPLAIN ANALYZE prints these next
  // to the model's phase predictions.
  uint64_t build_wall_micros = 0;
  uint64_t merge_wall_micros = 0;

  /// Reported query time: wall time plus the simulated I/O component.
  double TotalMicros() const { return wall_micros + charged_io_micros; }
  double TotalMillis() const { return TotalMicros() / 1000.0; }
};

/// Mixes tuple `i` of `chunk` into an order-independent digest: tuples are
/// hashed individually (position-insensitive) and combined with wrapping
/// addition, so strategies — and parallel workers — emitting identical bags
/// in different chunkings/orders agree.
uint64_t TupleDigest(const exec::TupleChunk& chunk, size_t i);

/// Sum of TupleDigest over every tuple in `chunk`.
uint64_t ChunkDigest(const exec::TupleChunk& chunk);

}  // namespace plan
}  // namespace cstore

#endif  // CSTORE_PLAN_EXECUTOR_H_
