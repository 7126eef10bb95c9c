// Execution counters maintained by operators; the plan executor folds them
// into RunStats alongside buffer-pool I/O statistics.

#ifndef CSTORE_EXEC_EXEC_STATS_H_
#define CSTORE_EXEC_EXEC_STATS_H_

#include <cstdint>

namespace cstore {
namespace exec {

struct ExecStats {
  // Blocks fetched by data-source operators (block iterator getNext calls).
  uint64_t blocks_fetched = 0;
  // Blocks skipped entirely by pipelined strategies: per chunk window, the
  // blocks overlapping the window that hold none of its valid positions.
  // Counted per window, so the total is the same for every worker count
  // and morsel size.
  uint64_t blocks_skipped = 0;
  // Individual predicate evaluations (per value or per run).
  uint64_t predicate_evals = 0;
  // Values copied out of column representations (DS3 gathers, decompression
  // for tuple construction).
  uint64_t values_gathered = 0;
  // Row-tuples stitched together (Merge / SPC / DS2 / DS4 outputs).
  uint64_t tuples_constructed = 0;
  // Position-set intersections performed by AND.
  uint64_t position_ands = 0;
  // Chunk-pool pressure: scratch TupleChunks acquired and how many were
  // recycled buffers (the rest fell through to a fresh allocation); a
  // warmed-up steady state reuses ≈ every acquire.
  uint64_t chunk_pool_acquires = 0;
  uint64_t chunk_pool_reuses = 0;

  void Reset() { *this = ExecStats(); }

  /// Folds another worker's counters into this one (all counters are sums,
  /// so per-worker stats merge associatively in any order).
  void Merge(const ExecStats& o) {
    blocks_fetched += o.blocks_fetched;
    blocks_skipped += o.blocks_skipped;
    predicate_evals += o.predicate_evals;
    values_gathered += o.values_gathered;
    tuples_constructed += o.tuples_constructed;
    position_ands += o.position_ands;
    chunk_pool_acquires += o.chunk_pool_acquires;
    chunk_pool_reuses += o.chunk_pool_reuses;
  }
};

}  // namespace exec
}  // namespace cstore

#endif  // CSTORE_EXEC_EXEC_STATS_H_
