#include "exec/chunk_pool.h"

namespace cstore {
namespace exec {

ChunkPool& GlobalChunkPool() {
  // Stripe count matches the scheduler's typical worker counts; each stripe
  // retains enough idle chunks for a deep operator tree per worker.
  static ChunkPool* pool = new ChunkPool(/*num_stripes=*/16,
                                         /*max_idle_per_stripe=*/64);
  return *pool;
}

PooledChunk AcquireChunk(ExecStats* stats) {
  bool reused = false;
  PooledChunk chunk = GlobalChunkPool().Acquire(&reused);
  chunk->Reset(0);
  if (stats != nullptr) {
    ++stats->chunk_pool_acquires;
    if (reused) ++stats->chunk_pool_reuses;
  }
  return chunk;
}

}  // namespace exec
}  // namespace cstore
