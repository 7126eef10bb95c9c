// Process-wide recycling pool for scratch TupleChunks.
//
// Every morsel task drains its plan through a scratch chunk, and several
// operators keep an input-side staging chunk; before pooling, each of those
// was a fresh heap vector pair per morsel (and per operator instance).
// AcquireChunk hands back a cleared chunk whose vectors keep their grown
// capacity from earlier use, so a warmed-up worker executes morsels with
// zero chunk allocation. Pool pressure is recorded in ExecStats
// (chunk_pool_acquires / _reuses) when a stats sink is given, and always in
// the global pool's own counters.
//
// The pool can be disabled (GlobalChunkPool().set_enabled(false)) to make
// every acquire a plain allocation — benchmarks use this to isolate the
// pool's contribution without touching call sites.

#ifndef CSTORE_EXEC_CHUNK_POOL_H_
#define CSTORE_EXEC_CHUNK_POOL_H_

#include "exec/exec_stats.h"
#include "exec/tuple_chunk.h"
#include "util/object_pool.h"

namespace cstore {
namespace exec {

using ChunkPool = util::ObjectPool<TupleChunk>;
using PooledChunk = ChunkPool::Ptr;

/// The process-wide chunk pool (leaked singleton: handles may be released
/// from worker threads at any point of shutdown).
ChunkPool& GlobalChunkPool();

/// Acquires a chunk from the global pool, cleared to width 0 (capacity
/// retained from previous use). Records pool pressure in `*stats` if given.
PooledChunk AcquireChunk(ExecStats* stats = nullptr);

}  // namespace exec
}  // namespace cstore

#endif  // CSTORE_EXEC_CHUNK_POOL_H_
