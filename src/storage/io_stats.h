// Counters describing the I/O behaviour of a query run. The buffer pool
// updates these; the plan executor snapshots them into RunStats so that
// benchmarks can report both CPU time and (simulated) I/O cost.

#ifndef CSTORE_STORAGE_IO_STATS_H_
#define CSTORE_STORAGE_IO_STATS_H_

#include <cstdint>

namespace cstore {
namespace storage {

struct IoStats {
  // Block requests that were served from the buffer pool.
  uint64_t cache_hits = 0;
  // Block requests that required reading from the file system.
  uint64_t physical_reads = 0;
  // Physical reads that were not sequential with the previous read of the
  // same file (the analytical model charges SEEK for these).
  uint64_t seeks = 0;
  // Valid frames the CLOCK hand reclaimed to serve a miss.
  uint64_t evictions = 0;
  // Buffer-pool mutex acquisitions (one per Fetch; releasing a page takes
  // no lock), and how many of them found the mutex held by another thread.
  // Their ratio is the pool's contended-acquisition share.
  uint64_t pool_lock_acquisitions = 0;
  uint64_t pool_lock_contended = 0;
  // Wall time spent blocked on contended pool-mutex acquisitions.
  uint64_t pool_lock_wait_ns = 0;
  // Wall time spent inside successful physical block reads (the real file
  // system call, not the DiskModel's simulated charge).
  uint64_t physical_read_ns = 0;
  // Microseconds of simulated disk time charged by the DiskModel.
  double charged_io_micros = 0;

  IoStats& operator+=(const IoStats& other) {
    cache_hits += other.cache_hits;
    physical_reads += other.physical_reads;
    seeks += other.seeks;
    evictions += other.evictions;
    pool_lock_acquisitions += other.pool_lock_acquisitions;
    pool_lock_contended += other.pool_lock_contended;
    pool_lock_wait_ns += other.pool_lock_wait_ns;
    physical_read_ns += other.physical_read_ns;
    charged_io_micros += other.charged_io_micros;
    return *this;
  }

  IoStats operator-(const IoStats& other) const {
    IoStats d;
    d.cache_hits = cache_hits - other.cache_hits;
    d.physical_reads = physical_reads - other.physical_reads;
    d.seeks = seeks - other.seeks;
    d.evictions = evictions - other.evictions;
    d.pool_lock_acquisitions =
        pool_lock_acquisitions - other.pool_lock_acquisitions;
    d.pool_lock_contended = pool_lock_contended - other.pool_lock_contended;
    d.pool_lock_wait_ns = pool_lock_wait_ns - other.pool_lock_wait_ns;
    d.physical_read_ns = physical_read_ns - other.physical_read_ns;
    d.charged_io_micros = charged_io_micros - other.charged_io_micros;
    return d;
  }

  void Reset() { *this = IoStats(); }
};

}  // namespace storage
}  // namespace cstore

#endif  // CSTORE_STORAGE_IO_STATS_H_
