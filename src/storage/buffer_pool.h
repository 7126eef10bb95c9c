// BufferPool: fixed-capacity cache of 64 KB pages with CLOCK replacement and
// pin counting.
//
// The paper's cost model exposes the buffer pool through the factor F
// ("fraction of pages of a column in the buffer pool"): a properly pipelined
// LM plan re-accesses columns while their blocks are still resident, making
// the re-access I/O-free (Section 2.2). CLOCK (one reference bit per frame)
// keeps such a re-read block resident: a hit sets the frame's bit, and the
// hand that picks a miss's frame gives a set bit a second chance before it
// evicts. The pool records hits, physical reads and seeks so that
// experiments can verify this behaviour, and charges the DiskModel for cold
// reads.
//
// Thread safety: Fetch / PageRef release / Clear may be called concurrently
// from morsel workers. One mutex guards the frame table's metadata, the
// block map, the CLOCK hand, the seek streams and the counters; every
// Fetch takes it once, instrumented (acquisitions, contended acquisitions
// and nanoseconds spent blocked are counted). A frame's pin count is
// atomic: pins rise only under the mutex, and PageRef release lowers them
// without it, so a sweep that sees a count of 0 under the mutex may reuse
// the frame. Page payloads are read lock-free — frames_ never resizes and a
// pinned frame cannot be evicted or overwritten. The physical file read on
// a miss happens *outside* the mutex (the frame is pinned and flagged
// `loading`; concurrent requesters of the same block wait on a condition
// variable), so cold scans from multiple workers overlap their I/O.

#ifndef CSTORE_STORAGE_BUFFER_POOL_H_
#define CSTORE_STORAGE_BUFFER_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "storage/disk_model.h"
#include "storage/file_manager.h"
#include "storage/io_stats.h"
#include "storage/page.h"
#include "util/status.h"

namespace cstore {
namespace storage {

class BufferPool;

/// RAII pin on a cached page. While a PageRef is alive the underlying frame
/// cannot be evicted. Movable, not copyable.
class PageRef {
 public:
  PageRef() = default;
  PageRef(BufferPool* pool, uint32_t frame);
  ~PageRef();

  PageRef(const PageRef&) = delete;
  PageRef& operator=(const PageRef&) = delete;
  PageRef(PageRef&& other) noexcept;
  PageRef& operator=(PageRef&& other) noexcept;

  bool valid() const { return pool_ != nullptr; }
  const Page& page() const;
  const BlockHeader* header() const { return page().header(); }
  const char* payload() const { return page().payload(); }

  /// Drops the pin: one atomic decrement, no lock, no allocation.
  void Release();

 private:
  BufferPool* pool_ = nullptr;
  uint32_t frame_ = UINT32_MAX;
};

class BufferPool {
 public:
  /// `capacity_frames` 64 KB frames; `disk_model` may be null (no charging).
  BufferPool(FileManager* files, size_t capacity_frames,
             const DiskModel* disk_model = nullptr);

  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  /// Fetches (pinning) the given block, reading it from disk on a miss.
  Result<PageRef> Fetch(FileId file, uint64_t block_no);

  /// Drops every cached page (all pins must be released). Used by benchmarks
  /// to measure cold-cache behaviour.
  void Clear();

  /// Snapshot of the I/O counters.
  IoStats stats() const;
  void ResetStats();

  /// Per-query I/O attribution: while set, every counter update performed
  /// *by the calling thread* (on any BufferPool) is also added to `*sink`.
  /// Thread-local, so concurrent queries on a shared pool each see exactly
  /// their own I/O instead of a snapshot of the process-wide counters.
  /// Pass nullptr to detach. Prefer ScopedIoAttribution.
  static void SetThreadAttribution(IoStats* sink);

  /// RAII attachment of the calling thread's I/O to `sink` (restores the
  /// previous attribution on destruction, so scopes nest).
  class ScopedIoAttribution {
   public:
    explicit ScopedIoAttribution(IoStats* sink);
    ~ScopedIoAttribution();
    ScopedIoAttribution(const ScopedIoAttribution&) = delete;
    ScopedIoAttribution& operator=(const ScopedIoAttribution&) = delete;

   private:
    IoStats* previous_;
  };

  size_t capacity() const { return frames_.size(); }
  size_t num_cached() const;

 private:
  friend class PageRef;

  struct Frame {
    Page page;
    FileId file;
    uint64_t block_no = 0;
    // Raised only under mu_; PageRef::Release lowers it without the lock,
    // so a count of 0 seen under mu_ stays 0 until mu_ is released.
    std::atomic<uint32_t> pin_count{0};
    bool valid = false;
    // A physical read is in flight (frame pinned, mu_ released);
    // same-block requesters wait on loaded_cv_.
    bool loading = false;
    // CLOCK reference bit: set by a hit, cleared as the hand passes.
    bool referenced = false;
  };

  struct Key {
    uint32_t file;
    uint64_t block;
    bool operator==(const Key& o) const {
      return file == o.file && block == o.block;
    }
  };
  struct KeyHash {
    size_t operator()(const Key& k) const {
      return std::hash<uint64_t>()((uint64_t{k.file} << 40) ^ k.block);
    }
  };

  /// Locks mu_, counting the acquisition and — when the lock was held by
  /// someone else — the contention and the time spent blocked.
  std::unique_lock<std::mutex> Lock();

  /// Adds `delta` to the pool's counters and to the calling thread's
  /// attribution sink. Requires mu_.
  void Account(const IoStats& delta);

  /// Advances the CLOCK hand to an unpinned frame and empties it: an
  /// invalid frame is taken at once, a referenced one loses its bit and is
  /// passed over, any other is evicted. Requires mu_.
  Result<uint32_t> ClaimFrame();

  /// Seek-stream accounting on the miss path: advances the stream this
  /// read continues, or starts one. Returns whether the read was
  /// sequential. WithdrawFromStream undoes it for a failed read. Both
  /// require mu_.
  bool AdvanceStream(FileId file, uint64_t block_no);
  void WithdrawFromStream(FileId file, uint64_t block_no, bool sequential);

  FileManager* files_;
  const DiskModel* disk_model_;
  std::vector<Frame> frames_;
  mutable std::mutex mu_;
  std::condition_variable loaded_cv_;
  std::unordered_map<Key, uint32_t, KeyHash> map_;
  size_t hand_ = 0;
  // Seek detection: the next block each active sequential stream of a file
  // expects. Concurrent morsel workers each advance their own stream, so an
  // interleaved parallel scan is charged the same seeks as its serial
  // counterpart (one per stream start) rather than one per block. Bounded
  // per file; oldest stream evicted beyond kMaxSeekStreams.
  static constexpr size_t kMaxSeekStreams = 64;
  std::unordered_map<uint32_t, std::vector<uint64_t>> next_sequential_;
  IoStats stats_;
};

}  // namespace storage
}  // namespace cstore

#endif  // CSTORE_STORAGE_BUFFER_POOL_H_
