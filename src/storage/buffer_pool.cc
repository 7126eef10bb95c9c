#include "storage/buffer_pool.h"

#include <chrono>
#include <string>

#include "util/logging.h"

namespace cstore {
namespace storage {

namespace {
// Per-thread attribution sink (see BufferPool::SetThreadAttribution). A
// worker executes one query task at a time, so routing this thread's
// counter updates to the task's own IoStats attributes I/O per query even
// when many queries share the pool.
thread_local IoStats* t_io_sink = nullptr;

uint64_t NanosSince(std::chrono::steady_clock::time_point start) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - start)
          .count());
}
}  // namespace

void BufferPool::SetThreadAttribution(IoStats* sink) { t_io_sink = sink; }

BufferPool::ScopedIoAttribution::ScopedIoAttribution(IoStats* sink)
    : previous_(t_io_sink) {
  t_io_sink = sink;
}

BufferPool::ScopedIoAttribution::~ScopedIoAttribution() {
  t_io_sink = previous_;
}

PageRef::PageRef(BufferPool* pool, uint32_t frame)
    : pool_(pool), frame_(frame) {}

PageRef::~PageRef() { Release(); }

PageRef::PageRef(PageRef&& other) noexcept
    : pool_(other.pool_), frame_(other.frame_) {
  other.pool_ = nullptr;
  other.frame_ = UINT32_MAX;
}

PageRef& PageRef::operator=(PageRef&& other) noexcept {
  if (this != &other) {
    Release();
    pool_ = other.pool_;
    frame_ = other.frame_;
    other.pool_ = nullptr;
    other.frame_ = UINT32_MAX;
  }
  return *this;
}

const Page& PageRef::page() const {
  CSTORE_DCHECK(valid());
  return pool_->frames_[frame_].page;
}

void PageRef::Release() {
  if (pool_ != nullptr) {
    // Release ordering: this pin's reads of the page happen before a CLOCK
    // sweep that sees the count at 0 refills the frame.
    const uint32_t pins = pool_->frames_[frame_].pin_count.fetch_sub(
        1, std::memory_order_release);
    CSTORE_DCHECK(pins > 0);
    pool_ = nullptr;
    frame_ = UINT32_MAX;
  }
}

BufferPool::BufferPool(FileManager* files, size_t capacity_frames,
                       const DiskModel* disk_model)
    : files_(files), disk_model_(disk_model), frames_(capacity_frames) {
  CSTORE_CHECK(capacity_frames > 0);
}

std::unique_lock<std::mutex> BufferPool::Lock() {
  std::unique_lock<std::mutex> lock(mu_, std::try_to_lock);
  IoStats acquired;
  acquired.pool_lock_acquisitions = 1;
  if (!lock.owns_lock()) {
    const auto start = std::chrono::steady_clock::now();
    lock.lock();
    acquired.pool_lock_contended = 1;
    acquired.pool_lock_wait_ns = NanosSince(start);
  }
  Account(acquired);
  return lock;
}

void BufferPool::Account(const IoStats& delta) {
  stats_ += delta;
  if (t_io_sink != nullptr) *t_io_sink += delta;
}

IoStats BufferPool::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

void BufferPool::ResetStats() {
  std::lock_guard<std::mutex> lock(mu_);
  stats_.Reset();
}

Result<uint32_t> BufferPool::ClaimFrame() {
  // Two revolutions: the first may do no more than clear reference bits.
  for (size_t step = 0; step < 2 * frames_.size(); ++step) {
    const uint32_t frame = static_cast<uint32_t>(hand_);
    if (++hand_ == frames_.size()) hand_ = 0;
    Frame& f = frames_[frame];
    // Acquire pairs with PageRef::Release: the last reader is done with the
    // page before the frame is refilled.
    if (f.pin_count.load(std::memory_order_acquire) != 0) continue;
    if (f.valid) {
      if (f.referenced) {
        f.referenced = false;
        continue;
      }
      map_.erase(Key{f.file.id, f.block_no});
      f.valid = false;
      Account({.evictions = 1});
    }
    return frame;
  }
  return Status::Internal(
      "buffer pool exhausted: all frames pinned (capacity " +
      std::to_string(frames_.size()) + ")");
}

bool BufferPool::AdvanceStream(FileId file, uint64_t block_no) {
  // A read is sequential when it continues any active stream of this file
  // (its own worker's previous claim + 1); otherwise it starts a new stream
  // and is a seek.
  std::vector<uint64_t>& streams = next_sequential_[file.id];
  for (uint64_t& next : streams) {
    if (next == block_no) {
      next = block_no + 1;
      return true;
    }
  }
  streams.push_back(block_no + 1);
  if (streams.size() > kMaxSeekStreams) streams.erase(streams.begin());
  return false;
}

void BufferPool::WithdrawFromStream(FileId file, uint64_t block_no,
                                    bool sequential) {
  // Best-effort — a concurrent claim may have advanced the stream past our
  // entry meanwhile, in which case it stays.
  std::vector<uint64_t>& streams = next_sequential_[file.id];
  for (size_t i = streams.size(); i-- > 0;) {
    if (streams[i] != block_no + 1) continue;
    if (sequential) {
      streams[i] = block_no;  // rewind the stream we advanced
    } else {
      streams.erase(streams.begin() + i);  // drop the stream we started
    }
    return;
  }
}

Result<PageRef> BufferPool::Fetch(FileId file, uint64_t block_no) {
  const Key key{file.id, block_no};
  std::unique_lock<std::mutex> lock = Lock();
  if (auto it = map_.find(key); it != map_.end()) {
    const uint32_t frame = it->second;
    Frame& f = frames_[frame];
    f.pin_count.fetch_add(1, std::memory_order_relaxed);
    f.referenced = true;
    Account({.cache_hits = 1});
    // Another thread is still reading this block; wait until its payload is
    // complete. The pin taken above keeps the frame from being reclaimed.
    loaded_cv_.wait(lock, [&f] { return !f.loading; });
    if (!f.valid) {
      // The loader failed and withdrew the block; retry from scratch.
      f.pin_count.fetch_sub(1, std::memory_order_relaxed);
      lock.unlock();
      return Fetch(file, block_no);
    }
    return PageRef(this, frame);
  }

  CSTORE_ASSIGN_OR_RETURN(const uint32_t frame, ClaimFrame());
  Frame& f = frames_[frame];
  f.file = file;
  f.block_no = block_no;
  f.loading = true;
  f.referenced = false;
  f.pin_count.store(1, std::memory_order_relaxed);
  map_.emplace(key, frame);
  // The stream advances at claim time, in mutex order, so a worker's next
  // block continues it even while this read is in flight.
  const bool sequential = AdvanceStream(file, block_no);

  // The actual file read runs without the mutex so concurrent workers
  // overlap their I/O. The pinned+loading frame cannot be reclaimed
  // meanwhile.
  lock.unlock();
  const auto read_start = std::chrono::steady_clock::now();
  Status st = files_->ReadBlock(file, block_no, &f.page);
  const uint64_t read_ns = NanosSince(read_start);
  lock.lock();

  f.loading = false;
  if (!st.ok()) {
    // The read never happened: withdraw the block and the stream advance,
    // and count nothing. Waiters see valid == false and retry.
    WithdrawFromStream(file, block_no, sequential);
    map_.erase(key);
    f.pin_count.fetch_sub(1, std::memory_order_relaxed);
    loaded_cv_.notify_all();
    return st;
  }
  f.valid = true;
  Account({.physical_reads = 1,
           .seeks = sequential ? 0u : 1u,
           .physical_read_ns = read_ns,
           .charged_io_micros = disk_model_ != nullptr
                                    ? disk_model_->CostForRead(sequential)
                                    : 0.0});
  loaded_cv_.notify_all();
  return PageRef(this, frame);
}

void BufferPool::Clear() {
  std::unique_lock<std::mutex> lock = Lock();
  for (Frame& f : frames_) {
    CSTORE_CHECK(f.pin_count.load(std::memory_order_acquire) == 0)
        << "Clear() with pinned pages";
    f.valid = false;
    f.referenced = false;
  }
  map_.clear();
  hand_ = 0;
  next_sequential_.clear();
}

size_t BufferPool::num_cached() const {
  std::lock_guard<std::mutex> lock(mu_);
  return map_.size();
}

}  // namespace storage
}  // namespace cstore
