// ObjectPool: a lock-striped free list of reusable heap objects.
//
// Steady-state query execution allocates the same transient buffers over
// and over (TupleChunk scratch per morsel; exec::GlobalChunkPool is this
// pool's one user). Recycling them through a pool turns those per-morsel
// mallocs into a stack pop — and, because the stripes are keyed by thread,
// workers mostly hit a stripe nobody else touches.
//
// The pool hands out unique_ptr<T, Releaser> handles; when a handle dies,
// the object returns to the releasing thread's stripe (capped; overflow is
// deleted). The pool does NOT reset objects — callers must clear any state
// they care about on acquire (TupleChunk::Reset). Disabling the pool makes
// Acquire behave like plain `new` and Release like plain `delete`, so
// benchmarks can isolate the pool's contribution without changing call
// sites.
//
// Thread safety: all methods may be called concurrently. Objects may be
// released from a different thread than the one that acquired them. The
// pool must outlive every handle it issued (the global chunk pool is a
// leaked singleton for exactly this reason).

#ifndef CSTORE_UTIL_OBJECT_POOL_H_
#define CSTORE_UTIL_OBJECT_POOL_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace cstore {
namespace util {

template <typename T>
class ObjectPool {
 public:
  /// Pool pressure counters (all monotonic; ResetStats rewinds them).
  struct Stats {
    uint64_t acquires = 0;  // total Acquire() calls
    uint64_t reuses = 0;    // served from an idle list (no allocation)
    uint64_t allocs = 0;    // served by operator new
    uint64_t discards = 0;  // released objects deleted (stripe full / off)
  };

  explicit ObjectPool(size_t num_stripes = 8, size_t max_idle_per_stripe = 64)
      : stripes_(num_stripes == 0 ? 1 : num_stripes),
        max_idle_(max_idle_per_stripe) {}

  ObjectPool(const ObjectPool&) = delete;
  ObjectPool& operator=(const ObjectPool&) = delete;

  /// Deleter that routes the object back into its pool (or deletes it when
  /// the pool is disabled / full). Default-constructed Releasers (from a
  /// default-constructed Ptr) never fire on a live object.
  class Releaser {
   public:
    Releaser() = default;
    explicit Releaser(ObjectPool* pool) : pool_(pool) {}
    void operator()(T* obj) const {
      if (pool_ != nullptr) {
        pool_->Release(obj);
      } else {
        delete obj;
      }
    }

   private:
    ObjectPool* pool_ = nullptr;
  };
  using Ptr = std::unique_ptr<T, Releaser>;

  /// Returns a (possibly recycled — caller resets) object. `*reused` is set
  /// to whether the object came from an idle list.
  Ptr Acquire(bool* reused = nullptr) {
    acquires_.fetch_add(1, std::memory_order_relaxed);
    if (enabled_.load(std::memory_order_relaxed)) {
      Stripe& s = LocalStripe();
      std::lock_guard<std::mutex> lock(s.mu);
      if (!s.idle.empty()) {
        T* obj = s.idle.back().release();
        s.idle.pop_back();
        reuses_.fetch_add(1, std::memory_order_relaxed);
        if (reused != nullptr) *reused = true;
        return Ptr(obj, Releaser(this));
      }
    }
    allocs_.fetch_add(1, std::memory_order_relaxed);
    if (reused != nullptr) *reused = false;
    return Ptr(new T(), Releaser(this));
  }

  /// Turning the pool off drains nothing: already-idle objects stay, but
  /// subsequent Acquire/Release bypass the free lists.
  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  Stats stats() const {
    Stats out;
    out.acquires = acquires_.load(std::memory_order_relaxed);
    out.reuses = reuses_.load(std::memory_order_relaxed);
    out.allocs = allocs_.load(std::memory_order_relaxed);
    out.discards = discards_.load(std::memory_order_relaxed);
    return out;
  }

  void ResetStats() {
    acquires_.store(0, std::memory_order_relaxed);
    reuses_.store(0, std::memory_order_relaxed);
    allocs_.store(0, std::memory_order_relaxed);
    discards_.store(0, std::memory_order_relaxed);
  }

 private:
  struct Stripe {
    std::mutex mu;
    std::vector<std::unique_ptr<T>> idle;
  };

  Stripe& LocalStripe() {
    size_t h = std::hash<std::thread::id>()(std::this_thread::get_id());
    return stripes_[h % stripes_.size()];
  }

  void Release(T* obj) {
    if (enabled_.load(std::memory_order_relaxed)) {
      Stripe& s = LocalStripe();
      std::lock_guard<std::mutex> lock(s.mu);
      if (s.idle.size() < max_idle_) {
        s.idle.emplace_back(obj);
        return;
      }
    }
    discards_.fetch_add(1, std::memory_order_relaxed);
    delete obj;
  }

  std::vector<Stripe> stripes_;
  const size_t max_idle_;
  std::atomic<bool> enabled_{true};
  std::atomic<uint64_t> acquires_{0};
  std::atomic<uint64_t> reuses_{0};
  std::atomic<uint64_t> allocs_{0};
  std::atomic<uint64_t> discards_{0};
};

}  // namespace util
}  // namespace cstore

#endif  // CSTORE_UTIL_OBJECT_POOL_H_
