// TraceRecorder: process-wide timed-span recording, exportable as Chrome
// trace_event JSON (chrome://tracing, https://ui.perfetto.dev).
//
// The engine is instrumented at its phase boundaries — parse/bind/plan,
// scheduler queue wait, join build, every morsel (query id, worker,
// position range), finalize, TupleMover compactions, physical reads — and
// each instrumented site costs exactly one relaxed atomic load plus a
// branch while tracing is disabled (the default). Enabling tracing adds two
// steady_clock reads and one append into a per-thread buffer per span.
//
// Concurrency model: every thread appends to its own ThreadBuffer (created
// on first use, registered once under the recorder mutex, never freed while
// the process lives — thread exit leaves the buffer and its spans behind
// for export). Appends take the buffer's own mutex, which only the owning
// thread and an exporting/clearing thread ever touch, so the hot path is an
// uncontended lock. This keeps the recorder TSan-clean without lock-free
// heroics; see tests/obs_test.cc.
//
// Span names and categories must be string literals (or otherwise
// process-lifetime storage): the recorder stores the pointers.

#ifndef CSTORE_OBS_TRACE_H_
#define CSTORE_OBS_TRACE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "util/status.h"

namespace cstore {
namespace obs {

/// One recorded event. `phase` follows the Chrome trace_event "ph" field:
/// 'X' = complete span (start + duration), 'i' = instant event.
struct TraceEvent {
  static constexpr int kMaxArgs = 4;

  const char* name = "";
  const char* cat = "";
  char phase = 'X';
  uint32_t tid = 0;       // recorder-assigned sequential thread id
  uint64_t start_ns = 0;  // since the recorder's epoch
  uint64_t dur_ns = 0;    // 'X' spans only
  int num_args = 0;
  const char* arg_keys[kMaxArgs] = {};
  int64_t arg_vals[kMaxArgs] = {};

  void AddArg(const char* key, int64_t value) {
    if (num_args < kMaxArgs) {
      arg_keys[num_args] = key;
      arg_vals[num_args] = value;
      ++num_args;
    }
  }
};

class TraceRecorder {
 public:
  /// The process-wide recorder (leaked singleton: worker threads may record
  /// at any point of shutdown).
  static TraceRecorder& Global();

  /// Cheap enough for every instrumented site: one relaxed load.
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void set_enabled(bool on) {
    enabled_.store(on, std::memory_order_relaxed);
  }

  /// Nanoseconds since the recorder's epoch (process start, effectively).
  uint64_t NowNs() const {
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - epoch_)
            .count());
  }

  /// Appends `event` to the calling thread's buffer (tid is filled in).
  /// Callers should gate on enabled() themselves — Record always records.
  void Record(TraceEvent event);

  /// Convenience: records an instant event if tracing is enabled.
  void Instant(const char* name, const char* cat, const char* arg_key,
               int64_t arg_value);

  /// Copies out every recorded event (all threads), in per-thread order.
  std::vector<TraceEvent> Snapshot() const;

  /// Drops all recorded events. Thread buffers stay registered (other
  /// threads hold cached pointers to them).
  void Clear();

  static constexpr size_t kDefaultMaxEventsPerThread = 1 << 16;

  /// Per-thread buffer cap: once a thread holds this many events, further
  /// spans are dropped (counted by cstore_trace_dropped_spans) instead of
  /// growing memory without bound during a long traced soak. Takes effect
  /// on subsequent Records; existing events are kept.
  void set_max_events_per_thread(size_t n) {
    max_events_per_thread_.store(n == 0 ? 1 : n,
                                 std::memory_order_relaxed);
  }
  size_t max_events_per_thread() const {
    return max_events_per_thread_.load(std::memory_order_relaxed);
  }

  /// Spans dropped by the per-thread cap since process start.
  uint64_t dropped_events() const;

  /// Serializes the snapshot as Chrome trace_event JSON:
  ///   {"traceEvents":[{"name":...,"ph":"X","ts":μs,"dur":μs,...},...]}
  /// Loadable by Perfetto and chrome://tracing; ts/dur are microseconds.
  std::string ExportChromeJson() const;

  /// Writes ExportChromeJson() to `path`.
  Status WriteChromeJson(const std::string& path) const;

 private:
  struct ThreadBuffer {
    mutable std::mutex mu;
    uint32_t tid = 0;
    std::vector<TraceEvent> events;
  };

  TraceRecorder() : epoch_(std::chrono::steady_clock::now()) {}

  ThreadBuffer* BufferForThisThread();

  std::atomic<bool> enabled_{false};
  std::atomic<size_t> max_events_per_thread_{kDefaultMaxEventsPerThread};
  std::chrono::steady_clock::time_point epoch_;

  mutable std::mutex mu_;  // guards buffers_ (registration + iteration)
  std::vector<std::unique_ptr<ThreadBuffer>> buffers_;
};

/// RAII complete-span ('X') recorder. Latches enabled() once at
/// construction: a span that started while tracing was on is recorded even
/// if tracing is switched off before it ends, and vice versa a disabled
/// construction is fully inert (two null checks total).
class SpanTimer {
 public:
  SpanTimer(const char* name, const char* cat) {
    TraceRecorder& rec = TraceRecorder::Global();
    if (rec.enabled()) {
      recorder_ = &rec;
      event_.name = name;
      event_.cat = cat;
      event_.start_ns = rec.NowNs();
    }
  }

  SpanTimer(const SpanTimer&) = delete;
  SpanTimer& operator=(const SpanTimer&) = delete;

  ~SpanTimer() { End(); }

  /// Records the span now instead of at scope exit; later calls (and the
  /// destructor) do nothing. For spans that must be visible before the
  /// scope publishes its result to another thread.
  void End() {
    if (recorder_ != nullptr) {
      event_.dur_ns = recorder_->NowNs() - event_.start_ns;
      recorder_->Record(event_);
      recorder_ = nullptr;
    }
  }

  /// Attaches a numeric argument (shown in the trace viewer's span detail).
  /// No-op when the span is inert. At most TraceEvent::kMaxArgs stick.
  void Arg(const char* key, int64_t value) {
    if (recorder_ != nullptr) event_.AddArg(key, value);
  }

  bool active() const { return recorder_ != nullptr; }

 private:
  TraceRecorder* recorder_ = nullptr;  // null = tracing was off at entry
  TraceEvent event_;
};

}  // namespace obs
}  // namespace cstore

#endif  // CSTORE_OBS_TRACE_H_
