// MetricsRegistry: process-wide counters, gauges, and log-bucketed latency
// histograms with a Prometheus-style text dump.
//
// Metrics are registered by full name — labels, if any, are embedded in the
// name itself ("cstore_query_latency_usec{strategy=\"lm-parallel\"}"), so
// the registry stays a flat map. Get* calls return a stable pointer the
// caller may cache for the process lifetime; updates are relaxed atomics
// (no lock on any hot path). Hot-path producers (the scheduler) cache their
// metric pointers once and never touch the registry map again.
//
// Histograms are log2-bucketed: bucket b counts observations in
// [2^(b-1), 2^b). Percentiles interpolate linearly inside the bucket, so a
// reported pXX is within its bucket's bounds of the exact sample pXX — a
// factor-of-two worst case, plenty for latency monitoring, at the cost of
// 64 fixed atomic slots per histogram (no allocation, no lock).
// tests/obs_test.cc checks the estimate against a brute-force sort.

#ifndef CSTORE_OBS_METRICS_H_
#define CSTORE_OBS_METRICS_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace cstore {
namespace obs {

class Counter {
 public:
  void Inc(uint64_t n = 1) { v_.fetch_add(n, std::memory_order_relaxed); }
  uint64_t value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> v_{0};
};

class Gauge {
 public:
  void Set(int64_t v) { v_.store(v, std::memory_order_relaxed); }
  void Add(int64_t n) { v_.fetch_add(n, std::memory_order_relaxed); }
  void Sub(int64_t n) { v_.fetch_sub(n, std::memory_order_relaxed); }
  int64_t value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> v_{0};
};

class Histogram {
 public:
  static constexpr int kBuckets = 64;

  /// Records one observation (any unit; the engine uses microseconds for
  /// latencies). Three relaxed atomic adds.
  void Observe(uint64_t v) {
    buckets_[BucketOf(v)].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(v, std::memory_order_relaxed);
  }

  /// Bucket of value v: 0 for v == 0, else 1 + floor(log2(v)), clamped.
  static int BucketOf(uint64_t v) {
    int b = 0;
    while (v != 0 && b < kBuckets - 1) {
      v >>= 1;
      ++b;
    }
    return b;
  }

  /// Consistent-enough copy for reporting (individual counters are relaxed
  /// reads; a snapshot taken while producers run may be mid-update by a
  /// few observations, which monitoring tolerates).
  struct Snapshot {
    uint64_t count = 0;
    uint64_t sum = 0;
    uint64_t buckets[kBuckets] = {};

    /// q in [0, 1]; linear interpolation inside the target bucket.
    double Percentile(double q) const;
    double Mean() const {
      return count == 0 ? 0.0 : static_cast<double>(sum) / count;
    }
  };

  Snapshot snapshot() const {
    Snapshot s;
    s.count = count_.load(std::memory_order_relaxed);
    s.sum = sum_.load(std::memory_order_relaxed);
    for (int b = 0; b < kBuckets; ++b) {
      s.buckets[b] = buckets_[b].load(std::memory_order_relaxed);
    }
    return s;
  }

 private:
  std::atomic<uint64_t> buckets_[kBuckets] = {};
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> sum_{0};
};

/// RAII latency sample: observes the elapsed microseconds into `h` when the
/// scope exits (no-op on a null histogram). The SQL server wraps each
/// request handler in one; any code timing a scope into a histogram should
/// use this instead of hand-rolled stopwatch-plus-Observe pairs.
class ScopedHistogramTimer {
 public:
  explicit ScopedHistogramTimer(Histogram* h)
      : h_(h), start_(std::chrono::steady_clock::now()) {}
  ~ScopedHistogramTimer() {
    if (h_ == nullptr) return;
    const auto us = std::chrono::duration_cast<std::chrono::microseconds>(
        std::chrono::steady_clock::now() - start_);
    h_->Observe(static_cast<uint64_t>(us.count()));
  }
  ScopedHistogramTimer(const ScopedHistogramTimer&) = delete;
  ScopedHistogramTimer& operator=(const ScopedHistogramTimer&) = delete;

 private:
  Histogram* h_;
  std::chrono::steady_clock::time_point start_;
};

class MetricsRegistry {
 public:
  /// The process-wide registry (leaked singleton; see TraceRecorder).
  static MetricsRegistry& Global();

  /// Finds or creates a metric. The returned pointer is stable for the
  /// process lifetime — cache it on hot paths. A name already registered
  /// as a different kind returns nullptr (programming error surfaced
  /// loudly in the dump instead of a crash).
  Counter* GetCounter(const std::string& name, const std::string& help = "");
  Gauge* GetGauge(const std::string& name, const std::string& help = "");
  Histogram* GetHistogram(const std::string& name,
                          const std::string& help = "");

  /// Registers a dump-time gauge: `fn` is evaluated inside PrometheusText.
  /// Re-registering a name replaces the callback (callers that outlive
  /// their data sources should deregister by re-registering a benign fn).
  void RegisterCallback(const std::string& name, const std::string& help,
                        std::function<double()> fn);

  /// Prometheus-style text exposition: HELP/TYPE lines per metric,
  /// counters and gauges as plain samples, histograms as summary quantiles
  /// (p50/p95/p99) plus _count and _sum.
  std::string PrometheusText() const;

  /// One flattened sample for SQL exposition (system.metrics).
  struct Sample {
    std::string name;  // histogram rows get a :p50/:p95/:p99/... suffix
    const char* kind;  // "counter" | "gauge" | "histogram" | "callback"
    double value;
  };

  /// Every metric flattened to rows, name-ordered: counters, gauges, and
  /// callbacks one row each; histograms expanded into :p50 :p95 :p99
  /// :count :sum rows. Callbacks are evaluated inside the call.
  std::vector<Sample> Samples() const;

 private:
  struct Entry {
    std::string help;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
    std::function<double()> callback;
  };

  MetricsRegistry() = default;

  mutable std::mutex mu_;
  // Ordered so the dump is deterministic and diffable.
  std::map<std::string, Entry> metrics_;
};

/// Appends one "name value" sample line (%.6g formatting) to *out.
void AppendSample(std::string* out, const std::string& name, double value);

/// Appends a histogram's summary block (quantile samples + _count/_sum).
/// `name` may carry a {label} suffix; quantile labels compose correctly.
void AppendHistogram(std::string* out, const std::string& name,
                     const Histogram::Snapshot& snap);

}  // namespace obs
}  // namespace cstore

#endif  // CSTORE_OBS_METRICS_H_
