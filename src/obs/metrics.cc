#include "obs/metrics.h"

#include <cstdio>

namespace cstore {
namespace obs {

double Histogram::Snapshot::Percentile(double q) const {
  if (count == 0) return 0.0;
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  // Rank of the target sample (1-based); q=0 → first, q=1 → last.
  double rank = q * static_cast<double>(count - 1) + 1.0;
  uint64_t cum = 0;
  for (int b = 0; b < kBuckets; ++b) {
    if (buckets[b] == 0) continue;
    double lo = (b == 0) ? 0.0 : static_cast<double>(1ull << (b - 1));
    double hi = (b == 0) ? 0.0 : lo * 2.0;
    if (cum + buckets[b] >= rank) {
      if (b == 0) return 0.0;
      // Position of the target within this bucket, in [0, 1).
      double frac = (rank - static_cast<double>(cum)) /
                    static_cast<double>(buckets[b]);
      if (frac < 0.0) frac = 0.0;
      if (frac > 1.0) frac = 1.0;
      return lo + frac * (hi - lo);
    }
    cum += buckets[b];
  }
  // Unreachable when counts are consistent; fall back to the top bucket.
  return static_cast<double>(1ull << (kBuckets - 1));
}

MetricsRegistry& MetricsRegistry::Global() {
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

Counter* MetricsRegistry::GetCounter(const std::string& name,
                                     const std::string& help) {
  std::lock_guard<std::mutex> lock(mu_);
  Entry& e = metrics_[name];
  if (e.gauge || e.histogram || e.callback) return nullptr;
  if (!e.counter) {
    e.counter = std::make_unique<Counter>();
    if (!help.empty()) e.help = help;
  }
  return e.counter.get();
}

Gauge* MetricsRegistry::GetGauge(const std::string& name,
                                 const std::string& help) {
  std::lock_guard<std::mutex> lock(mu_);
  Entry& e = metrics_[name];
  if (e.counter || e.histogram || e.callback) return nullptr;
  if (!e.gauge) {
    e.gauge = std::make_unique<Gauge>();
    if (!help.empty()) e.help = help;
  }
  return e.gauge.get();
}

Histogram* MetricsRegistry::GetHistogram(const std::string& name,
                                         const std::string& help) {
  std::lock_guard<std::mutex> lock(mu_);
  Entry& e = metrics_[name];
  if (e.counter || e.gauge || e.callback) return nullptr;
  if (!e.histogram) {
    e.histogram = std::make_unique<Histogram>();
    if (!help.empty()) e.help = help;
  }
  return e.histogram.get();
}

void MetricsRegistry::RegisterCallback(const std::string& name,
                                       const std::string& help,
                                       std::function<double()> fn) {
  std::lock_guard<std::mutex> lock(mu_);
  Entry& e = metrics_[name];
  e.counter.reset();
  e.gauge.reset();
  e.histogram.reset();
  e.callback = std::move(fn);
  if (!help.empty()) e.help = help;
}

void AppendSample(std::string* out, const std::string& name, double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), " %.6g\n", value);
  *out += name;
  *out += buf;
}

namespace {

// "name{a="b"}" + (key, val) → "name{a="b",key="val"}"; plain names get a
// fresh label set.
std::string WithLabel(const std::string& name, const char* key,
                      const char* val) {
  std::string out;
  size_t brace = name.find('{');
  if (brace == std::string::npos) {
    out = name + "{" + key + "=\"" + val + "\"}";
  } else {
    out = name.substr(0, name.size() - 1);  // drop trailing '}'
    out += ",";
    out += key;
    out += "=\"";
    out += val;
    out += "\"}";
  }
  return out;
}

// Base metric name without any {label} suffix, for _count/_sum.
std::string BaseName(const std::string& name) {
  size_t brace = name.find('{');
  return brace == std::string::npos ? name : name.substr(0, brace);
}

std::string LabelSuffix(const std::string& name) {
  size_t brace = name.find('{');
  return brace == std::string::npos ? "" : name.substr(brace);
}

}  // namespace

void AppendHistogram(std::string* out, const std::string& name,
                     const Histogram::Snapshot& snap) {
  AppendSample(out, WithLabel(name, "quantile", "0.5"), snap.Percentile(0.5));
  AppendSample(out, WithLabel(name, "quantile", "0.95"),
               snap.Percentile(0.95));
  AppendSample(out, WithLabel(name, "quantile", "0.99"),
               snap.Percentile(0.99));
  std::string base = BaseName(name);
  std::string labels = LabelSuffix(name);
  AppendSample(out, base + "_count" + labels,
               static_cast<double>(snap.count));
  AppendSample(out, base + "_sum" + labels, static_cast<double>(snap.sum));
}

std::string MetricsRegistry::PrometheusText() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out;
  std::string last_base;  // emit HELP/TYPE once per base name
  for (const auto& kv : metrics_) {
    const std::string& name = kv.first;
    const Entry& e = kv.second;
    std::string base = BaseName(name);
    if (base != last_base) {
      if (!e.help.empty()) {
        out += "# HELP " + base + " " + e.help + "\n";
      }
      out += "# TYPE " + base + " ";
      out += e.counter ? "counter" : (e.histogram ? "summary" : "gauge");
      out += "\n";
      last_base = base;
    }
    if (e.counter) {
      AppendSample(&out, name, static_cast<double>(e.counter->value()));
    } else if (e.gauge) {
      AppendSample(&out, name, static_cast<double>(e.gauge->value()));
    } else if (e.histogram) {
      AppendHistogram(&out, name, e.histogram->snapshot());
    } else if (e.callback) {
      AppendSample(&out, name, e.callback());
    }
  }
  return out;
}

std::vector<MetricsRegistry::Sample> MetricsRegistry::Samples() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Sample> out;
  out.reserve(metrics_.size());
  for (const auto& kv : metrics_) {
    const std::string& name = kv.first;
    const Entry& e = kv.second;
    if (e.counter) {
      out.push_back({name, "counter",
                     static_cast<double>(e.counter->value())});
    } else if (e.gauge) {
      out.push_back({name, "gauge", static_cast<double>(e.gauge->value())});
    } else if (e.histogram) {
      Histogram::Snapshot snap = e.histogram->snapshot();
      out.push_back({name + ":p50", "histogram", snap.Percentile(0.5)});
      out.push_back({name + ":p95", "histogram", snap.Percentile(0.95)});
      out.push_back({name + ":p99", "histogram", snap.Percentile(0.99)});
      out.push_back({name + ":count", "histogram",
                     static_cast<double>(snap.count)});
      out.push_back({name + ":sum", "histogram",
                     static_cast<double>(snap.sum)});
    } else if (e.callback) {
      out.push_back({name, "callback", e.callback()});
    }
  }
  return out;
}

}  // namespace obs
}  // namespace cstore
