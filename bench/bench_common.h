// Shared harness for the figure-reproduction benchmarks.
//
// Every bench binary accepts:
//   --sf=<double>     TPC-H scale factor (default 0.1 ≈ 600 K lineitem rows;
//                     the paper used SF 10 = 60 M rows)
//   --points=<int>    number of selectivity points in sweeps (default 11)
//   --disk=<0|1>      charge the paper's 2006-disk latencies for cold block
//                     reads (default 1; reported runtimes = wall + charged)
//   --dir=<path>      database directory (default /tmp/cstore_bench_data,
//                     reused across runs)
//   --runs=<int>      timed repetitions per point, minimum reported (default 1)
//   --workers=<list>  comma-separated morsel-worker counts to sweep
//                     (default "1"; e.g. --workers=1,2,4,8 makes
//                     bench_fig11_selection print per-strategy scaling
//                     curves)
//   --concurrency=<list>  comma-separated in-flight query counts for
//                     bench_throughput's mixed-workload batches (default
//                     "8"; ignored by the figure benches)
//
// Output format: one whitespace-aligned table per figure panel with a
// `# fig=...` header line, mirroring the paper's series.

#ifndef CSTORE_BENCH_BENCH_COMMON_H_
#define CSTORE_BENCH_BENCH_COMMON_H_

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "api/connection.h"
#include "db/database.h"
#include "tpch/loader.h"
#include "util/logging.h"

namespace cstore {
namespace bench {

struct BenchOptions {
  double sf = 0.1;
  int points = 11;
  bool simulate_disk = true;
  std::string dir = "/tmp/cstore_bench_data";
  int runs = 1;
  // Morsel-worker counts to sweep; {1} = classic serial benchmarks.
  std::vector<int> worker_sweep = {1};
  // Concurrent in-flight query counts (bench_throughput only).
  std::vector<int> concurrency_sweep = {8};
};

inline std::vector<int> ParseIntList(const char* list) {
  std::vector<int> out;
  for (const char* p = list; *p != '\0';) {
    int v = std::atoi(p);
    if (v >= 1) out.push_back(v);
    const char* comma = std::strchr(p, ',');
    if (comma == nullptr) break;
    p = comma + 1;
  }
  return out;
}

inline BenchOptions ParseArgs(int argc, char** argv) {
  BenchOptions opts;
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    if (std::strncmp(a, "--sf=", 5) == 0) {
      opts.sf = std::atof(a + 5);
    } else if (std::strncmp(a, "--points=", 9) == 0) {
      opts.points = std::atoi(a + 9);
    } else if (std::strncmp(a, "--disk=", 7) == 0) {
      opts.simulate_disk = std::atoi(a + 7) != 0;
    } else if (std::strncmp(a, "--dir=", 6) == 0) {
      opts.dir = a + 6;
    } else if (std::strncmp(a, "--runs=", 7) == 0) {
      opts.runs = std::max(1, std::atoi(a + 7));
    } else if (std::strncmp(a, "--workers=", 10) == 0) {
      opts.worker_sweep = ParseIntList(a + 10);
      if (opts.worker_sweep.empty()) opts.worker_sweep = {1};
    } else if (std::strncmp(a, "--concurrency=", 14) == 0) {
      opts.concurrency_sweep = ParseIntList(a + 14);
      if (opts.concurrency_sweep.empty()) opts.concurrency_sweep = {8};
    } else {
      std::fprintf(stderr,
                   "unknown arg %s; usage: %s [--sf=F] [--points=N] "
                   "[--disk=0|1] [--dir=PATH] [--runs=N] [--workers=N,...] "
                   "[--concurrency=N,...]\n",
                   a, argv[0]);
      std::exit(2);
    }
  }
  return opts;
}

inline std::unique_ptr<db::Database> OpenBenchDb(const BenchOptions& opts) {
  db::Database::Options dbo;
  dbo.dir = opts.dir;
  dbo.pool_frames = 16384;  // 1 GB of 64 KB frames
  dbo.disk.enabled = opts.simulate_disk;
  dbo.disk.seek_micros = 2500.0;  // paper Table 2
  dbo.disk.read_micros = 1000.0;
  dbo.disk.prefetch_blocks = 1;
  auto db = db::Database::Open(dbo);
  CSTORE_CHECK(db.ok()) << db.status().ToString();
  return std::move(db).value();
}

/// Reads a whole column into memory (for quantile computation).
inline std::vector<Value> ReadColumn(const codec::ColumnReader& reader) {
  std::vector<Value> out;
  out.reserve(reader.num_values());
  for (uint64_t b = 0; b < reader.num_blocks(); ++b) {
    auto blk = reader.FetchBlock(b);
    CSTORE_CHECK(blk.ok()) << blk.status().ToString();
    blk->view.Decompress(&out);
  }
  return out;
}

/// Value X such that (v < X) has selectivity ≈ q, plus the exact resulting
/// selectivity.
struct SelectivityPoint {
  double target;
  Value threshold;
  double actual;
};

inline std::vector<SelectivityPoint> SelectivitySweep(
    const std::vector<Value>& values, int points) {
  std::vector<Value> sorted = values;
  std::sort(sorted.begin(), sorted.end());
  std::vector<SelectivityPoint> out;
  for (int i = 0; i < points; ++i) {
    double q = points == 1 ? 1.0 : static_cast<double>(i) / (points - 1);
    SelectivityPoint p;
    p.target = q;
    if (q >= 1.0) {
      p.threshold = sorted.back() + 1;
    } else {
      size_t idx = static_cast<size_t>(q * (sorted.size() - 1));
      p.threshold = sorted[idx];
    }
    size_t below = std::lower_bound(sorted.begin(), sorted.end(),
                                    p.threshold) -
                   sorted.begin();
    p.actual = static_cast<double>(below) / sorted.size();
    out.push_back(p);
  }
  return out;
}

/// Exact selectivity of (v < x) in `values`.
inline double ExactSelectivity(const std::vector<Value>& values, Value x) {
  uint64_t n = 0;
  for (Value v : values) {
    if (v < x) ++n;
  }
  return static_cast<double>(n) / values.size();
}

/// Runs a selection query `runs` times cold (caches dropped), returning the
/// minimum total runtime in milliseconds.
inline double TimeSelection(db::Database* db, const plan::SelectionQuery& q,
                            plan::Strategy s, int runs,
                            const plan::PlanConfig& config = {},
                            plan::RunStats* last_stats = nullptr) {
  api::Connection conn(db);
  double best = 1e100;
  for (int r = 0; r < runs; ++r) {
    db->DropCaches();
    auto result = conn.Query(plan::PlanTemplate::Selection(q, s, config));
    CSTORE_CHECK(result.ok()) << result.status().ToString();
    best = std::min(best, result->stats.TotalMillis());
    if (last_stats) *last_stats = result->stats;
  }
  return best;
}

inline double TimeAgg(db::Database* db, const plan::AggQuery& q,
                      plan::Strategy s, int runs,
                      const plan::PlanConfig& config = {},
                      plan::RunStats* last_stats = nullptr) {
  api::Connection conn(db);
  double best = 1e100;
  for (int r = 0; r < runs; ++r) {
    db->DropCaches();
    auto result = conn.Query(plan::PlanTemplate::Agg(q, s, config));
    CSTORE_CHECK(result.ok()) << result.status().ToString();
    best = std::min(best, result->stats.TotalMillis());
    if (last_stats) *last_stats = result->stats;
  }
  return best;
}

inline double TimeJoin(db::Database* db, const plan::JoinQuery& q,
                       exec::JoinRightMode mode, int runs,
                       plan::RunStats* last_stats = nullptr) {
  api::Connection conn(db);
  double best = 1e100;
  for (int r = 0; r < runs; ++r) {
    db->DropCaches();
    auto result = conn.Query(plan::PlanTemplate::Join(q, mode));
    CSTORE_CHECK(result.ok()) << result.status().ToString();
    best = std::min(best, result->stats.TotalMillis());
    if (last_stats) *last_stats = result->stats;
  }
  return best;
}

/// Simple aligned table printer.
class TablePrinter {
 public:
  explicit TablePrinter(std::vector<std::string> headers)
      : headers_(std::move(headers)) {}

  void AddRow(std::vector<std::string> row) {
    CSTORE_CHECK(row.size() == headers_.size());
    rows_.push_back(std::move(row));
  }

  void Print() const {
    std::vector<size_t> widths(headers_.size());
    for (size_t c = 0; c < headers_.size(); ++c) {
      widths[c] = headers_[c].size();
      for (const auto& row : rows_) {
        widths[c] = std::max(widths[c], row[c].size());
      }
    }
    auto print_row = [&](const std::vector<std::string>& row) {
      for (size_t c = 0; c < row.size(); ++c) {
        std::printf("%-*s  ", static_cast<int>(widths[c]), row[c].c_str());
      }
      std::printf("\n");
    };
    print_row(headers_);
    print_row(std::vector<std::string>(headers_.size(), "----"));
    for (const auto& row : rows_) print_row(row);
  }

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

inline std::string Fmt(double v, int decimals = 1) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", decimals, v);
  return buf;
}

/// p-quantile of a latency sample in milliseconds (sorts a copy once per
/// call; pass the quantiles you need from one accumulated vector).
inline double Percentile(std::vector<double> ms, double q) {
  if (ms.empty()) return 0;
  std::sort(ms.begin(), ms.end());
  size_t idx = static_cast<size_t>(q * (ms.size() - 1));
  return ms[idx];
}

/// Machine-readable bench output: collects flat records and writes
/// BENCH_<name>.json in the working directory, so the perf trajectory of
/// every run is trackable (QPS, p50, p99 per sweep point). The file is one
/// object {"meta": {...}, "rows": [...]}: meta stamps the emission schema
/// version and the host's core count — numbers from a 2-core CI runner and
/// a 32-core workstation must not land on the same trend line.
class BenchJson {
 public:
  /// Bump when the emitted shape changes incompatibly (v1 was a bare
  /// array of row objects; v2 added the meta envelope).
  static constexpr int kSchemaVersion = 2;

  explicit BenchJson(std::string name) : name_(std::move(name)) {}

  class Row {
   public:
    Row& Num(const char* key, double v) {
      char buf[64];
      std::snprintf(buf, sizeof(buf), "%.6g", v);
      fields_.emplace_back(key, buf);
      return *this;
    }
    Row& Int(const char* key, uint64_t v) {
      fields_.emplace_back(key, std::to_string(v));
      return *this;
    }
    Row& Str(const char* key, const std::string& v) {
      fields_.emplace_back(key, "\"" + v + "\"");  // values are bench-internal
      return *this;
    }

   private:
    friend class BenchJson;
    std::vector<std::pair<std::string, std::string>> fields_;
  };

  Row& AddRow() {
    rows_.emplace_back();
    return rows_.back();
  }

  /// Writes BENCH_<name>.json; returns the path ("" on failure).
  std::string Write() const {
    std::string path = "BENCH_" + name_ + ".json";
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return "";
    std::fprintf(f,
                 "{\n  \"meta\": {\"bench\": \"%s\", \"schema_version\": %d, "
                 "\"host_cores\": %u},\n  \"rows\": [\n",
                 name_.c_str(), kSchemaVersion,
                 std::thread::hardware_concurrency());
    for (size_t i = 0; i < rows_.size(); ++i) {
      std::fprintf(f, "    {");
      const auto& fields = rows_[i].fields_;
      for (size_t j = 0; j < fields.size(); ++j) {
        std::fprintf(f, "\"%s\": %s%s", fields[j].first.c_str(),
                     fields[j].second.c_str(),
                     j + 1 < fields.size() ? ", " : "");
      }
      std::fprintf(f, "}%s\n", i + 1 < rows_.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    return path;
  }

  /// The shared tail of every bench main: write the file and print the
  /// "# wrote ..." breadcrumb (or a warning when the write failed).
  void WriteAndReport() const {
    std::string path = Write();
    if (path.empty()) {
      std::fprintf(stderr, "# failed to write BENCH_%s.json\n",
                   name_.c_str());
      return;
    }
    std::printf("# wrote %s\n", path.c_str());
  }

 private:
  std::string name_;
  std::vector<Row> rows_;
};

}  // namespace bench
}  // namespace cstore

#endif  // CSTORE_BENCH_BENCH_COMMON_H_
