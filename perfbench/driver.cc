// The repository benchmark: two closed-loop workloads over one cstore
// process, every answer checked against a reference.
//
//   perfbench_driver --workload <name> --seed <n> --seconds <s>
//                    --trace <0|1> [--work-dir <dir>]
//
// Workloads (sizes, pools, client and worker counts are part of each
// definition and repeated in BENCHMARK.json):
//
//   analytic_embedded  the paper's queries through the library: prepared
//                      selections over RLE / plain / bit-vector LINENUM
//                      across a selectivity sweep, GROUP BY aggregates and
//                      ORDER BY ... LIMIT, each under all four strategies
//                      as the paper's figures run them, and typed-plan
//                      orders⋈customer joins, from 2 callers on standalone
//                      sessions with 2 workers each. lineitem sf 0.5 behind
//                      a 256-frame (16 MB) pool, so the strategies' plans,
//                      codecs and buffer-pool misses do the work.
//   lookup_rw_http     two HTTP connections (JSON) doing key lookups on
//                      orders stored sorted by custkey, so the key column
//                      is flagged sorted and late-materialized plans can
//                      answer by index lookup (whether they do is the
//                      advisor's pick); the second connection also sends
//                      every INSERT (ascending new keys) and DELETE, while
//                      the TupleMover compacts on the server's pool.
//
// An untraced run sets up its workload three or more times from scratch
// (fresh data directory each time) and reports the median as setup_s; a
// traced run sets up once. It then runs the last setup's closed loop for a
// 10-second untimed ramp and measures it for --seconds. lookup_rw_http
// keeps idle cores polling (see IdleCorePoller). With --trace 0 it
// prints the end-to-end metrics; with --trace 1 it prints the per-layer
// ledger: the same loop untraced, then traced (a seeded sample of requests
// replayed through each entry point under one request id), the engine's
// counters, a four-strategy regret sweep, codec and compaction probes. The
// engine's own TraceRecorder stays off throughout. The last stdout line is
// the JSON result; the exit code is non-zero when any answer check failed.

#include <pthread.h>
#include <sched.h>
#include <unistd.h>
#include <malloc.h>  // glibc: mallinfo2

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <random>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "api/connection.h"
#include "api/encode.h"
#include "db/database.h"
#include "harness.h"
#include "obs/metrics.h"
#include "server/client.h"
#include "server/server.h"
#include "sql/parser.h"
#include "tpch/generator.h"
#include "tpch/loader.h"
#include "util/logging.h"

namespace cstore {
namespace {

using perfbench::Checksum;
using perfbench::Metric;
using Clock = std::chrono::steady_clock;

double Seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
double Micros(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}
Clock::time_point After(Clock::time_point t, double seconds) {
  return t + std::chrono::duration_cast<Clock::duration>(
                 std::chrono::duration<double>(seconds));
}

// --- Workload definitions ---------------------------------------------------

struct Spec {
  const char* name;
  double sf;                // TPC-H scale factor of the generated data
  bool lineitem;            // load the lineitem projection
  bool join_tables;         // load orders + customer as generated
  bool sorted_orders;       // load orders alone, sorted by custkey
  size_t pool_frames;       // buffer pool, 64 KB frames
  int clients;              // closed-loop callers
  int workers;              // engine workers: per session, or server pool
  bool http;                // through an in-process server::Server
  const char* wire;         // HTTP response format
  bool poll_idle_cores;     // run under an IdleCorePoller
};

constexpr Spec kSpecs[] = {
    {"analytic_embedded", 0.5, true, true, false, 256, 2, 2, false, "", false},
    {"lookup_rw_http", 0.1, false, false, true, 256, 2, 2, true, "json", true},
};

// Setups per untraced run, whose median is setup_s: at least
// kMinSetups, and more while they have taken under kSetupSeconds in all,
// up to kMaxSetups. lookup_rw_http sets up in about 0.1 s, where a single
// scheduling delay moves one setup by a third. A traced run sets up once.
constexpr int kMinSetups = 3;
constexpr int kMaxSetups = 15;
constexpr double kSetupSeconds = 2;
// Untimed start of every closed-loop phase. analytic_embedded often ran a
// third slower for the first seconds of its loop: up to 6 seconds on a
// quiet host, up to 12 on a busy one or under an IdleCorePoller.
constexpr double kRampSeconds = 10;
// Interval of the heap samples behind mem.heap_p95_mb.
constexpr int kHeapSampleMs = 20;
// Traced run: one request in kTraceEvery is decomposed.
constexpr int kTraceEvery = 8;
// Regret sweep: SELECTs sampled per workload, timings per strategy.
constexpr int kSweepStatements = 8;
constexpr int kSweepRepetitions = 3;
// Fresh sessions whose advisor picks model.pick_agreement compares.
constexpr int kPickSessions = 8;
// lookup_rw_http: TupleMover threshold; small enough for several
// compactions in a run of a few seconds.
constexpr uint64_t kMoverThresholdRows = 256;
// lookup_rw_http: write statements per second (half INSERT, half DELETE).
constexpr int kWritesPerSecond = 40;

struct Env {
  const Spec* spec = nullptr;
  std::string dir;
  std::unique_ptr<db::Database> db;
  std::unique_ptr<server::Server> server;
  tpch::LineitemColumns li;
  tpch::JoinColumns jt;

  ~Env() {
    if (db != nullptr) db->DisableTupleMover();
    server.reset();  // stops before the database goes
    db.reset();
    std::error_code ec;
    if (!dir.empty()) std::filesystem::remove_all(dir, ec);
  }
};

/// What a closed-loop request was.
enum class Kind { kRead, kInsert, kDelete };

struct Outcome {
  bool ok = false;
  Kind kind = Kind::kRead;
  double latency_ms = 0;
};

/// Latencies of write statements, by kind. The write mix is half INSERT
/// and half DELETE, so a median pooled over both sits on the boundary
/// between the two populations and jumps between them from run to run;
/// write.p50_ms is the mean of the two medians instead.
struct WriteLatencies {
  std::vector<double> insert_ms, delete_ms;

  void Add(Kind kind, double ms) {
    (kind == Kind::kInsert ? insert_ms : delete_ms).push_back(ms);
  }
  size_t size() const { return insert_ms.size() + delete_ms.size(); }
  double P50() const {
    return (perfbench::Median(insert_ms) + perfbench::Median(delete_ms)) / 2;
  }
};

/// Operations and checks run outside the closed loop.
struct Checks {
  uint64_t attempted = 0;
  uint64_t failed = 0;
};

// --- Per-layer ledger of one traced run -----------------------------------

/// Sum of the RunStats of the decomposed requests.
struct ExecAgg {
  uint64_t queries = 0;
  double wall_us = 0;
  exec::ExecStats stats;
  uint64_t joins = 0, sorts = 0;
  double build_us = 0, merge_us = 0;

  void Add(const plan::RunStats& s, bool join, bool sort) {
    ++queries;
    wall_us += s.wall_micros;
    stats.Merge(s.exec);
    if (join) {
      ++joins;
      build_us += static_cast<double>(s.build_wall_micros);
    }
    if (sort) {
      ++sorts;
      merge_us += static_cast<double>(s.merge_wall_micros);
    }
  }
};

/// One request split into layer self times (microseconds). Each layer is
/// the difference between two successive entry points replayed for the
/// same statement, clamped at zero; `remainder` is total minus their sum,
/// negative where the real request overlapped layers the replay ran one
/// after another (the server encodes while workers still execute).
struct Decomp {
  double total = 0;    // client-observed request time
  double call_us = 0;  // the in-process call (HTTP: replayed Stream + drain)
  double parse = 0, bind = 0, api = 0, exec = 0, encode = 0, wire = 0;
  double remainder = 0;
  double encoded_bytes = 0;
};

/// Spans from the benchmark's own calls into each layer, kept in memory
/// and written out as Chrome trace JSON when the run ends.
class Tracer {
 public:
  explicit Tracer(uint64_t seed) : seed_(seed), t0_(Clock::now()) {}

  bool Sampled(int client, uint64_t i) const {
    uint64_t h = (seed_ ^ (static_cast<uint64_t>(client) << 40) ^ i) *
                 0x9e3779b97f4a7c15ULL;
    return (h >> 33) % kTraceEvery == 0;
  }

  uint64_t NewRequest() { return next_id_.fetch_add(1) + 1; }

  void Span(uint64_t request, const char* name, const char* parent,
            Clock::time_point a, Clock::time_point b) {
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back({request, name, parent, Micros(t0_, a), Micros(a, b)});
  }

  void Record(Decomp d, const plan::RunStats* stats, bool join, bool sort) {
    double explained = 0;
    for (double* p : {&d.parse, &d.bind, &d.api, &d.exec, &d.encode,
                      &d.wire}) {
      *p = std::max(0.0, *p);
      explained += *p;
    }
    d.remainder = d.total - explained;
    std::lock_guard<std::mutex> lock(mu_);
    decomps_.push_back(d);
    if (stats != nullptr) exec_.Add(*stats, join, sort);
  }

  const std::vector<Decomp>& decomps() const { return decomps_; }
  const ExecAgg& exec() const { return exec_; }

  bool WriteChromeJson(const std::string& path) const {
    std::ofstream out(path);
    if (!out) return false;
    out << "{\"traceEvents\":[";
    for (size_t i = 0; i < spans_.size(); ++i) {
      const SpanRec& s = spans_[i];
      char buf[320];
      std::snprintf(buf, sizeof(buf),
                    "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%llu,"
                    "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"request\":%llu,"
                    "\"parent\":\"%s\"}}",
                    i == 0 ? "" : ",", s.name,
                    static_cast<unsigned long long>(s.request), s.start_us,
                    s.dur_us, static_cast<unsigned long long>(s.request),
                    s.parent);
      out << buf;
    }
    out << "\n]}\n";
    return static_cast<bool>(out);
  }

 private:
  struct SpanRec {
    uint64_t request;
    const char* name;
    const char* parent;
    double start_us, dur_us;
  };

  const uint64_t seed_;
  const Clock::time_point t0_;
  std::atomic<uint64_t> next_id_{0};
  std::mutex mu_;
  std::vector<SpanRec> spans_;
  std::vector<Decomp> decomps_;
  ExecAgg exec_;
};

using Ledger = std::map<std::string, double>;

// --- Shared helpers ---------------------------------------------------------

Checksum ChecksumOf(const exec::TupleChunk& tuples) {
  Checksum c;
  for (size_t i = 0; i < tuples.num_tuples(); ++i) {
    c.AddRow(tuples.tuple(i), tuples.width());
  }
  return c;
}

/// Reference answer of a SELECT: the statement on a 1-worker standalone
/// session under a forced strategy, the first from a seeded start that is
/// not `avoid` and supports the statement's columns. `*used` gets it.
Result<Checksum> ReferenceAnswer(db::Database* db, const std::string& sql,
                                 std::optional<plan::Strategy> avoid,
                                 uint64_t salt, plan::Strategy* used) {
  api::Connection conn(db);
  Status last;
  for (size_t k = 0; k < 4; ++k) {
    const plan::Strategy s = plan::kAllStrategies[(salt + k) % 4];
    if (s == avoid) continue;
    Result<api::QueryResult> ref = conn.Query(sql, s, 1);
    if (ref.ok()) {
      *used = s;
      return ChecksumOf(ref->tuples);
    }
    last = ref.status();
    if (!last.IsNotSupported()) break;
  }
  return last;
}

uint64_t DirBytes(const std::string& dir) {
  uint64_t total = 0;
  std::error_code ec;
  for (auto it = std::filesystem::recursive_directory_iterator(dir, ec);
       it != std::filesystem::recursive_directory_iterator();
       it.increment(ec)) {
    if (ec) break;
    if (it->is_regular_file(ec)) total += it->file_size(ec);
  }
  return total;
}

/// True while the stored orders.custkey is flagged sorted, which lets
/// late-materialized plans answer `custkey = k` by index lookup.
bool OrdersKeySorted(db::Database* db) {
  Result<const codec::ColumnReader*> key =
      db->GetTableColumn("orders", "custkey");
  return key.ok() && (*key)->meta().sorted;
}

/// One SCHED_IDLE spinner pinned to each core for the object's lifetime, so
/// no core halts while idle: a thread woken on an idle core is then
/// switched in by the guest kernel at once, instead of waiting for the
/// hypervisor to resume a halted virtual CPU (the wait guest halt-polling
/// exists to avoid). Every request hands off between threads several
/// times: an HTTP request between the client, the server's connection
/// thread and the pool workers; a multi-worker query on a standalone
/// session between the caller and the workers it spawns. On a shared
/// virtual machine those resume waits otherwise set much of the latency
/// and vary with the neighbours' load. SCHED_IDLE threads run only when no
/// other thread of the process wants the core. analytic_embedded runs
/// without it: its workers keep the cores busy, and under the spinners it
/// completed about a quarter fewer queries per second.
class IdleCorePoller {
 public:
  IdleCorePoller() {
    const unsigned cores = std::max(1u, std::thread::hardware_concurrency());
    for (unsigned c = 0; c < cores; ++c) {
      threads_.emplace_back([this, c] {
        sched_param param{};
        pthread_setschedparam(pthread_self(), SCHED_IDLE, &param);
        cpu_set_t set;
        CPU_ZERO(&set);
        CPU_SET(c, &set);
        pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
        while (!stop_.load(std::memory_order_relaxed)) {
#if defined(__x86_64__) || defined(__i386__)
          __builtin_ia32_pause();
#endif
        }
      });
    }
  }
  ~IdleCorePoller() {
    stop_.store(true);
    for (std::thread& t : threads_) t.join();
  }

 private:
  std::atomic<bool> stop_{false};
  std::vector<std::thread> threads_;
};

/// Samples the heap the process holds in use (glibc's arena chunks in use
/// plus its mmapped chunks) every kHeapSampleMs for the object's lifetime.
/// Heap in use rather than resident memory, and a percentile rather than
/// the peak: analytic_embedded's results come and go in tens of MB per
/// query, and how much of that freed memory glibc's per-thread arenas keep
/// resident differs from run to run (the resident high-water mark moved
/// 296-417 MB between runs, the 95th percentile of resident samples
/// 219-282 MB). Even so lookup_rw_http's heap is about 32 MB in most runs
/// and 24-25 MB in about one in five, for the whole run, so the figure is
/// a per-layer metric of the traced run, not an end-to-end one.
class HeapSampler {
 public:
  HeapSampler() {
    thread_ = std::thread([this] {
      while (!stop_.load(std::memory_order_relaxed)) {
        const struct mallinfo2 m = mallinfo2();
        const double mb = (m.uordblks + m.hblkhd) / 1048576.0;
        {
          std::lock_guard<std::mutex> lock(mu_);
          samples_.emplace_back(Clock::now(), mb);
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(kHeapSampleMs));
      }
    });
  }
  ~HeapSampler() {
    stop_.store(true);
    thread_.join();
  }

  /// 95th percentile of the samples taken in [from, to], in MB.
  perfbench::Percentile P95(Clock::time_point from, Clock::time_point to) {
    std::vector<double> mb;
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& [t, v] : samples_) {
      if (t >= from && t <= to) mb.push_back(v);
    }
    return perfbench::NearestRank(mb, 0.95);
  }

 private:
  std::atomic<bool> stop_{false};
  std::mutex mu_;
  std::vector<std::pair<Clock::time_point, double>> samples_;
  std::thread thread_;
};

double CounterValue(const char* name) {
  return static_cast<double>(
      obs::MetricsRegistry::Global().GetCounter(name)->value());
}
obs::Histogram::Snapshot HistogramOf(const char* name) {
  return obs::MetricsRegistry::Global().GetHistogram(name)->snapshot();
}
double MeanDelta(const obs::Histogram::Snapshot& a,
                 const obs::Histogram::Snapshot& b) {
  const uint64_t n = b.count - a.count;
  return n == 0 ? 0.0 : static_cast<double>(b.sum - a.sum) / n;
}

/// Reads every block of `reader` through the buffer pool and decodes it;
/// returns decoded MB/s (8-byte values).
double DecodeMbPerSec(const codec::ColumnReader* reader) {
  std::vector<Value> out;
  out.reserve(reader->num_values());
  const Clock::time_point a = Clock::now();
  for (uint64_t b = 0; b < reader->num_blocks(); ++b) {
    auto blk = reader->FetchBlock(b);
    CSTORE_CHECK(blk.ok()) << blk.status().ToString();
    blk->view.Decompress(&out);
  }
  const double s = Seconds(a, Clock::now());
  CSTORE_CHECK(out.size() == reader->num_values());
  return s <= 0 ? 0.0 : out.size() * 8.0 / 1e6 / s;
}

// --- Workload interface ------------------------------------------------------

class Workload {
 public:
  Workload(Env* env, uint64_t seed) : env_(env), seed_(seed), rng_(seed) {}
  virtual ~Workload() = default;

  /// Builds the seeded statement instances from the loaded data.
  virtual Status Plan() = 0;
  /// Opens the client sessions or connections and runs every instance
  /// once through the measured path (part of setup).
  virtual Status Warmup() = 0;
  /// Reference answers, computed outside every timed window.
  virtual Status References() = 0;
  /// One closed-loop request of `client`; with a tracer, decomposes it
  /// when sampled.
  virtual Outcome Step(int client, uint64_t i, Tracer* tracer) = 0;
  /// Called as each closed-loop phase starts.
  virtual void BeginPhase() {}
  /// End-of-run answer checks.
  virtual Checks Finish() = 0;
  /// SELECT texts the regret sweep samples from.
  virtual std::vector<std::string> SweepStatements() const = 0;
  /// A session for in-process replays (shares the server's scheduler on
  /// an HTTP workload).
  virtual std::unique_ptr<api::Connection> InProcessSession() const {
    api::Connection::Settings settings;
    settings.num_workers = env_->spec->workers;
    return std::make_unique<api::Connection>(env_->db.get(), nullptr,
                                             settings);
  }
  /// Per-layer numbers of this workload read right after the measured
  /// phase, before anything else runs.
  virtual void MeasuredLayers(Ledger* ledger) { (void)ledger; }
  /// Per-layer probes run after the end-of-run checks (they may write).
  virtual void ProbeLayers(Ledger* ledger) { (void)ledger; }

  int clients() const { return env_->spec->clients; }

 protected:
  /// Seeded per-client walk over `n` instances: a fresh permutation per
  /// cycle, so every prefix of the sequence holds nearly the same mix.
  class Walk {
   public:
    Walk() = default;
    Walk(size_t n, uint64_t seed) : rng_(seed) { order_.resize(n); }
    size_t Next() {
      if (pos_ == order_.size()) {
        for (size_t i = 0; i < order_.size(); ++i) order_[i] = i;
        std::shuffle(order_.begin(), order_.end(), rng_);
        pos_ = 0;
      }
      return order_[pos_++];
    }

   private:
    std::mt19937_64 rng_;
    std::vector<size_t> order_;
    size_t pos_ = 0;
  };

  Env* env_;
  const uint64_t seed_;
  std::mt19937_64 rng_;
};

/// Seeded multiplicative jitter in [1 - spread, 1 + spread].
double Jitter(std::mt19937_64* rng, double spread) {
  return std::uniform_real_distribution<double>(1 - spread, 1 + spread)(*rng);
}

// --- analytic_embedded --------------------------------------------------

class AnalyticWorkload : public Workload {
 public:
  using Workload::Workload;

  // Each statement runs under every strategy it supports, forced per
  // session, and not under the advisor's pick: a session's pick rests on a
  // cost model it calibrates from a sub-millisecond timing probe when it
  // starts, and on a shared host that probe flips several of these
  // statements between early and late materialization from one run to the
  // next, moving qps between about 40 and 60 per second. The advisor is
  // measured in the traced run (model.*, model.pick_agreement among them).
  Status Plan() override {
    const Value max_day = env_->li.max_shipdate;
    auto day = [&](double frac) {
      return static_cast<Value>(frac * Jitter(&rng_, 0.02) * max_day);
    };
    // Figure 11 selections over each stored LINENUM encoding.
    const char* linenums[] = {"linenum", "linenum_plain", "linenum_bv"};
    for (const char* col : linenums) {
      const int t = AddTemplate(std::string("SELECT shipdate, ") + col +
                                " FROM lineitem WHERE shipdate < ? AND " +
                                col + " < ?");
      for (double f : {0.01, 0.1, 0.3}) {
        for (Value y : {3, 7}) AddSql(t, {day(f), y});
      }
    }
    // Figure 12 aggregation, and a low-cardinality GROUP BY.
    const int agg = AddTemplate(
        "SELECT shipdate, SUM(linenum) FROM lineitem WHERE shipdate < ? AND "
        "linenum < ? GROUP BY shipdate");
    for (double f : {0.1, 0.5}) {
      for (Value y : {3, 7}) AddSql(agg, {day(f), y});
    }
    const int flags = AddTemplate(
        "SELECT returnflag, SUM(quantity) FROM lineitem WHERE shipdate < ? "
        "AND quantity < ? GROUP BY returnflag");
    for (double f : {0.2, 0.8}) {
      for (Value q : {10, 50}) AddSql(flags, {day(f), q});
    }
    // Top-N.
    const int topn = AddTemplate(
        "SELECT shipdate, quantity FROM lineitem WHERE shipdate < ? AND "
        "linenum_plain < ? ORDER BY quantity DESC LIMIT 100");
    for (double f : {0.05, 0.5}) AddSql(topn, {day(f), 7});
    // Figure 13 joins: orders ⋈ customer, each right-side mode.
    const Value customers = static_cast<Value>(env_->jt.num_customers);
    for (double f : {0.02, 0.1}) {
      const Value bound =
          std::max<Value>(2, static_cast<Value>(f * Jitter(&rng_, 0.02) *
                                                customers));
      for (exec::JoinRightMode mode :
           {exec::JoinRightMode::kMaterialized,
            exec::JoinRightMode::kMultiColumn,
            exec::JoinRightMode::kSingleColumn}) {
        Op op;
        op.join = true;
        op.join_bound = bound;
        op.join_mode = mode;
        ops_.push_back(op);
      }
    }
    return Status::OK();
  }

  Status Warmup() override {
    for (int c = 0; c < clients(); ++c) {
      Client& cl = clients_.emplace_back();
      for (plan::Strategy s : plan::kAllStrategies) {
        api::Connection::Settings settings;
        settings.num_workers = env_->spec->workers;
        settings.strategy = s;
        auto conn = std::make_unique<api::Connection>(env_->db.get(), nullptr,
                                                      settings);
        std::vector<api::PreparedStatement> stmts;
        for (const std::string& sql : templates_) {
          CSTORE_ASSIGN_OR_RETURN(api::PreparedStatement stmt,
                                  conn->Prepare(sql));
          stmts.push_back(std::move(stmt));
        }
        cl.conns.push_back(std::move(conn));
        cl.stmts.push_back(std::move(stmts));
      }
    }
    // Every instance once; a strategy that cannot run a statement (LM-
    // pipelined cannot position-filter a bit-vector column) drops out.
    std::vector<Op> supported;
    for (size_t i = 0; i < ops_.size(); ++i) {
      Result<api::QueryResult> r = Execute(&clients_[i % clients_.size()],
                                           ops_[i], env_->spec->workers);
      if (!r.ok() && r.status().IsNotSupported()) continue;
      CSTORE_RETURN_IF_ERROR(r.status());
      supported.push_back(ops_[i]);
    }
    ops_ = std::move(supported);
    for (int c = 0; c < clients(); ++c) {
      clients_[c].walk = Walk(ops_.size(), seed_ * 31 + c);
    }
    return Status::OK();
  }

  Status References() override {
    // Two 1-worker answers per statement under two different strategies,
    // which must agree; each instance is checked against the one whose
    // strategy is not its own.
    struct Refs {
      plan::Strategy first = plan::kAllStrategies[0];
      Checksum a, b;
    };
    std::vector<Refs> refs(stmts_.size());
    for (size_t t = 0; t < stmts_.size(); ++t) {
      Refs& r = refs[t];
      plan::Strategy second = r.first;
      const std::string& sql = stmts_[t].sql;
      CSTORE_ASSIGN_OR_RETURN(
          r.a, ReferenceAnswer(env_->db.get(), sql, {}, t, &r.first));
      CSTORE_ASSIGN_OR_RETURN(
          r.b, ReferenceAnswer(env_->db.get(), sql, r.first, t, &second));
      if (r.a != r.b) {
        return Status::Internal("answers differ under " +
                                std::string(plan::StrategyName(r.first)) +
                                " and " + plan::StrategyName(second) + ": " +
                                sql);
      }
    }
    for (size_t i = 0; i < ops_.size(); ++i) {
      Op& op = ops_[i];
      if (op.join) {
        // A different right-side mode and outer materialization, serial.
        plan::PlanTemplate tmpl = JoinTemplate(op, 1);
        tmpl.join_mode = static_cast<exec::JoinRightMode>(
            (static_cast<int>(op.join_mode) + 1 + i % 2) % 3);
        tmpl.join.left_mode = exec::JoinLeftMode::kEarly;
        api::Connection conn(env_->db.get());
        CSTORE_ASSIGN_OR_RETURN(api::QueryResult r, conn.Query(tmpl));
        op.ref = ChecksumOf(r.tuples);
      } else {
        const Refs& r = refs[op.stmt];
        op.ref = r.first != op.strategy ? r.a : r.b;
      }
    }
    return Status::OK();
  }

  Outcome Step(int client, uint64_t i, Tracer* tracer) override {
    Client& cl = clients_[client];
    const Op& op = ops_[cl.walk.Next()];
    Outcome out;
    const Clock::time_point a = Clock::now();
    Result<api::QueryResult> r = Execute(&cl, op, env_->spec->workers);
    const Clock::time_point b = Clock::now();
    out.latency_ms = Micros(a, b) / 1000.0;
    out.ok = r.ok() && ChecksumOf(r->tuples) == op.ref;
    if (out.ok && tracer != nullptr && tracer->Sampled(client, i)) {
      // Prepared and typed-plan calls parse and bind nothing per request:
      // the call splits into engine execution and the API around it.
      const uint64_t id = tracer->NewRequest();
      tracer->Span(id, op.join ? "api.query_plan" : "api.execute_prepared",
                   "", a, b);
      Decomp d;
      d.total = d.call_us = Micros(a, b);
      d.exec = r->stats.wall_micros;
      d.api = d.total - d.exec;
      tracer->Record(d, &r->stats, op.join, IsSort(op));
    }
    return out;
  }

  // Every answer was checked as it came back.
  Checks Finish() override { return Checks(); }

  std::vector<std::string> SweepStatements() const override {
    std::vector<std::string> out;
    for (const Stmt& st : stmts_) out.push_back(st.sql);
    return out;
  }

 private:
  /// A SQL statement instance: a template and its parameter values.
  struct Stmt {
    int tmpl = -1;               // prepared statement index
    std::vector<Value> params;
    std::string sql;             // the same statement with literals
  };
  /// One closed-loop request: a statement under a forced strategy, or a
  /// typed-plan join.
  struct Op {
    bool join = false;
    size_t stmt = 0;             // index into stmts_
    plan::Strategy strategy = plan::Strategy::kLmParallel;
    Value join_bound = 0;        // orders.custkey < bound
    exec::JoinRightMode join_mode = exec::JoinRightMode::kMaterialized;
    Checksum ref;
  };
  /// One caller: a standalone session per strategy, each forcing it, with
  /// every template prepared on each (indexed [strategy][template]).
  struct Client {
    std::vector<std::unique_ptr<api::Connection>> conns;
    std::vector<std::vector<api::PreparedStatement>> stmts;
    Walk walk;
  };

  int AddTemplate(const std::string& sql) {
    templates_.push_back(sql);
    return static_cast<int>(templates_.size()) - 1;
  }

  /// A statement instance, run under each of the four strategies.
  void AddSql(int tmpl, std::vector<Value> params) {
    Stmt st;
    st.tmpl = tmpl;
    st.params = std::move(params);
    st.sql = templates_[tmpl];
    for (Value v : st.params) {
      st.sql.replace(st.sql.find('?'), 1, std::to_string(v));
    }
    stmts_.push_back(std::move(st));
    for (plan::Strategy s : plan::kAllStrategies) {
      Op op;
      op.stmt = stmts_.size() - 1;
      op.strategy = s;
      ops_.push_back(op);
    }
  }

  bool IsSort(const Op& op) const {
    return !op.join && templates_[stmts_[op.stmt].tmpl].find("ORDER BY") !=
                           std::string::npos;
  }

  plan::PlanTemplate JoinTemplate(const Op& op, int workers) const {
    plan::JoinQuery q;
    q.left_key = env_->jt.orders_custkey;
    q.left_pred = codec::Predicate::LessThan(op.join_bound);
    q.left_payload = env_->jt.orders_shipdate;
    q.right_key = env_->jt.customer_custkey;
    q.right_payload = env_->jt.customer_nationcode;
    plan::PlanConfig config;
    config.num_workers = workers;
    return plan::PlanTemplate::Join(q, op.join_mode, config);
  }

  Result<api::QueryResult> Execute(Client* cl, const Op& op, int workers) {
    // Typed plans carry their own operators; any session runs them.
    if (op.join) return cl->conns[0]->Query(JoinTemplate(op, workers));
    const Stmt& st = stmts_[op.stmt];
    return cl->stmts[StrategyIndex(op.strategy)][st.tmpl].Execute(st.params);
  }

  static size_t StrategyIndex(plan::Strategy s) {
    size_t i = 0;
    while (plan::kAllStrategies[i] != s) ++i;
    return i;
  }

  std::vector<std::string> templates_;
  std::vector<Stmt> stmts_;
  std::vector<Op> ops_;
  std::vector<Client> clients_;
};

// --- HTTP workloads ----------------------------------------------------------

/// State of a workload served over HTTP: one HttpClient per closed-loop
/// caller, and the decomposition of a sampled SELECT request.
class HttpWorkload : public Workload {
 public:
  using Workload::Workload;

  std::unique_ptr<api::Connection> InProcessSession() const override {
    api::Connection::Settings settings;
    settings.num_workers = env_->spec->workers;
    return std::make_unique<api::Connection>(
        env_->db.get(), env_->server->scheduler(), settings);
  }

 protected:
  Status ConnectClients() {
    for (int c = 0; c < clients(); ++c) {
      auto client = std::make_unique<server::HttpClient>();
      CSTORE_RETURN_IF_ERROR(
          client->Connect("127.0.0.1", env_->server->port()));
      http_.push_back(std::move(client));
    }
    replay_ = InProcessSession();
    // Calibrates the replay session's cost model now, not in a traced
    // request.
    return replay_->Explain(SweepStatements().front()).status();
  }

  /// POSTs `sql`; false unless the reply is a 200 carrying no error.
  bool Send(int client, const std::string& sql, std::string* body,
            double* latency_ms, Clock::time_point* start = nullptr,
            Clock::time_point* end = nullptr) {
    const Clock::time_point a = Clock::now();
    Result<server::HttpResponse> r =
        http_[client]->Query(sql, env_->spec->wire);
    const Clock::time_point b = Clock::now();
    *latency_ms = Micros(a, b) / 1000.0;
    if (start != nullptr) *start = a;
    if (end != nullptr) *end = b;
    if (!r.ok()) return false;
    if (r->status == 503) ++shed_;
    if (r->status != 200) return false;
    *body = std::move(r->body);
    return body->find("\"error\"") == std::string::npos;
  }

  /// Replays one HTTP SELECT through successive entry points — parse,
  /// Explain, in-process streaming execution on the server's scheduler,
  /// encoding — and records the spans and the layer split.
  void Decompose(Tracer* tracer, const std::string& sql, Clock::time_point a,
                 Clock::time_point b) {
    const uint64_t id = tracer->NewRequest();
    tracer->Span(id, "http.request", "", a, b);
    Clock::time_point t0 = Clock::now();
    Result<sql::ParsedStatement> parsed = sql::ParseStatement(sql);
    Clock::time_point t1 = Clock::now();
    tracer->Span(id, "sql.parse", "http.request", t0, t1);
    const double parse_us = Micros(t0, t1);

    t0 = Clock::now();
    Result<std::string> explain = replay_->Explain(sql);
    t1 = Clock::now();
    tracer->Span(id, "api.explain", "http.request", t0, t1);
    const double explain_us = Micros(t0, t1);

    t0 = Clock::now();
    std::vector<exec::TupleChunk> chunks;
    std::vector<std::string> columns;
    plan::RunStats stats;
    bool drained = false;
    {
      Result<api::RowCursor> cursor = replay_->Stream(sql);
      if (cursor.ok()) {
        columns = cursor->column_names();
        exec::TupleChunk chunk;
        for (;;) {
          Result<bool> more = cursor->Next(&chunk);
          if (!more.ok() || !*more) {
            drained = more.ok();
            break;
          }
          chunks.push_back(std::move(chunk));
        }
        stats = cursor->stats();
      }
    }
    t1 = Clock::now();
    tracer->Span(id, "api.stream", "http.request", t0, t1);
    const double call_us = Micros(t0, t1);

    t0 = Clock::now();
    api::ResultEncoder enc(*api::ParseWire(env_->spec->wire), columns);
    size_t bytes = enc.Header().size();
    uint64_t rows = 0;
    for (const exec::TupleChunk& c : chunks) {
      bytes += enc.EncodeChunk(c).size();
      rows += c.num_tuples();
    }
    bytes += enc.Footer(rows, 0).size();
    t1 = Clock::now();
    tracer->Span(id, "api.encode", "http.request", t0, t1);
    if (!parsed.ok() || !explain.ok() || !drained) return;

    Decomp d;
    d.total = Micros(a, b);
    d.call_us = call_us;
    d.parse = parse_us;
    d.bind = explain_us - parse_us;
    d.exec = stats.wall_micros;
    d.api = call_us - explain_us - d.exec;
    d.encode = Micros(t0, t1);
    d.wire = d.total - call_us - d.encode;
    d.encoded_bytes = static_cast<double>(bytes);
    tracer->Record(d, &stats, false, false);
  }

  std::vector<std::unique_ptr<server::HttpClient>> http_;
  std::unique_ptr<api::Connection> replay_;
  std::atomic<uint64_t> shed_{0};

 public:
  void MeasuredLayers(Ledger* ledger) override {
    (*ledger)["server.shed_503s"] = static_cast<double>(shed_.load());
  }
};

// --- lookup_rw_http ----------------------------------------------------------

class LookupWorkload : public HttpWorkload {
 public:
  LookupWorkload(Env* env, uint64_t seed)
      : HttpWorkload(env, seed), ledger_(0, 0) {}

  Status Plan() override {
    // The base data, generated again outside the engine: the ledger's
    // starting totals and each customer's order count.
    tpch::JoinTablesData data =
        tpch::GenerateJoinTables(env_->spec->sf, seed_);
    int64_t key_sum = 0;
    for (Value k : data.orders_custkey) {
      key_sum += k;
      ++orders_of_[k];
    }
    ledger_ = perfbench::WriteLedger(data.orders_custkey.size(), key_sum);
    max_day_ = *std::max_element(data.orders_shipdate.begin(),
                                 data.orders_shipdate.end());
    const Value customers = static_cast<Value>(env_->jt.num_customers);
    next_key_ = std::max<Value>(customers, data.orders_custkey.back()) + 1;

    // Disjoint key sets: 64 lookup keys no write touches, and base
    // customers whose orders the writer deletes, one each, in order.
    std::vector<Value> keys;
    for (const auto& [k, n] : orders_of_) keys.push_back(k);
    std::shuffle(keys.begin(), keys.end(), rng_);
    for (size_t i = 0; i < keys.size(); ++i) {
      if (i < 64) {
        Op op;
        op.key = keys[i];
        op.sql = "SELECT custkey, shipdate FROM orders WHERE custkey = " +
                 std::to_string(keys[i]);
        lookups_.push_back(op);
      } else {
        delete_keys_.push_back(keys[i]);
      }
    }
    return Status::OK();
  }

  Status Warmup() override {
    CSTORE_RETURN_IF_ERROR(ConnectClients());
    for (int c = 0; c < clients(); ++c) {
      walks_.emplace_back(lookups_.size(), seed_ * 31 + c);
    }
    for (const Op& op : lookups_) {
      std::string body;
      double ms;
      if (!Send(0, op.sql, &body, &ms)) {
        return Status::Internal("warm-up request failed: " + op.sql);
      }
    }
    return Status::OK();
  }

  Status References() override {
    for (size_t i = 0; i < lookups_.size(); ++i) {
      // Under a strategy other than the advisor's pick.
      api::Connection conn(env_->db.get());
      CSTORE_ASSIGN_OR_RETURN(api::QueryResult advised,
                              conn.Query(lookups_[i].sql, {}, 1));
      plan::Strategy used;
      CSTORE_ASSIGN_OR_RETURN(lookups_[i].ref,
                              ReferenceAnswer(env_->db.get(), lookups_[i].sql,
                                              advised.strategy, i, &used));
      if (lookups_[i].ref.rows !=
          static_cast<uint64_t>(orders_of_[lookups_[i].key])) {
        return Status::Internal("reference disagrees with generated data: " +
                                lookups_[i].sql);
      }
    }
    return Status::OK();
  }

  void BeginPhase() override {
    next_write_ = Clock::now();
    dir_bytes_before_ = DirBytes(env_->dir);
    inserted_before_ = ledger_.inserted_rows();
    pending_max_ = 0;
  }

  Outcome Step(int client, uint64_t i, Tracer* tracer) override {
    // The last client sends every write (so new keys reach the table in
    // ascending order), alternating INSERT and DELETE on a fixed schedule
    // of kWritesPerSecond, and lookups while no write is due. The schedule
    // fixes how much a run grows the table, which every later scan pays
    // for (deleted rows keep their positions), whatever the host's speed.
    if (client == clients() - 1 && Clock::now() >= next_write_) {
      next_write_ += std::chrono::microseconds(1000000 / kWritesPerSecond);
      return writes_++ % 2 == 0 ? Insert(client) : Delete(client);
    }
    const Op& op = lookups_[walks_[client].Next()];
    Outcome out;
    std::string body;
    Clock::time_point a, b;
    Checksum got;
    out.ok = Send(client, op.sql, &body, &out.latency_ms, &a, &b) &&
             perfbench::JsonChecksum(body, 2, &got) && got == op.ref;
    if (out.ok && tracer != nullptr && tracer->Sampled(client, i)) {
      Decompose(tracer, op.sql, a, b);
    }
    return out;
  }

  Checks Finish() override {
    Checks checks;
    checks.attempted = 2;
    // The table must hold the base data plus every acknowledged write.
    std::string body;
    double ms;
    Checksum got;
    const Checksum want_count = OneValue(ledger_.expected_count());
    const Checksum want_sum = OneValue(ledger_.expected_key_sum());
    if (!Send(0, "SELECT COUNT(custkey) FROM orders", &body, &ms) ||
        !perfbench::JsonChecksum(body, 1, &got) || got != want_count) {
      ++checks.failed;
      std::fprintf(stderr, "ledger: COUNT mismatch (expected %llu): %s\n",
                   static_cast<unsigned long long>(ledger_.expected_count()),
                   body.c_str());
    }
    if (!Send(0, "SELECT SUM(custkey) FROM orders", &body, &ms) ||
        !perfbench::JsonChecksum(body, 1, &got) || got != want_sum) {
      ++checks.failed;
      std::fprintf(stderr, "ledger: SUM mismatch (expected %lld): %s\n",
                   static_cast<long long>(ledger_.expected_key_sum()),
                   body.c_str());
    }
    // Every write kept the key sorted, through the final compaction too.
    ++checks.attempted;
    env_->db->DisableTupleMover();
    if (!env_->db->CompactTable("orders").ok() ||
        !OrdersKeySorted(env_->db.get())) {
      ++checks.failed;
      std::fprintf(stderr, "orders.custkey lost its sorted flag\n");
    }
    return checks;
  }

  std::vector<std::string> SweepStatements() const override {
    std::vector<std::string> out;
    for (const Op& op : lookups_) out.push_back(op.sql);
    return out;
  }

  void MeasuredLayers(Ledger* ledger) override {
    HttpWorkload::MeasuredLayers(ledger);
    const double user_bytes =
        (ledger_.inserted_rows() - inserted_before_) * 2.0 * sizeof(Value);
    (*ledger)["write.bytes_per_user_byte"] =
        user_bytes == 0 ? 0
                        : (static_cast<double>(DirBytes(env_->dir)) -
                           static_cast<double>(dir_bytes_before_)) /
                              user_bytes;
    (*ledger)["write.pending_rows_max"] = static_cast<double>(pending_max_);
  }

  void ProbeLayers(Ledger* ledger) override {
    // Compaction of one mover-threshold tail, timed directly.
    env_->db->DisableTupleMover();
    std::vector<double> runs;
    for (int r = 0; r < 3; ++r) {
      std::vector<std::vector<Value>> rows;
      for (uint64_t j = 0; j < kMoverThresholdRows; ++j) {
        rows.push_back({next_key_ + static_cast<Value>(j / 8),
                        static_cast<Value>(j % 97)});
      }
      next_key_ += kMoverThresholdRows / 8 + 1;
      CSTORE_CHECK(env_->db->Insert("orders", rows).ok());
      const Clock::time_point a = Clock::now();
      CSTORE_CHECK(env_->db->CompactTable("orders").ok());
      runs.push_back(Micros(a, Clock::now()) / 1000.0);
    }
    (*ledger)["write.compact_ms"] = perfbench::Median(runs);
  }

 private:
  struct Op {
    Value key = 0;
    std::string sql;
    Checksum ref;
  };

  static Checksum OneValue(int64_t v) {
    Checksum c;
    c.AddRow(&v, 1);
    return c;
  }

  Outcome Insert(int client) {
    const Value key = next_key_++;
    const int n = std::uniform_int_distribution<int>(4, 16)(rng_);
    std::string sql = "INSERT INTO orders VALUES ";
    for (int j = 0; j < n; ++j) {
      const Value day =
          std::uniform_int_distribution<Value>(0, max_day_)(rng_);
      sql += (j == 0 ? "(" : ", (") + std::to_string(key) + ", " +
             std::to_string(day) + ")";
    }
    Outcome out = Write(client, Kind::kInsert, sql, n);
    if (out.ok) {
      ledger_.Inserted(key, n);
      inserted_.push_back({key, n});
    }
    return out;
  }

  Outcome Delete(int client) {
    // Alternate base customers with customers this run inserted.
    Value key;
    int64_t expect;
    if (deletes_++ % 2 == 0 || inserted_.empty()) {
      key = delete_keys_[next_delete_++ % delete_keys_.size()];
      expect = deleted_base_.insert(key).second ? orders_of_[key] : 0;
    } else {
      key = inserted_.front().first;
      expect = inserted_.front().second;
      inserted_.erase(inserted_.begin());
    }
    Outcome out = Write(client, Kind::kDelete,
                        "DELETE FROM orders WHERE custkey = " +
                            std::to_string(key),
                        expect);
    if (out.ok) ledger_.Deleted(key, expect);
    return out;
  }

  Outcome Write(int client, Kind kind, const std::string& sql,
                int64_t expect_rows) {
    Outcome out;
    out.kind = kind;
    std::string body;
    out.ok = Send(client, sql, &body, &out.latency_ms) &&
             perfbench::JsonRowsOut(body) == expect_rows;
    pending_max_ =
        std::max(pending_max_, env_->db->PendingWriteRows("orders"));
    return out;
  }

  perfbench::WriteLedger ledger_;
  std::map<Value, int64_t> orders_of_;
  Value max_day_ = 0;
  Value next_key_ = 0;
  std::vector<Op> lookups_;
  std::vector<Value> delete_keys_;
  size_t next_delete_ = 0;
  std::set<Value> deleted_base_;
  uint64_t deletes_ = 0;
  uint64_t writes_ = 0;
  Clock::time_point next_write_;
  std::vector<std::pair<Value, int64_t>> inserted_;
  std::vector<Walk> walks_;
  uint64_t dir_bytes_before_ = 0;
  uint64_t inserted_before_ = 0;
  uint64_t pending_max_ = 0;
};

std::unique_ptr<Workload> MakeWorkload(Env* env, uint64_t seed) {
  const std::string name = env->spec->name;
  if (name == "analytic_embedded") {
    return std::make_unique<AnalyticWorkload>(env, seed);
  }
  return std::make_unique<LookupWorkload>(env, seed);
}

// --- Setup -------------------------------------------------------------------

struct SetupTimes {
  double open_s = 0, load_s = 0, server_s = 0, warmup_s = 0;
  double total() const { return open_s + load_s + server_s + warmup_s; }
};

/// The generated orders table sorted by custkey (each shipdate moves with
/// its key), registered as "orders" without customer.
Status LoadOrdersByCustkey(Env* env, uint64_t seed) {
  const tpch::JoinTablesData data =
      tpch::GenerateJoinTables(env->spec->sf, seed);
  std::vector<size_t> order(data.orders_custkey.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return data.orders_custkey[a] < data.orders_custkey[b];
  });
  std::vector<Value> keys, days;
  for (size_t i : order) {
    keys.push_back(data.orders_custkey[i]);
    days.push_back(data.orders_shipdate[i]);
  }
  db::Database* db = env->db.get();
  CSTORE_RETURN_IF_ERROR(db->CreateColumn(
      "orders.custkey", codec::Encoding::kUncompressed, keys));
  CSTORE_RETURN_IF_ERROR(db->CreateColumn(
      "orders.shipdate", codec::Encoding::kUncompressed, days));
  CSTORE_RETURN_IF_ERROR(db->RegisterTable(
      "orders", {{"custkey", "orders.custkey"},
                 {"shipdate", "orders.shipdate"}}));
  if (!OrdersKeySorted(db)) {
    return Status::Internal("orders.custkey is not flagged sorted after load");
  }
  env->jt.num_orders = keys.size();
  env->jt.num_customers = data.customer_custkey.size();
  return Status::OK();
}

/// One full setup from an empty directory: Database::Open, data generation
/// and load, server start, warm-up.
Status SetUp(Env* env, std::unique_ptr<Workload>* workload, uint64_t seed,
             SetupTimes* t) {
  const Spec& spec = *env->spec;
  std::filesystem::remove_all(env->dir);
  std::filesystem::create_directories(env->dir);

  Clock::time_point a = Clock::now();
  db::Database::Options options;
  options.dir = env->dir;
  options.pool_frames = spec.pool_frames;
  CSTORE_ASSIGN_OR_RETURN(env->db, db::Database::Open(options));
  Clock::time_point b = Clock::now();
  t->open_s = Seconds(a, b);

  a = b;
  if (spec.lineitem) {
    CSTORE_ASSIGN_OR_RETURN(env->li,
                            tpch::LoadLineitem(env->db.get(), spec.sf, seed));
  }
  if (spec.join_tables) {
    CSTORE_ASSIGN_OR_RETURN(
        env->jt, tpch::LoadJoinTables(env->db.get(), spec.sf, seed));
  }
  if (spec.sorted_orders) {
    CSTORE_RETURN_IF_ERROR(LoadOrdersByCustkey(env, seed));
  }
  b = Clock::now();
  t->load_s = Seconds(a, b);

  a = b;
  if (spec.http) {
    server::Server::Options so;
    so.pool_workers = spec.workers;
    env->server = std::make_unique<server::Server>(env->db.get(), so);
    CSTORE_RETURN_IF_ERROR(env->server->Start());
    if (spec.sorted_orders) {
      write::TupleMover::Options mo;
      mo.threshold_rows = kMoverThresholdRows;
      CSTORE_RETURN_IF_ERROR(
          env->db->EnableTupleMover(env->server->scheduler(), mo));
    }
  }
  b = Clock::now();
  t->server_s = Seconds(a, b);

  a = b;
  *workload = MakeWorkload(env, seed);
  CSTORE_RETURN_IF_ERROR((*workload)->Plan());
  CSTORE_RETURN_IF_ERROR((*workload)->Warmup());
  t->warmup_s = Seconds(a, Clock::now());
  return Status::OK();
}

// --- The closed loop ---------------------------------------------------------

struct Sample {
  double end_s;  // completion, seconds since the timed window opened
  double latency_ms;
  bool ok;
  Kind kind;
};

struct Phase {
  Clock::time_point timed;      // start of the timed window
  double seconds = 0;           // length of the timed window
  std::vector<Sample> samples;  // every request sent, ramp included

  bool InWindow(const Sample& s) const {
    return s.end_s >= 0 && s.end_s <= seconds;
  }
};

/// Runs every client of `w` as a closed loop: each sends its next request
/// when the previous one returned. The first kRampSeconds are untimed (the
/// loop reaches steady state, and a host that lets an idle guest burst
/// has spent the burst); the timed window that follows lasts `seconds`.
Phase RunPhase(Workload* w, double seconds, Tracer* tracer) {
  Phase phase;
  phase.seconds = seconds;
  std::vector<std::vector<Sample>> per_client(w->clients());
  w->BeginPhase();
  const Clock::time_point timed = After(Clock::now(), kRampSeconds);
  const Clock::time_point end = After(timed, seconds);
  phase.timed = timed;
  std::vector<std::thread> threads;
  for (int c = 0; c < w->clients(); ++c) {
    threads.emplace_back([&, c] {
      for (uint64_t i = 0; Clock::now() < end; ++i) {
        Outcome o = w->Step(c, i, tracer);
        per_client[c].push_back(
            {Seconds(timed, Clock::now()), o.latency_ms, o.ok, o.kind});
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (auto& v : per_client) {
    phase.samples.insert(phase.samples.end(), v.begin(), v.end());
  }
  return phase;
}

/// Verified requests completed per second of the timed window.
double Qps(const Phase& p) {
  uint64_t n = 0;
  for (const Sample& s : p.samples) n += s.ok && p.InWindow(s);
  return n / p.seconds;
}

// --- Strategy-regret sweep ---------------------------------------------------

/// Times a seeded sample of the workload's SELECTs under each of the four
/// strategies (the per-call override) next to the advisor's own pick, and
/// checks all four answers agree; then asks kPickSessions fresh sessions
/// for their picks. Returns the number of disagreements.
uint64_t RegretSweep(Workload* w, uint64_t seed, Ledger* ledger) {
  std::vector<std::string> pool = w->SweepStatements();
  std::mt19937_64 rng(seed * 131 + 7);
  std::shuffle(pool.begin(), pool.end(), rng);
  pool.resize(std::min<size_t>(pool.size(), kSweepStatements));
  std::unique_ptr<api::Connection> conn = w->InProcessSession();
  uint64_t disagreements = 0;
  int best_hits = 0, late = 0;
  std::vector<double> regrets;
  for (const std::string& sql : pool) {
    Result<api::QueryResult> advised = conn->Query(sql);
    CSTORE_CHECK(advised.ok()) << advised.status().ToString();
    const Checksum want = ChecksumOf(advised->tuples);
    double best = 1e300, chosen = 0;
    plan::Strategy best_s = advised->strategy;
    for (plan::Strategy s : plan::kAllStrategies) {
      std::vector<double> runs;
      for (int r = 0; r < kSweepRepetitions; ++r) {
        const Clock::time_point a = Clock::now();
        Result<api::QueryResult> got = conn->Query(sql, s);
        runs.push_back(Micros(a, Clock::now()));
        if (!got.ok() && got.status().IsNotSupported()) break;
        if (!got.ok() || ChecksumOf(got->tuples) != want) {
          ++disagreements;
          std::fprintf(stderr, "sweep: %s disagrees under %s\n", sql.c_str(),
                       plan::StrategyName(s));
        }
      }
      if (runs.size() < static_cast<size_t>(kSweepRepetitions)) continue;
      const double t = perfbench::Median(runs);
      if (t < best) {
        best = t;
        best_s = s;
      }
      if (s == advised->strategy) chosen = t;
    }
    best_hits += best_s == advised->strategy;
    late += plan::IsLate(advised->strategy);
    regrets.push_back(chosen / best);
  }
  // The same statements on fresh sessions: each calibrates its cost model
  // from a short timing probe on its first statement, so a pick that rests
  // on that probe's noise differs between sessions.
  std::vector<std::map<plan::Strategy, int>> votes(pool.size());
  for (int k = 0; k < kPickSessions; ++k) {
    std::unique_ptr<api::Connection> fresh = w->InProcessSession();
    for (size_t i = 0; i < pool.size(); ++i) {
      Result<api::QueryResult> got = fresh->Query(pool[i]);
      CSTORE_CHECK(got.ok()) << got.status().ToString();
      ++votes[i][got->strategy];
    }
  }
  double agreement = 0;
  for (const auto& v : votes) {
    int top = 0;
    for (const auto& [s, count] : v) top = std::max(top, count);
    agreement += static_cast<double>(top) / kPickSessions;
  }
  const double n = static_cast<double>(pool.size());
  (*ledger)["model.chosen_best_frac"] = n == 0 ? 0 : best_hits / n;
  (*ledger)["model.regret"] = perfbench::Median(regrets);
  (*ledger)["model.lm_share"] = n == 0 ? 0 : late / n;
  (*ledger)["model.pick_agreement"] = n == 0 ? 0 : agreement / n;
  return disagreements;
}

// --- Main --------------------------------------------------------------------

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string work_dir = ".";
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* v = argv[i + 1];
    if (flag == "--workload") {
      args->workload = v;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(v, nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::atof(v);
    } else if (flag == "--trace") {
      args->trace = std::atoi(v) != 0;
    } else if (flag == "--work-dir") {
      args->work_dir = v;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && args->seconds > 0;
}

const Spec* FindSpec(const std::string& name) {
  for (const Spec& s : kSpecs) {
    if (name == s.name) return &s;
  }
  return nullptr;
}

/// Every per-layer metric of a traced run, with its unit (the names and
/// units BENCHMARK.json lists). A metric a workload has no such layer for
/// reads 0.
constexpr std::pair<const char*, const char*> kLayerMetrics[] = {
    {"sql.parse_us", "us"},
    {"api.bind_plan_us", "us"},
    {"api.call_us", "us"},
    {"api.encode_mb_s", "MB/s"},
    {"server.wire_us", "us"},
    {"server.request_us", "us"},
    {"server.shed_frac", "ratio"},
    {"sched.queue_wait_us", "us"},
    {"sched.morsels_per_query", "count"},
    {"model.chosen_best_frac", "ratio"},
    {"model.regret", "ratio"},
    {"model.lm_share", "ratio"},
    {"model.pick_agreement", "ratio"},
    {"exec.wall_us", "us"},
    {"exec.blocks_fetched", "count"},
    {"exec.blocks_skipped", "count"},
    {"exec.predicate_evals", "count"},
    {"exec.values_gathered", "count"},
    {"exec.position_ands", "count"},
    {"exec.chunk_pool_hit_ratio", "ratio"},
    {"exec.tuples_constructed", "count"},
    {"exec.join_build_us", "us"},
    {"exec.sort_merge_us", "us"},
    {"storage.hit_ratio", "ratio"},
    {"storage.physical_reads", "count"},
    {"storage.read_us", "us"},
    {"storage.lock_wait_us", "us"},
    {"codec.decode_mb_s.rle", "MB/s"},
    {"codec.decode_mb_s.plain", "MB/s"},
    {"codec.decode_mb_s.bitvector", "MB/s"},
    {"codec.decode_mb_s.dict", "MB/s"},
    {"write.compactions", "count"},
    {"write.p50_ms", "ms"},
    {"write.compact_ms", "ms"},
    {"write.bytes_per_user_byte", "ratio"},
    {"write.pending_rows_max", "count"},
    {"db.open_s", "s"},
    {"tpch.load_s", "s"},
    {"server.start_s", "s"},
    {"setup.warmup_s", "s"},
    {"mem.heap_p95_mb", "MB"},
    {"trace.qps_ratio", "ratio"},
    {"trace.remainder_us", "us"},
    {"trace.decomposed", "count"},
};

/// The traced phase's per-layer numbers: layer self times of the
/// decomposed requests and the RunStats of their executions.
void DecompositionLayers(const Tracer& tracer, Ledger* ledger) {
  const std::vector<Decomp>& ds = tracer.decomps();
  auto median_of = [&](double Decomp::*field) {
    std::vector<double> v;
    for (const Decomp& d : ds) v.push_back(d.*field);
    return perfbench::Median(v);
  };
  std::vector<double> call;
  Decomp sum;
  for (const Decomp& d : ds) {
    // The in-process call time minus engine execution.
    call.push_back(d.call_us - d.exec);
    sum.total += d.total;
    sum.parse += d.parse;
    sum.bind += d.bind;
    sum.api += d.api;
    sum.exec += d.exec;
    sum.encode += d.encode;
    sum.wire += d.wire;
    sum.remainder += d.remainder;
    sum.encoded_bytes += d.encoded_bytes;
  }
  Ledger& l = *ledger;
  l["trace.decomposed"] = static_cast<double>(ds.size());
  l["sql.parse_us"] = median_of(&Decomp::parse);
  l["api.bind_plan_us"] = median_of(&Decomp::bind);
  l["api.call_us"] = perfbench::Median(call);
  l["api.encode_mb_s"] = sum.encode == 0 ? 0 : sum.encoded_bytes / sum.encode;
  l["server.wire_us"] = median_of(&Decomp::wire);
  const double n = std::max<double>(1.0, ds.size());
  // Clamping only ever adds, so the remainder is never positive.
  l["trace.remainder_us"] = std::max(0.0, -sum.remainder / n);
  std::printf("# layer self time, mean us over %zu decomposed requests: "
              "total %.1f = parse %.1f + bind/plan %.1f + api %.1f + exec "
              "%.1f + encode %.1f + wire %.1f + remainder %.1f (negative: "
              "layers the request overlapped)\n",
              ds.size(), sum.total / n, sum.parse / n, sum.bind / n,
              sum.api / n, sum.exec / n, sum.encode / n, sum.wire / n,
              sum.remainder / n);

  const ExecAgg& e = tracer.exec();
  const double q = std::max<double>(1.0, e.queries);
  l["exec.wall_us"] = e.wall_us / q;
  l["exec.blocks_fetched"] = e.stats.blocks_fetched / q;
  l["exec.blocks_skipped"] = e.stats.blocks_skipped / q;
  l["exec.predicate_evals"] = e.stats.predicate_evals / q;
  l["exec.values_gathered"] = e.stats.values_gathered / q;
  l["exec.position_ands"] = e.stats.position_ands / q;
  l["exec.tuples_constructed"] = e.stats.tuples_constructed / q;
  l["exec.chunk_pool_hit_ratio"] =
      e.stats.chunk_pool_acquires == 0
          ? 0
          : static_cast<double>(e.stats.chunk_pool_reuses) /
                e.stats.chunk_pool_acquires;
  l["exec.join_build_us"] = e.joins == 0 ? 0 : e.build_us / e.joins;
  l["exec.sort_merge_us"] = e.sorts == 0 ? 0 : e.merge_us / e.sorts;
}

int Run(const Args& args) {
  const Spec* spec = FindSpec(args.workload);
  if (spec == nullptr) {
    std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
    return 2;
  }
  const std::string self_test = perfbench::RunSelfTests();
  if (!self_test.empty()) {
    std::fprintf(stderr, "self-test failed: %s\n", self_test.c_str());
    return 1;
  }
  util::SetLogLevel(util::LogLevel::kError);
  // Polls idle cores until the run ends, set-up included.
  std::unique_ptr<IdleCorePoller> poller;
  if (spec->poll_idle_cores) poller = std::make_unique<IdleCorePoller>();

  const uint64_t seed = args.seed;
  std::printf("# workload %s seed %llu seconds %g trace %d\n", spec->name,
              static_cast<unsigned long long>(seed), args.seconds,
              args.trace ? 1 : 0);
  std::printf("# host cores %u; clients %d (%s), engine workers %d %s; "
              "sf %g, pool %zu frames (%zu MB)\n",
              std::thread::hardware_concurrency(), spec->clients,
              spec->http ? "HTTP connections"
                         : "callers, a standalone session per strategy each",
              spec->workers,
              spec->http ? "in the server pool" : "per session", spec->sf,
              spec->pool_frames, spec->pool_frames * kPageSize >> 20);

  // Setup from scratch, repeated on untraced runs; the last one is
  // measured.
  const std::string base =
      args.work_dir + "/data-" + spec->name + "-" + std::to_string(getpid());
  std::vector<double> totals, opens, loads, starts, warmups;
  std::unique_ptr<Env> env;
  std::unique_ptr<Workload> workload;
  double setup_seconds = 0;
  for (int r = 0;
       args.trace ? r < 1
                  : r < kMinSetups ||
                        (r < kMaxSetups && setup_seconds < kSetupSeconds);
       ++r) {
    workload.reset();
    env = std::make_unique<Env>();
    env->spec = spec;
    env->dir = base + "-" + std::to_string(r);
    SetupTimes t;
    Status st = SetUp(env.get(), &workload, seed, &t);
    if (!st.ok()) {
      std::fprintf(stderr, "setup failed: %s\n", st.ToString().c_str());
      return 1;
    }
    totals.push_back(t.total());
    setup_seconds += t.total();
    opens.push_back(t.open_s);
    loads.push_back(t.load_s);
    starts.push_back(t.server_s);
    warmups.push_back(t.warmup_s);
  }
  Status refs = workload->References();
  if (!refs.ok()) {
    std::fprintf(stderr, "reference answers: %s\n", refs.ToString().c_str());
    return 1;
  }

  // The measured phase: untraced in both modes.
  const storage::IoStats io0 = env->db->pool()->stats();
  const auto wait0 = HistogramOf("cstore_sched_queue_wait_usec");
  const auto req0 = HistogramOf("cstore_server_request_usec");
  const double morsels0 = CounterValue("cstore_sched_morsels_total");
  const double queries0 = CounterValue("cstore_sched_queries_total");
  const double moves0 = CounterValue("cstore_tuple_mover_moves_total");
  // A traced run spends half its time untraced (the counters and the
  // overhead baseline) and half traced.
  const double seconds = args.trace ? args.seconds / 2 : args.seconds;
  perfbench::Percentile heap;
  Phase phase;
  if (args.trace) {
    HeapSampler sampler;
    phase = RunPhase(workload.get(), seconds, nullptr);
    heap = sampler.P95(phase.timed, After(phase.timed, seconds));
  } else {
    phase = RunPhase(workload.get(), seconds, nullptr);
  }
  const storage::IoStats io = env->db->pool()->stats() - io0;

  uint64_t attempted = 0, failed = 0;
  std::vector<double> latencies;
  WriteLatencies writes;
  for (const Sample& s : phase.samples) {
    ++attempted;
    failed += !s.ok;
    if (!phase.InWindow(s)) continue;
    if (s.kind == Kind::kRead) {
      latencies.push_back(s.latency_ms);
    } else {
      writes.Add(s.kind, s.latency_ms);
    }
  }
  const double qps = Qps(phase);
  {
    std::vector<int> per_second(static_cast<size_t>(seconds) + 1, 0);
    for (const Sample& s : phase.samples) {
      if (s.ok && phase.InWindow(s)) {
        ++per_second[static_cast<size_t>(s.end_s)];
      }
    }
    std::printf("# verified completions per second:");
    for (int n : per_second) std::printf(" %d", n);
    std::printf("\n");
  }

  Ledger ledger;
  if (args.trace) {
    Ledger& l = ledger;
    const double nq = std::max<double>(1.0, attempted);
    const uint64_t lookups = io.cache_hits + io.physical_reads;
    l["storage.hit_ratio"] =
        lookups == 0 ? 0 : static_cast<double>(io.cache_hits) / lookups;
    l["storage.physical_reads"] = io.physical_reads / nq;
    l["storage.read_us"] = io.physical_reads == 0
                               ? 0
                               : io.physical_read_ns / 1e3 / io.physical_reads;
    l["storage.lock_wait_us"] = io.pool_lock_wait_ns / 1e3 / nq;
    l["sched.queue_wait_us"] =
        MeanDelta(wait0, HistogramOf("cstore_sched_queue_wait_usec"));
    const double queries =
        CounterValue("cstore_sched_queries_total") - queries0;
    l["sched.morsels_per_query"] =
        queries == 0
            ? 0
            : (CounterValue("cstore_sched_morsels_total") - morsels0) / queries;
    l["server.request_us"] =
        MeanDelta(req0, HistogramOf("cstore_server_request_usec"));
    l["write.compactions"] =
        CounterValue("cstore_tuple_mover_moves_total") - moves0;
    l["write.p50_ms"] = writes.size() == 0 ? 0 : writes.P50();
    l["mem.heap_p95_mb"] = heap.value;
    std::printf("# mem.heap_p95_mb from %zu samples\n", heap.samples);
    workload->MeasuredLayers(&l);
    l["server.shed_frac"] = l["server.shed_503s"] / nq;
    l["db.open_s"] = perfbench::Median(opens);
    l["tpch.load_s"] = perfbench::Median(loads);
    l["server.start_s"] = perfbench::Median(starts);
    l["setup.warmup_s"] = perfbench::Median(warmups);

    // The traced phase: the same loop with a seeded sample decomposed.
    Tracer tracer(seed);
    const Phase traced = RunPhase(workload.get(), seconds, &tracer);
    for (const Sample& s : traced.samples) {
      ++attempted;
      failed += !s.ok;
    }
    l["trace.qps_ratio"] = qps == 0 ? 0 : Qps(traced) / qps;
    DecompositionLayers(tracer, &l);
    const std::string spans = args.work_dir + "/spans-" + spec->name + "-" +
                              std::to_string(seed) + ".json";
    std::printf("# spans: %s\n", tracer.WriteChromeJson(spans)
                                     ? spans.c_str()
                                     : "(not written)");
  }

  // End-of-run answer checks.
  const Checks checks = workload->Finish();
  attempted += checks.attempted;
  failed += checks.failed;

  if (args.trace) {
    failed += RegretSweep(workload.get(), seed, &ledger);
    if (spec->lineitem) {
      const std::pair<const char*, codec::Encoding> encodings[] = {
          {"codec.decode_mb_s.rle", codec::Encoding::kRle},
          {"codec.decode_mb_s.plain", codec::Encoding::kUncompressed},
          {"codec.decode_mb_s.bitvector", codec::Encoding::kBitVector},
          {"codec.decode_mb_s.dict", codec::Encoding::kDict}};
      for (const auto& [name, enc] : encodings) {
        std::vector<double> runs;
        for (int r = 0; r < 3; ++r) {
          runs.push_back(DecodeMbPerSec(env->li.linenum(enc)));
        }
        ledger[name] = perfbench::Median(runs);
      }
    }
    workload->ProbeLayers(&ledger);
  }
  workload.reset();
  env.reset();

  const perfbench::Percentile p50 = perfbench::NearestRank(latencies, 0.5);
  const perfbench::Percentile p95 = perfbench::NearestRank(latencies, 0.95);
  std::printf("# setup_s: median of %zu setups\n", totals.size());
  std::printf("# measured %zu reads and %zu writes in %g s (write share "
              "%.4f); p50/p95 over reads, p95 from %zu samples, %zu beyond; "
              "INSERT p50 %.6g ms, DELETE p50 %.6g ms; %llu failed\n",
              latencies.size(), writes.size(), seconds,
              static_cast<double>(writes.size()) /
                  std::max<size_t>(1, latencies.size() + writes.size()),
              p95.samples, p95.beyond, perfbench::Median(writes.insert_ms),
              perfbench::Median(writes.delete_ms),
              static_cast<unsigned long long>(failed));

  std::vector<Metric> metrics;
  if (!args.trace) {
    metrics = {
        {"qps", qps, "1/s"},
        {"p50_ms", p50.value, "ms"},
        {"p95_ms", p95.value, "ms"},
        {"setup_s", perfbench::Median(totals), "s"},
    };
  } else {
    for (const auto& [name, unit] : kLayerMetrics) {
      auto it = ledger.find(name);
      metrics.push_back({name, it == ledger.end() ? 0.0 : it->second, unit});
    }
  }
  for (const Metric& m : metrics) {
    std::printf("# %-30s %14.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  const bool correct = failed == 0;
  std::printf("%s\n", perfbench::ResultLine(correct, attempted, failed,
                                            metrics)
                          .c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace cstore

int main(int argc, char** argv) {
  cstore::Args args;
  if (!cstore::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench_driver --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1> [--work-dir <dir>]\n");
    return 2;
  }
  return cstore::Run(args);
}
