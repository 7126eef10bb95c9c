// Client-API bench: what the api:: layer buys.
//
// Panel 1 — prepared vs re-parse. A small point query (`SELECT a FROM
// points WHERE a >= ? AND a <= ?`, which the binder folds to `a = k` and
// the sorted index serves with a binary search) is executed N times two
// ways:
//
//   reparse    Connection::Query on a freshly formatted SQL string per
//              execution — parse, bind, snapshot, advise every time
//   prepared   api::PreparedStatement::Execute({key}) — parsed/bound once;
//              each execution snapshots, resolves, advises and plans as
//              the reparse mode does, on the bound statement
//
// Both run the same keys and must return identical row counts/checksums
// (verified; mismatch exits non-zero). Reported: QPS each, the speedup,
// and heap allocations per execution in the last run, counted by this
// binary's global operator new (reported, not gated).
//
// Panel 2 — RowCursor vs FetchAll. One permissive selection is drained
// twice: materialized (QueryResult holds the whole result) and streamed
// (bounded ChunkQueue, backpressure). Reported: peak resident result bytes
// each — the cursor's peak is the queue bound, not the result size.
//
// Panel 3 — standalone sessions. One session per worker count (1, 2, 4)
// runs two prepared statements: the point query of panel 1 (one morsel, so
// it runs on the caller's thread at every worker count) and a small
// selection over four chunk windows (2048 rows out; several morsels, so
// above one worker it runs on the session's pool). Reported: p50 and p95
// latency per query and worker count — the price of handing a small query
// to a pool. Checksums must match the 1-worker session's.
//
// Machine-readable output: BENCH_api.json.
//
//   ./build/bench_api --runs=3

#include <atomic>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "api/connection.h"
#include "bench_common.h"
#include "util/random.h"
#include "util/stopwatch.h"

using namespace cstore;         // NOLINT
using namespace cstore::bench;  // NOLINT

namespace {

// Every heap allocation this process makes (operator new below).
std::atomic<uint64_t> g_allocations{0};

constexpr size_t kPointRows = 50000;   // hot working set for point queries
constexpr size_t kScanRows = 1000000;  // large result for the cursor panel
constexpr size_t kSmallRows = 4 * kChunkPositions;  // several morsels
constexpr int kPointQueries = 2000;
constexpr int kSmallQueries = 500;

/// Total bytes a materialized TupleChunk holds resident.
uint64_t ChunkBytes(const exec::TupleChunk& t) {
  return t.num_tuples() * (t.width() + 1) * sizeof(Value);  // values + pos
}

}  // namespace

void* operator new(size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, size_t) noexcept { std::free(p); }

int main(int argc, char** argv) {
  BenchOptions opts = ParseArgs(argc, argv);
  opts.simulate_disk = false;  // front-end cost is the subject here
  if (opts.dir == "/tmp/cstore_bench_data") opts.dir = "/tmp/cstore_bench_api";
  auto db = OpenBenchDb(opts);

  // points(a, b): `a` sorted and unique (the sorted index serves `a = k`
  // with a binary search), `b` a small payload domain. scans(a, b) is the
  // big-result table the cursor panel drains.
  {
    std::vector<Value> a(kPointRows), b(kPointRows);
    Random rng(11);
    for (size_t i = 0; i < kPointRows; ++i) {
      a[i] = static_cast<Value>(i);
      b[i] = static_cast<Value>(rng.Uniform(1000));
    }
    CSTORE_CHECK_OK(db->CreateColumn("points.a", codec::Encoding::kRle, a));
    CSTORE_CHECK_OK(
        db->CreateColumn("points.b", codec::Encoding::kUncompressed, b));
    CSTORE_CHECK_OK(
        db->RegisterTable("points", {{"a", "points.a"}, {"b", "points.b"}}));
  }
  {
    std::vector<Value> a(kScanRows), b(kScanRows);
    Random rng(13);
    for (size_t i = 0; i < kScanRows; ++i) {
      a[i] = static_cast<Value>(i);
      b[i] = static_cast<Value>(rng.Uniform(1000));
    }
    CSTORE_CHECK_OK(db->CreateColumn("scans.a", codec::Encoding::kRle, a));
    CSTORE_CHECK_OK(
        db->CreateColumn("scans.b", codec::Encoding::kUncompressed, b));
    CSTORE_CHECK_OK(
        db->RegisterTable("scans", {{"a", "scans.a"}, {"b", "scans.b"}}));
  }
  {
    // small(a): sorted runs of 256, so each morsel's scan is cheap and the
    // hand-off to workers is a visible share of the query.
    std::vector<Value> a(kSmallRows);
    for (size_t i = 0; i < kSmallRows; ++i) a[i] = static_cast<Value>(i / 256);
    CSTORE_CHECK_OK(db->CreateColumn("small.a", codec::Encoding::kRle, a));
    CSTORE_CHECK_OK(db->RegisterTable("small", {{"a", "small.a"}}));
  }

  api::Connection reparse_conn(db.get());
  api::Connection conn(db.get());
  {  // calibrate the cost model + warm the buffer pool outside the timing
    auto warm_reparse = reparse_conn.Query("SELECT a FROM points WHERE a = 0");
    CSTORE_CHECK(warm_reparse.ok()) << warm_reparse.status().ToString();
    auto warm_conn = conn.Query("SELECT a, b FROM points WHERE b < 0");
    CSTORE_CHECK(warm_conn.ok()) << warm_conn.status().ToString();
  }

  // The key sequence both modes execute (identical order).
  std::vector<Value> keys(kPointQueries);
  Random key_rng(23);
  for (int i = 0; i < kPointQueries; ++i) {
    keys[i] = static_cast<Value>(key_rng.Uniform(kPointRows));
  }

  TablePrinter table({"panel", "mode", "metric", "value"});
  BenchJson json("api");

  // --- Panel 1: prepared vs re-parse -------------------------------------
  double reparse_best = 1e100;
  double prepared_best = 1e100;
  uint64_t reparse_rows = 0;
  uint64_t prepared_rows = 0;
  uint64_t reparse_checksum = 0;
  uint64_t prepared_checksum = 0;
  double reparse_allocs = 0;
  double prepared_allocs = 0;
  auto allocs_per_exec_since = [](uint64_t start) {
    return static_cast<double>(
               g_allocations.load(std::memory_order_relaxed) - start) /
           kPointQueries;
  };
  for (int run = 0; run < opts.runs; ++run) {
    uint64_t rows = 0;
    uint64_t checksum = 0;  // wrapping sum: order-independent
    uint64_t allocs = g_allocations.load(std::memory_order_relaxed);
    Stopwatch w;
    for (int i = 0; i < kPointQueries; ++i) {
      std::string sql = "SELECT a FROM points WHERE a >= " +
                        std::to_string(keys[i]) +
                        " AND a <= " + std::to_string(keys[i]);
      auto r = reparse_conn.Query(sql);
      CSTORE_CHECK(r.ok()) << r.status().ToString();
      rows += r->stats.output_tuples;
      checksum += r->stats.checksum;
    }
    reparse_best = std::min(reparse_best, w.ElapsedMillis());
    reparse_allocs = allocs_per_exec_since(allocs);
    reparse_rows = rows;
    reparse_checksum = checksum;

    auto prepared =
        conn.Prepare("SELECT a FROM points WHERE a >= ? AND a <= ?");
    CSTORE_CHECK(prepared.ok()) << prepared.status().ToString();
    rows = 0;
    checksum = 0;
    allocs = g_allocations.load(std::memory_order_relaxed);
    w.Restart();
    for (int i = 0; i < kPointQueries; ++i) {
      auto r = prepared->Execute({keys[i], keys[i]});
      CSTORE_CHECK(r.ok()) << r.status().ToString();
      rows += r->stats.output_tuples;
      checksum += r->stats.checksum;
    }
    prepared_best = std::min(prepared_best, w.ElapsedMillis());
    prepared_allocs = allocs_per_exec_since(allocs);
    prepared_rows = rows;
    prepared_checksum = checksum;
  }
  const double reparse_qps = kPointQueries * 1000.0 / reparse_best;
  const double prepared_qps = kPointQueries * 1000.0 / prepared_best;
  const double speedup = prepared_qps / reparse_qps;

  table.AddRow({"point-query", "reparse", "qps", Fmt(reparse_qps, 0)});
  table.AddRow({"point-query", "prepared", "qps", Fmt(prepared_qps, 0)});
  table.AddRow({"point-query", "prepared", "speedup", Fmt(speedup, 2)});
  table.AddRow(
      {"point-query", "reparse", "allocs/exec", Fmt(reparse_allocs, 2)});
  table.AddRow(
      {"point-query", "prepared", "allocs/exec", Fmt(prepared_allocs, 2)});
  json.AddRow().Str("panel", "point").Str("mode", "reparse")
      .Num("qps", reparse_qps).Num("allocs_per_exec", reparse_allocs);
  json.AddRow().Str("panel", "point").Str("mode", "prepared")
      .Num("qps", prepared_qps).Num("speedup", speedup)
      .Num("allocs_per_exec", prepared_allocs);

  // --- Panel 2: RowCursor vs FetchAll ------------------------------------
  const char* scan_sql = "SELECT a, b FROM scans WHERE b < 900";
  uint64_t fetchall_bytes = 0;
  uint64_t cursor_bytes = 0;
  uint64_t fetchall_rows = 0;
  uint64_t cursor_rows = 0;
  double fetchall_best = 1e100;
  double cursor_best = 1e100;
  for (int run = 0; run < opts.runs; ++run) {
    Stopwatch w;
    auto r = conn.Query(scan_sql);
    CSTORE_CHECK(r.ok()) << r.status().ToString();
    fetchall_best = std::min(fetchall_best, w.ElapsedMillis());
    fetchall_bytes = ChunkBytes(r->tuples);
    fetchall_rows = r->tuples.num_tuples();

    w.Restart();
    auto cursor = conn.Stream(scan_sql);
    CSTORE_CHECK(cursor.ok()) << cursor.status().ToString();
    uint64_t rows = 0;
    exec::TupleChunk chunk;
    while (true) {
      auto has = cursor->Next(&chunk);
      CSTORE_CHECK(has.ok()) << has.status().ToString();
      if (!*has) break;
      rows += chunk.num_tuples();
    }
    cursor_best = std::min(cursor_best, w.ElapsedMillis());
    cursor_bytes = cursor->peak_buffered_bytes();
    cursor_rows = rows;
  }
  table.AddRow({"scan", "fetchall", "peak_bytes",
                std::to_string(fetchall_bytes)});
  table.AddRow({"scan", "cursor", "peak_bytes",
                std::to_string(cursor_bytes)});
  table.AddRow({"scan", "fetchall", "wall_ms", Fmt(fetchall_best, 2)});
  table.AddRow({"scan", "cursor", "wall_ms", Fmt(cursor_best, 2)});
  json.AddRow().Str("panel", "scan").Str("mode", "fetchall")
      .Int("peak_bytes", fetchall_bytes).Num("wall_ms", fetchall_best)
      .Int("rows", fetchall_rows);
  json.AddRow().Str("panel", "scan").Str("mode", "cursor")
      .Int("peak_bytes", cursor_bytes).Num("wall_ms", cursor_best)
      .Int("rows", cursor_rows);

  // --- Panel 3: standalone sessions at 1, 2 and 4 workers ----------------
  struct SessionQuery {
    const char* name;
    const char* sql;
    bool point;
    uint64_t serial_checksum = 0;  // the 1-worker session's
  };
  SessionQuery session_queries[] = {
      {"point", "SELECT a FROM points WHERE a >= ? AND a <= ?", true},
      {"small-selection", "SELECT a FROM small WHERE a < ?", false},
  };
  int session_mismatches = 0;
  for (int workers : {1, 2, 4}) {
    api::Connection::Settings settings;
    settings.num_workers = workers;
    api::Connection session(db.get(), nullptr, settings);
    for (SessionQuery& q : session_queries) {
      auto prepared = session.Prepare(q.sql);
      CSTORE_CHECK(prepared.ok()) << prepared.status().ToString();
      auto params = [&](int i) {
        return q.point ? std::vector<Value>{keys[i], keys[i]}
                       : std::vector<Value>{8};
      };
      CSTORE_CHECK(prepared->Execute(params(0)).ok());  // warm the session
      const int executions = q.point ? kPointQueries : kSmallQueries;
      std::vector<double> lat_us;
      uint64_t checksum = 0;
      for (int run = 0; run < opts.runs; ++run) {
        checksum = 0;
        for (int i = 0; i < executions; ++i) {
          Stopwatch w;
          auto r = prepared->Execute(params(i));
          lat_us.push_back(w.ElapsedMicros());
          CSTORE_CHECK(r.ok()) << r.status().ToString();
          checksum += r->stats.checksum;
        }
      }
      if (workers == 1) q.serial_checksum = checksum;
      if (checksum != q.serial_checksum) {
        std::fprintf(stderr,
                     "MISMATCH: %s at %d workers: checksum %llx != "
                     "1-worker %llx\n",
                     q.name, workers,
                     static_cast<unsigned long long>(checksum),
                     static_cast<unsigned long long>(q.serial_checksum));
        ++session_mismatches;
      }
      const double p50 = Percentile(lat_us, 0.5);
      const double p95 = Percentile(lat_us, 0.95);
      const std::string mode = std::string(q.name) + " w=" +
                               std::to_string(workers);
      table.AddRow({"standalone", mode, "p50_us", Fmt(p50, 1)});
      table.AddRow({"standalone", mode, "p95_us", Fmt(p95, 1)});
      json.AddRow().Str("panel", "standalone").Str("query", q.name)
          .Int("workers", workers).Num("p50_us", p50).Num("p95_us", p95);
    }
  }

  std::printf(
      "# fig=api client-API costs (point_rows=%zu, scan_rows=%zu, "
      "small_rows=%zu, point_queries=%d)\n",
      kPointRows, kScanRows, kSmallRows, kPointQueries);
  table.Print();
  json.WriteAndReport();

  // Self-verification: identical results across modes, streaming bounded.
  int failures = 0;
  if (reparse_rows != prepared_rows ||
      reparse_checksum != prepared_checksum) {
    std::fprintf(stderr,
                 "MISMATCH: reparse rows/checksum %llu/%llx != prepared "
                 "%llu/%llx\n",
                 static_cast<unsigned long long>(reparse_rows),
                 static_cast<unsigned long long>(reparse_checksum),
                 static_cast<unsigned long long>(prepared_rows),
                 static_cast<unsigned long long>(prepared_checksum));
    ++failures;
  }
  failures += session_mismatches;
  if (fetchall_rows != cursor_rows) {
    std::fprintf(stderr, "MISMATCH: fetchall rows %llu != cursor rows %llu\n",
                 static_cast<unsigned long long>(fetchall_rows),
                 static_cast<unsigned long long>(cursor_rows));
    ++failures;
  }
  if (cursor_bytes >= fetchall_bytes) {
    std::fprintf(stderr,
                 "REGRESSION: cursor peak (%llu B) not below fetchall "
                 "(%llu B)\n",
                 static_cast<unsigned long long>(cursor_bytes),
                 static_cast<unsigned long long>(fetchall_bytes));
    ++failures;
  }
  if (speedup < 1.5) {
    std::fprintf(stderr,
                 "REGRESSION: prepared speedup %.2fx below the 1.5x floor "
                 "(target: >= 2x)\n",
                 speedup);
    ++failures;
  }
  return failures > 0 ? 1 : 0;
}
