// SQL shell: run warehouse queries against the TPC-H-like database from the
// command line — the row-store-compatible interface the paper's
// introduction demands of column stores, end to end, on api::Connection.
//
//   build/sql_shell                                # interactive REPL
//   build/sql_shell "SELECT ... FROM lineitem ..."
//   build/sql_shell --script=queries.sql --pool=8  # concurrent batch
//   build/sql_shell --serve=7654                   # SQL-over-HTTP daemon
//   build/sql_shell --connect=localhost:7654       # client for the above
//
// Server mode (--serve=PORT; 0 = ephemeral) loads the warehouse tables and
// serves them to many concurrent clients over HTTP (see server/server.h
// for routes). Knobs: --pool=N (scheduler width), --max-inflight=N and
// --max-buffered-mb=N (admission control caps; 0 disables a cap).
//
// Client mode (--connect=HOST:PORT) drives a remote daemon with the same
// machinery as the local modes: one-shot statements, the REPL (\metrics,
// \queries, \log fetch the server's ops routes), and --script batches —
// which fan statements across --pool=N concurrent connections, the
// closed-loop shape the server's admission control is built for.
// --format=json|csv and --priority=low|normal|high ride on every /query.
//
// Observability flags (any mode):
//   --trace=FILE        record execution spans, write Chrome trace_event
//                       JSON on exit (load in https://ui.perfetto.dev)
//   --metrics=FILE      write the Prometheus-style metrics dump on exit
//   --log-level=LVL     debug | info | warn (default) | error
//   --slow-query-ms=N   warn (and flag in system.query_log) every query
//                       whose total time reaches N milliseconds
// In the REPL, `\metrics` prints the metrics dump, `\queries` the
// currently-running queries (system.queries), and `\log` the most recent
// finished queries (system.query_log); EXPLAIN SELECT ... and
// EXPLAIN ANALYZE SELECT ... are ordinary statements (ANALYZE executes and
// prints per-operator actual time/calls/rows next to the model's
// predictions). The system.* virtual tables (metrics, queries, query_log,
// tables, pools) answer ordinary SELECTs too. Script mode prints
// per-strategy p50/p95/p99 latency from the scheduler's histograms with
// the batch summary.
//
// Tables: lineitem(returnflag, shipdate, linenum, linenum_plain,
//         linenum_bv, quantity), orders(custkey, shipdate),
//         customer(custkey, nationcode).
// Dates are written as 'YYYY-MM-DD'. The engine picks the materialization
// strategy with the paper's analytical model unless you prefix the query
// with one of: em-pipelined:, em-parallel:, lm-pipelined:, lm-parallel:.
// A 'workers=N:' prefix (combinable with a strategy prefix, in any order)
// runs the plan morsel-parallel on N threads; EXPLAIN honours it too.
//
// Script mode launches every statement of the file (one per line; blank
// lines and #-comments skipped; strategy prefixes honoured per line)
// concurrently through one pooled api::Connection over a --pool=N-worker
// scheduler, and prints per-statement latency plus batch throughput — the
// heavy-traffic shape the scheduler exists for. Each statement goes
// through Connection::Submit, which labels it in system.queries and the
// query log with its SQL text. Any statement that fails to parse or
// execute is reported with the offending SQL and the process exits
// non-zero.
//
// Writes are supported everywhere: INSERT INTO t VALUES (...), (...),
// DELETE FROM t [WHERE ...], and UPDATE t SET c = v [WHERE ...] go to the
// table's write store; SELECTs see a snapshot taken when they are
// submitted. In script mode writes execute at submit time, so later
// statements of the script observe them.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "api/connection.h"
#include "api/encode.h"
#include "obs/metrics.h"
#include "obs/query_log.h"
#include "obs/trace.h"
#include "sched/scheduler.h"
#include "server/client.h"
#include "server/server.h"
#include "tpch/dates.h"
#include "tpch/loader.h"
#include "util/logging.h"
#include "util/stopwatch.h"
#include "util/string_dict.h"

using namespace cstore;  // NOLINT

namespace {

std::optional<plan::Strategy> StripStrategyPrefix(std::string* sql) {
  struct Prefix {
    const char* name;
    plan::Strategy strategy;
  };
  const Prefix prefixes[] = {
      {"em-pipelined:", plan::Strategy::kEmPipelined},
      {"em-parallel:", plan::Strategy::kEmParallel},
      {"lm-pipelined:", plan::Strategy::kLmPipelined},
      {"lm-parallel:", plan::Strategy::kLmParallel},
  };
  for (const Prefix& p : prefixes) {
    size_t len = std::string(p.name).size();
    if (sql->size() > len && sql->compare(0, len, p.name) == 0) {
      sql->erase(0, len);
      return p.strategy;
    }
  }
  return std::nullopt;
}

void TrimLeading(std::string* s) {
  size_t i = s->find_first_not_of(" \t");
  s->erase(0, i == std::string::npos ? s->size() : i);
}

/// Strips a leading "workers=N:"; returns 1 (serial) when absent or bad.
int StripWorkersPrefix(std::string* sql) {
  if (sql->rfind("workers=", 0) != 0) return 1;
  size_t colon = sql->find(':');
  if (colon == std::string::npos) return 1;
  int workers = std::atoi(sql->c_str() + 8);
  if (workers < 1) {
    std::printf("(ignoring workers prefix: need a count >= 1)\n");
    workers = 1;
  }
  sql->erase(0, colon + 1);
  return workers;
}

/// Renders one result value: interned-string ids (system.* string columns)
/// print as the string they intern, everything else as a number.
void PrintValue(Value v) {
  std::printf("%-14s ", api::RenderValue(v).c_str());
}

/// `\queries`: what is inside a scheduler right now (system.queries).
void PrintLiveQueries() {
  std::vector<obs::LiveQueryRegistry::Row> rows =
      obs::LiveQueryRegistry::Global().Snapshot();
  if (rows.empty()) {
    std::printf("(no live queries)\n");
    return;
  }
  std::printf("%-8s %-8s %-4s %10s %9s  %s\n", "id", "state", "pri",
              "age_ms", "morsels", "label");
  for (const auto& r : rows) {
    char morsels[32];
    std::snprintf(morsels, sizeof(morsels), "%llu/%llu",
                  static_cast<unsigned long long>(r.morsels_done),
                  static_cast<unsigned long long>(r.morsels_total));
    std::printf("%-8llu %-8s %-4d %10.1f %9s  %s\n",
                static_cast<unsigned long long>(r.query_id),
                obs::LiveQuery::StateName(r.state), r.priority,
                r.age_usec / 1000.0, morsels, r.label.c_str());
  }
}

/// `\log`: the most recent finished queries (system.query_log), newest
/// last, capped to the last `limit`.
void PrintQueryLog(size_t limit = 20) {
  std::vector<obs::QueryLogEntry> entries =
      obs::QueryLog::Global().Snapshot();
  if (entries.empty()) {
    std::printf("(query log is empty)\n");
    return;
  }
  size_t start = entries.size() > limit ? entries.size() - limit : 0;
  std::printf("%-6s %-6s %-6s %-13s %10s %10s %10s %5s  %s\n", "seq", "id",
              "status", "strategy", "queue_ms", "exec_ms", "rows", "slow",
              "label");
  for (size_t i = start; i < entries.size(); ++i) {
    const obs::QueryLogEntry& e = entries[i];
    std::printf("%-6llu %-6llu %-6s %-13s %10.1f %10.1f %10llu %5s  %s\n",
                static_cast<unsigned long long>(e.seq),
                static_cast<unsigned long long>(e.query_id),
                e.status.c_str(), e.strategy.c_str(),
                e.queue_wait_usec / 1000.0, e.exec_usec / 1000.0,
                static_cast<unsigned long long>(e.rows_out),
                e.slow ? "SLOW" : "-", e.label.c_str());
  }
  if (start > 0) {
    std::printf("... (%zu older entries retained; SELECT * FROM "
                "system.query_log for all)\n",
                start);
  }
}

bool RunOne(api::Connection* conn, std::string sql) {
  TrimLeading(&sql);
  int workers = StripWorkersPrefix(&sql);
  TrimLeading(&sql);
  std::optional<plan::Strategy> strategy = StripStrategyPrefix(&sql);
  TrimLeading(&sql);
  if (workers == 1) workers = StripWorkersPrefix(&sql);  // either order
  TrimLeading(&sql);
  // EXPLAIN / EXPLAIN ANALYZE parse as ordinary statements; Query returns
  // the rendered report in explain_text.
  auto r = conn->Query(sql, strategy, workers);
  if (!r.ok()) {
    std::printf("error: %s\n    %s\n", r.status().ToString().c_str(),
                sql.c_str());
    return false;
  }
  if (!r->explain_text.empty()) {
    std::printf("%s", r->explain_text.c_str());
    return true;
  }
  if (r->is_write) {
    std::printf("-- %s: %llu rows, %.1f ms\n", r->column_names[0].c_str(),
                static_cast<unsigned long long>(r->rows_affected),
                r->stats.TotalMillis());
    return true;
  }
  // Header.
  for (const std::string& name : r->column_names) {
    std::printf("%-14s ", name.c_str());
  }
  std::printf("\n");
  const size_t limit = 20;
  for (size_t i = 0; i < r->tuples.num_tuples() && i < limit; ++i) {
    for (uint32_t c = 0; c < r->tuples.width(); ++c) {
      PrintValue(r->tuples.value(i, c));
    }
    std::printf("\n");
  }
  if (r->tuples.num_tuples() > limit) {
    std::printf("... (%llu rows total)\n",
                static_cast<unsigned long long>(r->tuples.num_tuples()));
  }
  std::printf("-- %llu rows, %.1f ms, strategy %s, workers %d\n",
              static_cast<unsigned long long>(r->stats.output_tuples),
              r->stats.TotalMillis(), StrategyName(r->strategy), workers);
  return true;
}

/// Script mode: submit every statement at once through one pooled
/// connection, then report results in statement order.
int RunScript(db::Database* db, const std::string& path, int pool_workers) {
  std::ifstream file(path);
  if (!file) {
    std::fprintf(stderr, "cannot open script '%s'\n", path.c_str());
    return 1;
  }
  std::vector<std::string> statements;
  std::vector<std::optional<plan::Strategy>> strategies;
  std::string line;
  while (std::getline(file, line)) {
    TrimLeading(&line);
    if (line.empty() || line[0] == '#') continue;
    std::optional<plan::Strategy> strategy = StripStrategyPrefix(&line);
    TrimLeading(&line);
    statements.push_back(line);
    strategies.push_back(strategy);
  }
  if (statements.empty()) {
    std::printf("(script is empty)\n");
    return 0;
  }

  sched::Scheduler::Options opts;
  opts.num_workers = pool_workers;
  sched::Scheduler scheduler(opts);
  api::Connection conn(db, &scheduler);
  std::printf("launching %zu statements on a %d-worker pool ...\n",
              statements.size(), scheduler.num_workers());

  Stopwatch batch;
  std::vector<api::PendingResult> pendings;
  pendings.reserve(statements.size());
  for (size_t i = 0; i < statements.size(); ++i) {
    pendings.push_back(conn.Submit(statements[i], strategies[i]));
  }

  int failures = 0;
  size_t first_failure = 0;
  for (size_t i = 0; i < pendings.size(); ++i) {
    auto r = pendings[i].Wait();
    if (!r.ok()) {
      std::printf("[%zu] error: %s\n    %s\n", i,
                  r.status().ToString().c_str(), statements[i].c_str());
      if (failures == 0) first_failure = i;
      ++failures;
      continue;
    }
    if (r->is_write) {
      std::printf("[%zu] %s %llu  %8.1f ms  %-12s  %s\n", i,
                  r->column_names[0].c_str(),
                  static_cast<unsigned long long>(r->rows_affected),
                  r->stats.wall_micros / 1000.0, "write",
                  statements[i].c_str());
      continue;
    }
    std::printf("[%zu] %llu rows  %8.1f ms  %-12s  %s\n", i,
                static_cast<unsigned long long>(r->stats.output_tuples),
                r->stats.wall_micros / 1000.0, StrategyName(r->strategy),
                statements[i].c_str());
  }
  double wall_ms = batch.ElapsedMillis();
  std::printf("-- batch: %zu statements in %.1f ms (%.1f qps), %d failed\n",
              statements.size(), wall_ms,
              statements.size() * 1000.0 / wall_ms, failures);
  // Per-strategy latency percentiles from the scheduler's histograms
  // (process-lifetime totals; with one batch per process that's the batch).
  const char* labels[] = {"EM-pipelined", "EM-parallel", "LM-pipelined",
                          "LM-parallel", "join"};
  for (const char* label : labels) {
    std::string name = std::string("cstore_query_latency_usec{strategy=\"") +
                       label + "\"}";
    obs::Histogram* h = obs::MetricsRegistry::Global().GetHistogram(
        name, "Finalized query latency by strategy (microseconds)");
    if (h == nullptr) continue;
    obs::Histogram::Snapshot snap = h->snapshot();
    if (snap.count == 0) continue;
    std::printf(
        "-- latency %-12s  n=%llu  p50=%.1f ms  p95=%.1f ms  p99=%.1f ms\n",
        label, static_cast<unsigned long long>(snap.count),
        snap.Percentile(0.50) / 1000.0, snap.Percentile(0.95) / 1000.0,
        snap.Percentile(0.99) / 1000.0);
  }
  if (failures > 0) {
    std::fprintf(stderr,
                 "script failed: %d statement(s); first at [%zu]: %s\n",
                 failures, first_failure, statements[first_failure].c_str());
    return 1;
  }
  return 0;
}

// --- server / client modes --------------------------------------------------

/// Knobs shared by --serve and --connect.
struct NetOptions {
  int serve_port = -1;          // >= 0: run the daemon
  std::string connect;          // host:port: run as client
  int max_inflight = 32;        // admission in-flight cap (0 = off)
  int max_buffered_mb = 64;     // admission output-byte cap (0 = off)
  std::string format = "csv";   // client-side /query encoding
  std::string priority = "normal";
};

int RunServe(db::Database* db, const NetOptions& net, int pool_workers) {
  server::Server::Options opts;
  opts.port = net.serve_port;
  opts.pool_workers = pool_workers;
  opts.admission.max_inflight = net.max_inflight;
  opts.admission.max_buffered_bytes =
      static_cast<int64_t>(net.max_buffered_mb) << 20;
  server::Server srv(db, opts);
  Status st = srv.Start();
  if (!st.ok()) {
    std::fprintf(stderr, "server failed to start: %s\n",
                 st.ToString().c_str());
    return 1;
  }
  std::printf(
      "serving SQL on http://127.0.0.1:%d  (pool=%d "
      "max-inflight=%d max-buffered=%d MiB; ctrl-c to stop)\n"
      "routes: /health /metrics /query /queries /log\n",
      srv.port(), srv.scheduler()->num_workers(), net.max_inflight,
      net.max_buffered_mb);
  std::fflush(stdout);
  for (;;) std::this_thread::sleep_for(std::chrono::hours(1));
}

/// Extracts "rows_out":N from a JSON /query response (−1 when absent).
long long ExtractRowsOut(const std::string& body) {
  const size_t pos = body.rfind("\"rows_out\":");
  if (pos == std::string::npos) return -1;
  return std::atoll(body.c_str() + pos + 11);
}

/// One remote statement: POST, print the body (or the error). False on any
/// non-200.
bool RunOneRemote(server::HttpClient* client, const NetOptions& net,
                  const std::string& sql) {
  auto r = client->Query(sql, net.format, net.priority);
  if (!r.ok()) {
    std::printf("error: %s\n", r.status().ToString().c_str());
    return false;
  }
  if (r->status != 200) {
    std::printf("HTTP %d: %s", r->status, r->body.c_str());
    return false;
  }
  std::printf("%s", r->body.c_str());
  if (!r->body.empty() && r->body.back() != '\n') std::printf("\n");
  return true;
}

/// Remote script batch: statements fan out over `threads` keep-alive
/// connections (each thread owns one), claiming work from a shared cursor —
/// the closed-loop client shape bench_server sweeps.
int RunScriptRemote(const std::string& host, int port,
                    const std::string& path, int threads,
                    const NetOptions& net) {
  std::ifstream file(path);
  if (!file) {
    std::fprintf(stderr, "cannot open script '%s'\n", path.c_str());
    return 1;
  }
  std::vector<std::string> statements;
  std::string line;
  while (std::getline(file, line)) {
    TrimLeading(&line);
    if (line.empty() || line[0] == '#') continue;
    statements.push_back(line);
  }
  if (statements.empty()) {
    std::printf("(script is empty)\n");
    return 0;
  }
  if (threads <= 0) threads = 4;
  threads = std::min<int>(threads, static_cast<int>(statements.size()));

  struct Outcome {
    int http_status = 0;
    long long rows = -1;
    double ms = 0;
  };
  std::vector<Outcome> outcomes(statements.size());
  std::atomic<size_t> next{0};
  Stopwatch batch;
  std::vector<std::thread> pool;
  pool.reserve(threads);
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&] {
      server::HttpClient client;
      if (!client.Connect(host, port).ok()) return;
      for (;;) {
        const size_t i = next.fetch_add(1);
        if (i >= statements.size()) return;
        Stopwatch one;
        auto r = client.Query(statements[i], net.format, net.priority);
        outcomes[i].ms = one.ElapsedMillis();
        if (!r.ok()) continue;  // status stays 0 = transport failure
        outcomes[i].http_status = r->status;
        if (r->status == 200) outcomes[i].rows = ExtractRowsOut(r->body);
      }
    });
  }
  for (std::thread& t : pool) t.join();
  const double wall_ms = batch.ElapsedMillis();

  int failures = 0;
  int shed = 0;
  for (size_t i = 0; i < statements.size(); ++i) {
    const Outcome& o = outcomes[i];
    if (o.http_status == 503) {
      ++shed;
      std::printf("[%zu] shed (503)  %8.1f ms  %s\n", i, o.ms,
                  statements[i].c_str());
      continue;
    }
    if (o.http_status != 200) {
      ++failures;
      std::printf("[%zu] HTTP %d  %8.1f ms  %s\n", i, o.http_status, o.ms,
                  statements[i].c_str());
      continue;
    }
    if (o.rows >= 0) {
      std::printf("[%zu] %lld rows  %8.1f ms  %s\n", i, o.rows, o.ms,
                  statements[i].c_str());
    } else {
      std::printf("[%zu] ok  %8.1f ms  %s\n", i, o.ms,
                  statements[i].c_str());
    }
  }
  std::printf(
      "-- remote batch: %zu statements over %d connections in %.1f ms "
      "(%.1f qps), %d failed, %d shed\n",
      statements.size(), threads, wall_ms,
      statements.size() * 1000.0 / wall_ms, failures, shed);
  return failures == 0 ? 0 : 1;
}

int RunConnect(const NetOptions& net, const std::string& script,
               int pool_workers, const std::string& one_shot) {
  const size_t colon = net.connect.rfind(':');
  if (colon == std::string::npos) {
    std::fprintf(stderr, "--connect needs HOST:PORT\n");
    return 1;
  }
  const std::string host = net.connect.substr(0, colon);
  const int port = std::atoi(net.connect.c_str() + colon + 1);

  if (!script.empty()) {
    return RunScriptRemote(host, port, script, pool_workers, net);
  }

  server::HttpClient client;
  Status st = client.Connect(host, port);
  if (!st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 1;
  }
  if (!one_shot.empty()) {
    return RunOneRemote(&client, net, one_shot) ? 0 : 1;
  }

  std::printf("connected to %s:%d; \\metrics \\queries \\log fetch the "
              "server's ops routes, ctrl-d to exit\n",
              host.c_str(), port);
  std::string line;
  while (true) {
    std::printf("cstore> ");
    std::fflush(stdout);
    if (!std::getline(std::cin, line)) break;
    if (line.empty()) continue;
    std::string route;
    if (line == "\\metrics") route = "/metrics";
    if (line == "\\queries") route = "/queries?format=" + net.format;
    if (line == "\\log") route = "/log?format=" + net.format;
    if (!route.empty()) {
      auto r = client.Get(route);
      if (!r.ok()) {
        std::printf("error: %s\n", r.status().ToString().c_str());
      } else {
        std::printf("%s", r->body.c_str());
      }
      continue;
    }
    RunOneRemote(&client, net, line);
  }
  std::printf("\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string script;
  int pool_workers = 0;  // 0 = hardware concurrency
  std::string one_shot;
  std::string trace_path;
  std::string metrics_path;
  NetOptions net;
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    if (a.rfind("--script=", 0) == 0) {
      script = a.substr(9);
    } else if (a.rfind("--pool=", 0) == 0) {
      pool_workers = std::atoi(a.c_str() + 7);
    } else if (a.rfind("--serve=", 0) == 0) {
      net.serve_port = std::atoi(a.c_str() + 8);
    } else if (a.rfind("--connect=", 0) == 0) {
      net.connect = a.substr(10);
    } else if (a.rfind("--max-inflight=", 0) == 0) {
      net.max_inflight = std::atoi(a.c_str() + 15);
    } else if (a.rfind("--max-buffered-mb=", 0) == 0) {
      net.max_buffered_mb = std::atoi(a.c_str() + 18);
    } else if (a.rfind("--format=", 0) == 0) {
      net.format = a.substr(9);
    } else if (a.rfind("--priority=", 0) == 0) {
      net.priority = a.substr(11);
    } else if (a.rfind("--trace=", 0) == 0) {
      trace_path = a.substr(8);
    } else if (a.rfind("--metrics=", 0) == 0) {
      metrics_path = a.substr(10);
    } else if (a.rfind("--slow-query-ms=", 0) == 0) {
      int ms = std::atoi(a.c_str() + 16);
      if (ms < 0) {
        std::fprintf(stderr, "--slow-query-ms needs a count >= 0\n");
        return 1;
      }
      obs::QueryLog::Global().SetSlowThresholdMicros(
          static_cast<uint64_t>(ms) * 1000);
    } else if (a.rfind("--log-level=", 0) == 0) {
      auto level = util::ParseLogLevel(a.substr(12));
      if (!level.has_value()) {
        std::fprintf(stderr,
                     "unknown --log-level '%s' (debug|info|warn|error)\n",
                     a.c_str() + 12);
        return 1;
      }
      util::SetLogLevel(*level);
    } else {
      one_shot = a;
    }
  }
  if (!trace_path.empty()) obs::TraceRecorder::Global().set_enabled(true);

  // Client mode needs no local database at all.
  if (!net.connect.empty()) {
    return RunConnect(net, script, pool_workers, one_shot);
  }

  db::Database::Options opts;
  opts.dir = "/tmp/cstore_sql_shell";
  opts.disk.enabled = false;  // interactive: no simulated-disk charges
  auto db_r = db::Database::Open(opts);
  CSTORE_CHECK(db_r.ok()) << db_r.status().ToString();
  auto db = std::move(db_r).value();

  std::printf("loading TPC-H-like tables (sf 0.02) ...\n");
  CSTORE_CHECK(tpch::LoadLineitem(db.get(), 0.02).ok());
  CSTORE_CHECK(tpch::LoadJoinTables(db.get(), 0.02).ok());

  // Runs after the workload, whichever mode produced it.
  auto dump_observability = [&](api::Connection* conn) {
    if (!metrics_path.empty()) {
      std::FILE* f = std::fopen(metrics_path.c_str(), "w");
      if (f == nullptr) {
        std::fprintf(stderr, "cannot write metrics to '%s'\n",
                     metrics_path.c_str());
      } else {
        std::string text = conn->Metrics();
        std::fwrite(text.data(), 1, text.size(), f);
        std::fclose(f);
        std::printf("metrics written to %s\n", metrics_path.c_str());
      }
    }
    if (!trace_path.empty()) {
      Status st = obs::TraceRecorder::Global().WriteChromeJson(trace_path);
      if (!st.ok()) {
        std::fprintf(stderr, "trace export failed: %s\n",
                     st.ToString().c_str());
      } else {
        std::printf("trace written to %s (load in ui.perfetto.dev)\n",
                    trace_path.c_str());
      }
    }
  };

  if (net.serve_port >= 0) {
    return RunServe(db.get(), net, pool_workers);  // never returns
  }

  if (!script.empty()) {
    int rc = RunScript(db.get(), script, pool_workers);
    api::Connection conn(db.get());
    dump_observability(&conn);
    return rc;
  }

  api::Connection conn(db.get());
  if (!one_shot.empty()) {
    bool ok = RunOne(&conn, one_shot);
    dump_observability(&conn);
    return ok ? 0 : 1;
  }

  std::printf(
      "tables: lineitem(returnflag, shipdate, linenum, linenum_plain, "
      "linenum_bv, quantity)\n        orders(custkey, shipdate), "
      "customer(custkey, nationcode)\n"
      "example: SELECT shipdate, SUM(linenum) FROM lineitem WHERE shipdate "
      "< '1994-01-01' AND linenum < 7 GROUP BY shipdate\n"
      "writes:  UPDATE lineitem SET quantity = 1 WHERE linenum = 7\n"
      "prefix with EXPLAIN for the advisor's cost report, EXPLAIN ANALYZE "
      "to execute with per-operator actuals;\n\\metrics dumps metrics, "
      "\\queries lists live queries, \\log the recent query log\n"
      "(also SQL: SELECT ... FROM system.metrics | system.queries | "
      "system.query_log | system.tables | system.pools); ctrl-d to exit\n");
  std::string line;
  while (true) {
    std::printf("cstore> ");
    std::fflush(stdout);
    if (!std::getline(std::cin, line)) break;
    if (line.empty()) continue;
    if (line == "\\metrics") {
      std::printf("%s", conn.Metrics().c_str());
      continue;
    }
    if (line == "\\queries") {
      PrintLiveQueries();
      continue;
    }
    if (line == "\\log") {
      PrintQueryLog();
      continue;
    }
    RunOne(&conn, line);
  }
  std::printf("\n");
  dump_observability(&conn);
  return 0;
}
