#include "server/server.h"

#include <sys/socket.h>
#include <unistd.h>

#include <cctype>
#include <utility>

#include "api/encode.h"
#include "obs/metrics.h"
#include "util/stopwatch.h"

namespace cstore {
namespace server {

namespace {

/// First keyword says SELECT (or WITH, should it ever exist): stream the
/// result. Everything else — writes, EXPLAIN — runs buffered.
bool IsSelect(const std::string& sql) {
  size_t i = sql.find_first_not_of(" \t\r\n");
  if (i == std::string::npos) return false;
  const char* kw = "select";
  for (size_t k = 0; kw[k] != '\0'; ++k, ++i) {
    if (i >= sql.size() ||
        std::tolower(static_cast<unsigned char>(sql[i])) != kw[k]) {
      return false;
    }
  }
  return i >= sql.size() ||
         !std::isalnum(static_cast<unsigned char>(sql[i]));
}

std::string JsonError(const Status& error) {
  std::string out = "{\"error\":";
  api::AppendJsonString(&out, error.ToString());
  out += "}\n";
  return out;
}

std::string ParamOr(const HttpRequest& req, const std::string& name,
                    const std::string& fallback) {
  auto it = req.params.find(name);
  return it == req.params.end() ? fallback : it->second;
}

}  // namespace

Server::Server(db::Database* db, Options options)
    : db_(db),
      options_(options),
      scheduler_(sched::Scheduler::Options{options.pool_workers}),
      admission_(options.admission, &output_bytes_) {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  requests_total_ = reg.GetCounter("cstore_server_requests_total",
                                   "HTTP requests handled");
  queries_total_ = reg.GetCounter("cstore_server_queries_total",
                                  "/query statements admitted");
  shed_total_ = reg.GetCounter("cstore_server_shed_total",
                               "Requests refused by admission control");
  disconnects_total_ =
      reg.GetCounter("cstore_server_client_disconnects_total",
                     "Streams abandoned by the client mid-result");
  connections_ =
      reg.GetGauge("cstore_server_connections", "Open client connections");
  request_usec_ = reg.GetHistogram("cstore_server_request_usec",
                                   "HTTP request latency, microseconds");
  reg.RegisterCallback(
      "cstore_server_output_buffered_bytes",
      "Result bytes buffered across all sessions' streaming queues",
      [this] { return static_cast<double>(buffered_output_bytes()); });
}

Server::~Server() {
  Stop();
  // The callback captured `this`; leave a benign one behind.
  obs::MetricsRegistry::Global().RegisterCallback(
      "cstore_server_output_buffered_bytes",
      "Result bytes buffered across all sessions' streaming queues",
      [] { return 0.0; });
}

Status Server::Start() {
  CSTORE_RETURN_IF_ERROR(listener_.Listen(options_.port));
  started_ = true;
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  return Status::OK();
}

void Server::Stop() {
  if (!started_) return;
  stopping_.store(true, std::memory_order_relaxed);
  listener_.Shutdown();  // unblocks Accept
  {
    // Force-close live clients: their blocked reads/writes fail, their
    // threads run down (cancelling any in-flight streams on the way).
    std::lock_guard<std::mutex> lock(mu_);
    for (int fd : live_fds_) ::shutdown(fd, SHUT_RDWR);
  }
  if (accept_thread_.joinable()) accept_thread_.join();
  std::unique_lock<std::mutex> lock(mu_);
  all_done_.wait(lock, [this] { return live_conns_ == 0; });
  started_ = false;
}

void Server::AcceptLoop() {
  for (;;) {
    const int fd = listener_.Accept();
    if (fd < 0) return;  // shut down
    if (stopping_.load(std::memory_order_relaxed)) {
      ::close(fd);
      return;
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++live_conns_;
      live_fds_.insert(fd);
    }
    connections_->Add(1);
    std::thread([this, fd] { ServeConn(fd); }).detach();
  }
}

void Server::ConnDone(int fd) {
  connections_->Sub(1);
  std::lock_guard<std::mutex> lock(mu_);
  live_fds_.erase(fd);
  if (--live_conns_ == 0) all_done_.notify_all();
}

void Server::ServeConn(int fd) {
  {
    // Scope: the session and socket die before ConnDone lets Stop return.
    api::Connection session(db_, &scheduler_);
    api::Connection::Settings settings;
    settings.stream_byte_account = &output_bytes_;
    session.set_settings(settings);

    HttpConn conn(fd);
    HttpRequest req;
    while (!stopping_.load(std::memory_order_relaxed) &&
           conn.ReadRequest(&req)) {
      requests_total_->Inc();
      obs::ScopedHistogramTimer timer(request_usec_);
      if (!HandleRequest(&session, &conn, req)) break;
      if (!req.keep_alive) break;
    }
  }
  ConnDone(fd);
}

bool Server::HandleRequest(api::Connection* session, HttpConn* conn,
                           const HttpRequest& req) {
  if (req.path == "/health") {
    conn->WriteResponse(200, "text/plain", "ok\n", req.keep_alive);
  } else if (req.path == "/metrics") {
    conn->WriteResponse(200, "text/plain; version=0.0.4",
                        session->Metrics(), req.keep_alive);
  } else if (req.path == "/query") {
    HandleQuery(session, conn, req);
  } else if (req.path == "/queries") {
    RunBuffered(session, conn, req, "SELECT * FROM system.queries");
  } else if (req.path == "/log") {
    RunBuffered(session, conn, req, "SELECT * FROM system.query_log");
  } else {
    WriteError(conn, req, 404,
               Status::InvalidArgument("no route " + req.path));
  }
  return !conn->broken();
}

void Server::WriteError(HttpConn* conn, const HttpRequest& req, int status,
                        const Status& error) {
  conn->WriteResponse(status, "application/json", JsonError(error),
                      req.keep_alive);
}

void Server::HandleQuery(api::Connection* session, HttpConn* conn,
                         const HttpRequest& req) {
  const std::string sql =
      !req.body.empty() ? req.body : ParamOr(req, "q", "");
  if (sql.empty()) {
    WriteError(conn, req, 400,
               Status::InvalidArgument(
                   "no statement (POST the SQL as the body, or ?q=)"));
    return;
  }
  Result<api::Wire> wire = api::ParseWire(ParamOr(req, "format", "json"));
  if (!wire.ok()) {
    WriteError(conn, req, 400, wire.status());
    return;
  }
  Result<PriorityClass> cls =
      ParsePriorityClass(ParamOr(req, "priority", "normal"));
  if (!cls.ok()) {
    WriteError(conn, req, 400, cls.status());
    return;
  }

  // Admission: refuse *before* parsing or planning anything.
  Status admit = admission_.Admit(*cls);
  if (!admit.ok()) {
    shed_total_->Inc();
    conn->WriteResponse(503, "application/json", JsonError(admit),
                        req.keep_alive, "Retry-After: 1\r\n");
    return;
  }
  queries_total_->Inc();

  // The admission class rides into the scheduler as this statement's
  // weighted-round-robin priority.
  api::Connection::Settings settings = session->settings();
  settings.priority = SchedulerPriority(*cls);
  session->set_settings(settings);

  if (!IsSelect(sql)) {
    RunBuffered(session, conn, req, sql);
    return;
  }

  Stopwatch watch;
  Result<api::RowCursor> cursor = session->Stream(sql);
  if (!cursor.ok()) {
    WriteError(conn, req, 400, cursor.status());
    return;
  }
  api::ResultEncoder enc(*wire, cursor->column_names());
  if (!conn->StartChunked(200, enc.content_type(), req.keep_alive)) return;
  if (!conn->WriteChunk(enc.Header())) return;
  uint64_t rows = 0;
  std::string stream_error;
  exec::TupleChunk chunk;
  for (;;) {
    Result<bool> has = cursor->Next(&chunk);
    if (!has.ok()) {
      // Failure after 200 went out: report in the footer, keep the
      // connection usable.
      stream_error = has.status().ToString();
      break;
    }
    if (!*has) break;
    rows += chunk.num_tuples();
    // A query still running on the pool sends each chunk as it comes, so a
    // client that has gone away fails the next send and cancels it; a
    // result held whole leaves with the rest of the response.
    if (!conn->WriteChunk(enc.EncodeChunk(chunk)) ||
        (!cursor->finished() && !conn->Flush())) {
      // Client went away mid-stream. Dropping the cursor (scope exit)
      // cancels the query in the scheduler; it logs as "cancelled".
      disconnects_total_->Inc();
      return;
    }
  }
  conn->WriteChunk(enc.Footer(rows, watch.ElapsedMillis(), stream_error));
  conn->EndChunked();
}

void Server::RunBuffered(api::Connection* session, HttpConn* conn,
                         const HttpRequest& req, const std::string& sql) {
  Result<api::Wire> wire = api::ParseWire(ParamOr(req, "format", "json"));
  if (!wire.ok()) {
    WriteError(conn, req, 400, wire.status());
    return;
  }
  Stopwatch watch;
  Result<api::QueryResult> r = session->Query(sql);
  if (!r.ok()) {
    WriteError(conn, req, 400, r.status());
    return;
  }
  if (!r->explain_text.empty()) {
    conn->WriteResponse(200, "text/plain", r->explain_text, req.keep_alive);
    return;
  }
  api::ResultEncoder enc(*wire, r->column_names);
  std::string body = enc.Header();
  body += enc.EncodeChunk(r->tuples);
  const uint64_t rows =
      r->is_write ? r->rows_affected : r->tuples.num_tuples();
  body += enc.Footer(rows, watch.ElapsedMillis());
  conn->WriteResponse(200, enc.content_type(), body, req.keep_alive);
}

}  // namespace server
}  // namespace cstore
