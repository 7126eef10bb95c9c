// The SQL server front end: a multi-client SQL-over-HTTP daemon that puts
// api::Connection behind a wire protocol. Each accepted connection gets a
// dedicated session (its own api::Connection over the server's shared
// Scheduler), so concurrent clients interleave at morsel granularity
// exactly like concurrent in-process sessions — the server adds transport,
// admission control, and ops routes, not a second execution path. Every
// SELECT goes through Connection::Stream; one whose plan touches at most
// one window (an index lookup, a one-window table) runs right there on the
// connection's handler thread, with no hand-off to the pool and back.
//
// Routes:
//   GET  /health                    liveness probe ("ok")
//   GET  /metrics                   Prometheus text (Connection::Metrics)
//   POST /query                     SQL in the body; SELECTs stream back
//        ?format=json|csv           result encoding (default json)
//        ?priority=low|normal|high  admission class + scheduler priority
//        (GET /query?q=... works too, for curl-from-a-shell ergonomics)
//   GET  /queries                   system.queries (live queries)
//   GET  /log                       system.query_log (recent history)
//
// SELECT results flow through api::RowCursor into chunked transfer
// encoding — bounded memory regardless of result size. A result the
// handler thread holds whole leaves in one send() (http.h); one still
// running on the pool leaves chunk by chunk, so a client that disconnects
// mid-stream fails the next chunk's send, which drops the cursor and
// cancels the query inside the scheduler (freeing its remaining morsels;
// the query logs as status "cancelled").
//
// Admission control (admission.h) runs before any statement is parsed:
// requests shed with HTTP 503 + Retry-After once the engine passes the
// in-flight or buffered-output caps for their priority class. The shared
// pool interleaves admitted queries in weighted round-robin order, a
// request's priority class setting its weight.

#ifndef CSTORE_SERVER_SERVER_H_
#define CSTORE_SERVER_SERVER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_set>

#include "api/connection.h"
#include "db/database.h"
#include "sched/scheduler.h"
#include "server/admission.h"
#include "server/http.h"
#include "util/status.h"

namespace cstore {

namespace obs {
class Counter;
class Gauge;
class Histogram;
}  // namespace obs

namespace server {

class Server {
 public:
  struct Options {
    // TCP port on 127.0.0.1; 0 picks an ephemeral port (port() reports it).
    int port = 0;
    // Shared scheduler pool width; 0 = hardware concurrency.
    int pool_workers = 0;
    AdmissionController::Options admission;
  };

  /// `db` is not owned and must outlive the server.
  Server(db::Database* db, Options options);
  ~Server();
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds and starts accepting. Returns the bind error, if any.
  Status Start();

  /// Stops accepting, force-closes every live client connection, and joins
  /// all threads. Idempotent; also run by the destructor.
  void Stop();

  int port() const { return listener_.port(); }
  sched::Scheduler* scheduler() { return &scheduler_; }
  const AdmissionController& admission() const { return admission_; }

  /// Result bytes currently buffered across all sessions' streaming queues
  /// (the admission byte signal; exposed for tests).
  int64_t buffered_output_bytes() const {
    return output_bytes_.load(std::memory_order_relaxed);
  }

 private:
  void AcceptLoop();
  /// One client connection: a session + keep-alive request loop. Runs on
  /// its own (detached) thread; must touch the Server only before its
  /// final ConnDone call.
  void ServeConn(int fd);
  /// Routes one request. Returns false when the connection should close.
  bool HandleRequest(api::Connection* session, HttpConn* conn,
                     const HttpRequest& req);
  void HandleQuery(api::Connection* session, HttpConn* conn,
                   const HttpRequest& req);
  /// Runs `sql` to completion and writes the whole result at once — the
  /// ops routes (/queries, /log) and non-SELECT statements.
  void RunBuffered(api::Connection* session, HttpConn* conn,
                   const HttpRequest& req, const std::string& sql);
  void WriteError(HttpConn* conn, const HttpRequest& req, int status,
                  const Status& error);
  void ConnDone(int fd);

  db::Database* db_;  // not owned
  Options options_;
  sched::Scheduler scheduler_;
  // Shared across every session's ChunkQueues (see admission.h).
  std::atomic<int64_t> output_bytes_{0};
  AdmissionController admission_;

  TcpListener listener_;
  std::thread accept_thread_;
  std::atomic<bool> stopping_{false};
  bool started_ = false;

  std::mutex mu_;
  std::condition_variable all_done_;
  std::unordered_set<int> live_fds_;  // force-closed by Stop
  int live_conns_ = 0;

  // Request metrics (registry-owned pointers, cached once).
  obs::Counter* requests_total_;
  obs::Counter* queries_total_;
  obs::Counter* shed_total_;
  obs::Counter* disconnects_total_;
  obs::Gauge* connections_;
  obs::Histogram* request_usec_;
};

}  // namespace server
}  // namespace cstore

#endif  // CSTORE_SERVER_SERVER_H_
