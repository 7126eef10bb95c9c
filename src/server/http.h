// Minimal HTTP/1.1 plumbing for the SQL server — hand-rolled over POSIX
// sockets because the engine carries no network dependency. Enough of the
// protocol for a database wire format and nothing more: request-line +
// headers + Content-Length bodies in, fixed or chunked responses out,
// keep-alive by default. Chunked transfer encoding is the streaming path:
// each result batch goes out as one chunk, so a query's memory stays
// bounded by the RowCursor queue no matter the result size.
//
// A response's small pieces (status line, headers, each chunk's size line
// and CRLF, chunks under 64 KB, the terminator) collect in one buffer per
// connection. It is sent when the response ends, or together with the
// piece that would take it to 64 KB, which leaves from where it lies with
// no copy, so a small response costs one system call and, under
// TCP_NODELAY, one TCP segment. The server flushes after each chunk of a
// result still being produced on the pool (Flush), so a client that has
// gone away fails the next chunk's send, letting the caller drop the
// cursor and cancel the query. The cost: a response's first bytes leave
// with its first flush, not ahead of it.
//
// Server side: TcpListener accepts; HttpConn speaks the protocol on one
// accepted socket. Both are used by server.cc only. The matching client
// (client.h) understands the same subset, including chunked responses.

#ifndef CSTORE_SERVER_HTTP_H_
#define CSTORE_SERVER_HTTP_H_

#include <atomic>
#include <initializer_list>
#include <map>
#include <string>
#include <string_view>

#include "util/status.h"

namespace cstore {
namespace server {

/// One parsed request. Header names are lower-cased; query parameters are
/// URL-decoded.
struct HttpRequest {
  std::string method;  // "GET", "POST", ...
  std::string path;    // target with the query string stripped
  std::map<std::string, std::string> params;   // decoded query parameters
  std::map<std::string, std::string> headers;  // lower-cased names
  std::string body;
  bool keep_alive = true;
};

/// Percent-decodes `s` ('+' becomes space — form encoding, what curl and
/// browsers send for query strings).
std::string UrlDecode(const std::string& s);

/// Canonical reason phrase for the handful of codes the server emits.
const char* HttpStatusText(int code);

/// Server side of one accepted connection. Owns the fd. Every response is
/// buffered as above and sent with MSG_NOSIGNAL full-write loops; any
/// failure latches `broken`, after which every call is a cheap no-op
/// returning false — callers just fall out of their streaming loops.
class HttpConn {
 public:
  explicit HttpConn(int fd) : fd_(fd) {}
  ~HttpConn();
  HttpConn(const HttpConn&) = delete;
  HttpConn& operator=(const HttpConn&) = delete;

  /// Reads and parses one request (blocking). False on clean EOF, a
  /// malformed request, or an oversized one (64 MiB body cap) — in every
  /// case the connection is done.
  bool ReadRequest(HttpRequest* out);

  /// Writes one complete response with Content-Length, head and body in
  /// one send. `extra_headers`, if non-empty, is spliced verbatim into the
  /// header block — each line CRLF-terminated (e.g. "Retry-After: 1\r\n").
  bool WriteResponse(int status, const std::string& content_type,
                     const std::string& body, bool keep_alive,
                     const std::string& extra_headers = "");

  /// Streaming response: status + headers with chunked transfer encoding,
  /// then any number of WriteChunk calls, then EndChunked. Empty chunks are
  /// skipped (an empty chunk would terminate the stream). WriteChunk sends
  /// only once the buffer would reach 64 KB, EndChunked sends the rest, so
  /// each returns false only from a failed send.
  bool StartChunked(int status, const std::string& content_type,
                    bool keep_alive);
  bool WriteChunk(const std::string& data);
  bool EndChunked();

  /// Sends whatever is buffered now; false once the connection broke.
  bool Flush();

  bool broken() const { return broken_; }
  int fd() const { return fd_; }

 private:
  /// Sends the buffer followed by at most three `pieces`, which are not
  /// copied, in one sendmsg where the socket takes it whole, then empties
  /// the buffer.
  bool Send(std::initializer_list<std::string_view> pieces);

  int fd_;
  bool broken_ = false;
  std::string buf_;  // read-ahead spanning keep-alive requests
  std::string out_;  // small pieces of the response being written
};

/// Listening socket. Shutdown() closes the fd from another thread, which
/// unblocks Accept — the server's stop path.
class TcpListener {
 public:
  TcpListener() = default;
  ~TcpListener();
  TcpListener(const TcpListener&) = delete;
  TcpListener& operator=(const TcpListener&) = delete;

  /// Binds 127.0.0.1:`port` (0 = ephemeral; port() reports the choice) and
  /// listens.
  Status Listen(int port);

  /// Blocks for the next connection. Returns the accepted fd, or -1 once
  /// the listener was shut down (or on a fatal accept error).
  int Accept();

  void Shutdown();

  int port() const { return port_; }

 private:
  // Read by the accept thread while Shutdown (another thread) clears it.
  std::atomic<int> fd_{-1};
  int port_ = 0;
};

}  // namespace server
}  // namespace cstore

#endif  // CSTORE_SERVER_HTTP_H_
