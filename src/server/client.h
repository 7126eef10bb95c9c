// HTTP client for the SQL server — what sql_shell --connect, the server
// tests, and bench_server drive the daemon with. Speaks exactly the subset
// server/http.cc emits: Content-Length and chunked responses, keep-alive
// reuse of one TCP connection across requests.

#ifndef CSTORE_SERVER_CLIENT_H_
#define CSTORE_SERVER_CLIENT_H_

#include <map>
#include <string>

#include "util/status.h"

namespace cstore {
namespace server {

/// One complete (fully drained) HTTP response.
struct HttpResponse {
  int status = 0;
  std::map<std::string, std::string> headers;  // lower-cased names
  std::string body;                            // chunked already decoded
};

class HttpClient {
 public:
  HttpClient() = default;
  ~HttpClient();
  HttpClient(const HttpClient&) = delete;
  HttpClient& operator=(const HttpClient&) = delete;

  /// Connects to host:port (host is an IPv4 literal or "localhost").
  Status Connect(const std::string& host, int port);
  void Close();

  /// One request over the kept-alive connection. Reconnects once if the
  /// server closed the idle connection under us. `target` is the raw
  /// request target ("/query?format=csv").
  Result<HttpResponse> Get(const std::string& target);
  Result<HttpResponse> Post(const std::string& target,
                            const std::string& body);

  /// Convenience: POST `sql` to /query with the given parameters; returns
  /// the response (the caller checks .status for 200/503/400).
  Result<HttpResponse> Query(const std::string& sql,
                             const std::string& format = "json",
                             const std::string& priority = "normal");

 private:
  Result<HttpResponse> Request(const std::string& method,
                               const std::string& target,
                               const std::string& body, bool retry);
  Status Send(const std::string& method, const std::string& target,
              const std::string& body);
  Result<HttpResponse> ReadResponse();
  /// Reads until buf_ holds `until` (or at least `bytes`); false on EOF.
  bool FillTo(size_t bytes);
  bool FillFind(const char* needle, size_t* pos);

  std::string host_;
  int port_ = 0;
  int fd_ = -1;
  std::string buf_;  // read-ahead across keep-alive responses
};

}  // namespace server
}  // namespace cstore

#endif  // CSTORE_SERVER_CLIENT_H_
