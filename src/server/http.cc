#include "server/http.h"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstring>

namespace cstore {
namespace server {

namespace {

constexpr size_t kMaxHeaderBytes = 64 * 1024;
constexpr size_t kMaxBodyBytes = 64 * 1024 * 1024;
// A response is sent once its buffer would hold this much. Smaller pieces
// are copied into the buffer; the rest leaves from where it lies.
constexpr size_t kFlushBytes = 64 * 1024;

std::string ToLower(std::string s) {
  for (char& c : s) c = static_cast<char>(std::tolower(c));
  return s;
}

int HexDigit(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}

}  // namespace

std::string UrlDecode(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (size_t i = 0; i < s.size(); ++i) {
    if (s[i] == '+') {
      out.push_back(' ');
    } else if (s[i] == '%' && i + 2 < s.size()) {
      const int hi = HexDigit(s[i + 1]);
      const int lo = HexDigit(s[i + 2]);
      if (hi >= 0 && lo >= 0) {
        out.push_back(static_cast<char>(hi * 16 + lo));
        i += 2;
      } else {
        out.push_back('%');
      }
    } else {
      out.push_back(s[i]);
    }
  }
  return out;
}

const char* HttpStatusText(int code) {
  switch (code) {
    case 200:
      return "OK";
    case 400:
      return "Bad Request";
    case 404:
      return "Not Found";
    case 405:
      return "Method Not Allowed";
    case 500:
      return "Internal Server Error";
    case 503:
      return "Service Unavailable";
  }
  return "Unknown";
}

HttpConn::~HttpConn() {
  if (fd_ >= 0) ::close(fd_);
}

bool HttpConn::ReadRequest(HttpRequest* out) {
  if (broken_) return false;
  // Accumulate until the blank line ending the header block.
  size_t header_end;
  while ((header_end = buf_.find("\r\n\r\n")) == std::string::npos) {
    if (buf_.size() > kMaxHeaderBytes) return false;
    char tmp[4096];
    const ssize_t n = ::recv(fd_, tmp, sizeof(tmp), 0);
    if (n <= 0) return false;  // EOF or error: connection is done
    buf_.append(tmp, static_cast<size_t>(n));
  }
  const std::string head = buf_.substr(0, header_end);
  buf_.erase(0, header_end + 4);

  *out = HttpRequest();
  // Request line: METHOD SP target SP version.
  const size_t line_end = head.find("\r\n");
  const std::string line =
      line_end == std::string::npos ? head : head.substr(0, line_end);
  const size_t sp1 = line.find(' ');
  const size_t sp2 = line.rfind(' ');
  if (sp1 == std::string::npos || sp2 == sp1) return false;
  out->method = line.substr(0, sp1);
  std::string target = line.substr(sp1 + 1, sp2 - sp1 - 1);
  const std::string version = line.substr(sp2 + 1);
  out->keep_alive = version != "HTTP/1.0";

  // Split target into path + query parameters.
  const size_t qmark = target.find('?');
  out->path = target.substr(0, qmark);
  if (qmark != std::string::npos) {
    std::string qs = target.substr(qmark + 1);
    size_t pos = 0;
    while (pos <= qs.size()) {
      size_t amp = qs.find('&', pos);
      if (amp == std::string::npos) amp = qs.size();
      const std::string pair = qs.substr(pos, amp - pos);
      const size_t eq = pair.find('=');
      if (!pair.empty()) {
        if (eq == std::string::npos) {
          out->params[UrlDecode(pair)] = "";
        } else {
          out->params[UrlDecode(pair.substr(0, eq))] =
              UrlDecode(pair.substr(eq + 1));
        }
      }
      pos = amp + 1;
    }
  }

  // Headers.
  size_t pos = line_end == std::string::npos ? head.size() : line_end + 2;
  while (pos < head.size()) {
    size_t eol = head.find("\r\n", pos);
    if (eol == std::string::npos) eol = head.size();
    const std::string h = head.substr(pos, eol - pos);
    pos = eol + 2;
    const size_t colon = h.find(':');
    if (colon == std::string::npos) continue;
    std::string name = ToLower(h.substr(0, colon));
    size_t v = colon + 1;
    while (v < h.size() && (h[v] == ' ' || h[v] == '\t')) ++v;
    out->headers[name] = h.substr(v);
  }
  auto conn_it = out->headers.find("connection");
  if (conn_it != out->headers.end()) {
    const std::string v = ToLower(conn_it->second);
    if (v == "close") out->keep_alive = false;
    if (v == "keep-alive") out->keep_alive = true;
  }

  // Body (Content-Length only — the subset our client and curl use).
  auto len_it = out->headers.find("content-length");
  if (len_it != out->headers.end()) {
    const long long want = std::atoll(len_it->second.c_str());
    if (want < 0 || static_cast<size_t>(want) > kMaxBodyBytes) return false;
    while (buf_.size() < static_cast<size_t>(want)) {
      char tmp[4096];
      const ssize_t n = ::recv(fd_, tmp, sizeof(tmp), 0);
      if (n <= 0) return false;
      buf_.append(tmp, static_cast<size_t>(n));
    }
    out->body = buf_.substr(0, static_cast<size_t>(want));
    buf_.erase(0, static_cast<size_t>(want));
  }
  return true;
}

bool HttpConn::Send(std::initializer_list<std::string_view> pieces) {
  iovec iov[4];
  size_t n = 0;
  if (!out_.empty()) iov[n++] = {out_.data(), out_.size()};
  for (std::string_view piece : pieces) {
    if (!piece.empty()) {
      iov[n++] = {const_cast<char*>(piece.data()), piece.size()};
    }
  }
  size_t first = 0;  // iov[first..n) is still unsent
  while (first < n && !broken_) {
    msghdr msg = {};
    msg.msg_iov = iov + first;
    msg.msg_iovlen = n - first;
    const ssize_t w = ::sendmsg(fd_, &msg, MSG_NOSIGNAL);
    if (w <= 0) {
      if (w < 0 && errno == EINTR) continue;
      broken_ = true;  // client went away (EPIPE/ECONNRESET) or fatal error
      break;
    }
    size_t sent = static_cast<size_t>(w);
    while (first < n && sent >= iov[first].iov_len) {
      sent -= iov[first++].iov_len;
    }
    if (sent > 0) {
      iov[first].iov_base = static_cast<char*>(iov[first].iov_base) + sent;
      iov[first].iov_len -= sent;
    }
  }
  // The buffer only ever holds pieces below kFlushBytes; a connection keeps
  // no more than that between responses.
  if (out_.capacity() > kFlushBytes) {
    std::string().swap(out_);
  } else {
    out_.clear();
  }
  return !broken_;
}

bool HttpConn::Flush() {
  if (broken_) return false;
  return out_.empty() || Send({});
}

bool HttpConn::WriteResponse(int status, const std::string& content_type,
                             const std::string& body, bool keep_alive,
                             const std::string& extra_headers) {
  if (broken_) return false;
  char head[384];
  std::snprintf(head, sizeof(head),
                "HTTP/1.1 %d %s\r\nContent-Type: %s\r\n"
                "Content-Length: %zu\r\n%sConnection: %s\r\n\r\n",
                status, HttpStatusText(status), content_type.c_str(),
                body.size(), extra_headers.c_str(),
                keep_alive ? "keep-alive" : "close");
  out_ += head;
  return Send({body});
}

bool HttpConn::StartChunked(int status, const std::string& content_type,
                            bool keep_alive) {
  if (broken_) return false;
  char head[256];
  std::snprintf(head, sizeof(head),
                "HTTP/1.1 %d %s\r\nContent-Type: %s\r\n"
                "Transfer-Encoding: chunked\r\nConnection: %s\r\n\r\n",
                status, HttpStatusText(status), content_type.c_str(),
                keep_alive ? "keep-alive" : "close");
  out_ += head;
  return true;
}

bool HttpConn::WriteChunk(const std::string& data) {
  if (broken_) return false;
  if (data.empty()) return true;  // an empty chunk would end the stream
  char size_line[32];
  const int len =
      std::snprintf(size_line, sizeof(size_line), "%zx\r\n", data.size());
  const std::string_view size(size_line, static_cast<size_t>(len));
  if (out_.size() + size.size() + data.size() + 2 < kFlushBytes) {
    out_ += size;
    out_ += data;
    out_ += "\r\n";
    return true;
  }
  // The buffer would reach kFlushBytes: send it and this chunk together,
  // the chunk from where it lies.
  return Send({size, data, "\r\n"});
}

bool HttpConn::EndChunked() {
  if (broken_) return false;
  out_ += "0\r\n\r\n";
  return Send({});
}

TcpListener::~TcpListener() { Shutdown(); }

Status TcpListener::Listen(int port) {
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) return Status::Internal("socket() failed");
  const int one = 1;
  ::setsockopt(fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr = {};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::bind(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd_);
    fd_ = -1;
    return Status::Internal("bind(127.0.0.1:" + std::to_string(port) +
                            ") failed: " + std::strerror(errno));
  }
  if (::listen(fd_, 64) != 0) {
    ::close(fd_);
    fd_ = -1;
    return Status::Internal(std::string("listen() failed: ") +
                            std::strerror(errno));
  }
  sockaddr_in bound = {};
  socklen_t len = sizeof(bound);
  if (::getsockname(fd_, reinterpret_cast<sockaddr*>(&bound), &len) == 0) {
    port_ = ntohs(bound.sin_port);
  } else {
    port_ = port;
  }
  return Status::OK();
}

int TcpListener::Accept() {
  const int listen_fd = fd_.load();
  if (listen_fd < 0) return -1;
  for (;;) {
    const int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd >= 0) {
      const int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      return fd;
    }
    if (errno == EINTR) continue;
    return -1;  // listener closed (Shutdown) or fatal
  }
}

void TcpListener::Shutdown() {
  const int fd = fd_.exchange(-1);
  if (fd >= 0) {
    ::shutdown(fd, SHUT_RDWR);
    ::close(fd);
  }
}

}  // namespace server
}  // namespace cstore
