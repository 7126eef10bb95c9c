// SQL server front-end tests: the shared result encoder (JSON/CSV), one
// send() per response (HttpConn over a record-preserving socket), the
// wire protocol end to end over real sockets, checksum-verified results
// under 8+ concurrent clients, admission control shedding on both pressure
// signals (in-flight cap and buffered-output cap) while admitted queries
// finish, headroom ordering across priority classes, and starvation
// freedom for low-priority traffic under a high-priority flood.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <functional>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "api/connection.h"
#include "api/encode.h"
#include "db/database.h"
#include "obs/metrics.h"
#include "server/client.h"
#include "server/http.h"
#include "server/server.h"
#include "test_util.h"
#include "util/string_dict.h"

namespace cstore {
namespace {

using testing::TempDir;

// --- encoder units (no server needed) ---------------------------------------

TEST(ResultEncoderTest, JsonEscapingAndShape) {
  std::string out;
  api::AppendJsonString(&out, "a\"b\\c\nd\x01");
  EXPECT_EQ(out, "\"a\\\"b\\\\c\\nd\\u0001\"");

  api::ResultEncoder enc(api::Wire::kJson, {"x", "y"});
  exec::TupleChunk chunk(2);
  Value* row = chunk.AppendTuple(0);
  row[0] = 7;
  row[1] = -3;
  std::string doc = enc.Header() + enc.EncodeChunk(chunk) +
                    enc.Footer(1, 1.5);
  EXPECT_EQ(doc,
            "{\"columns\":[\"x\",\"y\"],\"rows\":[[7,-3]],"
            "\"rows_out\":1,\"wall_ms\":1.500}\n");
  EXPECT_STREQ(enc.content_type(), "application/json");
}

TEST(ResultEncoderTest, JsonFooterCarriesError) {
  api::ResultEncoder enc(api::Wire::kJson, {"x"});
  std::string doc = enc.Header() + enc.Footer(0, 0.25, "boom \"quoted\"");
  EXPECT_NE(doc.find("\"error\":\"boom \\\"quoted\\\"\""), std::string::npos)
      << doc;
}

TEST(ResultEncoderTest, CsvQuotingOnlyWhenNeeded) {
  std::string out;
  api::AppendCsvField(&out, "plain");
  out.push_back('|');
  api::AppendCsvField(&out, "has,comma");
  out.push_back('|');
  api::AppendCsvField(&out, "has\"quote");
  EXPECT_EQ(out, "plain|\"has,comma\"|\"has\"\"quote\"");

  api::ResultEncoder enc(api::Wire::kCsv, {"x", "y"});
  exec::TupleChunk chunk(2);
  Value* row = chunk.AppendTuple(0);
  row[0] = 1;
  row[1] = 2;
  EXPECT_EQ(enc.Header() + enc.EncodeChunk(chunk) + enc.Footer(1, 0.0),
            "x,y\n1,2\n");
  EXPECT_STREQ(enc.content_type(), "text/csv");
}

TEST(ResultEncoderTest, IntegersAndDictionaryStringsInBothWires) {
  // INT64_MAX lies in the dictionary's id range but names no entry, so it
  // renders as a number; the interned string needs escaping and quoting.
  const Value str = util::StringDict::Global().Intern("say \"hi\", 2");
  const Value kMin = std::numeric_limits<Value>::min();
  const Value kMax = std::numeric_limits<Value>::max();
  EXPECT_EQ(api::RenderValue(str), "say \"hi\", 2");
  EXPECT_EQ(api::RenderValue(kMin), "-9223372036854775808");
  EXPECT_EQ(api::RenderValue(kMax), "9223372036854775807");
  EXPECT_EQ(api::RenderValue(0), "0");

  exec::TupleChunk chunk(5);
  Value* row = chunk.AppendTuple(0);
  row[0] = 0;
  row[1] = -42;
  row[2] = kMin;
  row[3] = kMax;
  row[4] = str;
  row = chunk.AppendTuple(1);
  row[0] = 1;
  row[1] = str;
  row[2] = -1;
  row[3] = 123456789;
  row[4] = 9;

  api::ResultEncoder json(api::Wire::kJson, {"a", "b", "c", "d", "e"});
  EXPECT_EQ(json.EncodeChunk(chunk),
            "[0,-42,-9223372036854775808,9223372036854775807,"
            "\"say \\\"hi\\\", 2\"],"
            "[1,\"say \\\"hi\\\", 2\",-1,123456789,9]");
  api::ResultEncoder csv(api::Wire::kCsv, {"a", "b", "c", "d", "e"});
  EXPECT_EQ(csv.EncodeChunk(chunk),
            "0,-42,-9223372036854775808,9223372036854775807,"
            "\"say \"\"hi\"\", 2\"\n"
            "1,\"say \"\"hi\"\", 2\",-1,123456789,9\n");
}

TEST(ResultEncoderTest, ParseWire) {
  ASSERT_TRUE(api::ParseWire("json").ok());
  ASSERT_TRUE(api::ParseWire("csv").ok());
  EXPECT_FALSE(api::ParseWire("xml").ok());
}

// --- HttpConn: one send per response ----------------------------------------

/// Runs `write` on an HttpConn over one end of a SOCK_SEQPACKET socketpair,
/// where every send() arrives as one record, and returns the records the
/// other end received, in order.
std::vector<std::string> SentRecords(
    const std::function<void(server::HttpConn*)>& write) {
  int fds[2];
  if (::socketpair(AF_UNIX, SOCK_SEQPACKET, 0, fds) != 0) {
    ADD_FAILURE() << "socketpair: " << std::strerror(errno);
    return {};
  }
  std::vector<std::string> records;
  std::thread reader([&] {
    std::vector<char> buf(1 << 20);  // larger than any record sent here
    for (;;) {
      const ssize_t n = ::recv(fds[1], buf.data(), buf.size(), 0);
      if (n <= 0) return;  // the writer's end closed
      records.emplace_back(buf.data(), static_cast<size_t>(n));
    }
  });
  {
    server::HttpConn conn(fds[0]);  // closes its end on scope exit
    write(&conn);
  }
  reader.join();
  ::close(fds[1]);
  return records;
}

/// One chunk of chunked transfer encoding, as it goes on the wire.
std::string Framed(const std::string& data) {
  char size_line[32];
  std::snprintf(size_line, sizeof(size_line), "%zx\r\n", data.size());
  return size_line + data + "\r\n";
}

constexpr char kChunkedHead[] =
    "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"
    "Transfer-Encoding: chunked\r\nConnection: keep-alive\r\n\r\n";

TEST(HttpConnTest, EachResponseLeavesInOneSend) {
  const std::string error = "{\"error\":\"overloaded\"}\n";
  std::vector<std::string> records =
      SentRecords([&](server::HttpConn* conn) {
        EXPECT_TRUE(conn->WriteResponse(503, "application/json", error,
                                        /*keep_alive=*/false,
                                        "Retry-After: 1\r\n"));
      });
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0],
            "HTTP/1.1 503 Service Unavailable\r\n"
            "Content-Type: application/json\r\nContent-Length: " +
                std::to_string(error.size()) +
                "\r\nRetry-After: 1\r\nConnection: close\r\n\r\n" + error);

  // A one-chunk SELECT: header, two data chunks (an empty one is skipped),
  // footer and terminator.
  const std::vector<std::string> pieces = {
      "{\"columns\":[\"k\"],\"rows\":[", "[1],[2]", "", ",[3]",
      "],\"rows_out\":3,\"wall_ms\":0.010}\n"};
  records = SentRecords([&](server::HttpConn* conn) {
    EXPECT_TRUE(conn->StartChunked(200, "application/json", true));
    for (const std::string& piece : pieces) {
      EXPECT_TRUE(conn->WriteChunk(piece));
    }
    EXPECT_TRUE(conn->EndChunked());
  });
  std::string want = kChunkedHead;
  for (const std::string& piece : pieces) {
    if (!piece.empty()) want += Framed(piece);
  }
  want += "0\r\n\r\n";
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0], want);
}

TEST(HttpConnTest, LargeResponseLeavesIn64KbPieces) {
  std::vector<std::string> chunks;
  for (int i = 0; i < 10; ++i) {
    chunks.push_back(std::string(15 * 1024, static_cast<char>('a' + i)));
  }
  const std::vector<std::string> records =
      SentRecords([&](server::HttpConn* conn) {
        EXPECT_TRUE(conn->StartChunked(200, "application/json", true));
        for (const std::string& chunk : chunks) {
          EXPECT_TRUE(conn->WriteChunk(chunk));
        }
        EXPECT_TRUE(conn->EndChunked());
      });
  std::string want = kChunkedHead;
  for (const std::string& chunk : chunks) want += Framed(chunk);
  want += "0\r\n\r\n";

  ASSERT_GE(records.size(), 2u);
  std::string got;
  for (size_t i = 0; i < records.size(); ++i) {
    if (i + 1 < records.size()) {
      EXPECT_GE(records[i].size(), 64u * 1024) << "record " << i;
    }
    got += records[i];
  }
  EXPECT_EQ(got, want);
}

TEST(HttpConnTest, FlushAndLargePiecesLeaveAtOnce) {
  // A result still running on the pool: the server flushes after each
  // chunk, so each leaves in its own send, the head with the first.
  const std::vector<std::string> pieces = {"{\"rows\":[", "[1]", ",[2]",
                                           "]}\n"};
  std::vector<std::string> records =
      SentRecords([&](server::HttpConn* conn) {
        EXPECT_TRUE(conn->StartChunked(200, "application/json", true));
        EXPECT_TRUE(conn->WriteChunk(pieces[0]));
        EXPECT_TRUE(conn->WriteChunk(pieces[1]));
        EXPECT_TRUE(conn->Flush());
        EXPECT_TRUE(conn->Flush());  // nothing buffered: no send
        EXPECT_TRUE(conn->WriteChunk(pieces[2]));
        EXPECT_TRUE(conn->Flush());
        EXPECT_TRUE(conn->WriteChunk(pieces[3]));
        EXPECT_TRUE(conn->EndChunked());
      });
  ASSERT_EQ(records.size(), 3u);
  EXPECT_EQ(records[0],
            kChunkedHead + Framed(pieces[0]) + Framed(pieces[1]));
  EXPECT_EQ(records[1], Framed(pieces[2]));
  EXPECT_EQ(records[2], Framed(pieces[3]) + "0\r\n\r\n");

  // A chunk and a body larger than the buffer's 64 KB leave in one send
  // with what was buffered before them; the connection's next response
  // is again one send.
  const std::string big(100 * 1024, 'x');
  records = SentRecords([&](server::HttpConn* conn) {
    EXPECT_TRUE(conn->StartChunked(200, "application/json", true));
    EXPECT_TRUE(conn->WriteChunk(pieces[0]));
    EXPECT_TRUE(conn->WriteChunk(big));
    EXPECT_TRUE(conn->WriteChunk(pieces[3]));
    EXPECT_TRUE(conn->EndChunked());
    EXPECT_TRUE(conn->WriteResponse(200, "text/plain", big, true));
    EXPECT_TRUE(conn->WriteResponse(200, "text/plain", "ok", true));
  });
  const std::string fixed_head =
      "HTTP/1.1 200 OK\r\nContent-Type: text/plain\r\nContent-Length: ";
  ASSERT_EQ(records.size(), 4u);
  EXPECT_EQ(records[0], kChunkedHead + Framed(pieces[0]) + Framed(big));
  EXPECT_EQ(records[1], Framed(pieces[3]) + "0\r\n\r\n");
  EXPECT_EQ(records[2], fixed_head + std::to_string(big.size()) +
                            "\r\nConnection: keep-alive\r\n\r\n" + big);
  EXPECT_EQ(records[3],
            fixed_head + "2\r\nConnection: keep-alive\r\n\r\nok");
}

// --- server fixture ---------------------------------------------------------

bool SameAddress(const sockaddr_in& a, const sockaddr_in& b) {
  return a.sin_family == b.sin_family && a.sin_port == b.sin_port &&
         a.sin_addr.s_addr == b.sin_addr.s_addr;
}

/// This process's end of the loopback TCP connection whose other end is
/// `fd` (here: the server's accepted socket for a test client), or -1 while
/// the server has not accepted it yet.
int LoopbackPeer(int fd) {
  sockaddr_in local = {};
  sockaddr_in peer = {};
  socklen_t len = sizeof(local);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&local), &len) != 0) {
    return -1;
  }
  len = sizeof(peer);
  if (::getpeername(fd, reinterpret_cast<sockaddr*>(&peer), &len) != 0) {
    return -1;
  }
  for (int other = 0; other < 4096; ++other) {
    sockaddr_in other_local = {};
    sockaddr_in other_peer = {};
    len = sizeof(other_local);
    if (other == fd ||
        ::getsockname(other, reinterpret_cast<sockaddr*>(&other_local),
                      &len) != 0) {
      continue;
    }
    len = sizeof(other_peer);
    if (::getpeername(other, reinterpret_cast<sockaddr*>(&other_peer),
                      &len) == 0 &&
        SameAddress(other_local, peer) && SameAddress(other_peer, local)) {
      return other;
    }
  }
  return -1;
}

class ServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db::Database::Options opts;
    opts.dir = dir_.path();
    auto db = db::Database::Open(opts);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    db_ = std::move(*db);

    const size_t n = 60000;
    a_ = testing::SortedRunnyValues(n, 500, 8.0, 1);
    b_ = testing::RunnyValues(n, 7, 2.0, 2);
    ASSERT_OK(db_->CreateColumn("t.a", codec::Encoding::kRle, a_));
    ASSERT_OK(db_->CreateColumn("t.b", codec::Encoding::kUncompressed, b_));
    ASSERT_OK(db_->RegisterTable("t", {{"a", "t.a"}, {"b", "t.b"}}));
  }

  /// Registers big(x): a result large enough that streaming spans many
  /// chunks and genuinely blocks on a stalled reader.
  void MakeBigTable() {
    const size_t n = 400000;
    std::vector<Value> big(n);
    for (size_t i = 0; i < n; ++i) big[i] = static_cast<Value>(i % 1000);
    ASSERT_OK(
        db_->CreateColumn("big.x", codec::Encoding::kUncompressed, big));
    ASSERT_OK(db_->RegisterTable("big", {{"x", "big.x"}}));
  }

  /// Sum of all numeric fields in a CSV body (order-independent checksum)
  /// plus the data row count.
  static void CsvChecksum(const std::string& body, long long* sum,
                          uint64_t* rows) {
    *sum = 0;
    *rows = 0;
    size_t pos = body.find('\n');  // skip header
    ASSERT_NE(pos, std::string::npos);
    ++pos;
    while (pos < body.size()) {
      size_t eol = body.find('\n', pos);
      if (eol == std::string::npos) eol = body.size();
      const std::string line = body.substr(pos, eol - pos);
      pos = eol + 1;
      if (line.empty()) continue;
      ++*rows;
      size_t f = 0;
      while (f <= line.size()) {
        size_t comma = line.find(',', f);
        if (comma == std::string::npos) comma = line.size();
        *sum += std::atoll(line.c_str() + f);
        f = comma + 1;
      }
    }
  }

  /// Reference (rows, value-sum) for `sql` through a direct in-process
  /// session — what the wire result must reproduce exactly.
  void Reference(const std::string& sql, long long* sum, uint64_t* rows) {
    api::Connection conn(db_.get());
    auto r = conn.Query(sql);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    *rows = r->tuples.num_tuples();
    *sum = 0;
    for (size_t i = 0; i < r->tuples.num_tuples(); ++i) {
      for (uint32_t c = 0; c < r->tuples.width(); ++c) {
        *sum += static_cast<long long>(r->tuples.value(i, c));
      }
    }
  }

  static int64_t InflightGauge() {
    return obs::MetricsRegistry::Global()
        .GetGauge("cstore_sched_inflight_queries")
        ->value();
  }

  /// Polls `pred` for up to ~5 s.
  template <typename Pred>
  static bool WaitFor(Pred pred) {
    for (int i = 0; i < 500; ++i) {
      if (pred()) return true;
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    return false;
  }

  TempDir dir_;
  std::unique_ptr<db::Database> db_;
  std::vector<Value> a_, b_;
};

TEST_F(ServerTest, RoutesAndEncodings) {
  server::Server::Options opts;
  opts.pool_workers = 2;
  server::Server srv(db_.get(), opts);
  ASSERT_OK(srv.Start());

  server::HttpClient client;
  ASSERT_OK(client.Connect("localhost", srv.port()));

  ASSERT_OK_AND_ASSIGN(server::HttpResponse health,
                       client.Get("/health"));
  EXPECT_EQ(health.status, 200);
  EXPECT_EQ(health.body, "ok\n");

  ASSERT_OK_AND_ASSIGN(server::HttpResponse metrics,
                       client.Get("/metrics"));
  EXPECT_EQ(metrics.status, 200);
  EXPECT_NE(metrics.body.find("cstore_sched_inflight_queries"),
            std::string::npos);
  EXPECT_NE(metrics.body.find("cstore_server_requests_total"),
            std::string::npos);

  // JSON and CSV agree with the direct session.
  const std::string sql = "SELECT a, b FROM t WHERE a < 250 AND b < 6";
  long long want_sum = 0;
  uint64_t want_rows = 0;
  Reference(sql, &want_sum, &want_rows);
  ASSERT_GT(want_rows, 0u);

  ASSERT_OK_AND_ASSIGN(server::HttpResponse csv,
                       client.Query(sql, "csv"));
  ASSERT_EQ(csv.status, 200);
  long long got_sum = 0;
  uint64_t got_rows = 0;
  CsvChecksum(csv.body, &got_sum, &got_rows);
  EXPECT_EQ(got_rows, want_rows);
  EXPECT_EQ(got_sum, want_sum);

  ASSERT_OK_AND_ASSIGN(server::HttpResponse json,
                       client.Query(sql, "json"));
  ASSERT_EQ(json.status, 200);
  EXPECT_NE(json.body.find("\"rows_out\":" + std::to_string(want_rows)),
            std::string::npos)
      << json.body;

  // Writes and ops routes.
  ASSERT_OK_AND_ASSIGN(
      server::HttpResponse ins,
      client.Query("INSERT INTO t VALUES (1, 2)", "json"));
  EXPECT_EQ(ins.status, 200);
  EXPECT_NE(ins.body.find("\"rows_out\":1"), std::string::npos) << ins.body;

  ASSERT_OK_AND_ASSIGN(server::HttpResponse log,
                       client.Get("/log?format=csv"));
  EXPECT_EQ(log.status, 200);
  EXPECT_NE(log.body.find("query_id"), std::string::npos);

  ASSERT_OK_AND_ASSIGN(server::HttpResponse queries,
                       client.Get("/queries?format=csv"));
  EXPECT_EQ(queries.status, 200);

  // Error paths: bad SQL = 400, unknown route = 404, bad params = 400.
  ASSERT_OK_AND_ASSIGN(server::HttpResponse bad,
                       client.Query("garbage sql"));
  EXPECT_EQ(bad.status, 400);
  EXPECT_NE(bad.body.find("\"error\""), std::string::npos);
  ASSERT_OK_AND_ASSIGN(server::HttpResponse missing,
                       client.Get("/nosuch"));
  EXPECT_EQ(missing.status, 404);
  ASSERT_OK_AND_ASSIGN(server::HttpResponse badfmt,
                       client.Query("SELECT a FROM t", "xml"));
  EXPECT_EQ(badfmt.status, 400);

  srv.Stop();
}

TEST_F(ServerTest, EightConcurrentClientsChecksumVerified) {
  MakeBigTable();
  server::Server::Options opts;
  opts.pool_workers = 4;
  server::Server srv(db_.get(), opts);
  ASSERT_OK(srv.Start());

  // t fits in one window, so its statements run on the handler threads;
  // the statement over big runs on the pool, where the clients meet.
  const std::vector<std::string> sqls = {
      "SELECT a, b FROM t WHERE a < 250 AND b < 6",
      "SELECT a, SUM(b) FROM t WHERE b < 6 GROUP BY a",
      "SELECT COUNT(b) FROM t WHERE a < 100",
      "SELECT SUM(x) FROM big WHERE x < 100",
  };
  std::vector<long long> want_sum(sqls.size());
  std::vector<uint64_t> want_rows(sqls.size());
  for (size_t i = 0; i < sqls.size(); ++i) {
    Reference(sqls[i], &want_sum[i], &want_rows[i]);
    ASSERT_GT(want_rows[i], 0u) << sqls[i];
  }

  constexpr int kClients = 8;
  constexpr int kRounds = 3;
  // Collected per thread, verified on the main thread (gtest assertions
  // are not thread-safe).
  struct Got {
    bool transport_ok = true;
    int bad_status = 0;
    int mismatches = 0;
  };
  std::vector<Got> got(kClients);
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int cidx = 0; cidx < kClients; ++cidx) {
    clients.emplace_back([&, cidx] {
      server::HttpClient client;
      if (!client.Connect("localhost", srv.port()).ok()) {
        got[cidx].transport_ok = false;
        return;
      }
      for (int round = 0; round < kRounds; ++round) {
        for (size_t i = 0; i < sqls.size(); ++i) {
          auto r = client.Query(sqls[i], "csv");
          if (!r.ok()) {
            got[cidx].transport_ok = false;
            return;
          }
          if (r->status != 200) {
            got[cidx].bad_status = r->status;
            continue;
          }
          long long sum = 0;
          uint64_t rows = 0;
          CsvChecksum(r->body, &sum, &rows);
          if (sum != want_sum[i] || rows != want_rows[i]) {
            ++got[cidx].mismatches;
          }
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();
  for (int c = 0; c < kClients; ++c) {
    EXPECT_TRUE(got[c].transport_ok) << "client " << c;
    EXPECT_EQ(got[c].bad_status, 0) << "client " << c;
    EXPECT_EQ(got[c].mismatches, 0) << "client " << c;
  }
  srv.Stop();
}

TEST_F(ServerTest, InflightCapShedsByPriorityClassWhileAdmittedFinish) {
  MakeBigTable();
  server::Server::Options opts;
  opts.pool_workers = 2;
  opts.admission.max_inflight = 2;
  opts.admission.max_buffered_bytes = 0;  // isolate the in-flight signal
  server::Server srv(db_.get(), opts);
  ASSERT_OK(srv.Start());

  // Pin two queries in flight on the server's scheduler: undrained streams
  // with a 1-chunk queue block their producers indefinitely.
  api::Connection pin(db_.get(), srv.scheduler());
  api::Connection::Settings settings;
  settings.stream_queue_chunks = 1;
  pin.set_settings(settings);
  ASSERT_OK_AND_ASSIGN(api::RowCursor held1,
                       pin.Stream("SELECT x FROM big"));
  ASSERT_OK_AND_ASSIGN(api::RowCursor held2,
                       pin.Stream("SELECT x FROM big"));
  ASSERT_TRUE(WaitFor([] { return InflightGauge() >= 2; }));

  server::HttpClient client;
  ASSERT_OK(client.Connect("localhost", srv.port()));
  // At the full cap every class sheds, with a useful message and
  // Retry-After. Shedding is a pure gauge read — it works even though
  // every pool worker is currently blocked on the stalled streams (that
  // saturation is exactly what the cap detects).
  for (const char* cls : {"low", "normal", "high"}) {
    ASSERT_OK_AND_ASSIGN(
        server::HttpResponse r,
        client.Query("SELECT COUNT(b) FROM t WHERE a < 100", "json", cls));
    EXPECT_EQ(r.status, 503) << cls;
    EXPECT_NE(r.body.find("overloaded"), std::string::npos) << r.body;
    EXPECT_NE(r.body.find("in flight"), std::string::npos) << r.body;
    EXPECT_EQ(r.headers["retry-after"], "1") << cls;
  }

  // Admitted queries finish while load sheds: drain the first pinned
  // stream to completion while the second is dropped (cancelled). These
  // must run concurrently — a blocked worker can be parked on either
  // queue, so one stream's progress can require the other's release.
  std::atomic<uint64_t> drained_rows{0};
  std::thread drainer([&] {
    auto drained = held1.FetchAll();
    if (drained.ok()) {
      drained_rows.store(drained->tuples.num_tuples(),
                         std::memory_order_relaxed);
    }
  });
  { api::RowCursor drop = std::move(held2); }
  drainer.join();
  EXPECT_EQ(drained_rows.load(std::memory_order_relaxed), 400000u);

  // Saturation over: all classes are admitted again.
  ASSERT_TRUE(WaitFor([] { return InflightGauge() == 0; }));
  ASSERT_OK_AND_ASSIGN(
      server::HttpResponse after,
      client.Query("SELECT COUNT(b) FROM t WHERE a < 100", "json", "low"));
  EXPECT_EQ(after.status, 200) << after.body;
  srv.Stop();
}

TEST_F(ServerTest, OutputByteCapShedsOnStalledReader) {
  MakeBigTable();
  server::Server::Options opts;
  opts.pool_workers = 2;
  opts.admission.max_inflight = 0;  // isolate the byte signal
  opts.admission.max_buffered_bytes = 64 * 1024;
  server::Server srv(db_.get(), opts);
  ASSERT_OK(srv.Start());

  // A raw socket that sends the request and never reads the response: the
  // server's writer blocks once the TCP buffers fill, its ChunkQueue backs
  // up, and the shared byte gauge climbs past the cap.
  //
  // Left alone, loopback buffers grow to megabytes and swallow the whole
  // ~1.6 MB CSV result: the writer then keeps popping chunks (the gauge
  // dips to 0 between them) and the producer finishes, so the gauge never
  // stays up. Both ends' buffers are pinned small instead, far below the
  // ~256 KB of CSV in one 64K-row chunk, so the writer stalls for good
  // inside the first chunk it pops.
  const int small_buffer = 4096;
  const int stalled = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(stalled, 0);
  ASSERT_EQ(::setsockopt(stalled, SOL_SOCKET, SO_RCVBUF, &small_buffer,
                         sizeof(small_buffer)),
            0);
  sockaddr_in addr = {};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(srv.port()));
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  ASSERT_EQ(
      ::connect(stalled, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
      0);
  int server_end = -1;
  ASSERT_TRUE(WaitFor([&] {
    server_end = LoopbackPeer(stalled);
    return server_end >= 0;
  })) << "server never accepted the connection";
  ASSERT_EQ(::setsockopt(server_end, SOL_SOCKET, SO_SNDBUF, &small_buffer,
                         sizeof(small_buffer)),
            0);
  const char* req =
      "GET /query?q=SELECT+x+FROM+big&format=csv HTTP/1.1\r\n"
      "Host: t\r\n\r\n";
  ASSERT_EQ(::send(stalled, req, std::strlen(req), MSG_NOSIGNAL),
            static_cast<ssize_t>(std::strlen(req)));

  // The writer takes at most one chunk out of the queue, ever; every other
  // chunk stays there. Once the gauge holds the cap plus one chunk, it can
  // no longer fall below the cap.
  const int64_t chunk_bytes = kChunkPositions * sizeof(Value);
  ASSERT_TRUE(WaitFor([&] {
    return srv.buffered_output_bytes() >= 64 * 1024 + chunk_bytes;
  })) << "stalled reader never backed up the byte gauge";

  server::HttpClient client;
  ASSERT_OK(client.Connect("localhost", srv.port()));
  ASSERT_OK_AND_ASSIGN(
      server::HttpResponse shed,
      client.Query("SELECT COUNT(b) FROM t WHERE a < 100", "json", "high"));
  EXPECT_EQ(shed.status, 503);
  EXPECT_NE(shed.body.find("bytes buffered"), std::string::npos)
      << shed.body;

  // Closing the stalled client cancels its query (disconnect detection)
  // and releases the buffered bytes; traffic is admitted again.
  ::close(stalled);
  ASSERT_TRUE(WaitFor([&] { return srv.buffered_output_bytes() == 0; }));
  ASSERT_OK_AND_ASSIGN(
      server::HttpResponse after,
      client.Query("SELECT COUNT(b) FROM t WHERE a < 100", "json", "high"));
  EXPECT_EQ(after.status, 200) << after.body;
  srv.Stop();
}

TEST_F(ServerTest, PoolStreamToAClosedClientCountsADisconnect) {
  // A result still running on the pool is sent chunk by chunk: a client
  // that closed its socket before the response fails the second chunk's
  // send, which the server counts as a disconnect. A response sent whole
  // at its end would meet the closed socket only once, and unnoticed.
  MakeBigTable();
  server::Server::Options opts;
  opts.pool_workers = 2;
  server::Server srv(db_.get(), opts);
  ASSERT_OK(srv.Start());
  obs::Counter* disconnects = obs::MetricsRegistry::Global().GetCounter(
      "cstore_server_client_disconnects_total");
  ASSERT_NE(disconnects, nullptr);
  const uint64_t before = disconnects->value();

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr = {};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(srv.port()));
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  // Seven windows of big, about 650 small CSV rows from each.
  const char* req =
      "GET /query?q=SELECT+x+FROM+big+WHERE+x+%3C+10&format=csv HTTP/1.1\r\n"
      "Host: t\r\n\r\n";
  ASSERT_EQ(::send(fd, req, std::strlen(req), MSG_NOSIGNAL),
            static_cast<ssize_t>(std::strlen(req)));
  ::close(fd);
  EXPECT_TRUE(WaitFor([&] { return disconnects->value() > before; }))
      << "the server never noticed the closed client";
  srv.Stop();
}

TEST_F(ServerTest, LowPriorityNotStarvedByHighPriorityFlood) {
  // Both statements scan big's seven windows, so both run on the pool: t
  // fits in one window and would run on the handler threads.
  MakeBigTable();
  server::Server::Options opts;
  opts.pool_workers = 2;
  server::Server srv(db_.get(), opts);
  ASSERT_OK(srv.Start());

  std::atomic<bool> stop{false};
  std::vector<std::thread> flood;
  for (int t = 0; t < 4; ++t) {
    flood.emplace_back([&] {
      server::HttpClient client;
      if (!client.Connect("localhost", srv.port()).ok()) return;
      while (!stop.load(std::memory_order_relaxed)) {
        auto r = client.Query("SELECT SUM(x) FROM big WHERE x < 900", "csv",
                              "high");
        if (!r.ok()) return;
      }
    });
  }

  // The low-priority query must land (weighted round-robin always deals it
  // at least one morsel claim per rotation) while the flood runs.
  const std::string sql = "SELECT COUNT(x) FROM big WHERE x < 100";
  long long want_sum = 0;
  uint64_t want_rows = 0;
  Reference(sql, &want_sum, &want_rows);
  server::HttpClient low;
  ASSERT_OK(low.Connect("localhost", srv.port()));
  for (int i = 0; i < 3; ++i) {
    auto r = low.Query(sql, "csv", "low");
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    ASSERT_EQ(r->status, 200);
    long long sum = 0;
    uint64_t rows = 0;
    CsvChecksum(r->body, &sum, &rows);
    EXPECT_EQ(sum, want_sum);
    EXPECT_EQ(rows, want_rows);
  }
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& t : flood) t.join();
  srv.Stop();
}

TEST(AdmissionTest, HeadroomFractionsOrderClasses) {
  std::atomic<int64_t> bytes{0};
  server::AdmissionController::Options opts;
  opts.max_inflight = 100;
  opts.max_buffered_bytes = 1000;
  server::AdmissionController ctl(opts, &bytes);
  // Byte pressure at 60%: low (cap 500) sheds, normal (cap 750) and high
  // (cap 1000) admit. There are no in-flight queries in this test.
  bytes.store(600);
  EXPECT_TRUE(ctl.Admit(server::PriorityClass::kLow).IsUnavailable());
  EXPECT_OK(ctl.Admit(server::PriorityClass::kNormal));
  EXPECT_OK(ctl.Admit(server::PriorityClass::kHigh));
  bytes.store(800);
  EXPECT_TRUE(ctl.Admit(server::PriorityClass::kNormal).IsUnavailable());
  EXPECT_OK(ctl.Admit(server::PriorityClass::kHigh));
  bytes.store(1000);
  EXPECT_TRUE(ctl.Admit(server::PriorityClass::kHigh).IsUnavailable());
  bytes.store(0);

  // The in-flight signal orders classes the same way. Drive the scheduler
  // gauge directly (nothing else runs queries here); restore it after.
  obs::Gauge* inflight = obs::MetricsRegistry::Global().GetGauge(
      "cstore_sched_inflight_queries");
  inflight->Set(60);  // 60% of max_inflight = 100
  Status low = ctl.Admit(server::PriorityClass::kLow);
  EXPECT_TRUE(low.IsUnavailable());
  EXPECT_NE(low.ToString().find("in flight"), std::string::npos)
      << low.ToString();
  EXPECT_OK(ctl.Admit(server::PriorityClass::kNormal));
  EXPECT_OK(ctl.Admit(server::PriorityClass::kHigh));
  inflight->Set(80);
  EXPECT_TRUE(ctl.Admit(server::PriorityClass::kNormal).IsUnavailable());
  EXPECT_OK(ctl.Admit(server::PriorityClass::kHigh));
  inflight->Set(100);
  EXPECT_TRUE(ctl.Admit(server::PriorityClass::kHigh).IsUnavailable());
  inflight->Set(0);

  // Zero caps disable the checks entirely.
  server::AdmissionController off(server::AdmissionController::Options{0, 0},
                                  &bytes);
  EXPECT_OK(off.Admit(server::PriorityClass::kLow));
}

}  // namespace
}  // namespace cstore
