// Engine-independent helpers of the benchmark driver: latency percentiles
// with their sample counts, order-independent result checksums (over
// in-process tuples and JSON bodies alike), the client-side ledger of
// acknowledged writes, and the JSON result line. RunSelfTests() checks each
// of them; the driver runs it before every measurement.

#ifndef CSTORE_PERFBENCH_HARNESS_H_
#define CSTORE_PERFBENCH_HARNESS_H_

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

// --- Percentiles ------------------------------------------------------------

/// A nearest-rank percentile: the smallest sample with at least q·n samples
/// at or below it, plus how many samples lie strictly beyond that rank (a
/// tail percentile means little with fewer than ten beyond it).
struct Percentile {
  double value = 0;
  size_t samples = 0;
  size_t beyond = 0;
};

inline Percentile NearestRank(std::vector<double> v, double q) {
  Percentile p;
  p.samples = v.size();
  if (v.empty()) return p;
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(std::ceil(q * v.size()));
  rank = std::clamp<size_t>(rank, 1, v.size());
  p.value = v[rank - 1];
  p.beyond = v.size() - rank;
  return p;
}

inline double Median(const std::vector<double>& v) {
  return NearestRank(v, 0.5).value;
}

// --- Result checksums ---------------------------------------------------

/// Order-independent digest of a bag of integer rows: each row hashes on
/// its own (value order within the row matters, row order does not) and
/// rows combine by wrapping addition, so any chunking or worker order of
/// one result bag gives one checksum.
struct Checksum {
  uint64_t rows = 0;
  uint64_t sum = 0;

  void AddRow(const int64_t* values, size_t width) {
    uint64_t h = 0x51ed27a3c4b1f00dULL ^ width;
    for (size_t i = 0; i < width; ++i) {
      h ^= static_cast<uint64_t>(values[i]) + 0x9e3779b97f4a7c15ULL +
           (h << 6) + (h >> 2);
      h *= 0xbf58476d1ce4e5b9ULL;
      h ^= h >> 31;
    }
    sum += h;
    ++rows;
  }

  bool operator==(const Checksum& o) const {
    return rows == o.rows && sum == o.sum;
  }
  bool operator!=(const Checksum& o) const { return !(*this == o); }
};

/// Parses one decimal integer at body[*i] (optional leading '-'); advances
/// *i past it. False when no digit is there.
inline bool ParseInt(const std::string& body, size_t* i, int64_t* out) {
  const char* begin = body.data() + *i;
  const char* end = body.data() + body.size();
  auto [ptr, ec] = std::from_chars(begin, end, *out);
  if (ec != std::errc() || ptr == begin) return false;
  *i += static_cast<size_t>(ptr - begin);
  return true;
}

/// Checksum of a JSON response {"columns":[...],"rows":[[..],..],
/// "rows_out":N,...}: every row must be `width` integers, and rows_out must
/// agree with the rows seen. False on any deviation.
inline bool JsonChecksum(const std::string& body, size_t width,
                         Checksum* out) {
  *out = Checksum();
  size_t i = body.find("\"rows\":[");
  if (i == std::string::npos) return false;
  i += 8;
  std::vector<int64_t> row(width);
  while (i < body.size() && body[i] == '[') {
    ++i;
    for (size_t c = 0; c < width; ++c) {
      if (!ParseInt(body, &i, &row[c])) return false;
      const char want = c + 1 < width ? ',' : ']';
      if (i >= body.size() || body[i] != want) return false;
      ++i;
    }
    out->AddRow(row.data(), width);
    if (i < body.size() && body[i] == ',') ++i;
  }
  if (i >= body.size() || body[i] != ']') return false;
  size_t r = body.find("\"rows_out\":", i);
  if (r == std::string::npos) return false;
  r += 11;
  int64_t rows_out = 0;
  return ParseInt(body, &r, &rows_out) &&
         static_cast<uint64_t>(rows_out) == out->rows;
}

/// rows_out of a JSON write acknowledgement (rows inserted or deleted);
/// -1 when the body carries none.
inline int64_t JsonRowsOut(const std::string& body) {
  size_t r = body.find("\"rows_out\":");
  int64_t n = -1;
  if (r == std::string::npos) return -1;
  r += 11;
  return ParseInt(body, &r, &n) ? n : -1;
}

// --- Write ledger -------------------------------------------------------

/// The client's record of acknowledged writes against one key column:
/// COUNT and SUM(key) the table must show once every write is applied.
class WriteLedger {
 public:
  WriteLedger(uint64_t base_count, int64_t base_key_sum)
      : count_(base_count), key_sum_(base_key_sum) {}

  /// `rows` rows with key `key` were acknowledged as inserted.
  void Inserted(int64_t key, uint64_t rows) {
    count_ += rows;
    key_sum_ += key * static_cast<int64_t>(rows);
    inserted_rows_ += rows;
  }
  /// `rows` rows with key `key` were acknowledged as deleted.
  void Deleted(int64_t key, uint64_t rows) {
    count_ -= rows;
    key_sum_ -= key * static_cast<int64_t>(rows);
  }

  uint64_t expected_count() const { return count_; }
  int64_t expected_key_sum() const { return key_sum_; }
  uint64_t inserted_rows() const { return inserted_rows_; }

 private:
  uint64_t count_;
  int64_t key_sum_;
  uint64_t inserted_rows_ = 0;
};

// --- Output ---------------------------------------------------------------

/// Shortest decimal text that reads back as exactly `v`.
inline std::string FullDigits(double v) {
  char buf[64];
  auto [ptr, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  return ec == std::errc() ? std::string(buf, ptr) : "0";
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// The benchmark's result line: {"correct", "attempted", "failed",
/// "metrics": {name: {"value", "unit"}}}.
inline std::string ResultLine(bool correct, uint64_t attempted,
                              uint64_t failed,
                              const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    double v = std::isfinite(m.value) ? m.value : 0.0;
    out += (i == 0 ? "\"" : ", \"") + m.name + "\": {\"value\": " +
           FullDigits(v) + ", \"unit\": \"" + m.unit + "\"}";
  }
  out += "}}";
  return out;
}

// --- Self-tests -----------------------------------------------------------

/// Checks the helpers above on hand-computed cases. Returns the first
/// failure's description, or "" when all pass.
inline std::string RunSelfTests() {
  std::vector<double> hundred;
  for (int i = 100; i >= 1; --i) hundred.push_back(i);
  Percentile p95 = NearestRank(hundred, 0.95);
  if (p95.value != 95 || p95.beyond != 5 || p95.samples != 100) {
    return "NearestRank p95 of 1..100";
  }
  Percentile p50 = NearestRank({3, 1, 2}, 0.5);
  if (p50.value != 2 || p50.beyond != 1) return "NearestRank p50 of 3 samples";
  if (NearestRank({7}, 0.95).value != 7) return "NearestRank single sample";
  if (NearestRank({}, 0.5).samples != 0) return "NearestRank empty";

  Checksum direct;
  const int64_t r1[] = {1, 2}, r2[] = {3, -4};
  direct.AddRow(r2, 2);
  direct.AddRow(r1, 2);
  Checksum j, k;
  if (!JsonChecksum("{\"columns\":[\"x\",\"y\"],\"rows\":[[1,2],[3,-4]],"
                    "\"rows_out\":2,\"wall_ms\":0.5}\n",
                    2, &j) ||
      j != direct || j.rows != 2) {
    return "JsonChecksum equals in-process rows";
  }
  if (!JsonChecksum("{\"columns\":[\"x\",\"y\"],\"rows\":[[3,-4],[1,2]],"
                    "\"rows_out\":2}",
                    2, &k) ||
      k != j) {
    return "JsonChecksum is order-independent";
  }
  if (JsonChecksum("{\"columns\":[\"x\",\"y\"],\"rows\":[[2,1],[-4,3]],"
                   "\"rows_out\":2}",
                   2, &k) &&
      k == j) {
    return "JsonChecksum sees value order within a row";
  }
  if (JsonChecksum("{\"columns\":[\"x\",\"y\"],\"rows\":[[1,2],[3]],"
                   "\"rows_out\":2}",
                   2, &k)) {
    return "JsonChecksum short row";
  }
  if (!JsonChecksum("{\"columns\":[\"x\"],\"rows\":[],\"rows_out\":0}", 1,
                    &j) ||
      j.rows != 0) {
    return "JsonChecksum empty result";
  }
  if (JsonChecksum("{\"columns\":[\"x\"],\"rows\":[[1]],\"rows_out\":2}", 1,
                   &j)) {
    return "JsonChecksum rows_out mismatch";
  }
  if (JsonRowsOut("{\"rows\":[[5]],\"rows_out\":5,\"wall_ms\":1}") != 5 ||
      JsonRowsOut("{\"error\":\"x\"}") != -1) {
    return "JsonRowsOut";
  }

  WriteLedger ledger(10, 100);
  ledger.Inserted(7, 3);
  ledger.Deleted(7, 3);
  if (ledger.expected_count() != 10 || ledger.expected_key_sum() != 100) {
    return "WriteLedger insert+delete of one key nets zero";
  }
  ledger.Deleted(5, 2);
  ledger.Inserted(20, 1);
  if (ledger.expected_count() != 9 || ledger.expected_key_sum() != 110 ||
      ledger.inserted_rows() != 4) {
    return "WriteLedger arithmetic";
  }

  if (FullDigits(0.1) != "0.1" || FullDigits(1234.5678) != "1234.5678") {
    return "FullDigits";
  }
  if (ResultLine(true, 3, 0, {{"qps", 2.5, "1/s"}}) !=
      "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": "
      "{\"qps\": {\"value\": 2.5, \"unit\": \"1/s\"}}}") {
    return "ResultLine";
  }
  return "";
}

}  // namespace perfbench

#endif  // CSTORE_PERFBENCH_HARNESS_H_
