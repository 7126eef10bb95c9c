// Shared helpers for the cstore test suite.

#ifndef CSTORE_TESTS_TEST_UTIL_H_
#define CSTORE_TESTS_TEST_UTIL_H_

#include <algorithm>
#include <cstdlib>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "codec/predicate.h"
#include "exec/tuple_chunk.h"
#include "util/common.h"
#include "util/random.h"
#include "util/status.h"

#define ASSERT_OK(expr)                                  \
  do {                                                   \
    ::cstore::Status _st = (expr);                       \
    ASSERT_TRUE(_st.ok()) << _st.ToString();             \
  } while (0)

#define EXPECT_OK(expr)                                  \
  do {                                                   \
    ::cstore::Status _st = (expr);                       \
    EXPECT_TRUE(_st.ok()) << _st.ToString();             \
  } while (0)

#define ASSERT_OK_AND_ASSIGN(lhs, expr)                  \
  ASSERT_OK_AND_ASSIGN_IMPL_(                            \
      CSTORE_STATUS_CONCAT_(_assert_result_, __LINE__), lhs, expr)

#define ASSERT_OK_AND_ASSIGN_IMPL_(tmp, lhs, expr)       \
  auto tmp = (expr);                                     \
  ASSERT_TRUE(tmp.ok()) << tmp.status().ToString();      \
  lhs = std::move(tmp).value()

namespace cstore {
namespace testing {

/// Creates a fresh temporary directory for a test and removes it on
/// destruction.
class TempDir {
 public:
  TempDir() {
    char tmpl[] = "/tmp/cstore_test_XXXXXX";
    char* got = ::mkdtemp(tmpl);
    EXPECT_NE(got, nullptr);
    path_ = got;
  }

  ~TempDir() {
    if (!path_.empty()) {
      std::string cmd = "rm -rf '" + path_ + "'";
      [[maybe_unused]] int rc = std::system(cmd.c_str());
    }
  }

  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

/// Generates `n` values with average run length `run_len` drawn from
/// [0, domain).
inline std::vector<Value> RunnyValues(size_t n, int domain, double run_len,
                                      uint64_t seed) {
  Random rng(seed);
  std::vector<Value> out;
  out.reserve(n);
  while (out.size() < n) {
    Value v = static_cast<Value>(rng.Uniform(domain));
    // Geometric-ish run length with the requested mean.
    size_t len = 1;
    while (rng.NextDouble() < 1.0 - 1.0 / run_len) ++len;
    for (size_t i = 0; i < len && out.size() < n; ++i) out.push_back(v);
  }
  return out;
}

/// Sorted variant (ascending), for clustered-predicate scenarios.
inline std::vector<Value> SortedRunnyValues(size_t n, int domain,
                                            double run_len, uint64_t seed) {
  std::vector<Value> v = RunnyValues(n, domain, run_len, seed);
  std::sort(v.begin(), v.end());
  return v;
}

/// One predicate per Predicate::Op (true, <, <=, =, !=, >=, >, BETWEEN),
/// comparing against `a`; BETWEEN spans [a, b].
inline std::vector<codec::Predicate> OnePredicatePerOp(Value a, Value b) {
  using codec::Predicate;
  return {Predicate::True(),         Predicate::LessThan(a),
          Predicate::LessEqual(a),   Predicate::Equal(a),
          Predicate::NotEqual(a),    Predicate::GreaterEqual(a),
          Predicate::GreaterThan(a), Predicate::Between(a, b)};
}

/// Reference scan: positions in `values` matching `pred`.
inline std::vector<Position> NaiveMatches(const std::vector<Value>& values,
                                          const codec::Predicate& pred) {
  std::vector<Position> out;
  for (size_t i = 0; i < values.size(); ++i) {
    if (pred.Eval(values[i])) out.push_back(i);
  }
  return out;
}

/// Rows of `t` as (position, values...) in position order: parallel runs
/// concatenate worker outputs in worker order, so only the bag is fixed.
inline std::vector<std::vector<Value>> RowsByPosition(
    const exec::TupleChunk& t) {
  std::vector<std::vector<Value>> rows;
  rows.reserve(t.num_tuples());
  for (size_t i = 0; i < t.num_tuples(); ++i) {
    std::vector<Value> row{static_cast<Value>(t.position(i))};
    row.insert(row.end(), t.tuple(i), t.tuple(i) + t.width());
    rows.push_back(std::move(row));
  }
  std::sort(rows.begin(), rows.end());
  return rows;
}

}  // namespace testing
}  // namespace cstore

#endif  // CSTORE_TESTS_TEST_UTIL_H_
