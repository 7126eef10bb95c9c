// Robustness tests: corruption detection, resource-exhaustion error paths
// (no crashes, clean Status propagation), and a randomized query fuzzer
// comparing every strategy against a naive evaluator on arbitrary
// encoding/predicate/width combinations.

#include <fcntl.h>
#include <unistd.h>

#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "api/connection.h"
#include "db/database.h"
#include "test_util.h"

namespace cstore {
namespace {

using codec::Encoding;
using codec::Predicate;
using plan::Strategy;
using testing::TempDir;

class RobustnessTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db::Database::Options opts;
    opts.dir = dir_.path();
    auto db = db::Database::Open(opts);
    ASSERT_TRUE(db.ok());
    db_ = std::move(db).value();
  }

  const codec::ColumnReader* Load(const std::string& name, Encoding enc,
                                  const std::vector<Value>& vals) {
    Status st = db_->CreateColumn(name, enc, vals);
    EXPECT_TRUE(st.ok()) << st.ToString();
    auto r = db_->GetColumn(name);
    EXPECT_TRUE(r.ok());
    return *r;
  }

  /// Overwrites `len` bytes at `offset` of a stored column file.
  void CorruptFile(const std::string& name, off_t offset, const char* bytes,
                   size_t len) {
    std::string path = dir_.path() + "/" + name;
    int fd = ::open(path.c_str(), O_WRONLY);
    ASSERT_GE(fd, 0);
    ASSERT_EQ(::pwrite(fd, bytes, len, offset), static_cast<ssize_t>(len));
    ::close(fd);
  }

  TempDir dir_;
  std::unique_ptr<db::Database> db_;
};

TEST_F(RobustnessTest, CorruptBlockMagicSurfacesAsStatus) {
  std::vector<Value> vals = testing::RunnyValues(30000, 10, 1.0, 1);
  const auto* col = Load("c", Encoding::kUncompressed, vals);

  // Smash the second block's magic; the first block stays intact.
  const char garbage[4] = {'X', 'X', 'X', 'X'};
  CorruptFile("c", static_cast<off_t>(kPageSize), garbage, sizeof(garbage));
  db_->DropCaches();

  plan::SelectionQuery q;
  q.columns.push_back({col, Predicate::True()});
  for (Strategy s : plan::kAllStrategies) {
    db_->DropCaches();
    auto r = api::Connection(db_.get()).Query(
        plan::PlanTemplate::Selection(q, s));
    ASSERT_FALSE(r.ok()) << StrategyName(s);
    EXPECT_TRUE(r.status().IsCorruption())
        << StrategyName(s) << ": " << r.status().ToString();
  }
}

TEST_F(RobustnessTest, TruncatedSidecarRejectedOnOpen) {
  std::vector<Value> vals = {1, 2, 3};
  ASSERT_OK(db_->CreateColumn("t", Encoding::kUncompressed, vals));
  // Truncate the sidecar to garbage.
  std::string meta_path = dir_.path() + "/t.meta";
  int fd = ::open(meta_path.c_str(), O_WRONLY | O_TRUNC);
  ASSERT_GE(fd, 0);
  ASSERT_EQ(::write(fd, "xy", 2), 2);
  ::close(fd);

  // A fresh database must refuse to open the column.
  db::Database::Options opts;
  opts.dir = dir_.path();
  ASSERT_OK_AND_ASSIGN(auto db2, db::Database::Open(opts));
  auto r = db2->GetColumn("t");
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsCorruption()) << r.status().ToString();
}

TEST_F(RobustnessTest, BlockCountMismatchDetected) {
  std::vector<Value> vals = testing::RunnyValues(30000, 10, 1.0, 2);
  ASSERT_OK(db_->CreateColumn("m", Encoding::kUncompressed, vals));
  // Truncate the data file to fewer blocks than the sidecar claims.
  std::string path = dir_.path() + "/m";
  ASSERT_EQ(::truncate(path.c_str(), kPageSize), 0);

  db::Database::Options opts;
  opts.dir = dir_.path();
  ASSERT_OK_AND_ASSIGN(auto db2, db::Database::Open(opts));
  auto r = db2->GetColumn("m");
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsCorruption()) << r.status().ToString();
}

TEST_F(RobustnessTest, TinyBufferPoolFailsCleanly) {
  // An LM plan pins a window's worth of mini-column blocks; a pool smaller
  // than that must produce an error Status, never a crash or deadlock.
  db::Database::Options opts;
  opts.dir = dir_.path() + "/tiny";
  opts.pool_frames = 2;
  ASSERT_OK_AND_ASSIGN(auto tiny, db::Database::Open(opts));
  std::vector<Value> vals = testing::RunnyValues(100000, 10, 1.0, 3);
  ASSERT_OK(tiny->CreateColumn("c", Encoding::kUncompressed, vals));
  ASSERT_OK_AND_ASSIGN(const codec::ColumnReader* col, tiny->GetColumn("c"));

  plan::SelectionQuery q;
  q.columns.push_back({col, Predicate::True()});
  auto r = api::Connection(tiny.get()).Query(
      plan::PlanTemplate::Selection(q, Strategy::kLmParallel));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInternal)
      << r.status().ToString();
  // The pool is usable again afterwards (pins were released on error).
  tiny->DropCaches();
}

TEST_F(RobustnessTest, ZeroMatchEveryEncodingEveryStrategy) {
  // Predicates outside the domain must return empty everywhere, cheaply.
  std::vector<Value> vals = testing::RunnyValues(50000, 9, 4.0, 4);
  for (Encoding enc : {Encoding::kUncompressed, Encoding::kRle,
                       Encoding::kBitVector, Encoding::kDict}) {
    const auto* col =
        Load(std::string("z") + codec::EncodingName(enc), enc, vals);
    plan::SelectionQuery q;
    q.columns.push_back({col, Predicate::GreaterThan(1000)});
    for (Strategy s : plan::kAllStrategies) {
      auto r = api::Connection(db_.get()).Query(
          plan::PlanTemplate::Selection(q, s));
      ASSERT_TRUE(r.ok()) << StrategyName(s);
      EXPECT_EQ(r->stats.output_tuples, 0u)
          << codec::EncodingName(enc) << " " << StrategyName(s);
    }
  }
}

// --- Randomized cross-strategy fuzzer ---

/// A random predicate over [0, domain): a bound, equality, range or true.
Predicate RandomPredicate(Random* rng, int domain) {
  switch (rng->Uniform(5)) {
    case 0:
      return Predicate::LessThan(rng->UniformRange(-2, domain + 2));
    case 1:
      return Predicate::GreaterEqual(rng->UniformRange(-2, domain + 2));
    case 2:
      return Predicate::Equal(rng->UniformRange(0, domain));
    case 3: {
      Value lo = rng->UniformRange(0, domain);
      return Predicate::Between(lo, lo + rng->UniformRange(0, domain));
    }
    default:
      return Predicate::True();
  }
}


TEST_F(RobustnessTest, RandomizedQueriesAgreeWithNaive) {
  Random rng(0xfeedface);
  const Encoding encodings[] = {Encoding::kUncompressed, Encoding::kRle,
                                Encoding::kBitVector, Encoding::kDict};

  for (int round = 0; round < 12; ++round) {
    const size_t n = 20000 + rng.Uniform(60000);
    const int width = 1 + static_cast<int>(rng.Uniform(3));

    std::vector<std::vector<Value>> data(width);
    plan::SelectionQuery q;
    std::vector<Predicate> preds;
    for (int c = 0; c < width; ++c) {
      int domain = 5 + static_cast<int>(rng.Uniform(400));
      double run = 1.0 + rng.NextDouble() * 20.0;
      data[c] = rng.Bernoulli(0.5)
                    ? testing::SortedRunnyValues(n, domain, run,
                                                 rng.Next())
                    : testing::RunnyValues(n, domain, run, rng.Next());
      Encoding enc = encodings[rng.Uniform(4)];

      Predicate pred = RandomPredicate(&rng, domain);
      preds.push_back(pred);
      const auto* reader =
          Load("fz" + std::to_string(round) + "_" + std::to_string(c), enc,
               data[c]);
      q.columns.push_back({reader, pred});
    }

    // Naive evaluation.
    uint64_t expected = 0;
    for (size_t i = 0; i < n; ++i) {
      bool pass = true;
      for (int c = 0; c < width; ++c) {
        if (!preds[c].Eval(data[c][i])) {
          pass = false;
          break;
        }
      }
      if (pass) ++expected;
    }

    uint64_t checksum = 0;
    bool first = true;
    for (Strategy s : plan::kAllStrategies) {
      auto r = api::Connection(db_.get()).Query(
          plan::PlanTemplate::Selection(q, s));
      if (!r.ok()) {
        EXPECT_TRUE(r.status().IsNotSupported())
            << "round " << round << " " << StrategyName(s) << ": "
            << r.status().ToString();
        continue;
      }
      EXPECT_EQ(r->stats.output_tuples, expected)
          << "round " << round << " " << StrategyName(s);
      if (first) {
        checksum = r->stats.checksum;
        first = false;
      } else {
        EXPECT_EQ(r->stats.checksum, checksum)
            << "round " << round << " " << StrategyName(s);
      }
    }
  }
}

TEST_F(RobustnessTest, WideRleBlocksAgreeWithNaiveRowByRow) {
  // Runs up to ~2 000 long put several 64K-position windows inside one RLE
  // block, which the rounds above never reach. Every returned row — its
  // position and each value — must equal the naive evaluation's, inline
  // and on a 2-worker session pool with one-window morsels.
  Random rng(0xc0ffee);
  const Encoding encodings[] = {Encoding::kUncompressed, Encoding::kRle,
                                Encoding::kBitVector, Encoding::kDict};
  api::Connection one(db_.get());
  api::Connection::Settings settings;
  settings.num_workers = 2;
  api::Connection two(db_.get(), nullptr, settings);

  for (int round = 0; round < 6; ++round) {
    const size_t n = 100000 + rng.Uniform(200001);
    const int width = 1 + static_cast<int>(rng.Uniform(3));

    std::vector<std::vector<Value>> data(width);
    plan::SelectionQuery q;
    std::vector<Predicate> preds;
    for (int c = 0; c < width; ++c) {
      const int domain = 2 + static_cast<int>(rng.Uniform(60));
      const double run = 1.0 + rng.NextDouble() * 2000.0;
      data[c] = rng.Bernoulli(0.5)
                    ? testing::SortedRunnyValues(n, domain, run, rng.Next())
                    : testing::RunnyValues(n, domain, run, rng.Next());
      // The leading column is always RLE: it is the leaf of every plan.
      const Encoding enc = c == 0 ? Encoding::kRle : encodings[rng.Uniform(4)];
      preds.push_back(RandomPredicate(&rng, domain));
      const auto* reader =
          Load("wide" + std::to_string(round) + "_" + std::to_string(c), enc,
               data[c]);
      q.columns.push_back({reader, preds.back()});
    }

    exec::TupleChunk naive(static_cast<uint32_t>(width));
    std::vector<Value> row(width);
    for (size_t i = 0; i < n; ++i) {
      bool pass = true;
      for (int c = 0; c < width && pass; ++c) {
        pass = preds[c].Eval(data[c][i]);
        row[c] = data[c][i];
      }
      if (pass) naive.AppendTuple(i, row.data());
    }
    const auto want = testing::RowsByPosition(naive);

    for (Strategy s : plan::kAllStrategies) {
      for (int workers : {1, 2}) {
        plan::PlanConfig config;
        config.num_workers = workers;
        config.morsel_positions = kChunkPositions;
        auto r = (workers == 1 ? one : two)
                     .Query(plan::PlanTemplate::Selection(q, s, config));
        const std::string where = "round " + std::to_string(round) + " " +
                                  StrategyName(s) + " workers=" +
                                  std::to_string(workers);
        if (!r.ok()) {
          EXPECT_TRUE(r.status().IsNotSupported())
              << where << ": " << r.status().ToString();
          continue;
        }
        EXPECT_EQ(r->stats.output_tuples, want.size()) << where;
        EXPECT_TRUE(testing::RowsByPosition(r->tuples) == want) << where;
      }
    }
  }
}

}  // namespace
}  // namespace cstore
