// Robustness tests: corruption detection, resource-exhaustion error paths
// (no crashes, clean Status propagation), a randomized query fuzzer
// comparing every strategy against a naive evaluator on arbitrary
// encoding/predicate/width combinations, and the permutation check: SQL
// statements that differ only in the order they name their conditions and
// select-list columns plan alike.

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "api/connection.h"
#include "db/database.h"
#include "exec/sort.h"
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

// --- Permutation check ------------------------------------------------------

/// One WHERE conjunct: its SQL text and what it selects.
struct Conjunct {
  std::string sql;
  int column;
  Predicate pred;
};

Conjunct RandomConjunct(Random* rng, int column, const std::string& name,
                        int domain) {
  const Value a = rng->UniformRange(-1, domain);
  const std::string av = std::to_string(a);
  switch (rng->Uniform(7)) {
    case 0:
      return {name + " < " + av, column, Predicate::LessThan(a)};
    case 1:
      return {name + " <= " + av, column, Predicate::LessEqual(a)};
    case 2:
      return {name + " = " + av, column, Predicate::Equal(a)};
    case 3:
      return {name + " >= " + av, column, Predicate::GreaterEqual(a)};
    case 4:
      return {name + " > " + av, column, Predicate::GreaterThan(a)};
    case 5: {
      const Value b = a + rng->UniformRange(0, domain / 2);
      return {name + " BETWEEN " + av + " AND " + std::to_string(b), column,
              Predicate::Between(a, b)};
    }
    default:
      return {name + " <> " + av, column, Predicate::NotEqual(a)};
  }
}

/// Every ordering of `items` (at most 3! of them).
template <typename T>
std::vector<std::vector<T>> Permutations(std::vector<T> items) {
  std::vector<size_t> idx(items.size());
  for (size_t i = 0; i < idx.size(); ++i) idx[i] = i;
  std::vector<std::vector<T>> out;
  do {
    std::vector<T> perm;
    for (size_t i : idx) perm.push_back(items[i]);
    out.push_back(std::move(perm));
  } while (std::next_permutation(idx.begin(), idx.end()));
  return out;
}

TEST_F(RobustnessTest, PermutedStatementsPlanAlike) {
  // The planner filters a statement's conditioned columns in rank order and
  // reads the rest for the result, whatever order the SQL names them in.
  // Over a table with RLE-sorted, RLE, plain, dictionary and bit-vector
  // columns, a delete mask and a write-store tail, seeded random
  // selections, GROUP BYs and ORDER BY ... LIMITs (select lists that name
  // unconditioned columns included) run in every order of their WHERE
  // conjuncts and of their select list, under every strategy at 1, 2 and 4
  // workers. Every ordering must return the naive evaluator's rows (mapped
  // back to one column order) and the same NotSupported verdict, and for a
  // fixed strategy and worker count every ordering must do the same work.
  // RunStats::checksum digests the plan's output tuples, whose layout
  // follows the select list, so it is compared across the conjunct orders
  // of each select-list order.
  struct Column {
    std::string name;
    Encoding enc;
    int domain;
    std::vector<Value> values;
  };
  const size_t n = 70000;  // two 64K windows, two morsels when parallel
  std::vector<Column> cols = {
      {"rs", Encoding::kRle, 400, testing::SortedRunnyValues(n, 400, 30, 11)},
      {"rl", Encoding::kRle, 40, testing::RunnyValues(n, 40, 12, 12)},
      {"pl", Encoding::kUncompressed, 100, testing::RunnyValues(n, 100, 1, 13)},
      {"dc", Encoding::kDict, 25, testing::RunnyValues(n, 25, 2, 14)},
      {"bv", Encoding::kBitVector, 8, testing::RunnyValues(n, 8, 1.5, 15)},
  };
  const int k = static_cast<int>(cols.size());
  std::vector<std::pair<std::string, std::string>> schema;
  for (const Column& c : cols) {
    ASSERT_OK(db_->CreateColumn("p." + c.name, c.enc, c.values));
    schema.emplace_back(c.name, "p." + c.name);
  }
  ASSERT_OK(db_->RegisterTable("p", schema));

  // The naive table: live rows as (position, values), deletes applied
  // before the write-store tail is appended.
  std::vector<std::pair<Position, std::vector<Value>>> live;
  for (size_t i = 0; i < n; ++i) {
    if (cols[2].values[i] == 13) continue;
    std::vector<Value> row;
    for (const Column& c : cols) row.push_back(c.values[i]);
    live.emplace_back(i, std::move(row));
  }
  api::Connection writer(db_.get());
  ASSERT_OK(writer.Query("DELETE FROM p WHERE pl = 13").status());
  Random rng(0x5eed);
  std::string insert = "INSERT INTO p VALUES ";
  for (int r = 0; r < 40; ++r) {
    std::vector<Value> row;
    for (const Column& c : cols) row.push_back(rng.UniformRange(0, c.domain));
    insert += std::string(r ? ", (" : "(");
    for (int c = 0; c < k; ++c) {
      insert += (c ? ", " : "") + std::to_string(row[c]);
    }
    insert += ")";
    live.emplace_back(n + r, std::move(row));
  }
  ASSERT_OK(writer.Query(insert).status());

  std::map<int, std::unique_ptr<api::Connection>> conns;
  for (int workers : {1, 2, 4}) {
    api::Connection::Settings settings;
    settings.num_workers = workers;
    conns[workers] =
        std::make_unique<api::Connection>(db_.get(), nullptr, settings);
  }

  enum Shape { kSelect, kGroupBy, kOrderBy };
  const char* funcs[] = {"SUM", "COUNT", "MIN", "MAX"};
  for (int round = 0; round < 6; ++round) {
    const Shape shape = static_cast<Shape>(round % 3);
    // 1-3 conjuncts over distinct columns.
    std::vector<int> order(k);
    for (int c = 0; c < k; ++c) order[c] = c;
    std::shuffle(order.begin(), order.end(),
                 std::mt19937_64(rng.Next()));
    std::vector<Conjunct> conjuncts;
    const int nconj = 1 + static_cast<int>(rng.Uniform(3));
    for (int i = 0; i < nconj; ++i) {
      const Column& c = cols[order[i]];
      conjuncts.push_back(RandomConjunct(&rng, order[i], c.name, c.domain));
    }
    // Select items: column indices; a GROUP BY's are (group, aggregate).
    std::shuffle(order.begin(), order.end(),
                 std::mt19937_64(rng.Next()));
    const int nitems =
        shape == kGroupBy ? 2 : 1 + static_cast<int>(rng.Uniform(3));
    std::vector<int> items(order.begin(), order.begin() + nitems);
    const char* func = funcs[rng.Uniform(4)];
    const int sort_col = static_cast<int>(rng.Uniform(k));
    const bool desc = rng.Bernoulli(0.5);
    const uint64_t limit = 1 + rng.Uniform(300);
    auto item_sql = [&](int i) {
      return shape == kGroupBy && i == items[1]
                 ? std::string(func) + "(" + cols[i].name + ")"
                 : cols[i].name;
    };

    // Naive answer, in `items` order.
    std::vector<std::pair<Position, std::vector<Value>>> pass;
    for (const auto& [pos, row] : live) {
      bool ok = true;
      for (const Conjunct& cj : conjuncts) ok = ok && cj.pred.Eval(row[cj.column]);
      if (ok) pass.emplace_back(pos, row);
    }
    std::vector<std::vector<Value>> want;
    if (shape == kGroupBy) {
      std::map<Value, std::pair<Value, uint64_t>> groups;  // acc, count
      for (const auto& [pos, row] : pass) {
        const Value v = row[items[1]];
        auto [it, fresh] = groups.try_emplace(row[items[0]], v, 0);
        Value& acc = it->second.first;
        if (!fresh) {
          if (func[1] == 'U') acc += v;
          if (func[1] == 'I') acc = std::min(acc, v);
          if (func[1] == 'A') acc = std::max(acc, v);
        }
        ++it->second.second;
      }
      for (const auto& [g, state] : groups) {
        want.push_back({g, func[0] == 'C' ? static_cast<Value>(state.second)
                                          : state.first});
      }
    } else {
      if (shape == kOrderBy) {
        std::sort(pass.begin(), pass.end(), [&](const auto& a, const auto& b) {
          return exec::SortRowLess(a.second[sort_col], a.first,
                                   b.second[sort_col], b.first, desc);
        });
        if (pass.size() > limit) pass.resize(limit);
      }
      for (const auto& [pos, row] : pass) {
        std::vector<Value> out{static_cast<Value>(pos)};
        for (int i : items) out.push_back(row[i]);
        want.push_back(std::move(out));
      }
    }

    // Work one ordering does, which every other must repeat exactly.
    using Work = std::tuple<uint64_t, uint64_t, uint64_t, uint64_t, uint64_t>;
    struct Cell {
      bool seen = false;
      bool supported = false;
      Work work;
      std::map<std::vector<int>, uint64_t> checksum;  // per select order
    };
    std::map<std::pair<int, int>, Cell> cells;  // (strategy, workers)
    for (const std::vector<Conjunct>& conj : Permutations(conjuncts)) {
      for (const std::vector<int>& sel : Permutations(items)) {
        std::string sql = "SELECT ";
        for (size_t i = 0; i < sel.size(); ++i) {
          sql += (i ? ", " : "") + item_sql(sel[i]);
        }
        sql += " FROM p WHERE ";
        for (size_t i = 0; i < conj.size(); ++i) {
          sql += (i ? " AND " : "") + conj[i].sql;
        }
        if (shape == kGroupBy) sql += " GROUP BY " + cols[items[0]].name;
        if (shape == kOrderBy) {
          sql += " ORDER BY " + cols[sort_col].name + (desc ? " DESC" : "") +
                 " LIMIT " + std::to_string(limit);
        }
        // The advisor ranks only what the planner builds.
        const Status picked = conns[1]->Query(sql).status();
        EXPECT_TRUE(picked.ok()) << sql << ": " << picked.ToString();
        for (int s = 0; s < 4; ++s) {
          for (int workers : {1, 2, 4}) {
            const Strategy strategy = plan::kAllStrategies[s];
            const std::string where = "round " + std::to_string(round) + " " +
                                      StrategyName(strategy) + " workers=" +
                                      std::to_string(workers) + ": " + sql;
            auto r = conns[workers]->Query(sql, strategy);
            Cell& cell = cells[{s, workers}];
            if (!cell.seen) {
              cell.seen = true;
              cell.supported = r.ok();
            }
            if (!r.ok()) {
              EXPECT_TRUE(r.status().IsNotSupported())
                  << where << ": " << r.status().ToString();
              EXPECT_FALSE(cell.supported) << where;
              continue;
            }
            ASSERT_TRUE(cell.supported) << where;
            // Map the result back to `items` order.
            std::vector<std::vector<Value>> got;
            const exec::TupleChunk& t = r->tuples;
            for (size_t row = 0; row < t.num_tuples(); ++row) {
              std::vector<Value> out;
              if (shape != kGroupBy) {
                out.push_back(static_cast<Value>(t.position(row)));
              }
              for (int i : items) {
                const size_t slot =
                    std::find(sel.begin(), sel.end(), i) - sel.begin();
                out.push_back(t.value(row, static_cast<uint32_t>(slot)));
              }
              got.push_back(std::move(out));
            }
            if (shape == kSelect) std::sort(got.begin(), got.end());
            EXPECT_TRUE(got == want)
                << where << ": " << got.size() << " rows, want "
                << want.size();
            const exec::ExecStats& e = r->stats.exec;
            const Work work{e.predicate_evals, e.blocks_fetched,
                            e.tuples_constructed, e.values_gathered,
                            e.position_ands};
            auto [it, first] = cell.checksum.try_emplace(sel, r->stats.checksum);
            if (cell.checksum.size() == 1 && first) {
              cell.work = work;
            } else {
              EXPECT_TRUE(work == cell.work) << where;
              EXPECT_EQ(r->stats.checksum, it->second) << where;
            }
          }
        }
      }
    }
    for (int workers : {1, 2, 4}) {
      // SPC builds every statement.
      EXPECT_TRUE((cells[{1, workers}].supported)) << "round " << round;
    }
  }
}

}  // namespace
}  // namespace cstore
