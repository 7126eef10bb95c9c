// Cross-strategy equivalence: the paper's central implicit invariant is that
// all four materialization strategies compute the same result. These tests
// verify it on randomized data across encodings and selectivities, plus the
// aggregation and NotSupported paths.

#include <map>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "api/connection.h"
#include "db/database.h"
#include "plan/executor.h"
#include "plan/planner.h"
#include "test_util.h"

namespace cstore {
namespace {

using codec::Encoding;
using codec::Predicate;
using plan::Strategy;
using testing::TempDir;

class PlanTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db::Database::Options opts;
    opts.dir = dir_.path();
    opts.pool_frames = 2048;
    auto db = db::Database::Open(opts);
    ASSERT_TRUE(db.ok());
    db_ = std::move(db).value();
  }

  const codec::ColumnReader* Load(const std::string& name, Encoding enc,
                                  const std::vector<Value>& vals) {
    Status st = db_->CreateColumn(name, enc, vals);
    EXPECT_TRUE(st.ok()) << st.ToString();
    auto r = db_->GetColumn(name);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return *r;
  }

  /// Reference evaluation of a 2-column selection.
  struct Expected {
    uint64_t count = 0;
    std::multiset<std::pair<Value, Value>> rows;
  };
  static Expected NaiveSelect(const std::vector<Value>& a,
                              const std::vector<Value>& b,
                              const Predicate& pa, const Predicate& pb) {
    Expected e;
    for (size_t i = 0; i < a.size(); ++i) {
      if (pa.Eval(a[i]) && pb.Eval(b[i])) {
        e.rows.emplace(a[i], b[i]);
        ++e.count;
      }
    }
    return e;
  }

  TempDir dir_;
  std::unique_ptr<db::Database> db_;
};

struct StrategyCase {
  Encoding enc_a;
  Encoding enc_b;
  double sel_a;  // approximate selectivity of predicate on column a
  double sel_b;
};

class StrategyEquivalenceTest
    : public PlanTest,
      public ::testing::WithParamInterface<StrategyCase> {};

TEST_P(StrategyEquivalenceTest, AllStrategiesAgree) {
  const StrategyCase& tc = GetParam();
  const size_t n = 200000;
  const int domain = 1000;
  // Column a: sorted with runs (like SHIPDATE in a sorted projection);
  // column b: unsorted low-cardinality (like LINENUM).
  std::vector<Value> a = testing::SortedRunnyValues(n, domain, 8.0, 101);
  std::vector<Value> b = testing::RunnyValues(n, 7, 2.0, 103);

  const codec::ColumnReader* ra = Load("a", tc.enc_a, a);
  const codec::ColumnReader* rb = Load("b", tc.enc_b, b);

  Predicate pa = Predicate::LessThan(static_cast<Value>(domain * tc.sel_a));
  Predicate pb = Predicate::LessThan(static_cast<Value>(1 + 7 * tc.sel_b));

  Expected expected = NaiveSelect(a, b, pa, pb);

  plan::SelectionQuery q;
  q.columns.push_back({ra, pa});
  q.columns.push_back({rb, pb});

  uint64_t reference_checksum = 0;
  bool have_reference = false;
  // Exercise both the scanning DS1 path and the sorted-index fast path
  // (column a is sorted, so LM plans may derive its positions by index).
  for (bool use_index : {false, true}) {
    plan::PlanConfig config;
    config.use_sorted_index = use_index;
    for (Strategy s : plan::kAllStrategies) {
      auto result = api::Connection(db_.get()).Query(
          plan::PlanTemplate::Selection(q, s, config));
      if (!result.ok()) {
        // LM-pipelined legitimately refuses bit-vector position filtering
        // (unless the sorted index answers the predicate without values).
        EXPECT_TRUE(s == Strategy::kLmPipelined &&
                    tc.enc_b == Encoding::kBitVector &&
                    result.status().IsNotSupported())
            << StrategyName(s) << ": " << result.status().ToString();
        continue;
      }
      EXPECT_EQ(result->stats.output_tuples, expected.count)
          << StrategyName(s) << " index=" << use_index;
      // Verify actual row content (as a bag).
      std::multiset<std::pair<Value, Value>> rows;
      for (size_t i = 0; i < result->tuples.num_tuples(); ++i) {
        rows.emplace(result->tuples.value(i, 0), result->tuples.value(i, 1));
      }
      EXPECT_TRUE(rows == expected.rows)
          << StrategyName(s) << " rows differ, index=" << use_index;
      if (!have_reference) {
        reference_checksum = result->stats.checksum;
        have_reference = true;
      } else {
        EXPECT_EQ(result->stats.checksum, reference_checksum)
            << StrategyName(s) << " index=" << use_index;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, StrategyEquivalenceTest,
    ::testing::Values(
        // Uncompressed × uncompressed at low/mid/high selectivity.
        StrategyCase{Encoding::kUncompressed, Encoding::kUncompressed, 0.01,
                     0.96},
        StrategyCase{Encoding::kUncompressed, Encoding::kUncompressed, 0.5,
                     0.5},
        StrategyCase{Encoding::kUncompressed, Encoding::kUncompressed, 1.0,
                     1.0},
        // RLE combinations (the paper's Figure 11(b) layout).
        StrategyCase{Encoding::kRle, Encoding::kRle, 0.1, 0.96},
        StrategyCase{Encoding::kRle, Encoding::kUncompressed, 0.7, 0.3},
        StrategyCase{Encoding::kRle, Encoding::kRle, 0.0, 0.5},
        // Bit-vector second column (Figure 11(c)): LM-pipelined must refuse.
        StrategyCase{Encoding::kRle, Encoding::kBitVector, 0.3, 0.96},
        StrategyCase{Encoding::kUncompressed, Encoding::kBitVector, 0.9,
                     0.2},
        // Bit-vector first column is fine for every strategy.
        StrategyCase{Encoding::kBitVector, Encoding::kUncompressed, 0.5,
                     0.5},
        // Dictionary encoding supports every strategy, including
        // LM-pipelined position filtering.
        StrategyCase{Encoding::kDict, Encoding::kDict, 0.3, 0.96},
        StrategyCase{Encoding::kRle, Encoding::kDict, 0.7, 0.5}));

TEST_F(PlanTest, ThreeColumnSelection) {
  const size_t n = 120000;
  std::vector<Value> a = testing::SortedRunnyValues(n, 100, 4.0, 1);
  std::vector<Value> b = testing::RunnyValues(n, 7, 2.0, 2);
  std::vector<Value> c = testing::RunnyValues(n, 50, 1.0, 3);
  const codec::ColumnReader* ra = Load("a3", Encoding::kRle, a);
  const codec::ColumnReader* rb = Load("b3", Encoding::kUncompressed, b);
  const codec::ColumnReader* rc = Load("c3", Encoding::kUncompressed, c);

  plan::SelectionQuery q;
  q.columns.push_back({ra, Predicate::LessThan(60)});
  q.columns.push_back({rb, Predicate::LessThan(6)});
  q.columns.push_back({rc, Predicate::GreaterEqual(10)});

  uint64_t expected = 0;
  for (size_t i = 0; i < n; ++i) {
    if (a[i] < 60 && b[i] < 6 && c[i] >= 10) ++expected;
  }

  uint64_t checksum = 0;
  bool first = true;
  for (Strategy s : plan::kAllStrategies) {
    auto result = api::Connection(db_.get()).Query(
        plan::PlanTemplate::Selection(q, s));
    ASSERT_TRUE(result.ok()) << StrategyName(s);
    EXPECT_EQ(result->stats.output_tuples, expected) << StrategyName(s);
    if (first) {
      checksum = result->stats.checksum;
      first = false;
    } else {
      EXPECT_EQ(result->stats.checksum, checksum) << StrategyName(s);
    }
  }
}

TEST_F(PlanTest, SingleColumnSelection) {
  std::vector<Value> a = testing::RunnyValues(50000, 100, 1.0, 9);
  const codec::ColumnReader* ra = Load("s1", Encoding::kUncompressed, a);
  plan::SelectionQuery q;
  q.columns.push_back({ra, Predicate::LessThan(30)});
  uint64_t expected = testing::NaiveMatches(a, Predicate::LessThan(30)).size();
  for (Strategy s : plan::kAllStrategies) {
    auto result = api::Connection(db_.get()).Query(
        plan::PlanTemplate::Selection(q, s));
    ASSERT_TRUE(result.ok()) << StrategyName(s);
    EXPECT_EQ(result->stats.output_tuples, expected) << StrategyName(s);
  }
}

TEST_F(PlanTest, EmptyResult) {
  std::vector<Value> a = testing::RunnyValues(30000, 10, 1.0, 4);
  std::vector<Value> b = testing::RunnyValues(30000, 10, 1.0, 5);
  const codec::ColumnReader* ra = Load("e1", Encoding::kUncompressed, a);
  const codec::ColumnReader* rb = Load("e2", Encoding::kUncompressed, b);
  plan::SelectionQuery q;
  q.columns.push_back({ra, Predicate::LessThan(-1)});
  q.columns.push_back({rb, Predicate::True()});
  for (Strategy s : plan::kAllStrategies) {
    auto result = api::Connection(db_.get()).Query(
        plan::PlanTemplate::Selection(q, s));
    ASSERT_TRUE(result.ok()) << StrategyName(s);
    EXPECT_EQ(result->stats.output_tuples, 0u) << StrategyName(s);
  }
}

TEST_F(PlanTest, AggregationStrategiesAgree) {
  const size_t n = 150000;
  std::vector<Value> g = testing::SortedRunnyValues(n, 200, 16.0, 21);
  std::vector<Value> v = testing::RunnyValues(n, 7, 2.0, 22);
  const codec::ColumnReader* rg = Load("g", Encoding::kRle, g);
  const codec::ColumnReader* rv = Load("v", Encoding::kRle, v);

  plan::AggQuery q;
  q.selection.columns.push_back({rg, Predicate::LessThan(120)});
  q.selection.columns.push_back({rv, Predicate::LessThan(6)});
  q.group_index = 0;
  q.agg_index = 1;
  q.func = exec::AggFunc::kSum;

  // Reference.
  std::map<Value, int64_t> expected;
  for (size_t i = 0; i < n; ++i) {
    if (g[i] < 120 && v[i] < 6) expected[g[i]] += v[i];
  }

  for (Strategy s : plan::kAllStrategies) {
    auto result = api::Connection(db_.get()).Query(
        plan::PlanTemplate::Agg(q, s));
    ASSERT_TRUE(result.ok()) << StrategyName(s) << ": "
                             << result.status().ToString();
    ASSERT_EQ(result->tuples.num_tuples(), expected.size())
        << StrategyName(s);
    size_t i = 0;
    for (const auto& [grp, sum] : expected) {
      EXPECT_EQ(result->tuples.value(i, 0), grp) << StrategyName(s);
      EXPECT_EQ(result->tuples.value(i, 1), sum) << StrategyName(s);
      ++i;
    }
  }
}

TEST_F(PlanTest, AggregationFunctions) {
  const size_t n = 60000;
  std::vector<Value> g = testing::RunnyValues(n, 10, 4.0, 31);
  std::vector<Value> v = testing::RunnyValues(n, 1000, 1.0, 32);
  const codec::ColumnReader* rg = Load("gf", Encoding::kUncompressed, g);
  const codec::ColumnReader* rv = Load("vf", Encoding::kUncompressed, v);

  for (exec::AggFunc func : {exec::AggFunc::kSum, exec::AggFunc::kCount,
                             exec::AggFunc::kMin, exec::AggFunc::kMax}) {
    plan::AggQuery q;
    q.selection.columns.push_back({rg, Predicate::True()});
    q.selection.columns.push_back({rv, Predicate::LessThan(900)});
    q.func = func;

    std::map<Value, int64_t> expected;
    std::map<Value, int64_t> counts;
    for (size_t i = 0; i < n; ++i) {
      if (v[i] >= 900) continue;
      auto [it, fresh] = expected.emplace(g[i], v[i]);
      ++counts[g[i]];
      if (!fresh) {
        switch (func) {
          case exec::AggFunc::kSum:
            it->second += v[i];
            break;
          case exec::AggFunc::kMin:
            it->second = std::min(it->second, v[i]);
            break;
          case exec::AggFunc::kMax:
            it->second = std::max(it->second, v[i]);
            break;
          case exec::AggFunc::kCount:
          case exec::AggFunc::kAvg:  // covered by AggregateTest suites
            break;
        }
      }
    }

    auto em = api::Connection(db_.get()).Query(
        plan::PlanTemplate::Agg(q, Strategy::kEmParallel));
    auto lm = api::Connection(db_.get()).Query(
        plan::PlanTemplate::Agg(q, Strategy::kLmParallel));
    ASSERT_TRUE(em.ok() && lm.ok());
    ASSERT_EQ(em->tuples.num_tuples(), expected.size());
    ASSERT_EQ(lm->tuples.num_tuples(), expected.size());
    size_t i = 0;
    for (const auto& [grp, agg] : expected) {
      int64_t want =
          (func == exec::AggFunc::kCount) ? counts[grp] : agg;
      EXPECT_EQ(em->tuples.value(i, 0), grp);
      EXPECT_EQ(em->tuples.value(i, 1), want);
      EXPECT_EQ(lm->tuples.value(i, 0), grp);
      EXPECT_EQ(lm->tuples.value(i, 1), want);
      ++i;
    }
  }
}

TEST_F(PlanTest, MulticolumnOffStillCorrect) {
  // Disabling the multi-column optimization must not change results, only
  // force re-fetches.
  const size_t n = 100000;
  std::vector<Value> a = testing::SortedRunnyValues(n, 50, 8.0, 41);
  std::vector<Value> b = testing::RunnyValues(n, 7, 2.0, 42);
  const codec::ColumnReader* ra = Load("m1", Encoding::kRle, a);
  const codec::ColumnReader* rb = Load("m2", Encoding::kUncompressed, b);

  plan::SelectionQuery q;
  q.columns.push_back({ra, Predicate::LessThan(25)});
  q.columns.push_back({rb, Predicate::LessThan(6)});

  plan::PlanConfig with_mc;
  with_mc.use_multicolumn = true;
  plan::PlanConfig without_mc;
  without_mc.use_multicolumn = false;

  for (Strategy s : {Strategy::kLmParallel, Strategy::kLmPipelined}) {
    auto r1 = api::Connection(db_.get()).Query(
        plan::PlanTemplate::Selection(q, s, with_mc));
    auto r2 = api::Connection(db_.get()).Query(
        plan::PlanTemplate::Selection(q, s, without_mc));
    ASSERT_TRUE(r1.ok() && r2.ok());
    EXPECT_EQ(r1->stats.checksum, r2->stats.checksum) << StrategyName(s);
    EXPECT_EQ(r1->stats.output_tuples, r2->stats.output_tuples);
    // Without minis, Merge must re-fetch blocks: strictly more fetches.
    EXPECT_GT(r2->stats.exec.blocks_fetched, r1->stats.exec.blocks_fetched)
        << StrategyName(s);
  }
}

TEST_F(PlanTest, PipelinedSkipsBlocksAtLowSelectivity) {
  const size_t n = 500000;
  std::vector<Value> a = testing::SortedRunnyValues(n, 10000, 4.0, 51);
  std::vector<Value> b = testing::RunnyValues(n, 7, 2.0, 52);
  const codec::ColumnReader* ra = Load("p1", Encoding::kRle, a);
  const codec::ColumnReader* rb = Load("p2", Encoding::kUncompressed, b);

  plan::SelectionQuery q;
  // ~0.5% selectivity on the sorted column: matching positions cluster at
  // the front, so nearly all of column b's blocks contain no candidates.
  q.columns.push_back({ra, Predicate::LessThan(50)});
  q.columns.push_back({rb, Predicate::LessThan(6)});

  auto result = api::Connection(db_.get()).Query(
      plan::PlanTemplate::Selection(q, Strategy::kLmPipelined));
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->stats.exec.blocks_skipped, 0u);
  // The pipelined plan must touch far fewer of b's blocks than a full scan
  // (b has n/8128 ≈ 61 blocks).
  EXPECT_LT(result->stats.exec.blocks_fetched, 30u);
}

TEST_F(PlanTest, SortedIndexProducesSameResultsWithFewerFetches) {
  // A globally sorted first column: LM plans can derive its positions from
  // the index without reading any of its blocks (Section 2.1.1).
  const size_t n = 300000;
  std::vector<Value> a = testing::SortedRunnyValues(n, 5000, 4.0, 81);
  std::vector<Value> b = testing::RunnyValues(n, 7, 2.0, 82);
  const codec::ColumnReader* ra = Load("si_a", Encoding::kUncompressed, a);
  const codec::ColumnReader* rb = Load("si_b", Encoding::kUncompressed, b);
  ASSERT_TRUE(ra->meta().sorted);

  plan::SelectionQuery q;
  q.columns.push_back({ra, Predicate::LessThan(500)});  // clustered 10%
  q.columns.push_back({rb, Predicate::LessThan(6)});

  plan::PlanConfig with_index;
  with_index.use_sorted_index = true;
  plan::PlanConfig no_index;
  no_index.use_sorted_index = false;

  for (Strategy s : {Strategy::kLmParallel, Strategy::kLmPipelined}) {
    auto r1 = api::Connection(db_.get()).Query(
        plan::PlanTemplate::Selection(q, s, with_index));
    auto r2 = api::Connection(db_.get()).Query(
        plan::PlanTemplate::Selection(q, s, no_index));
    ASSERT_TRUE(r1.ok() && r2.ok()) << StrategyName(s);
    EXPECT_EQ(r1->stats.checksum, r2->stats.checksum) << StrategyName(s);
    EXPECT_EQ(r1->stats.output_tuples, r2->stats.output_tuples);
    // The index plan never scans column a for positions.
    EXPECT_LT(r1->stats.exec.blocks_fetched, r2->stats.exec.blocks_fetched)
        << StrategyName(s);
  }
}

TEST_F(PlanTest, SortedIndexAllowsLmPipelinedOverBitVector) {
  // Index lookups never touch values, so even a bit-vector column can be
  // position-filtered when it is sorted.
  const size_t n = 100000;
  std::vector<Value> a = testing::SortedRunnyValues(n, 50, 16.0, 83);
  std::vector<Value> b = testing::SortedRunnyValues(n, 7, 64.0, 84);
  const codec::ColumnReader* ra = Load("sb_a", Encoding::kUncompressed, a);
  const codec::ColumnReader* rb = Load("sb_b", Encoding::kBitVector, b);
  ASSERT_TRUE(rb->meta().sorted);

  plan::SelectionQuery q;
  q.columns.push_back({ra, Predicate::LessThan(25)});
  q.columns.push_back({rb, Predicate::LessThan(4)});

  auto result = api::Connection(db_.get()).Query(
      plan::PlanTemplate::Selection(q, Strategy::kLmPipelined));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  uint64_t expected = 0;
  for (size_t i = 0; i < n; ++i) {
    if (a[i] < 25 && b[i] < 4) ++expected;
  }
  EXPECT_EQ(result->stats.output_tuples, expected);
}

TEST_F(PlanTest, LmPipelinedRejectsBitVectorSecondColumn) {
  std::vector<Value> a = testing::SortedRunnyValues(30000, 10, 4.0, 61);
  std::vector<Value> b = testing::RunnyValues(30000, 7, 1.0, 62);
  const codec::ColumnReader* ra = Load("bv1", Encoding::kUncompressed, a);
  const codec::ColumnReader* rb = Load("bv2", Encoding::kBitVector, b);
  plan::SelectionQuery q;
  q.columns.push_back({ra, Predicate::LessThan(5)});
  q.columns.push_back({rb, Predicate::LessThan(6)});
  auto result = api::Connection(db_.get()).Query(
      plan::PlanTemplate::Selection(q, Strategy::kLmPipelined));
  EXPECT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsNotSupported());
}

TEST_F(PlanTest, FilterOrderReadsOutputOnlyColumnsUnfiltered) {
  // A typed query filters every column in column order, a True predicate
  // included; with a filter order, the plan filters only the listed
  // columns, in that order, and reads the rest for the result. The rows,
  // their layout and the checksum stay the same; the work drops.
  const size_t n = 150000;
  std::vector<Value> a = testing::RunnyValues(n, 50, 1.0, 81);
  // Sorted, so `b < 15` passes no row in the last window.
  std::vector<Value> b = testing::SortedRunnyValues(n, 20, 6.0, 82);
  std::vector<Value> c = testing::RunnyValues(n, 100, 1.0, 83);
  plan::SelectionQuery typed;
  typed.columns.push_back({Load("fo_a", Encoding::kUncompressed, a),
                           Predicate::True()});
  typed.columns.push_back({Load("fo_b", Encoding::kRle, b),
                           Predicate::LessThan(15)});
  typed.columns.push_back({Load("fo_c", Encoding::kUncompressed, c),
                           Predicate::LessThan(10)});
  plan::SelectionQuery planned = typed;
  planned.filter_order = std::vector<uint32_t>{2, 1};

  api::Connection conn(db_.get());
  for (Strategy s : plan::kAllStrategies) {
    auto t = conn.Query(plan::PlanTemplate::Selection(typed, s));
    auto p = conn.Query(plan::PlanTemplate::Selection(planned, s));
    ASSERT_TRUE(t.ok()) << t.status().ToString();
    ASSERT_TRUE(p.ok()) << p.status().ToString();
    EXPECT_TRUE(testing::RowsByPosition(t->tuples) ==
                testing::RowsByPosition(p->tuples))
        << StrategyName(s);
    EXPECT_EQ(t->stats.checksum, p->stats.checksum) << StrategyName(s);
    // The typed plan evaluates a's True predicate on every row (EM-
    // pipelined's DS2 leaf also builds a tuple per row); the planned one
    // never evaluates a.
    EXPECT_GE(t->stats.exec.predicate_evals, n) << StrategyName(s);
    EXPECT_LT(p->stats.exec.predicate_evals, t->stats.exec.predicate_evals)
        << StrategyName(s);
    if (s == Strategy::kEmPipelined) {
      EXPECT_GE(t->stats.exec.tuples_constructed, n);
      EXPECT_LT(p->stats.exec.tuples_constructed,
                t->stats.exec.tuples_constructed);
    }
    if (s == Strategy::kEmParallel) {
      // SPC reads a only in the windows where a row passed.
      EXPECT_LT(p->stats.exec.values_gathered,
                t->stats.exec.values_gathered);
      EXPECT_LT(p->stats.exec.blocks_fetched, t->stats.exec.blocks_fetched);
    }
  }

  // A filter order must list every predicated column, each once.
  plan::SelectionQuery missing = planned;
  missing.filter_order = std::vector<uint32_t>{2};
  plan::SelectionQuery twice = planned;
  twice.filter_order = std::vector<uint32_t>{2, 1, 2};
  for (Strategy s : plan::kAllStrategies) {
    EXPECT_TRUE(plan::BuildSelectionPlan(missing, s, {})
                    .status()
                    .IsInvalidArgument());
    EXPECT_TRUE(
        plan::BuildSelectionPlan(twice, s, {}).status().IsInvalidArgument());
  }
}

TEST_F(PlanTest, InvalidQueriesRejected) {
  plan::SelectionQuery empty;
  EXPECT_FALSE(plan::BuildSelectionPlan(empty, Strategy::kEmParallel, {})
                   .ok());

  std::vector<Value> a = testing::RunnyValues(1000, 10, 1.0, 71);
  std::vector<Value> b = testing::RunnyValues(2000, 10, 1.0, 72);
  const codec::ColumnReader* ra = Load("iv1", Encoding::kUncompressed, a);
  const codec::ColumnReader* rb = Load("iv2", Encoding::kUncompressed, b);
  plan::SelectionQuery mismatched;
  mismatched.columns.push_back({ra, Predicate::True()});
  mismatched.columns.push_back({rb, Predicate::True()});
  EXPECT_FALSE(
      plan::BuildSelectionPlan(mismatched, Strategy::kEmParallel, {}).ok());

  plan::AggQuery bad_agg;
  bad_agg.selection.columns.push_back({ra, Predicate::True()});
  bad_agg.group_index = 0;
  bad_agg.agg_index = 5;  // out of range
  EXPECT_FALSE(plan::BuildAggPlan(bad_agg, Strategy::kEmParallel, {}).ok());
}

}  // namespace
}  // namespace cstore
