// Aggregation-operator tests: GroupAccumulator semantics for every
// function, the RLE run-zip fast path against the general gather path,
// global (no GROUP BY) aggregation, and cross-strategy agreement on
// aggregates over every encoding.

#include <algorithm>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "api/connection.h"
#include "db/database.h"
#include "exec/aggregate.h"
#include "test_util.h"

namespace cstore {
namespace {

using codec::Encoding;
using codec::Predicate;
using exec::AggFunc;
using exec::GroupAccumulator;
using plan::Strategy;
using testing::TempDir;

TEST(GroupAccumulatorTest, SumWithCounts) {
  GroupAccumulator acc(AggFunc::kSum);
  acc.Add(1, 10, 3);  // run contribution: 10 * 3
  acc.Add(2, 5, 1);
  acc.Add(1, 2, 2);
  exec::TupleChunk out;
  acc.Emit(&out);
  ASSERT_EQ(out.num_tuples(), 2u);
  EXPECT_EQ(out.value(0, 0), 1);
  EXPECT_EQ(out.value(0, 1), 34);
  EXPECT_EQ(out.value(1, 0), 2);
  EXPECT_EQ(out.value(1, 1), 5);
}

TEST(GroupAccumulatorTest, CountIgnoresValues) {
  GroupAccumulator acc(AggFunc::kCount);
  acc.Add(7, 1000, 4);
  acc.Add(7, -5, 1);
  exec::TupleChunk out;
  acc.Emit(&out);
  ASSERT_EQ(out.num_tuples(), 1u);
  EXPECT_EQ(out.value(0, 1), 5);
}

TEST(GroupAccumulatorTest, MinMaxInitialization) {
  GroupAccumulator mn(AggFunc::kMin);
  mn.Add(0, 5, 1);
  mn.Add(0, -3, 2);
  mn.Add(0, 9, 1);
  exec::TupleChunk out;
  mn.Emit(&out);
  EXPECT_EQ(out.value(0, 1), -3);

  GroupAccumulator mx(AggFunc::kMax);
  mx.Add(0, -10, 1);
  mx.Add(0, -2, 1);
  mx.Emit(&out);
  EXPECT_EQ(out.value(0, 1), -2);
}

TEST(GroupAccumulatorTest, AvgTruncates) {
  GroupAccumulator acc(AggFunc::kAvg);
  acc.Add(0, 10, 1);
  acc.Add(0, 5, 2);  // sum 20, count 3 → avg 6 (truncated)
  exec::TupleChunk out;
  acc.Emit(&out);
  EXPECT_EQ(out.value(0, 1), 6);
}

TEST(GroupAccumulatorTest, GroupsSortedOnEmit) {
  GroupAccumulator acc(AggFunc::kSum);
  for (Value g : {5, 1, 9, 3, 7}) acc.Add(g, 1, 1);
  exec::TupleChunk out;
  acc.Emit(&out);
  ASSERT_EQ(out.num_tuples(), 5u);
  for (size_t i = 1; i < out.num_tuples(); ++i) {
    EXPECT_LT(out.value(i - 1, 0), out.value(i, 0));
  }
}

/// One row of an accumulator stream: `count` copies of value `v` in
/// `group`.
struct AccRow {
  Value group;
  Value v;
  uint64_t count;
};

/// Emit()'s rows for `rows`, computed with one map probe per row.
std::vector<std::pair<Value, Value>> BruteForceGroups(
    AggFunc func, const std::vector<AccRow>& rows) {
  struct Ref {
    int64_t sum = 0;
    uint64_t count = 0;
    Value min = 0;
    Value max = 0;
  };
  std::map<Value, Ref> groups;
  for (const AccRow& r : rows) {
    auto [it, fresh] = groups.try_emplace(r.group);
    Ref& g = it->second;
    g.sum += r.v * static_cast<int64_t>(r.count);
    g.min = fresh ? r.v : std::min(g.min, r.v);
    g.max = fresh ? r.v : std::max(g.max, r.v);
    g.count += r.count;
  }
  std::vector<std::pair<Value, Value>> out;
  for (const auto& [group, g] : groups) {
    Value agg = 0;
    switch (func) {
      case AggFunc::kSum: agg = g.sum; break;
      case AggFunc::kCount: agg = static_cast<Value>(g.count); break;
      case AggFunc::kMin: agg = g.min; break;
      case AggFunc::kMax: agg = g.max; break;
      case AggFunc::kAvg: agg = g.sum / static_cast<int64_t>(g.count); break;
    }
    out.emplace_back(group, agg);
  }
  return out;
}

std::vector<std::pair<Value, Value>> Emitted(const GroupAccumulator& acc) {
  exec::TupleChunk out;
  acc.Emit(&out);
  std::vector<std::pair<Value, Value>> rows;
  for (size_t i = 0; i < out.num_tuples(); ++i) {
    rows.emplace_back(out.value(i, 0), out.value(i, 1));
  }
  return rows;
}

void AddRows(const std::vector<AccRow>& rows, size_t begin, size_t end,
             GroupAccumulator* acc) {
  for (size_t i = begin; i < end; ++i) {
    acc->Add(rows[i].group, rows[i].v, rows[i].count);
  }
}

TEST(GroupAccumulatorTest, GroupRunsMatchBruteForce) {
  // The accumulator probes its table once per run of equal groups. Streams:
  // groups alternating every row; runs of 100 rows over 7 groups, each
  // group revisited after the cache moved on; and random groups.
  const size_t n = 3000;
  Random rng(103);
  std::vector<std::vector<AccRow>> streams(3);
  for (size_t i = 0; i < n; ++i) {
    const Value v = static_cast<Value>(rng.Uniform(201)) - 100;
    streams[0].push_back({i % 2 ? 5 : -3, v, 1});
    streams[1].push_back({static_cast<Value>((i / 100) % 7), v, 1 + i % 3});
    streams[2].push_back({static_cast<Value>(rng.Uniform(12)), v, 1});
  }
  // Split points fall mid-run (1 550 is inside a run of 100).
  const size_t third = 1000;
  const size_t mid = 1550;
  for (AggFunc func : {AggFunc::kSum, AggFunc::kCount, AggFunc::kMin,
                       AggFunc::kMax, AggFunc::kAvg}) {
    for (size_t si = 0; si < streams.size(); ++si) {
      const std::vector<AccRow>& rows = streams[si];
      const std::string where =
          std::string(exec::AggFuncName(func)) + " stream " +
          std::to_string(si);
      const auto want = BruteForceGroups(func, rows);

      GroupAccumulator whole(func);
      AddRows(rows, 0, n, &whole);
      EXPECT_EQ(Emitted(whole), want) << where;

      // Merged partials, and a merge target that keeps adding afterwards
      // (the merge inserts groups while the cache holds one).
      GroupAccumulator head(func);
      GroupAccumulator middle(func);
      GroupAccumulator tail(func);
      AddRows(rows, 0, third, &head);
      AddRows(rows, third, 2 * third, &middle);
      AddRows(rows, 2 * third, n, &tail);
      GroupAccumulator merged(func);
      merged.MergeFrom(head);
      merged.MergeFrom(middle);
      merged.MergeFrom(tail);
      EXPECT_EQ(Emitted(merged), want) << where << " merged";
      head.MergeFrom(middle);
      AddRows(rows, 2 * third, n, &head);
      EXPECT_EQ(Emitted(head), want) << where << " merge then add";

      // Copies taken mid-stream own their state: each continues on its own.
      GroupAccumulator original(func);
      AddRows(rows, 0, mid, &original);
      GroupAccumulator copied(original);
      GroupAccumulator assigned(func);
      assigned = original;
      AddRows(rows, mid, n, &copied);
      EXPECT_EQ(Emitted(copied), want) << where << " copy";
      AddRows(rows, mid, n, &assigned);
      EXPECT_EQ(Emitted(assigned), want) << where << " assigned";
      const std::vector<AccRow> first(rows.begin(), rows.begin() + mid);
      EXPECT_EQ(Emitted(original), BruteForceGroups(func, first))
          << where << " original after copies";
      AddRows(rows, mid, n, &original);
      EXPECT_EQ(Emitted(original), want) << where << " original";
    }
  }
}

class AggPlanTest : public ::testing::Test {
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

  TempDir dir_;
  std::unique_ptr<db::Database> db_;
};

/// The run-zip fast path (both columns RLE) must agree with the general
/// gather path (same data uncompressed) for every aggregate function.
TEST_F(AggPlanTest, RunZipAgreesWithGeneralPath) {
  const size_t n = 120000;
  std::vector<Value> g = testing::SortedRunnyValues(n, 150, 24.0, 61);
  std::vector<Value> v = testing::SortedRunnyValues(n, 9, 48.0, 62);
  const auto* g_rle = Load("g_rle", Encoding::kRle, g);
  const auto* v_rle = Load("v_rle", Encoding::kRle, v);
  const auto* g_pl = Load("g_pl", Encoding::kUncompressed, g);
  const auto* v_pl = Load("v_pl", Encoding::kUncompressed, v);

  for (AggFunc func : {AggFunc::kSum, AggFunc::kCount, AggFunc::kMin,
                       AggFunc::kMax, AggFunc::kAvg}) {
    plan::AggQuery rle_q;
    rle_q.selection.columns.push_back({g_rle, Predicate::LessThan(100)});
    rle_q.selection.columns.push_back({v_rle, Predicate::LessThan(8)});
    rle_q.func = func;

    plan::AggQuery plain_q = rle_q;
    plain_q.selection.columns[0].reader = g_pl;
    plain_q.selection.columns[1].reader = v_pl;

    auto zip = api::Connection(db_.get()).Query(
        plan::PlanTemplate::Agg(rle_q, Strategy::kLmParallel));
    auto gen = api::Connection(db_.get()).Query(
        plan::PlanTemplate::Agg(plain_q, Strategy::kLmParallel));
    ASSERT_TRUE(zip.ok() && gen.ok());
    ASSERT_EQ(zip->tuples.num_tuples(), gen->tuples.num_tuples())
        << AggFuncName(func);
    for (size_t i = 0; i < zip->tuples.num_tuples(); ++i) {
      EXPECT_EQ(zip->tuples.value(i, 0), gen->tuples.value(i, 0));
      EXPECT_EQ(zip->tuples.value(i, 1), gen->tuples.value(i, 1))
          << AggFuncName(func) << " group " << zip->tuples.value(i, 0);
    }
  }
}

TEST_F(AggPlanTest, GlobalAggregationAllStrategies) {
  const size_t n = 90000;
  std::vector<Value> a = testing::SortedRunnyValues(n, 80, 12.0, 63);
  std::vector<Value> v = testing::RunnyValues(n, 50, 3.0, 64);
  const auto* ra = Load("ga", Encoding::kRle, a);
  const auto* rv = Load("gv", Encoding::kUncompressed, v);

  int64_t sum = 0;
  uint64_t count = 0;
  for (size_t i = 0; i < n; ++i) {
    if (a[i] < 40) {
      sum += v[i];
      ++count;
    }
  }

  plan::AggQuery q;
  // Global aggregate over v where a < 40; v itself is also scanned (its
  // predicate is True).
  q.selection.columns.push_back({rv, Predicate::True()});
  q.selection.columns.push_back({ra, Predicate::LessThan(40)});
  q.agg_index = 0;
  q.global = true;
  q.func = AggFunc::kSum;

  for (Strategy s : plan::kAllStrategies) {
    auto r = api::Connection(db_.get()).Query(plan::PlanTemplate::Agg(q, s));
    ASSERT_TRUE(r.ok()) << StrategyName(s) << ": "
                        << r.status().ToString();
    ASSERT_EQ(r->tuples.num_tuples(), 1u) << StrategyName(s);
    EXPECT_EQ(r->tuples.value(0, 1), sum) << StrategyName(s);
  }

  q.func = AggFunc::kCount;
  auto r = api::Connection(db_.get()).Query(
      plan::PlanTemplate::Agg(q, Strategy::kLmParallel));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->tuples.value(0, 1), static_cast<Value>(count));
}

TEST_F(AggPlanTest, GlobalRleFastPathAgreesWithPlain) {
  // Global SUM over an RLE aggregate column exercises the run-at-a-time
  // accumulation; compare against the same data stored uncompressed.
  const size_t n = 200000;
  std::vector<Value> filt = testing::SortedRunnyValues(n, 400, 16.0, 65);
  std::vector<Value> v = testing::SortedRunnyValues(n, 30, 64.0, 66);
  const auto* rf = Load("fr", Encoding::kRle, filt);
  const auto* v_rle = Load("vr", Encoding::kRle, v);
  const auto* v_pl = Load("vp", Encoding::kUncompressed, v);

  plan::AggQuery q;
  q.selection.columns.push_back({v_rle, Predicate::True()});
  q.selection.columns.push_back({rf, Predicate::Between(50, 250)});
  q.agg_index = 0;
  q.global = true;
  q.func = AggFunc::kSum;
  auto rle_r = api::Connection(db_.get()).Query(
      plan::PlanTemplate::Agg(q, Strategy::kLmParallel));

  q.selection.columns[0].reader = v_pl;
  auto pl_r = api::Connection(db_.get()).Query(
      plan::PlanTemplate::Agg(q, Strategy::kLmParallel));
  ASSERT_TRUE(rle_r.ok() && pl_r.ok());
  EXPECT_EQ(rle_r->tuples.value(0, 1), pl_r->tuples.value(0, 1));
}

TEST_F(AggPlanTest, OutputOnlyRleColumnsAggregateRunAtATime) {
  // A planned conjunction filters neither the group column nor the global
  // aggregate's input below, so no scan attaches their blocks. The late
  // aggregate reads them compressed itself: it zips runs and gathers no
  // value, and answers as every other strategy does.
  const size_t n = 150000;
  std::vector<Value> g = testing::SortedRunnyValues(n, 120, 30.0, 71);
  std::vector<Value> v = testing::RunnyValues(n, 9, 40.0, 72);
  std::vector<Value> f = testing::RunnyValues(n, 100, 1.0, 73);
  const auto* rg = Load("og", Encoding::kRle, g);
  const auto* rv = Load("ov", Encoding::kRle, v);
  const auto* rf = Load("of", Encoding::kUncompressed, f);

  plan::AggQuery grouped;
  grouped.selection.columns.push_back({rg, Predicate::True()});
  grouped.selection.columns.push_back({rv, Predicate::LessThan(7)});
  grouped.selection.filter_order = std::vector<uint32_t>{1};
  grouped.group_index = 0;
  grouped.agg_index = 1;

  plan::AggQuery global;
  global.selection.columns.push_back({rv, Predicate::True()});
  global.selection.columns.push_back({rf, Predicate::LessThan(60)});
  global.selection.filter_order = std::vector<uint32_t>{1};
  global.agg_index = 0;
  global.global = true;

  for (const plan::AggQuery* q : {&grouped, &global}) {
    std::optional<uint64_t> checksum;
    for (Strategy s : plan::kAllStrategies) {
      auto r =
          api::Connection(db_.get()).Query(plan::PlanTemplate::Agg(*q, s));
      ASSERT_TRUE(r.ok()) << StrategyName(s) << ": " << r.status().ToString();
      if (!checksum) checksum = r->stats.checksum;
      EXPECT_EQ(r->stats.checksum, *checksum) << StrategyName(s);
      if (plan::IsLate(s)) {
        EXPECT_EQ(r->stats.exec.values_gathered, 0u) << StrategyName(s);
      }
    }
  }
}

TEST_F(AggPlanTest, AggregationOverEveryEncodingAgrees) {
  const size_t n = 100000;
  std::vector<Value> g = testing::SortedRunnyValues(n, 60, 20.0, 67);
  std::vector<Value> v = testing::RunnyValues(n, 7, 2.0, 68);
  const auto* rg = Load("eg", Encoding::kRle, g);

  std::map<Value, int64_t> expected;
  for (size_t i = 0; i < n; ++i) {
    if (g[i] < 45 && v[i] < 6) expected[g[i]] += v[i];
  }

  for (Encoding enc : {Encoding::kUncompressed, Encoding::kRle,
                       Encoding::kBitVector, Encoding::kDict}) {
    const auto* rv =
        Load(std::string("ev_") + codec::EncodingName(enc), enc, v);
    plan::AggQuery q;
    q.selection.columns.push_back({rg, Predicate::LessThan(45)});
    q.selection.columns.push_back({rv, Predicate::LessThan(6)});
    q.func = AggFunc::kSum;
    for (Strategy s : {Strategy::kEmParallel, Strategy::kLmParallel}) {
      auto r = api::Connection(db_.get()).Query(plan::PlanTemplate::Agg(q, s));
      ASSERT_TRUE(r.ok()) << codec::EncodingName(enc);
      ASSERT_EQ(r->tuples.num_tuples(), expected.size())
          << codec::EncodingName(enc) << " " << StrategyName(s);
      size_t i = 0;
      for (const auto& [grp, sum] : expected) {
        EXPECT_EQ(r->tuples.value(i, 0), grp);
        EXPECT_EQ(r->tuples.value(i, 1), sum)
            << codec::EncodingName(enc) << " " << StrategyName(s);
        ++i;
      }
    }
  }
}

TEST_F(AggPlanTest, EmptyInputProducesNoGroups) {
  std::vector<Value> g = testing::RunnyValues(20000, 10, 1.0, 69);
  std::vector<Value> v = testing::RunnyValues(20000, 10, 1.0, 70);
  const auto* rg = Load("zg", Encoding::kUncompressed, g);
  const auto* rv = Load("zv", Encoding::kUncompressed, v);
  plan::AggQuery q;
  q.selection.columns.push_back({rg, Predicate::LessThan(-100)});
  q.selection.columns.push_back({rv, Predicate::True()});
  for (Strategy s : plan::kAllStrategies) {
    auto r = api::Connection(db_.get()).Query(plan::PlanTemplate::Agg(q, s));
    ASSERT_TRUE(r.ok()) << StrategyName(s);
    EXPECT_EQ(r->tuples.num_tuples(), 0u) << StrategyName(s);
  }
}

}  // namespace
}  // namespace cstore
