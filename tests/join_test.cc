// Join tests: the three inner-table materialization strategies must return
// identical results, matching a naive reference join; statistics reflect
// their different access patterns.
//
// The two-phase (build/probe) refactor adds two invariants, checked below:
// every right-mode × left-mode result bag is bit-identical across 1/2/4
// probe workers, and joins against write-carrying snapshots (pending
// inserts + deletes + an UPDATE'd row, on both sides) match a brute-force
// reference join over the visible rows.

#include <limits>
#include <map>
#include <memory>
#include <random>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "api/connection.h"
#include "db/database.h"
#include "exec/flat_map.h"
#include "test_util.h"

namespace cstore {
namespace {

using codec::Encoding;
using codec::Predicate;
using exec::JoinRightMode;
using testing::TempDir;

class JoinTest : public ::testing::Test {
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
    EXPECT_TRUE(r.ok());
    return *r;
  }

  struct Tables {
    std::vector<Value> left_key;
    std::vector<Value> left_payload;
    std::vector<Value> right_key;  // unique
    std::vector<Value> right_payload;
    plan::JoinQuery query;
  };

  Tables MakeTables(size_t nleft, size_t nright, uint64_t seed) {
    Tables t;
    Random rng(seed);
    for (size_t i = 0; i < nright; ++i) {
      t.right_key.push_back(static_cast<Value>(i + 1));
      t.right_payload.push_back(static_cast<Value>(rng.Uniform(25)));
    }
    for (size_t i = 0; i < nleft; ++i) {
      t.left_key.push_back(
          static_cast<Value>(rng.UniformRange(1, static_cast<int64_t>(nright))));
      t.left_payload.push_back(static_cast<Value>(rng.Uniform(3000)));
    }
    t.query.left_key = Load("lk" + std::to_string(seed),
                            Encoding::kUncompressed, t.left_key);
    t.query.left_payload = Load("lp" + std::to_string(seed),
                                Encoding::kUncompressed, t.left_payload);
    t.query.right_key = Load("rk" + std::to_string(seed),
                             Encoding::kUncompressed, t.right_key);
    t.query.right_payload = Load("rp" + std::to_string(seed),
                                 Encoding::kUncompressed, t.right_payload);
    return t;
  }

  /// Reference join as a bag of (left_payload, right_payload) rows.
  static std::multiset<std::pair<Value, Value>> NaiveJoin(const Tables& t,
                                                          Value x) {
    std::map<Value, Value> right;
    for (size_t i = 0; i < t.right_key.size(); ++i) {
      right[t.right_key[i]] = t.right_payload[i];
    }
    std::multiset<std::pair<Value, Value>> out;
    for (size_t i = 0; i < t.left_key.size(); ++i) {
      if (t.left_key[i] >= x) continue;
      auto it = right.find(t.left_key[i]);
      if (it != right.end()) {
        out.emplace(t.left_payload[i], it->second);
      }
    }
    return out;
  }

  TempDir dir_;
  std::unique_ptr<db::Database> db_;
};

constexpr JoinRightMode kAllModes[] = {JoinRightMode::kMaterialized,
                                       JoinRightMode::kMultiColumn,
                                       JoinRightMode::kSingleColumn};

TEST_F(JoinTest, AllModesMatchNaiveJoin) {
  Tables t = MakeTables(120000, 8000, 1);
  for (Value x : {Value{0}, Value{2000}, Value{8001}}) {
    t.query.left_pred = Predicate::LessThan(x);
    auto expected = NaiveJoin(t, x);
    for (JoinRightMode mode : kAllModes) {
      auto result = api::Connection(db_.get()).Query(
          plan::PlanTemplate::Join(t.query, mode));
      ASSERT_TRUE(result.ok())
          << JoinRightModeName(mode) << ": " << result.status().ToString();
      std::multiset<std::pair<Value, Value>> got;
      for (size_t i = 0; i < result->tuples.num_tuples(); ++i) {
        got.emplace(result->tuples.value(i, 0), result->tuples.value(i, 1));
      }
      EXPECT_TRUE(got == expected)
          << JoinRightModeName(mode) << " x=" << x << " got " << got.size()
          << " expected " << expected.size();
    }
  }
}

TEST_F(JoinTest, ModesAgreeOnChecksum) {
  Tables t = MakeTables(200000, 15000, 2);
  t.query.left_pred = Predicate::LessThan(9000);
  uint64_t checksum = 0;
  bool first = true;
  for (JoinRightMode mode : kAllModes) {
    auto result = api::Connection(db_.get()).Query(
        plan::PlanTemplate::Join(t.query, mode));
    ASSERT_TRUE(result.ok());
    if (first) {
      checksum = result->stats.checksum;
      first = false;
    } else {
      EXPECT_EQ(result->stats.checksum, checksum) << JoinRightModeName(mode);
    }
  }
}

TEST_F(JoinTest, MaterializedConstructsInnerTuplesAtBuild) {
  Tables t = MakeTables(50000, 5000, 3);
  t.query.left_pred = Predicate::LessThan(1);  // empty probe result
  auto mat = api::Connection(db_.get()).Query(
      plan::PlanTemplate::Join(t.query, JoinRightMode::kMaterialized));
  auto sc = api::Connection(db_.get()).Query(
      plan::PlanTemplate::Join(t.query, JoinRightMode::kSingleColumn));
  ASSERT_TRUE(mat.ok() && sc.ok());
  // Even with no output, the materialized mode built all inner tuples.
  EXPECT_GE(mat->stats.exec.tuples_constructed, 5000u);
  EXPECT_LT(sc->stats.exec.tuples_constructed, 100u);
}

TEST_F(JoinTest, DanglingForeignKeysDropped) {
  // Left keys outside the right table's domain must not match.
  std::vector<Value> lk = {1, 2, 999, 3, 500};
  std::vector<Value> lp = {10, 20, 30, 40, 50};
  std::vector<Value> rk = {1, 2, 3};
  std::vector<Value> rp = {7, 8, 9};
  plan::JoinQuery q;
  q.left_key = Load("dk", Encoding::kUncompressed, lk);
  q.left_payload = Load("dp", Encoding::kUncompressed, lp);
  q.right_key = Load("dr", Encoding::kUncompressed, rk);
  q.right_payload = Load("dq", Encoding::kUncompressed, rp);
  q.left_pred = Predicate::True();
  for (JoinRightMode mode : kAllModes) {
    auto result = api::Connection(db_.get()).Query(
        plan::PlanTemplate::Join(q, mode));
    ASSERT_TRUE(result.ok());
    ASSERT_EQ(result->tuples.num_tuples(), 3u) << JoinRightModeName(mode);
    EXPECT_EQ(result->tuples.value(0, 0), 10);
    EXPECT_EQ(result->tuples.value(0, 1), 7);
    EXPECT_EQ(result->tuples.value(2, 0), 40);
    EXPECT_EQ(result->tuples.value(2, 1), 9);
  }
}

TEST_F(JoinTest, RleLeftPayloadWorks) {
  // The left payload can be RLE encoded; the in-order gather handles runs.
  const size_t n = 80000;
  Random rng(5);
  std::vector<Value> lk;
  std::vector<Value> lp = testing::SortedRunnyValues(n, 50, 100.0, 5);
  std::vector<Value> rk;
  std::vector<Value> rp;
  for (size_t i = 0; i < 4000; ++i) {
    rk.push_back(static_cast<Value>(i + 1));
    rp.push_back(static_cast<Value>(rng.Uniform(25)));
  }
  for (size_t i = 0; i < n; ++i) {
    lk.push_back(static_cast<Value>(rng.UniformRange(1, 4000)));
  }
  plan::JoinQuery q;
  q.left_key = Load("rl_lk", Encoding::kUncompressed, lk);
  q.left_payload = Load("rl_lp", Encoding::kRle, lp);
  q.right_key = Load("rl_rk", Encoding::kUncompressed, rk);
  q.right_payload = Load("rl_rp", Encoding::kUncompressed, rp);
  q.left_pred = Predicate::LessThan(2000);

  std::multiset<std::pair<Value, Value>> expected;
  for (size_t i = 0; i < n; ++i) {
    if (lk[i] < 2000) expected.emplace(lp[i], rp[lk[i] - 1]);
  }
  for (JoinRightMode mode : kAllModes) {
    auto result = api::Connection(db_.get()).Query(
        plan::PlanTemplate::Join(q, mode));
    ASSERT_TRUE(result.ok());
    std::multiset<std::pair<Value, Value>> got;
    for (size_t i = 0; i < result->tuples.num_tuples(); ++i) {
      got.emplace(result->tuples.value(i, 0), result->tuples.value(i, 1));
    }
    EXPECT_TRUE(got == expected) << JoinRightModeName(mode);
  }
}

TEST_F(JoinTest, EarlyLeftModeAgreesWithLate) {
  Tables t = MakeTables(90000, 6000, 11);
  for (Value x : {Value{0}, Value{3000}, Value{6001}}) {
    t.query.left_pred = Predicate::LessThan(x);
    auto expected = NaiveJoin(t, x);
    for (JoinRightMode mode : kAllModes) {
      plan::JoinQuery early = t.query;
      early.left_mode = exec::JoinLeftMode::kEarly;
      auto result = api::Connection(db_.get()).Query(
          plan::PlanTemplate::Join(early, mode));
      ASSERT_TRUE(result.ok())
          << JoinRightModeName(mode) << ": " << result.status().ToString();
      std::multiset<std::pair<Value, Value>> got;
      for (size_t i = 0; i < result->tuples.num_tuples(); ++i) {
        got.emplace(result->tuples.value(i, 0), result->tuples.value(i, 1));
      }
      EXPECT_TRUE(got == expected)
          << "early-left " << JoinRightModeName(mode) << " x=" << x;
    }
  }
}

TEST_F(JoinTest, EarlyLeftScansEverythingLateSkips) {
  // With an empty probe predicate, the late outer side still avoids
  // constructing tuples, while the early side constructs none either —
  // but the early side always scans the payload column.
  Tables t = MakeTables(80000, 4000, 13);
  t.query.left_pred = Predicate::LessThan(1);  // ~nothing matches
  plan::JoinQuery late = t.query;
  plan::JoinQuery early = t.query;
  early.left_mode = exec::JoinLeftMode::kEarly;
  auto late_r = api::Connection(db_.get()).Query(
      plan::PlanTemplate::Join(late, JoinRightMode::kMaterialized));
  auto early_r = api::Connection(db_.get()).Query(
      plan::PlanTemplate::Join(early, JoinRightMode::kMaterialized));
  ASSERT_TRUE(late_r.ok() && early_r.ok());
  EXPECT_EQ(late_r->stats.output_tuples, early_r->stats.output_tuples);
  // Early scans both outer columns fully; late never touches the payload.
  EXPECT_GT(early_r->stats.exec.blocks_fetched,
            late_r->stats.exec.blocks_fetched);
}

// --- The build's flat hash table --------------------------------------------

TEST(FlatMapTest, EdgeKeysCollisionsDuplicatesAndMisses) {
  // Sized for 8 keys: 16 slots, so a key's home slot is the top 4 bits of
  // its Fibonacci multiply-shift.
  exec::FlatMap<Value> map(8);
  ASSERT_EQ(map.capacity(), 16u);
  auto home = [](Value k) {
    return (static_cast<uint64_t>(k) * UINT64_C(0x9E3779B97F4A7C15)) >> 60;
  };
  // Four keys sharing one home slot: three go in, so the second and third
  // probe past it; the fourth is a miss that must walk the whole chain.
  std::vector<Value> same_home;
  for (Value k = 1; same_home.size() < 4; ++k) {
    if (home(k) == home(1)) same_home.push_back(k);
  }
  const Value kEdge[] = {0, -1, std::numeric_limits<Value>::min(),
                         std::numeric_limits<Value>::max()};
  std::vector<Value> keys(kEdge, kEdge + 4);
  keys.insert(keys.end(), same_home.begin(), same_home.begin() + 3);
  for (size_t i = 0; i < keys.size(); ++i) {
    EXPECT_TRUE(map.Insert(keys[i], static_cast<Value>(100 + i)))
        << keys[i];
  }
  EXPECT_EQ(map.size(), keys.size());
  for (size_t i = 0; i < keys.size(); ++i) {
    const Value* v = map.Find(keys[i]);
    ASSERT_NE(v, nullptr) << keys[i];
    EXPECT_EQ(*v, static_cast<Value>(100 + i)) << keys[i];
  }
  // A duplicate key keeps its first value.
  for (Value k : {same_home[1], kEdge[0], kEdge[2]}) {
    EXPECT_FALSE(map.Insert(k, 999)) << k;
    ASSERT_NE(map.Find(k), nullptr) << k;
    EXPECT_NE(*map.Find(k), 999) << k;
  }
  EXPECT_EQ(map.size(), keys.size());
  for (Value k : {same_home[3], Value{1} << 40, Value{-2}}) {
    EXPECT_EQ(map.Find(k), nullptr) << k;
  }

  exec::FlatMap<Position> empty(0);
  for (Value k : kEdge) EXPECT_EQ(empty.Find(k), nullptr) << k;
}

TEST(FlatMapTest, FilledToSizedCountFindsEveryKey) {
  // Random distinct keys, filled to exactly the sized count: a power of
  // two, so the table ends at its full load of 1/2 and long probe chains
  // form.
  const size_t n = 4096;
  exec::FlatMap<Position> map(n);
  std::mt19937_64 rng(19);
  std::vector<Value> keys;
  std::set<Value> seen;
  while (keys.size() < n) {
    const Value k = static_cast<Value>(rng());
    if (seen.insert(k).second) keys.push_back(k);
  }
  for (size_t i = 0; i < n; ++i) EXPECT_TRUE(map.Insert(keys[i], i));
  EXPECT_EQ(map.size(), n);
  EXPECT_EQ(2 * map.size(), map.capacity());
  for (size_t i = 0; i < n; ++i) {
    const Position* p = map.Find(keys[i]);
    ASSERT_NE(p, nullptr) << keys[i];
    EXPECT_EQ(*p, i);
  }
  for (size_t i = 0; i < n; ++i) {
    const Value k = static_cast<Value>(rng());
    if (seen.count(k) == 0) {
      EXPECT_EQ(map.Find(k), nullptr) << k;
    }
  }
}

// --- Parallel, snapshot-aware joins (two-phase build/probe) -----------------

constexpr int kWorkerCounts[] = {1, 2, 4};
constexpr exec::JoinLeftMode kLeftModes[] = {exec::JoinLeftMode::kLate,
                                             exec::JoinLeftMode::kEarly};

/// One-window morsels so 2/4 workers genuinely partition the probe.
plan::PlanConfig JoinWorkerConfig(int workers) {
  plan::PlanConfig config;
  config.num_workers = workers;
  config.morsel_positions = kChunkPositions;
  return config;
}

TEST_F(JoinTest, ParallelJoinBitIdenticalAcrossWorkers) {
  // ~4 chunk windows on the outer side: enough morsels for 4 workers. The
  // second input's inner side spans three chunk windows.
  struct Input {
    size_t nleft;
    size_t nright;
    uint64_t seed;
    Value x;
  };
  for (const Input& in : {Input{260000, 9000, 21, 4500},
                          Input{260000, 150000, 41, 70000}}) {
    SCOPED_TRACE("seed=" + std::to_string(in.seed));
    Tables t = MakeTables(in.nleft, in.nright, in.seed);
    t.query.left_pred = Predicate::LessThan(in.x);
    auto expected = NaiveJoin(t, in.x);
    for (JoinRightMode mode : kAllModes) {
      for (exec::JoinLeftMode lm : kLeftModes) {
        plan::JoinQuery q = t.query;
        q.left_mode = lm;
        uint64_t serial_checksum = 0;
        uint64_t serial_tuples = 0;
        for (int workers : kWorkerCounts) {
          auto r = api::Connection(db_.get()).Query(
              plan::PlanTemplate::Join(q, mode, JoinWorkerConfig(workers)));
          ASSERT_TRUE(r.ok()) << JoinRightModeName(mode) << " workers="
                              << workers << ": " << r.status().ToString();
          // The build phase is reported as a wall time on both routes
          // (inline at 1 worker, the session pool above), inside the
          // query's own.
          EXPECT_GT(r->stats.build_wall_micros, 0u)
              << JoinRightModeName(mode) << " workers=" << workers;
          EXPECT_LE(static_cast<double>(r->stats.build_wall_micros),
                    r->stats.wall_micros)
              << JoinRightModeName(mode) << " workers=" << workers;
          if (workers == 1) {
            serial_checksum = r->stats.checksum;
            serial_tuples = r->stats.output_tuples;
            EXPECT_EQ(serial_tuples, expected.size())
                << JoinRightModeName(mode);
          } else {
            EXPECT_EQ(r->stats.checksum, serial_checksum)
                << JoinRightModeName(mode) << " left="
                << (lm == exec::JoinLeftMode::kLate ? "late" : "early")
                << " workers=" << workers;
            EXPECT_EQ(r->stats.output_tuples, serial_tuples)
                << JoinRightModeName(mode) << " workers=" << workers;
            EXPECT_EQ(r->tuples.num_tuples(), serial_tuples);
          }
        }
      }
    }
  }
}

TEST_F(JoinTest, PooledSchedulerJoinMatchesSerial) {
  // The shared-scheduler path: the build barrier runs as a phase-one task,
  // probe morsels interleave with a concurrent selection on one pool.
  Tables t = MakeTables(260000, 7000, 23);
  t.query.left_pred = Predicate::LessThan(3500);
  plan::SelectionQuery sel;
  sel.columns.push_back({t.query.left_payload, Predicate::True()});

  std::vector<uint64_t> serial_sums;
  for (JoinRightMode mode : kAllModes) {
    auto r = api::Connection(db_.get()).Query(
        plan::PlanTemplate::Join(t.query, mode));
    ASSERT_TRUE(r.ok());
    serial_sums.push_back(r->stats.checksum);
  }

  sched::Scheduler::Options so;
  so.num_workers = 4;
  sched::Scheduler scheduler(so);
  api::Connection conn(db_.get(), &scheduler);
  std::vector<api::PendingResult> pending;
  for (JoinRightMode mode : kAllModes) {
    pending.push_back(conn.Submit(
        plan::PlanTemplate::Join(t.query, mode, JoinWorkerConfig(4))));
    pending.push_back(conn.Submit(plan::PlanTemplate::Selection(
        sel, plan::Strategy::kLmParallel, JoinWorkerConfig(4))));
  }
  for (size_t i = 0; i < pending.size(); ++i) {
    auto r = pending[i].Wait();
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    if (i % 2 == 0) {
      EXPECT_EQ(r->stats.checksum, serial_sums[i / 2])
          << JoinRightModeName(kAllModes[i / 2]);
    }
  }
}

/// Reference row state mirroring a table's inserts/deletes/updates.
struct RefRows {
  std::vector<Value> key;
  std::vector<Value> payload;
  std::vector<bool> deleted;

  void Append(Value k, Value p) {
    key.push_back(k);
    payload.push_back(p);
    deleted.push_back(false);
  }
  void DeleteWhereKeyEq(Value k) {
    for (size_t i = 0; i < key.size(); ++i) {
      if (!deleted[i] && key[i] == k) deleted[i] = true;
    }
  }
  void DeleteWherePayloadEq(Value p) {
    for (size_t i = 0; i < key.size(); ++i) {
      if (!deleted[i] && payload[i] == p) deleted[i] = true;
    }
  }
  /// UPDATE payload WHERE key == k (delete + re-insert, like the engine).
  void UpdatePayloadWhereKeyEq(Value k, Value p) {
    std::vector<Value> hit;
    for (size_t i = 0; i < key.size(); ++i) {
      if (!deleted[i] && key[i] == k) {
        deleted[i] = true;
        hit.push_back(key[i]);
      }
    }
    for (Value kk : hit) Append(kk, p);
  }
};

class JoinWriteTest : public JoinTest {
 protected:
  /// Creates + registers a two-column table (key, payload).
  void MakeWritableTable(const std::string& name,
                         const std::vector<Value>& keys,
                         const std::vector<Value>& payloads) {
    ASSERT_OK(db_->CreateColumn(name + "_key", Encoding::kUncompressed, keys));
    ASSERT_OK(db_->CreateColumn(name + "_payload", Encoding::kUncompressed,
                                payloads));
    ASSERT_OK(db_->RegisterTable(
        name, {{"key", name + "_key"}, {"payload", name + "_payload"}}));
  }

  /// Brute-force join of the reference states: inner keys are unique among
  /// live rows; outer rows with key < x join to the live inner row.
  static std::multiset<std::pair<Value, Value>> RefJoin(const RefRows& outer,
                                                        const RefRows& inner,
                                                        Value x) {
    std::map<Value, Value> right;
    for (size_t i = 0; i < inner.key.size(); ++i) {
      if (!inner.deleted[i]) right[inner.key[i]] = inner.payload[i];
    }
    std::multiset<std::pair<Value, Value>> out;
    for (size_t i = 0; i < outer.key.size(); ++i) {
      if (outer.deleted[i] || outer.key[i] >= x) continue;
      auto it = right.find(outer.key[i]);
      if (it != right.end()) out.emplace(outer.payload[i], it->second);
    }
    return out;
  }
};

TEST_F(JoinWriteTest, JoinUnderWritesMatchesBruteForce) {
  // Outer read store: exactly 3 chunk windows, so inserted tail rows start
  // on a window boundary and a one-window morsel is *pure tail* — at 4
  // workers the probe's leaf reads only tail blocks in its own morsel.
  const size_t n_orders = 3 * kChunkPositions;
  const size_t n_cust = 6000;
  Random rng(31);
  RefRows orders;
  RefRows customer;
  for (size_t i = 0; i < n_cust; ++i) {
    customer.Append(static_cast<Value>(i + 1),
                    static_cast<Value>(rng.Uniform(25)));
  }
  for (size_t i = 0; i < n_orders; ++i) {
    orders.Append(static_cast<Value>(rng.UniformRange(1,
                                                      static_cast<int64_t>(
                                                          n_cust))),
                  static_cast<Value>(rng.Uniform(3000)));
  }
  MakeWritableTable("jw_orders", orders.key, orders.payload);
  MakeWritableTable("jw_customer", customer.key, customer.payload);

  // --- Writes, mirrored in the reference state ---------------------------
  // Inserts on both sides: new orders (some referencing brand-new customer
  // keys), new customers with fresh unique keys.
  {
    std::vector<std::vector<Value>> rows;
    for (size_t i = 0; i < 300; ++i) {
      Value k = static_cast<Value>(n_cust + 1 + i);
      Value p = static_cast<Value>(100 + i % 25);
      rows.push_back({k, p});
      customer.Append(k, p);
    }
    ASSERT_OK(db_->Insert("jw_customer", rows));
  }
  {
    std::vector<std::vector<Value>> rows;
    for (size_t i = 0; i < 20000; ++i) {
      Value k = static_cast<Value>(rng.UniformRange(1,
                                                    static_cast<int64_t>(
                                                        n_cust + 300)));
      Value p = static_cast<Value>(rng.Uniform(3000));
      rows.push_back({k, p});
      orders.Append(k, p);
    }
    ASSERT_OK(db_->Insert("jw_orders", rows));
  }
  // Deletes: read-store and tail positions, both sides.
  ASSERT_OK(db_->DeleteWhere("jw_orders",
                             {{"payload", Predicate::Equal(7)}}).status());
  orders.DeleteWherePayloadEq(7);
  ASSERT_OK(db_->DeleteWhere("jw_customer",
                             {{"key", Predicate::Equal(17)}}).status());
  customer.DeleteWhereKeyEq(17);
  ASSERT_OK(db_->DeleteWhere(
                    "jw_customer",
                    {{"key", Predicate::Equal(static_cast<Value>(n_cust +
                                                                 100))}})
                .status());
  customer.DeleteWhereKeyEq(static_cast<Value>(n_cust + 100));
  // An UPDATE'd inner row: same key, new payload, now living in the tail.
  ASSERT_OK(db_->UpdateWhere("jw_customer", {{"payload", 777}},
                             {{"key", Predicate::Equal(42)}})
                .status());
  customer.UpdatePayloadWhereKeyEq(42, 777);

  // --- Snapshots + query -------------------------------------------------
  plan::JoinQuery q;
  ASSERT_OK_AND_ASSIGN(q.left_key, db_->GetColumn("jw_orders_key"));
  ASSERT_OK_AND_ASSIGN(q.left_payload, db_->GetColumn("jw_orders_payload"));
  ASSERT_OK_AND_ASSIGN(q.right_key, db_->GetColumn("jw_customer_key"));
  ASSERT_OK_AND_ASSIGN(q.right_payload,
                       db_->GetColumn("jw_customer_payload"));
  ASSERT_OK_AND_ASSIGN(auto orders_snap, db_->SnapshotTable("jw_orders"));
  ASSERT_OK_AND_ASSIGN(q.right_snapshot, db_->SnapshotTable("jw_customer"));

  for (Value x : {static_cast<Value>(n_cust + 301), Value{3000}}) {
    q.left_pred = Predicate::LessThan(x);
    auto expected = RefJoin(orders, customer, x);
    ASSERT_GT(expected.size(), 0u);
    for (JoinRightMode mode : kAllModes) {
      for (exec::JoinLeftMode lm : kLeftModes) {
        q.left_mode = lm;
        uint64_t serial_checksum = 0;
        for (int workers : kWorkerCounts) {
          plan::PlanConfig config = JoinWorkerConfig(workers);
          config.snapshot = orders_snap;
          auto r = api::Connection(db_.get()).Query(
              plan::PlanTemplate::Join(q, mode, config));
          ASSERT_TRUE(r.ok())
              << JoinRightModeName(mode) << " workers=" << workers << ": "
              << r.status().ToString();
          std::multiset<std::pair<Value, Value>> got;
          for (size_t i = 0; i < r->tuples.num_tuples(); ++i) {
            got.emplace(r->tuples.value(i, 0), r->tuples.value(i, 1));
          }
          EXPECT_TRUE(got == expected)
              << JoinRightModeName(mode) << " left="
              << (lm == exec::JoinLeftMode::kLate ? "late" : "early")
              << " workers=" << workers << " x=" << x << " got "
              << got.size() << " expected " << expected.size();
          if (workers == 1) {
            serial_checksum = r->stats.checksum;
          } else {
            EXPECT_EQ(r->stats.checksum, serial_checksum)
                << JoinRightModeName(mode) << " workers=" << workers;
          }
        }
      }
    }
  }

  // The snapshot, not the live store, is what the join sees: new writes
  // after capture must not leak in.
  {
    ASSERT_OK(db_->Insert("jw_customer", {{static_cast<Value>(n_cust + 400),
                                           Value{999}}}));
    ASSERT_OK(db_->Insert("jw_orders", {{static_cast<Value>(n_cust + 400),
                                         Value{888}}}));
    q.left_pred = Predicate::LessThan(static_cast<Value>(n_cust + 500));
    q.left_mode = exec::JoinLeftMode::kLate;
    plan::PlanConfig config = JoinWorkerConfig(2);
    config.snapshot = orders_snap;  // captured before the two inserts
    ASSERT_OK_AND_ASSIGN(auto r,
                         api::Connection(db_.get()).Query(
                             plan::PlanTemplate::Join(
                                 q, JoinRightMode::kMaterialized, config)));
    auto expected =
        RefJoin(orders, customer, static_cast<Value>(n_cust + 500));
    EXPECT_EQ(r.stats.output_tuples, expected.size());
  }
}

TEST_F(JoinWriteTest, BuildUnderDeletesAcrossInnerBlocksMatchesBruteForce) {
  // Inner read store: 45 000 plain rows, six blocks of 8 128 positions.
  // Deletes hit every block (payload 3), all of block 2, and one
  // write-store tail row, so the build masks deletes inside blocks and
  // skips a block whose rows are all deleted.
  const size_t n_cust = 45000;
  const size_t n_tail = 100;
  const size_t n_orders = 2 * kChunkPositions;
  Random rng(53);
  RefRows orders;
  RefRows customer;
  for (size_t i = 0; i < n_cust; ++i) {
    customer.Append(static_cast<Value>(i + 1),
                    static_cast<Value>(rng.Uniform(25)));
  }
  for (size_t i = 0; i < n_orders; ++i) {
    orders.Append(rng.UniformRange(1, static_cast<int64_t>(n_cust + n_tail)),
                  static_cast<Value>(rng.Uniform(3000)));
  }
  MakeWritableTable("jd_orders", orders.key, orders.payload);
  MakeWritableTable("jd_customer", customer.key, customer.payload);

  plan::JoinQuery q;
  ASSERT_OK_AND_ASSIGN(q.left_key, db_->GetColumn("jd_orders_key"));
  ASSERT_OK_AND_ASSIGN(q.left_payload, db_->GetColumn("jd_orders_payload"));
  ASSERT_OK_AND_ASSIGN(q.right_key, db_->GetColumn("jd_customer_key"));
  ASSERT_OK_AND_ASSIGN(q.right_payload,
                       db_->GetColumn("jd_customer_payload"));
  ASSERT_EQ(q.right_key->num_blocks(), 6u);
  ASSERT_EQ(q.right_key->meta().block_start_pos[2], 16256u);
  ASSERT_EQ(q.right_key->meta().block_start_pos[3], 24384u);

  {
    std::vector<std::vector<Value>> rows;
    for (size_t i = 0; i < n_tail; ++i) {
      const Value k = static_cast<Value>(n_cust + 1 + i);
      const Value p = static_cast<Value>(200 + i % 25);
      rows.push_back({k, p});
      customer.Append(k, p);
    }
    ASSERT_OK(db_->Insert("jd_customer", rows));
  }
  ASSERT_OK(db_->DeleteWhere("jd_customer",
                             {{"payload", Predicate::Equal(3)}}).status());
  customer.DeleteWherePayloadEq(3);
  // Block 2 whole: positions [16 256, 24 384) hold keys 16 257..24 384.
  ASSERT_OK(db_->DeleteWhere("jd_customer",
                             {{"key", Predicate::Between(16257, 24384)}})
                .status());
  for (size_t i = 0; i < customer.key.size(); ++i) {
    if (customer.key[i] >= 16257 && customer.key[i] <= 24384) {
      customer.deleted[i] = true;
    }
  }
  const Value tail_key = static_cast<Value>(n_cust + 50);
  ASSERT_OK(db_->DeleteWhere("jd_customer",
                             {{"key", Predicate::Equal(tail_key)}})
                .status());
  customer.DeleteWhereKeyEq(tail_key);

  ASSERT_OK_AND_ASSIGN(auto orders_snap, db_->SnapshotTable("jd_orders"));
  ASSERT_OK_AND_ASSIGN(q.right_snapshot, db_->SnapshotTable("jd_customer"));
  const Value x = static_cast<Value>(n_cust + n_tail + 1);
  q.left_pred = Predicate::LessThan(x);
  const auto expected = RefJoin(orders, customer, x);
  ASSERT_GT(expected.size(), 0u);
  for (JoinRightMode mode : kAllModes) {
    for (exec::JoinLeftMode lm : kLeftModes) {
      q.left_mode = lm;
      uint64_t serial_checksum = 0;
      for (int workers : kWorkerCounts) {
        plan::PlanConfig config = JoinWorkerConfig(workers);
        config.snapshot = orders_snap;
        auto r = api::Connection(db_.get()).Query(
            plan::PlanTemplate::Join(q, mode, config));
        ASSERT_TRUE(r.ok()) << JoinRightModeName(mode) << " workers="
                            << workers << ": " << r.status().ToString();
        std::multiset<std::pair<Value, Value>> got;
        for (size_t i = 0; i < r->tuples.num_tuples(); ++i) {
          got.emplace(r->tuples.value(i, 0), r->tuples.value(i, 1));
        }
        EXPECT_TRUE(got == expected)
            << JoinRightModeName(mode) << " left="
            << (lm == exec::JoinLeftMode::kLate ? "late" : "early")
            << " workers=" << workers << " got " << got.size()
            << " expected " << expected.size();
        if (workers == 1) {
          serial_checksum = r->stats.checksum;
        } else {
          EXPECT_EQ(r->stats.checksum, serial_checksum)
              << JoinRightModeName(mode) << " workers=" << workers;
        }
      }
    }
  }
}

TEST_F(JoinWriteTest, EmptySidesJoinCleanly) {
  // Zero-row tables on either side of the join, at every worker count, on
  // a standalone session and on a shared scheduler, each through Query
  // (which runs a join this small on the caller's thread) and Submit
  // (always a pool). An empty outer side is the scheduler's single-task
  // path; it still runs after the build.
  const std::vector<Value> orders_key = {1, 2, 3, 2, 9};
  const std::vector<Value> orders_payload = {10, 20, 30, 40, 50};
  const std::vector<Value> customer_key = {1, 2, 3};
  const std::vector<Value> customer_payload = {7, 8, 9};
  MakeWritableTable("je_empty", {}, {});
  MakeWritableTable("je_orders", orders_key, orders_payload);
  MakeWritableTable("je_customer", customer_key, customer_payload);
  RefRows orders;
  RefRows customer;
  RefRows tail;  // rows inserted into the zero-row table
  for (size_t i = 0; i < orders_key.size(); ++i) {
    orders.Append(orders_key[i], orders_payload[i]);
  }
  for (size_t i = 0; i < customer_key.size(); ++i) {
    customer.Append(customer_key[i], customer_payload[i]);
  }

  plan::JoinQuery empty_outer;
  ASSERT_OK_AND_ASSIGN(empty_outer.left_key, db_->GetColumn("je_empty_key"));
  ASSERT_OK_AND_ASSIGN(empty_outer.left_payload,
                       db_->GetColumn("je_empty_payload"));
  ASSERT_OK_AND_ASSIGN(empty_outer.right_key,
                       db_->GetColumn("je_customer_key"));
  ASSERT_OK_AND_ASSIGN(empty_outer.right_payload,
                       db_->GetColumn("je_customer_payload"));
  empty_outer.left_pred = Predicate::True();
  plan::JoinQuery empty_inner = empty_outer;
  ASSERT_OK_AND_ASSIGN(empty_inner.left_key, db_->GetColumn("je_orders_key"));
  ASSERT_OK_AND_ASSIGN(empty_inner.left_payload,
                       db_->GetColumn("je_orders_payload"));
  empty_inner.right_key = empty_outer.left_key;
  empty_inner.right_payload = empty_outer.left_payload;

  // The zero-row read store's snapshot then carries inserted tail rows:
  // as the inner side it rides in JoinQuery::right_snapshot, as the outer
  // side in PlanConfig::snapshot.
  {
    std::vector<std::vector<Value>> rows;
    for (Value k : {2, 3, 5}) {
      rows.push_back({k, 100 + k});
      tail.Append(k, 100 + k);
    }
    ASSERT_OK(db_->Insert("je_empty", rows));
  }
  ASSERT_OK_AND_ASSIGN(auto tail_snap, db_->SnapshotTable("je_empty"));
  plan::JoinQuery tail_inner = empty_inner;
  tail_inner.right_snapshot = tail_snap;
  const auto tail_inner_expected = RefJoin(orders, tail, 100);
  const auto tail_outer_expected = RefJoin(tail, customer, 100);
  ASSERT_EQ(tail_inner_expected.size(), 3u);
  ASSERT_EQ(tail_outer_expected.size(), 2u);

  auto rows_of = [](const api::QueryResult& r) {
    std::multiset<std::pair<Value, Value>> got;
    for (size_t i = 0; i < r.tuples.num_tuples(); ++i) {
      got.emplace(r.tuples.value(i, 0), r.tuples.value(i, 1));
    }
    return got;
  };
  sched::Scheduler::Options so;
  so.num_workers = 4;
  sched::Scheduler scheduler(so);
  api::Connection standalone(db_.get());
  api::Connection pooled(db_.get(), &scheduler);
  // Both routes of a session: Query and Submit.
  auto run = [](api::Connection* conn, bool submit,
                const plan::PlanTemplate& tmpl) {
    return submit ? conn->Submit(tmpl).Wait() : conn->Query(tmpl);
  };
  for (api::Connection* conn : {&standalone, &pooled}) {
    for (bool submit : {false, true}) {
      const std::string route =
          std::string(conn == &standalone ? "standalone" : "pooled") +
          (submit ? " Submit" : " Query");
      for (JoinRightMode mode : kAllModes) {
        for (int workers : kWorkerCounts) {
          plan::PlanConfig config = JoinWorkerConfig(workers);
          for (const plan::JoinQuery* q : {&empty_outer, &empty_inner}) {
            auto r =
                run(conn, submit, plan::PlanTemplate::Join(*q, mode, config));
            ASSERT_TRUE(r.ok()) << route << " " << JoinRightModeName(mode)
                                << " workers=" << workers << ": "
                                << r.status().ToString();
            EXPECT_EQ(r->stats.output_tuples, 0u)
                << route << " " << JoinRightModeName(mode)
                << (q == &empty_outer ? " empty outer" : " empty inner")
                << " workers=" << workers;
            EXPECT_EQ(r->tuples.num_tuples(), 0u);
          }
          ASSERT_OK_AND_ASSIGN(
              api::QueryResult inner_r,
              run(conn, submit,
                  plan::PlanTemplate::Join(tail_inner, mode, config)));
          EXPECT_TRUE(rows_of(inner_r) == tail_inner_expected)
              << route << " " << JoinRightModeName(mode)
              << " tail-only inner workers=" << workers;
          config.snapshot = tail_snap;
          ASSERT_OK_AND_ASSIGN(
              api::QueryResult outer_r,
              run(conn, submit,
                  plan::PlanTemplate::Join(empty_outer, mode, config)));
          EXPECT_TRUE(rows_of(outer_r) == tail_outer_expected)
              << route << " " << JoinRightModeName(mode)
              << " tail-only outer workers=" << workers;
        }
      }
    }
  }
}

TEST_F(JoinWriteTest, EmptySnapshotsKeepJoinIdentical) {
  // Empty snapshots (tables never written) must build the exact
  // pre-write-path plan.
  Tables t = MakeTables(100000, 4000, 37);
  t.query.left_pred = Predicate::LessThan(2000);
  ASSERT_OK_AND_ASSIGN(auto baseline,
                       api::Connection(db_.get()).Query(
                           plan::PlanTemplate::Join(
                               t.query, JoinRightMode::kMaterialized)));
  MakeWritableTable("jw_empty", {1, 2, 3}, {4, 5, 6});
  ASSERT_OK_AND_ASSIGN(auto snap, db_->SnapshotTable("jw_empty"));
  // An empty snapshot of an unrelated table attaches harmlessly on the
  // inner side (no state → no column mapping is consulted).
  plan::JoinQuery q = t.query;
  q.right_snapshot = snap;
  ASSERT_OK_AND_ASSIGN(auto with_snap,
                       api::Connection(db_.get()).Query(
                           plan::PlanTemplate::Join(
                               q, JoinRightMode::kMaterialized)));
  EXPECT_EQ(with_snap.stats.checksum, baseline.stats.checksum);
  EXPECT_EQ(with_snap.stats.output_tuples, baseline.stats.output_tuples);
}

TEST_F(JoinTest, InvalidQueriesRejected) {
  // The build validates the query before any probe plan exists.
  plan::JoinQuery q;  // all null
  EXPECT_FALSE(plan::JoinBuildSpec(q, JoinRightMode::kMaterialized).ok());

  Tables t = MakeTables(1000, 100, 7);
  plan::JoinQuery bad = t.query;
  bad.left_payload = Load("short", Encoding::kUncompressed, {1, 2, 3});
  EXPECT_FALSE(plan::JoinBuildSpec(bad, JoinRightMode::kMaterialized).ok());
  // Both routes surface it as the query's error.
  for (int workers : {1, 2}) {
    plan::PlanConfig config;
    config.num_workers = workers;
    EXPECT_FALSE(api::Connection(db_.get())
                     .Query(plan::PlanTemplate::Join(
                         bad, JoinRightMode::kMaterialized, config))
                     .ok())
        << "workers=" << workers;
  }
}

}  // namespace
}  // namespace cstore
