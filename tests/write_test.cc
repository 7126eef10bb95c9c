// Write-path tests: WriteStore snapshots, delete masking, the write-store
// tail through all four materialization strategies, snapshot isolation,
// TupleMover compaction, and the INSERT/DELETE SQL surface.
//
// The core invariant, checked everywhere: a query's (output_tuples,
// order-independent checksum) against a snapshot equal a brute-force
// evaluation of the same predicates over the visible rows — for every
// strategy, at 1/2/4 workers, before and after compaction, and regardless
// of writes applied after the snapshot was taken.

#include <algorithm>
#include <map>
#include <optional>
#include <set>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "api/connection.h"
#include "db/database.h"
#include "plan/executor.h"
#include "plan/parallel.h"
#include "test_util.h"
#include "util/random.h"
#include "write/tuple_mover.h"

namespace cstore {
namespace {

using testing::TempDir;

constexpr int kWorkerCounts[] = {1, 2, 4};

/// Reference implementation: the table's visible logical content.
struct RefTable {
  std::vector<std::vector<Value>> cols;  // column-major, every row ever
  std::vector<bool> deleted;

  explicit RefTable(size_t k) : cols(k) {}

  size_t rows() const { return deleted.size(); }

  void Append(const std::vector<std::vector<Value>>& row_major) {
    for (const auto& row : row_major) {
      for (size_t c = 0; c < cols.size(); ++c) cols[c].push_back(row[c]);
      deleted.push_back(false);
    }
  }

  uint64_t DeleteWhere(size_t col, const codec::Predicate& pred) {
    uint64_t n = 0;
    for (size_t i = 0; i < rows(); ++i) {
      if (!deleted[i] && pred.Eval(cols[col][i])) {
        deleted[i] = true;
        ++n;
      }
    }
    return n;
  }

  bool Passes(size_t i, const std::vector<codec::Predicate>& preds) const {
    if (deleted[i]) return false;
    for (size_t c = 0; c < preds.size(); ++c) {
      if (!preds[c].Eval(cols[c][i])) return false;
    }
    return true;
  }

  /// Expected (tuples, checksum) of SELECT col_0..col_{k-1} WHERE preds.
  std::pair<uint64_t, uint64_t> ExpectedSelection(
      const std::vector<codec::Predicate>& preds) const {
    exec::TupleChunk chunk(static_cast<uint32_t>(cols.size()));
    std::vector<Value> row(cols.size());
    for (size_t i = 0; i < rows(); ++i) {
      if (!Passes(i, preds)) continue;
      for (size_t c = 0; c < cols.size(); ++c) row[c] = cols[c][i];
      chunk.AppendTuple(i, row.data());
    }
    return {chunk.num_tuples(), plan::ChunkDigest(chunk)};
  }

  /// Expected (groups, checksum) of SELECT g, SUM(a) ... GROUP BY g.
  std::pair<uint64_t, uint64_t> ExpectedGroupSum(
      const std::vector<codec::Predicate>& preds, size_t group_col,
      size_t agg_col) const {
    std::map<Value, int64_t> groups;
    for (size_t i = 0; i < rows(); ++i) {
      if (!Passes(i, preds)) continue;
      groups[cols[group_col][i]] += cols[agg_col][i];
    }
    exec::TupleChunk chunk(2);
    Position p = 0;
    for (const auto& [g, sum] : groups) {
      Value row[2] = {g, sum};
      chunk.AppendTuple(p++, row);
    }
    return {chunk.num_tuples(), plan::ChunkDigest(chunk)};
  }
};

class WriteTest : public ::testing::Test {
 protected:
  void OpenDb() {
    db::Database::Options opts;
    opts.dir = dir_.path();
    auto db = db::Database::Open(opts);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    db_ = std::move(*db);
  }

  /// Creates and registers table `name` with the given per-column
  /// (column name, encoding, values).
  void MakeTable(const std::string& name,
                 const std::vector<std::tuple<std::string, codec::Encoding,
                                              std::vector<Value>>>& cols) {
    std::vector<std::pair<std::string, std::string>> mapping;
    for (const auto& [col, enc, values] : cols) {
      std::string file = name + "_" + col;
      ASSERT_OK(db_->CreateColumn(file, enc, values));
      mapping.emplace_back(col, file);
    }
    ASSERT_OK(db_->RegisterTable(name, mapping));
  }

  /// Binds the table's columns against the snapshot's generation.
  std::vector<const codec::ColumnReader*> BindColumns(
      const write::WriteSnapshot& snap) {
    std::vector<const codec::ColumnReader*> readers;
    for (const std::string& file : snap.column_files()) {
      auto r = db_->GetColumn(file);
      EXPECT_TRUE(r.ok()) << r.status().ToString();
      readers.push_back(*r);
    }
    return readers;
  }

  plan::SelectionQuery MakeSelection(
      const std::vector<const codec::ColumnReader*>& readers,
      const std::vector<codec::Predicate>& preds) {
    plan::SelectionQuery q;
    for (size_t c = 0; c < readers.size(); ++c) {
      q.columns.push_back({readers[c], preds[c]});
    }
    return q;
  }

  /// Runs the selection for every strategy × worker count and checks each
  /// result against `expected` (tuples, checksum). `filter_order`, when
  /// set, is the plan's filter order; `morsel_positions` sizes its morsels.
  void CheckSelectionAllStrategies(
      const std::shared_ptr<const write::WriteSnapshot>& snap,
      const std::vector<codec::Predicate>& preds,
      std::pair<uint64_t, uint64_t> expected, const char* context,
      std::optional<std::vector<uint32_t>> filter_order = std::nullopt,
      Position morsel_positions = exec::kDefaultMorselPositions) {
    std::vector<const codec::ColumnReader*> readers = BindColumns(*snap);
    plan::SelectionQuery query = MakeSelection(readers, preds);
    query.filter_order = std::move(filter_order);
    for (plan::Strategy s : plan::kAllStrategies) {
      for (int workers : kWorkerCounts) {
        plan::PlanConfig config;
        config.num_workers = workers;
        config.morsel_positions = morsel_positions;
        config.snapshot = snap;
        auto r = api::Connection(db_.get()).Query(
            plan::PlanTemplate::Selection(query, s, config));
        ASSERT_TRUE(r.ok()) << context << " " << StrategyName(s) << ": "
                            << r.status().ToString();
        EXPECT_EQ(r->stats.output_tuples, expected.first)
            << context << " " << StrategyName(s) << " workers=" << workers;
        EXPECT_EQ(r->stats.checksum, expected.second)
            << context << " " << StrategyName(s) << " workers=" << workers;
      }
    }
  }

  /// Runs SELECT g, SUM(a) GROUP BY g for every strategy × worker count;
  /// `filter_order` and `morsel_positions` as above.
  void CheckAggAllStrategies(
      const std::shared_ptr<const write::WriteSnapshot>& snap,
      const std::vector<codec::Predicate>& preds, uint32_t group_index,
      uint32_t agg_index, std::pair<uint64_t, uint64_t> expected,
      const char* context,
      std::optional<std::vector<uint32_t>> filter_order = std::nullopt,
      Position morsel_positions = exec::kDefaultMorselPositions) {
    std::vector<const codec::ColumnReader*> readers = BindColumns(*snap);
    plan::AggQuery query;
    query.selection = MakeSelection(readers, preds);
    query.selection.filter_order = std::move(filter_order);
    query.group_index = group_index;
    query.agg_index = agg_index;
    query.func = exec::AggFunc::kSum;
    for (plan::Strategy s : plan::kAllStrategies) {
      for (int workers : kWorkerCounts) {
        plan::PlanConfig config;
        config.num_workers = workers;
        config.morsel_positions = morsel_positions;
        config.snapshot = snap;
        auto r = api::Connection(db_.get()).Query(
            plan::PlanTemplate::Agg(query, s, config));
        ASSERT_TRUE(r.ok()) << context << " " << StrategyName(s) << ": "
                            << r.status().ToString();
        EXPECT_EQ(r->stats.output_tuples, expected.first)
            << context << " " << StrategyName(s) << " workers=" << workers;
        EXPECT_EQ(r->stats.checksum, expected.second)
            << context << " " << StrategyName(s) << " workers=" << workers;
      }
    }
  }

  TempDir dir_;
  std::unique_ptr<db::Database> db_;
};

/// Random rows matching the 3-column test schema.
std::vector<std::vector<Value>> RandomRows(size_t n, uint64_t seed) {
  Random rng(seed);
  std::vector<std::vector<Value>> rows;
  rows.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    rows.push_back({static_cast<Value>(rng.Uniform(40)),
                    static_cast<Value>(rng.Uniform(100)),
                    static_cast<Value>(rng.Uniform(500))});
  }
  return rows;
}

/// The shared scenario: ~3 chunk windows of base rows (RLE + uncompressed +
/// dict), a 5000-row write-store tail, and a value-predicate delete.
class WriteScenarioTest : public WriteTest {
 protected:
  static constexpr size_t kBaseRows = 200000;
  static constexpr size_t kTailRows = 5000;

  void SetUp() override {
    OpenDb();
    std::vector<Value> c0 = testing::RunnyValues(kBaseRows, 40, 6.0, 1);
    std::vector<Value> c1 = testing::RunnyValues(kBaseRows, 100, 1.0, 2);
    std::vector<Value> c2 = testing::RunnyValues(kBaseRows, 500, 2.0, 3);
    MakeTable("t", {{"c0", codec::Encoding::kRle, c0},
                    {"c1", codec::Encoding::kUncompressed, c1},
                    {"c2", codec::Encoding::kDict, c2}});
    ref_ = std::make_unique<RefTable>(3);
    for (size_t i = 0; i < kBaseRows; ++i) {
      ref_->Append({{c0[i], c1[i], c2[i]}});
    }

    // In-flight write-store state: inserts, then a predicate delete that
    // hits read store and tail alike.
    std::vector<std::vector<Value>> tail = RandomRows(kTailRows, 4);
    ASSERT_OK(db_->Insert("t", tail));
    ref_->Append(tail);
    auto deleted = db_->DeleteWhere("t", {{"c1", codec::Predicate::Equal(13)}});
    ASSERT_TRUE(deleted.ok()) << deleted.status().ToString();
    EXPECT_EQ(*deleted, ref_->DeleteWhere(1, codec::Predicate::Equal(13)));
    EXPECT_GT(*deleted, 0u);
  }

  std::vector<codec::Predicate> Preds() const {
    return {codec::Predicate::Between(5, 30), codec::Predicate::LessThan(60),
            codec::Predicate::True()};
  }

  std::unique_ptr<RefTable> ref_;
};

TEST_F(WriteScenarioTest, SnapshotScansMatchBruteForceAllStrategies) {
  ASSERT_OK_AND_ASSIGN(auto snap, db_->SnapshotTable("t"));
  EXPECT_EQ(snap->base_rows(), kBaseRows);
  EXPECT_EQ(snap->tail_rows(), kTailRows);
  EXPECT_TRUE(snap->has_deletes());

  CheckSelectionAllStrategies(snap, Preds(),
                              ref_->ExpectedSelection(Preds()), "selection");
  CheckAggAllStrategies(snap, Preds(), 0, 1,
                        ref_->ExpectedGroupSum(Preds(), 0, 1), "agg");
}

TEST_F(WriteScenarioTest, SnapshotUnaffectedByLaterWrites) {
  ASSERT_OK_AND_ASSIGN(auto snap, db_->SnapshotTable("t"));
  auto expected_sel = ref_->ExpectedSelection(Preds());
  auto expected_agg = ref_->ExpectedGroupSum(Preds(), 0, 1);

  // Writes after the snapshot epoch: more inserts (some would match the
  // delete predicate and the scan predicates) and another delete wave.
  ASSERT_OK(db_->Insert("t", RandomRows(3000, 5)));
  ASSERT_OK_AND_ASSIGN(uint64_t d,
                       db_->DeleteWhere(
                           "t", {{"c0", codec::Predicate::Equal(7)}}));
  EXPECT_GT(d, 0u);

  // The old snapshot still sees exactly its epoch.
  CheckSelectionAllStrategies(snap, Preds(), expected_sel, "stale-sel");
  CheckAggAllStrategies(snap, Preds(), 0, 1, expected_agg, "stale-agg");

  // A fresh snapshot sees the new state.
  RefTable ref2 = *ref_;
  ref2.Append(RandomRows(3000, 5));
  ref2.DeleteWhere(0, codec::Predicate::Equal(7));
  ASSERT_OK_AND_ASSIGN(auto snap2, db_->SnapshotTable("t"));
  CheckSelectionAllStrategies(snap2, Preds(), ref2.ExpectedSelection(Preds()),
                              "fresh-sel");
}

TEST_F(WriteScenarioTest, CompactionPreservesResults) {
  auto expected_sel = ref_->ExpectedSelection(Preds());
  auto expected_agg = ref_->ExpectedGroupSum(Preds(), 0, 1);

  EXPECT_EQ(db_->PendingWriteRows("t"), kTailRows);
  ASSERT_OK_AND_ASSIGN(uint64_t moved, db_->CompactTable("t"));
  EXPECT_EQ(moved, kTailRows);
  EXPECT_EQ(db_->PendingWriteRows("t"), 0u);

  // Fresh snapshot against the new generation: tail now lives in the read
  // store, deletes still masked, results bit-identical.
  ASSERT_OK_AND_ASSIGN(auto snap, db_->SnapshotTable("t"));
  EXPECT_EQ(snap->base_rows(), kBaseRows + kTailRows);
  EXPECT_EQ(snap->tail_rows(), 0u);
  CheckSelectionAllStrategies(snap, Preds(), expected_sel, "post-compact");
  CheckAggAllStrategies(snap, Preds(), 0, 1, expected_agg,
                        "post-compact-agg");

  // Idempotent when nothing is pending.
  ASSERT_OK_AND_ASSIGN(uint64_t again, db_->CompactTable("t"));
  EXPECT_EQ(again, 0u);

  // And the cycle continues: more writes, another compaction.
  ASSERT_OK(db_->Insert("t", RandomRows(1500, 6)));
  ref_->Append(RandomRows(1500, 6));
  ASSERT_OK_AND_ASSIGN(uint64_t moved2, db_->CompactTable("t"));
  EXPECT_EQ(moved2, 1500u);
  ASSERT_OK_AND_ASSIGN(auto snap2, db_->SnapshotTable("t"));
  CheckSelectionAllStrategies(snap2, Preds(),
                              ref_->ExpectedSelection(Preds()),
                              "second-compact");
}

TEST_F(WriteScenarioTest, SnapshotTakenBeforeCompactionStaysValid) {
  ASSERT_OK_AND_ASSIGN(auto snap, db_->SnapshotTable("t"));
  auto expected = ref_->ExpectedSelection(Preds());

  ASSERT_OK_AND_ASSIGN(uint64_t moved, db_->CompactTable("t"));
  EXPECT_EQ(moved, kTailRows);

  // The pre-compaction snapshot still resolves against the retired
  // generation and produces identical results.
  CheckSelectionAllStrategies(snap, Preds(), expected, "retired-gen");
}

TEST_F(WriteScenarioTest, TupleMoverCompactsInBackground) {
  sched::Scheduler scheduler({2});
  write::TupleMover::Options opts;
  opts.threshold_rows = 1u << 30;  // never trigger on its own: we force
  ASSERT_OK(db_->EnableTupleMover(&scheduler, opts));
  ASSERT_NE(db_->tuple_mover(), nullptr);

  auto expected = ref_->ExpectedSelection(Preds());
  ASSERT_OK(db_->tuple_mover()->ForceCompaction());
  EXPECT_EQ(db_->PendingWriteRows("t"), 0u);
  EXPECT_GE(db_->tuple_mover()->moves_completed(), 1u);

  ASSERT_OK_AND_ASSIGN(auto snap, db_->SnapshotTable("t"));
  EXPECT_EQ(snap->tail_rows(), 0u);
  CheckSelectionAllStrategies(snap, Preds(), expected, "mover");
  db_->DisableTupleMover();
}

TEST_F(WriteScenarioTest, ConcurrentWritersMoverAndScans) {
  // TSan-oriented: writers, the mover, and snapshot scans all racing. The
  // checked invariant is that every query succeeds and a quiesced fresh
  // snapshot agrees across strategies and worker counts.
  sched::Scheduler scheduler({4});
  write::TupleMover::Options opts;
  opts.threshold_rows = 2000;
  opts.poll_millis = 5;
  ASSERT_OK(db_->EnableTupleMover(&scheduler, opts));

  std::atomic<bool> stop{false};
  std::thread writer([&] {
    uint64_t seed = 100;
    while (!stop.load()) {
      Status st = db_->Insert("t", RandomRows(200, seed++));
      ASSERT_TRUE(st.ok()) << st.ToString();
      if (seed % 7 == 0) {
        auto d = db_->DeleteWhere(
            "t", {{"c2", codec::Predicate::Equal(
                             static_cast<Value>(seed % 500))}});
        ASSERT_TRUE(d.ok()) << d.status().ToString();
      }
    }
  });

  for (int round = 0; round < 20; ++round) {
    auto snap_or = db_->SnapshotTable("t");
    ASSERT_TRUE(snap_or.ok());
    auto snap = *snap_or;
    std::vector<const codec::ColumnReader*> readers = BindColumns(*snap);
    plan::SelectionQuery query = MakeSelection(readers, Preds());
    plan::Strategy s = plan::kAllStrategies[round % 4];
    plan::PlanConfig config;
    config.num_workers = 1 + round % 4;
    config.snapshot = snap;
    std::vector<api::PendingResult> pending;
    pending.push_back(api::Connection(db_.get(), &scheduler)
                          .Submit(plan::PlanTemplate::Selection(query, s,
                                                                config)));
    for (auto& p : pending) {
      auto r = p.Wait();
      ASSERT_TRUE(r.ok()) << r.status().ToString();
    }
  }

  stop.store(true);
  writer.join();
  ASSERT_OK(db_->tuple_mover()->ForceCompaction());
  db_->DisableTupleMover();

  // Quiesced: all strategies/worker counts agree on a fresh snapshot.
  ASSERT_OK_AND_ASSIGN(auto snap, db_->SnapshotTable("t"));
  std::vector<const codec::ColumnReader*> readers = BindColumns(*snap);
  plan::SelectionQuery query = MakeSelection(readers, Preds());
  plan::PlanConfig base_config;
  base_config.snapshot = snap;
  auto baseline = api::Connection(db_.get()).Query(
      plan::PlanTemplate::Selection(query, plan::Strategy::kLmParallel,
                                    base_config));
  ASSERT_TRUE(baseline.ok());
  for (plan::Strategy s : plan::kAllStrategies) {
    for (int workers : kWorkerCounts) {
      plan::PlanConfig config;
      config.num_workers = workers;
      config.snapshot = snap;
      auto r = api::Connection(db_.get()).Query(
          plan::PlanTemplate::Selection(query, s, config));
      ASSERT_TRUE(r.ok());
      EXPECT_EQ(r->stats.checksum, baseline->stats.checksum)
          << StrategyName(s) << " workers=" << workers;
      EXPECT_EQ(r->stats.output_tuples, baseline->stats.output_tuples);
    }
  }
}

// ---------------------------------------------------------------------------
// A multi-block tail read in place: its blocks view the snapshot's values.
// ---------------------------------------------------------------------------

TEST_F(WriteTest, MultiBlockTailIsReadInPlace) {
  // A read store of a size that is a multiple of neither 64 nor
  // kChunkPositions, so the first tail block starts mid-window, and a tail
  // of 4 blocks, one of which crosses the window boundary at 131 072.
  constexpr size_t kBase = 120001;
  constexpr size_t kTail = 30000;
  constexpr size_t kPerBlock = codec::kUncompressedValuesPerBlock;
  static_assert(kBase % 64 != 0 && kBase % kChunkPositions != 0);
  static_assert(kTail > 3 * kPerBlock);
  OpenDb();
  // Columns: k unique and sorted, g runny (RLE), v plain, d dictionary.
  std::vector<Value> k(kBase);
  for (size_t i = 0; i < kBase; ++i) k[i] = static_cast<Value>(i);
  std::vector<Value> g = testing::RunnyValues(kBase, 40, 6.0, 21);
  std::vector<Value> v = testing::RunnyValues(kBase, 100, 1.0, 22);
  std::vector<Value> d = testing::RunnyValues(kBase, 500, 2.0, 23);
  MakeTable("t", {{"k", codec::Encoding::kUncompressed, k},
                  {"g", codec::Encoding::kRle, g},
                  {"v", codec::Encoding::kUncompressed, v},
                  {"d", codec::Encoding::kDict, d}});
  RefTable ref(4);
  for (size_t i = 0; i < kBase; ++i) ref.Append({{k[i], g[i], v[i], d[i]}});

  // The tail's v reaches above the read store's, so a descending Top-N
  // draws its rows from the tail blocks.
  Random rng(24);
  std::vector<std::vector<Value>> tail;
  for (size_t i = 0; i < kTail; ++i) {
    tail.push_back({static_cast<Value>(kBase + i),
                    static_cast<Value>(rng.Uniform(40)),
                    static_cast<Value>(rng.Uniform(120)),
                    static_cast<Value>(rng.Uniform(500))});
  }
  ASSERT_OK(db_->Insert("t", tail));
  ref.Append(tail);
  // Deletes in the read store and the tail, and a run inside tail block 1.
  const codec::Predicate hit13 = codec::Predicate::Equal(13);
  const codec::Predicate in_block1 =
      codec::Predicate::Between(kBase + 9000, kBase + 9100);
  ASSERT_OK_AND_ASSIGN(uint64_t d13, db_->DeleteWhere("t", {{"v", hit13}}));
  EXPECT_EQ(d13, ref.DeleteWhere(2, hit13));
  ASSERT_OK_AND_ASSIGN(uint64_t d1, db_->DeleteWhere("t", {{"k", in_block1}}));
  EXPECT_EQ(d1, ref.DeleteWhere(0, in_block1));
  EXPECT_GT(d1, 0u);

  ASSERT_OK_AND_ASSIGN(auto snap, db_->SnapshotTable("t"));
  ASSERT_EQ(snap->base_rows(), kBase);
  ASSERT_EQ(snap->tail_rows(), kTail);

  // Views: block b of column c is tail_values(c) from b * kPerBlock on.
  bool crosses_window = false;
  for (size_t c = 0; c < 4; ++c) {
    const auto& blocks = snap->tail_blocks(c);
    ASSERT_EQ(blocks.size(), 4u);
    for (size_t b = 0; b < blocks.size(); ++b) {
      const codec::UncompressedView* u = blocks[b]->view.AsUncompressed();
      ASSERT_NE(u, nullptr);
      EXPECT_EQ(u->values(), snap->tail_values(c).data() + b * kPerBlock)
          << "column " << c << " block " << b;
      EXPECT_EQ(u->start_pos(), kBase + b * kPerBlock);
      EXPECT_EQ(u->num_values(), std::min(kPerBlock, kTail - b * kPerBlock));
      EXPECT_FALSE(blocks[b]->ref.valid());
      crosses_window |= u->start_pos() / kChunkPositions !=
                        (u->end_pos() - 1) / kChunkPositions;
    }
  }
  EXPECT_TRUE(crosses_window);

  // Selection and GROUP BY, every strategy at 1, 2 and 4 workers.
  const std::vector<codec::Predicate> preds = {
      codec::Predicate::True(), codec::Predicate::Between(5, 30),
      codec::Predicate::LessThan(90), codec::Predicate::True()};
  CheckSelectionAllStrategies(snap, preds, ref.ExpectedSelection(preds),
                              "tail-sel");
  CheckAggAllStrategies(snap, preds, 1, 2, ref.ExpectedGroupSum(preds, 1, 2),
                        "tail-agg");

  // An index range on the sorted k that ends in the tail, where k keeps
  // ascending: LM plans take the read-store part off the index and scan
  // the tail. One-window morsels put base_rows inside a morsel, mid-window.
  // d is output-only.
  const std::vector<codec::Predicate> range_preds = {
      codec::Predicate::Between(kBase - 5000, kBase + 12000),
      codec::Predicate::Between(5, 30), codec::Predicate::LessThan(90),
      codec::Predicate::True()};
  for (const std::vector<uint32_t>& order :
       {std::vector<uint32_t>{0, 1, 2}, std::vector<uint32_t>{1, 0, 2}}) {
    const char* context = order[0] == 0 ? "index-first" : "index-second";
    CheckSelectionAllStrategies(snap, range_preds,
                                ref.ExpectedSelection(range_preds), context,
                                order, kChunkPositions);
    CheckAggAllStrategies(snap, range_preds, 1, 2,
                          ref.ExpectedGroupSum(range_preds, 1, 2), context,
                          order, kChunkPositions);
  }

  // ORDER BY v DESC LIMIT 1000 WHERE g BETWEEN 5 AND 30: ties broken by
  // position.
  const std::vector<codec::Predicate> sort_preds = {
      codec::Predicate::True(), codec::Predicate::Between(5, 30),
      codec::Predicate::True(), codec::Predicate::True()};
  std::vector<size_t> order;
  for (size_t i = 0; i < ref.rows(); ++i) {
    if (ref.Passes(i, sort_preds)) order.push_back(i);
  }
  std::stable_sort(order.begin(), order.end(), [&](size_t x, size_t y) {
    return ref.cols[2][x] > ref.cols[2][y];
  });
  order.resize(1000);
  ASSERT_GE(ref.cols[2][order.back()], 100);  // every row from the tail
  plan::SortQuery sort;
  sort.selection = MakeSelection(BindColumns(*snap), sort_preds);
  sort.sort_index = 2;
  sort.desc = true;
  sort.limit = order.size();
  for (plan::Strategy s : plan::kAllStrategies) {
    for (int workers : kWorkerCounts) {
      plan::PlanConfig config;
      config.num_workers = workers;
      config.snapshot = snap;
      ASSERT_OK_AND_ASSIGN(api::QueryResult r,
                           api::Connection(db_.get()).Query(
                               plan::PlanTemplate::Sort(sort, s, config)));
      ASSERT_EQ(r.tuples.num_tuples(), order.size())
          << StrategyName(s) << " workers=" << workers;
      for (size_t i = 0; i < order.size(); ++i) {
        for (uint32_t c = 0; c < 4; ++c) {
          ASSERT_EQ(r.tuples.value(i, c), ref.cols[c][order[i]])
              << StrategyName(s) << " workers=" << workers << " row " << i;
        }
      }
    }
  }

  // A join whose inner side is this table, in every right and left mode:
  // outer keys o.key hit read-store and tail rows of t.k, deleted ones
  // included. The outer table has a tail and deletes of its own, and the
  // outer filter keeps keys from kBase - 30000 on.
  constexpr size_t kOuter = 20000;
  constexpr size_t kOuterTail = 9000;
  RefTable oref(2);
  std::vector<Value> okey(kOuter);
  std::vector<Value> opay(kOuter);
  for (size_t i = 0; i < kOuter; ++i) {
    okey[i] = static_cast<Value>(rng.Uniform(kBase + kTail + 100));
    opay[i] = static_cast<Value>(i);
    oref.Append({{okey[i], opay[i]}});
  }
  MakeTable("o", {{"key", codec::Encoding::kUncompressed, okey},
                  {"payload", codec::Encoding::kUncompressed, opay}});
  std::vector<std::vector<Value>> otail;
  for (size_t i = 0; i < kOuterTail; ++i) {
    otail.push_back({static_cast<Value>(rng.Uniform(kBase + kTail + 100)),
                     static_cast<Value>(kOuter + i)});
  }
  ASSERT_OK(db_->Insert("o", otail));
  oref.Append(otail);
  // Deletes in the outer read store and in its tail.
  for (const codec::Predicate& gone :
       {codec::Predicate::Between(100, 900),
        codec::Predicate::Between(kOuter + 2000, kOuter + 2500)}) {
    ASSERT_OK_AND_ASSIGN(uint64_t n, db_->DeleteWhere("o", {{"payload", gone}}));
    EXPECT_EQ(n, oref.DeleteWhere(1, gone));
  }
  const codec::Predicate outer_pred =
      codec::Predicate::GreaterEqual(kBase - 30000);
  std::multiset<std::pair<Value, Value>> expected;
  for (size_t i = 0; i < oref.rows(); ++i) {
    if (oref.deleted[i] || !outer_pred.Eval(oref.cols[0][i])) continue;
    const size_t pos = static_cast<size_t>(oref.cols[0][i]);  // t.k == pos
    if (pos < ref.rows() && !ref.deleted[pos]) {
      expected.emplace(oref.cols[1][i], ref.cols[2][pos]);
    }
  }
  plan::JoinQuery join;
  ASSERT_OK_AND_ASSIGN(join.left_key, db_->GetColumn("o_key"));
  ASSERT_OK_AND_ASSIGN(join.left_payload, db_->GetColumn("o_payload"));
  ASSERT_OK_AND_ASSIGN(join.right_key, db_->GetColumn("t_k"));
  ASSERT_OK_AND_ASSIGN(join.right_payload, db_->GetColumn("t_v"));
  join.left_pred = outer_pred;
  join.right_snapshot = snap;
  ASSERT_OK_AND_ASSIGN(auto outer_snap, db_->SnapshotTable("o"));
  ASSERT_EQ(outer_snap->tail_rows(), kOuterTail);
  for (exec::JoinRightMode mode :
       {exec::JoinRightMode::kMaterialized, exec::JoinRightMode::kMultiColumn,
        exec::JoinRightMode::kSingleColumn}) {
    for (exec::JoinLeftMode left :
         {exec::JoinLeftMode::kLate, exec::JoinLeftMode::kEarly}) {
      join.left_mode = left;
      for (int workers : kWorkerCounts) {
        plan::PlanConfig config;
        config.num_workers = workers;
        config.morsel_positions = kChunkPositions;
        config.snapshot = outer_snap;
        ASSERT_OK_AND_ASSIGN(api::QueryResult r,
                             api::Connection(db_.get()).Query(
                                 plan::PlanTemplate::Join(join, mode, config)));
        std::multiset<std::pair<Value, Value>> got;
        for (size_t i = 0; i < r.tuples.num_tuples(); ++i) {
          got.emplace(r.tuples.value(i, 0), r.tuples.value(i, 1));
        }
        EXPECT_TRUE(got == expected)
            << exec::JoinRightModeName(mode) << " left "
            << (left == exec::JoinLeftMode::kLate ? "late" : "early")
            << " workers=" << workers << " got " << got.size()
            << " expected " << expected.size();
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Edge cases: empty tables, zero-match deletes, inserts into empty tables.
// ---------------------------------------------------------------------------

class WriteEdgeTest : public WriteTest {
 protected:
  void SetUp() override {
    OpenDb();
    MakeTable("e", {{"a", codec::Encoding::kUncompressed, {}},
                    {"b", codec::Encoding::kRle, {}}});
  }

  std::vector<codec::Predicate> Preds() const {
    return {codec::Predicate::LessThan(50), codec::Predicate::True()};
  }
};

TEST_F(WriteEdgeTest, ScanEmptyTableAllStrategies) {
  ASSERT_OK_AND_ASSIGN(auto snap, db_->SnapshotTable("e"));
  EXPECT_EQ(snap->total_rows(), 0u);
  CheckSelectionAllStrategies(snap, Preds(), {0, 0}, "empty-sel");
  CheckAggAllStrategies(snap, Preds(), 0, 1, {0, 0}, "empty-agg");
}

TEST_F(WriteEdgeTest, DeleteMatchingNothing) {
  // On the empty table...
  ASSERT_OK_AND_ASSIGN(uint64_t d0,
                       db_->DeleteWhere(
                           "e", {{"a", codec::Predicate::Equal(1)}}));
  EXPECT_EQ(d0, 0u);
  // ... and on a populated one, with a predicate no row matches.
  ASSERT_OK(db_->Insert("e", {{1, 10}, {2, 20}, {3, 30}}));
  ASSERT_OK_AND_ASSIGN(uint64_t d1,
                       db_->DeleteWhere(
                           "e", {{"a", codec::Predicate::Equal(999)}}));
  EXPECT_EQ(d1, 0u);
  ASSERT_OK_AND_ASSIGN(auto snap, db_->SnapshotTable("e"));
  EXPECT_FALSE(snap->has_deletes());
  RefTable ref(2);
  ref.Append({{1, 10}, {2, 20}, {3, 30}});
  CheckSelectionAllStrategies(snap, Preds(), ref.ExpectedSelection(Preds()),
                              "nothing-deleted");
}

TEST_F(WriteEdgeTest, InsertIntoEmptyTableThenAggregate) {
  RefTable ref(2);
  std::vector<std::vector<Value>> rows;
  Random rng(9);
  for (int i = 0; i < 300; ++i) {
    rows.push_back({static_cast<Value>(rng.Uniform(100)),
                    static_cast<Value>(rng.Uniform(10))});
  }
  ASSERT_OK(db_->Insert("e", rows));
  ref.Append(rows);

  ASSERT_OK_AND_ASSIGN(auto snap, db_->SnapshotTable("e"));
  EXPECT_EQ(snap->base_rows(), 0u);
  EXPECT_EQ(snap->tail_rows(), 300u);
  CheckSelectionAllStrategies(snap, Preds(), ref.ExpectedSelection(Preds()),
                              "ws-only-sel");
  CheckAggAllStrategies(snap, Preds(), 1, 0,
                        ref.ExpectedGroupSum(Preds(), 1, 0), "ws-only-agg");

  // Compact the pure-tail table and re-check.
  ASSERT_OK_AND_ASSIGN(uint64_t moved, db_->CompactTable("e"));
  EXPECT_EQ(moved, 300u);
  ASSERT_OK_AND_ASSIGN(auto snap2, db_->SnapshotTable("e"));
  EXPECT_EQ(snap2->base_rows(), 300u);
  CheckSelectionAllStrategies(snap2, Preds(), ref.ExpectedSelection(Preds()),
                              "ws-only-compacted");
}

// ---------------------------------------------------------------------------
// SQL surface: INSERT INTO ... VALUES / DELETE FROM ... WHERE.
// ---------------------------------------------------------------------------

TEST_F(WriteTest, SqlInsertDeleteSelect) {
  OpenDb();
  std::vector<Value> a = testing::RunnyValues(1000, 50, 2.0, 11);
  std::vector<Value> b = testing::RunnyValues(1000, 10, 1.0, 12);
  MakeTable("s", {{"a", codec::Encoding::kUncompressed, a},
                  {"b", codec::Encoding::kRle, b}});
  RefTable ref(2);
  for (size_t i = 0; i < a.size(); ++i) ref.Append({{a[i], b[i]}});

  api::Connection conn(db_.get());
  ASSERT_OK_AND_ASSIGN(
      api::QueryResult ins,
      conn.Query("INSERT INTO s VALUES (7, 3), (8, 4), (7, 5)"));
  EXPECT_TRUE(ins.is_write);
  EXPECT_EQ(ins.rows_affected, 3u);
  ref.Append({{7, 3}, {8, 4}, {7, 5}});

  ASSERT_OK_AND_ASSIGN(api::QueryResult del,
                       conn.Query("DELETE FROM s WHERE b = 4"));
  EXPECT_TRUE(del.is_write);
  EXPECT_EQ(del.rows_affected, ref.DeleteWhere(1, codec::Predicate::Equal(4)));

  auto expected =
      ref.ExpectedSelection({codec::Predicate::True(),
                             codec::Predicate::True()});
  for (plan::Strategy s : plan::kAllStrategies) {
    ASSERT_OK_AND_ASSIGN(api::QueryResult sel,
                         conn.Query("SELECT a, b FROM s", s));
    EXPECT_EQ(sel.stats.output_tuples, expected.first) << StrategyName(s);
    EXPECT_EQ(sel.stats.checksum, expected.second) << StrategyName(s);
  }

  // Aggregate over the mixed state (advisor-chosen strategy).
  std::map<Value, int64_t> sums;
  for (size_t i = 0; i < ref.rows(); ++i) {
    if (!ref.deleted[i]) sums[ref.cols[1][i]] += ref.cols[0][i];
  }
  ASSERT_OK_AND_ASSIGN(api::QueryResult agg,
                       conn.Query("SELECT b, SUM(a) FROM s GROUP BY b"));
  ASSERT_EQ(agg.stats.output_tuples, sums.size());

  // DELETE FROM without WHERE empties the table: it marks every live row
  // and reads no column.
  uint64_t live = 0;
  for (size_t i = 0; i < ref.rows(); ++i) live += ref.deleted[i] ? 0 : 1;
  ASSERT_OK_AND_ASSIGN(api::QueryResult wipe, conn.Query("DELETE FROM s"));
  EXPECT_EQ(wipe.rows_affected, live);
  EXPECT_EQ(wipe.stats.exec.values_gathered, 0u);
  EXPECT_EQ(wipe.stats.exec.tuples_constructed, 0u);
  EXPECT_EQ(wipe.stats.exec.blocks_fetched, 0u);
  ASSERT_OK_AND_ASSIGN(api::QueryResult none, conn.Query("SELECT a FROM s"));
  EXPECT_EQ(none.stats.output_tuples, 0u);

  // Arity errors are reported.
  auto bad = conn.Query("INSERT INTO s VALUES (1)");
  EXPECT_FALSE(bad.ok());
}

TEST_F(WriteTest, SqlBatchSeesSubmitOrderSnapshots) {
  OpenDb();
  MakeTable("s2", {{"a", codec::Encoding::kUncompressed,
                    std::vector<Value>{1, 2, 3}}});
  sched::Scheduler scheduler({2});
  api::Connection conn(db_.get(), &scheduler);
  std::vector<api::PendingResult> batch;
  for (const char* sql :
       {"SELECT a FROM s2", "INSERT INTO s2 VALUES (4), (5)",
        "SELECT a FROM s2", "DELETE FROM s2 WHERE a < 3", "SELECT a FROM s2"}) {
    batch.push_back(conn.Submit(sql));
  }
  ASSERT_EQ(batch.size(), 5u);
  ASSERT_OK_AND_ASSIGN(api::QueryResult r0, batch[0].Wait());
  EXPECT_EQ(r0.stats.output_tuples, 3u);
  ASSERT_OK_AND_ASSIGN(api::QueryResult r1, batch[1].Wait());
  EXPECT_EQ(r1.rows_affected, 2u);
  ASSERT_OK_AND_ASSIGN(api::QueryResult r2, batch[2].Wait());
  EXPECT_EQ(r2.stats.output_tuples, 5u);
  ASSERT_OK_AND_ASSIGN(api::QueryResult r3, batch[3].Wait());
  EXPECT_EQ(r3.rows_affected, 2u);
  ASSERT_OK_AND_ASSIGN(api::QueryResult r4, batch[4].Wait());
  EXPECT_EQ(r4.stats.output_tuples, 3u);
}

}  // namespace
}  // namespace cstore
