// Database-facade tests: end-to-end open/load/query, catalog behaviour,
// persistence across re-opens, and the executor's RunStats integrity.

#include <memory>

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

TEST(DatabaseTest, OpenCreatesDirectory) {
  TempDir dir;
  db::Database::Options opts;
  opts.dir = dir.path() + "/nested";
  auto db = db::Database::Open(opts);
  ASSERT_TRUE(db.ok());
}

TEST(DatabaseTest, CreateAndQueryColumn) {
  TempDir dir;
  db::Database::Options opts;
  opts.dir = dir.path();
  ASSERT_OK_AND_ASSIGN(auto db, db::Database::Open(opts));

  std::vector<Value> vals = testing::RunnyValues(50000, 100, 1.0, 1);
  ASSERT_OK(db->CreateColumn("col", Encoding::kUncompressed, vals));
  EXPECT_TRUE(db->HasColumn("col"));
  EXPECT_FALSE(db->HasColumn("other"));

  ASSERT_OK_AND_ASSIGN(const codec::ColumnReader* reader,
                       db->GetColumn("col"));
  EXPECT_EQ(reader->num_values(), vals.size());

  plan::SelectionQuery q;
  q.columns.push_back({reader, Predicate::LessThan(10)});
  ASSERT_OK_AND_ASSIGN(api::QueryResult result,
                       api::Connection(db.get()).Query(
                           plan::PlanTemplate::Selection(
                               q, Strategy::kLmParallel)));
  EXPECT_EQ(result.stats.output_tuples,
            testing::NaiveMatches(vals, Predicate::LessThan(10)).size());
  EXPECT_EQ(result.tuples.num_tuples(), result.stats.output_tuples);
  EXPECT_GT(result.stats.wall_micros, 0.0);
}

TEST(DatabaseTest, GetMissingColumnFails) {
  TempDir dir;
  db::Database::Options opts;
  opts.dir = dir.path();
  ASSERT_OK_AND_ASSIGN(auto db, db::Database::Open(opts));
  EXPECT_FALSE(db->GetColumn("ghost").ok());
}

TEST(DatabaseTest, ColumnsPersistAcrossReopen) {
  TempDir dir;
  std::vector<Value> vals = {5, 4, 3, 2, 1};
  {
    db::Database::Options opts;
    opts.dir = dir.path();
    ASSERT_OK_AND_ASSIGN(auto db, db::Database::Open(opts));
    ASSERT_OK(db->CreateColumn("persisted", Encoding::kRle, vals));
  }
  {
    db::Database::Options opts;
    opts.dir = dir.path();
    ASSERT_OK_AND_ASSIGN(auto db, db::Database::Open(opts));
    EXPECT_TRUE(db->HasColumn("persisted"));
    ASSERT_OK_AND_ASSIGN(const codec::ColumnReader* reader,
                         db->GetColumn("persisted"));
    EXPECT_EQ(reader->num_values(), 5u);
    ASSERT_OK_AND_ASSIGN(Value v, reader->ValueAt(0));
    EXPECT_EQ(v, 5);
  }
}

TEST(DatabaseTest, CreateColumnOverwrites) {
  TempDir dir;
  db::Database::Options opts;
  opts.dir = dir.path();
  ASSERT_OK_AND_ASSIGN(auto db, db::Database::Open(opts));
  ASSERT_OK(db->CreateColumn("c", Encoding::kUncompressed, {1, 2, 3}));
  ASSERT_OK(db->CreateColumn("c", Encoding::kUncompressed, {9, 8}));
  ASSERT_OK_AND_ASSIGN(const codec::ColumnReader* reader, db->GetColumn("c"));
  EXPECT_EQ(reader->num_values(), 2u);
  ASSERT_OK_AND_ASSIGN(Value v, reader->ValueAt(0));
  EXPECT_EQ(v, 9);
}

TEST(DatabaseTest, DropCachesForcesPhysicalReads) {
  TempDir dir;
  db::Database::Options opts;
  opts.dir = dir.path();
  ASSERT_OK_AND_ASSIGN(auto db, db::Database::Open(opts));
  std::vector<Value> vals = testing::RunnyValues(100000, 10, 1.0, 2);
  ASSERT_OK(db->CreateColumn("c", Encoding::kUncompressed, vals));
  ASSERT_OK_AND_ASSIGN(const codec::ColumnReader* reader, db->GetColumn("c"));

  plan::SelectionQuery q;
  q.columns.push_back({reader, Predicate::True()});

  ASSERT_OK_AND_ASSIGN(auto r1,
                       api::Connection(db.get()).Query(
                           plan::PlanTemplate::Selection(
                               q, Strategy::kEmParallel)));
  EXPECT_GT(r1.stats.io.physical_reads, 0u);
  // Warm: no physical reads.
  ASSERT_OK_AND_ASSIGN(auto r2,
                       api::Connection(db.get()).Query(
                           plan::PlanTemplate::Selection(
                               q, Strategy::kEmParallel)));
  EXPECT_EQ(r2.stats.io.physical_reads, 0u);
  EXPECT_GT(r2.stats.io.cache_hits, 0u);
  // Cold again after dropping caches.
  db->DropCaches();
  ASSERT_OK_AND_ASSIGN(auto r3,
                       api::Connection(db.get()).Query(
                           plan::PlanTemplate::Selection(
                               q, Strategy::kEmParallel)));
  EXPECT_EQ(r3.stats.io.physical_reads, r1.stats.io.physical_reads);
}

TEST(DatabaseTest, DiskModelChargesAppearInStats) {
  TempDir dir;
  db::Database::Options opts;
  opts.dir = dir.path();
  opts.disk.enabled = true;
  opts.disk.seek_micros = 1000;
  opts.disk.read_micros = 500;
  ASSERT_OK_AND_ASSIGN(auto db, db::Database::Open(opts));
  std::vector<Value> vals = testing::RunnyValues(50000, 10, 1.0, 3);
  ASSERT_OK(db->CreateColumn("c", Encoding::kUncompressed, vals));
  ASSERT_OK_AND_ASSIGN(const codec::ColumnReader* reader, db->GetColumn("c"));

  plan::SelectionQuery q;
  q.columns.push_back({reader, Predicate::True()});
  ASSERT_OK_AND_ASSIGN(auto r,
                       api::Connection(db.get()).Query(
                           plan::PlanTemplate::Selection(
                               q, Strategy::kEmParallel)));
  // 7 blocks cold at 1500us each.
  EXPECT_DOUBLE_EQ(r.stats.charged_io_micros,
                   1500.0 * r.stats.io.physical_reads);
  EXPECT_GT(r.stats.TotalMicros(), r.stats.wall_micros);
}

TEST(DatabaseTest, TableRegistryValidatesAndResolves) {
  TempDir dir;
  db::Database::Options opts;
  opts.dir = dir.path();
  ASSERT_OK_AND_ASSIGN(auto db, db::Database::Open(opts));
  ASSERT_OK(db->CreateColumn("f1", Encoding::kUncompressed, {1, 2, 3}));
  ASSERT_OK(db->CreateColumn("f2", Encoding::kUncompressed, {4, 5, 6}));
  ASSERT_OK(db->CreateColumn("f3", Encoding::kUncompressed, {7, 8}));

  // Mismatched row counts rejected.
  EXPECT_FALSE(db->RegisterTable("bad", {{"a", "f1"}, {"b", "f3"}}).ok());
  // Empty table rejected.
  EXPECT_FALSE(db->RegisterTable("empty", {}).ok());

  ASSERT_OK(db->RegisterTable("good", {{"a", "f1"}, {"b", "f2"}}));
  EXPECT_TRUE(db->HasTable("good"));
  EXPECT_FALSE(db->HasTable("bad"));
  ASSERT_OK_AND_ASSIGN(auto cols, db->TableColumns("good"));
  EXPECT_EQ(cols, (std::vector<std::string>{"a", "b"}));
  ASSERT_OK_AND_ASSIGN(const codec::ColumnReader* ra,
                       db->GetTableColumn("good", "a"));
  ASSERT_OK_AND_ASSIGN(Value v, ra->ValueAt(2));
  EXPECT_EQ(v, 3);
  EXPECT_FALSE(db->GetTableColumn("good", "ghost").ok());
  EXPECT_FALSE(db->GetTableColumn("ghost", "a").ok());
}

TEST(DatabaseTest, CatalogPersistsAcrossReopen) {
  TempDir dir;
  {
    db::Database::Options opts;
    opts.dir = dir.path();
    ASSERT_OK_AND_ASSIGN(auto db, db::Database::Open(opts));
    ASSERT_OK(db->CreateColumn("pc1", Encoding::kRle, {1, 1, 2}));
    ASSERT_OK(db->CreateColumn("pc2", Encoding::kUncompressed, {9, 8, 7}));
    ASSERT_OK(db->RegisterTable("persisted", {{"x", "pc1"}, {"y", "pc2"}}));
  }
  {
    db::Database::Options opts;
    opts.dir = dir.path();
    ASSERT_OK_AND_ASSIGN(auto db, db::Database::Open(opts));
    EXPECT_TRUE(db->HasTable("persisted"));
    ASSERT_OK_AND_ASSIGN(const codec::ColumnReader* ry,
                         db->GetTableColumn("persisted", "y"));
    ASSERT_OK_AND_ASSIGN(Value v, ry->ValueAt(0));
    EXPECT_EQ(v, 9);
    ASSERT_OK_AND_ASSIGN(auto cols, db->TableColumns("persisted"));
    EXPECT_EQ(cols, (std::vector<std::string>{"x", "y"}));
  }
}

TEST(DatabaseTest, ResultTuplesMatchAcrossStrategies) {
  TempDir dir;
  db::Database::Options opts;
  opts.dir = dir.path();
  ASSERT_OK_AND_ASSIGN(auto db, db::Database::Open(opts));
  std::vector<Value> a = testing::SortedRunnyValues(80000, 40, 6.0, 4);
  std::vector<Value> b = testing::RunnyValues(80000, 7, 2.0, 5);
  ASSERT_OK(db->CreateColumn("a", Encoding::kRle, a));
  ASSERT_OK(db->CreateColumn("b", Encoding::kUncompressed, b));
  ASSERT_OK_AND_ASSIGN(const codec::ColumnReader* ra, db->GetColumn("a"));
  ASSERT_OK_AND_ASSIGN(const codec::ColumnReader* rb, db->GetColumn("b"));

  plan::SelectionQuery q;
  q.columns.push_back({ra, Predicate::LessThan(20)});
  q.columns.push_back({rb, Predicate::LessThan(6)});

  ASSERT_OK_AND_ASSIGN(auto em,
                       api::Connection(db.get()).Query(
                           plan::PlanTemplate::Selection(
                               q, Strategy::kEmPipelined)));
  ASSERT_OK_AND_ASSIGN(auto lm,
                       api::Connection(db.get()).Query(
                           plan::PlanTemplate::Selection(
                               q, Strategy::kLmPipelined)));
  ASSERT_EQ(em.tuples.num_tuples(), lm.tuples.num_tuples());
  for (size_t i = 0; i < em.tuples.num_tuples(); ++i) {
    EXPECT_EQ(em.tuples.position(i), lm.tuples.position(i));
    EXPECT_EQ(em.tuples.value(i, 0), lm.tuples.value(i, 0));
    EXPECT_EQ(em.tuples.value(i, 1), lm.tuples.value(i, 1));
  }
}

}  // namespace
}  // namespace cstore
