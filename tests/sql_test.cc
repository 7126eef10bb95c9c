// SQL front-end tests: lexer, parser, binder semantics, selectivity
// estimation, end-to-end execution, and strategy auto-selection.

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "api/connection.h"
#include "db/database.h"
#include "sql/lexer.h"
#include "sql/parser.h"
#include "test_util.h"
#include "tpch/loader.h"

namespace cstore {
namespace {

using sql::Condition;
using sql::Parse;
using sql::ParsedQuery;
using sql::TokenType;
using testing::TempDir;

TEST(LexerTest, TokenizesQuery) {
  auto tokens = sql::Tokenize(
      "SELECT a, SUM(b) FROM t WHERE a < 10 AND b >= 'x' GROUP BY a");
  ASSERT_TRUE(tokens.ok());
  std::vector<TokenType> types;
  for (const auto& t : *tokens) types.push_back(t.type);
  EXPECT_EQ(types,
            (std::vector<TokenType>{
                TokenType::kSelect, TokenType::kIdentifier, TokenType::kComma,
                TokenType::kSum, TokenType::kLParen, TokenType::kIdentifier,
                TokenType::kRParen, TokenType::kFrom, TokenType::kIdentifier,
                TokenType::kWhere, TokenType::kIdentifier, TokenType::kLess,
                TokenType::kInteger, TokenType::kAnd, TokenType::kIdentifier,
                TokenType::kGreaterEq, TokenType::kString, TokenType::kGroup,
                TokenType::kBy, TokenType::kIdentifier, TokenType::kEof}));
}

TEST(LexerTest, KeywordsCaseInsensitive) {
  auto tokens = sql::Tokenize("select From WHERE and");
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ((*tokens)[0].type, TokenType::kSelect);
  EXPECT_EQ((*tokens)[1].type, TokenType::kFrom);
  EXPECT_EQ((*tokens)[2].type, TokenType::kWhere);
  EXPECT_EQ((*tokens)[3].type, TokenType::kAnd);
}

TEST(LexerTest, NegativeIntegersAndOperators) {
  auto tokens = sql::Tokenize("a <= -42 <> != >=");
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ((*tokens)[1].type, TokenType::kLessEq);
  EXPECT_EQ((*tokens)[2].type, TokenType::kInteger);
  EXPECT_EQ((*tokens)[2].number, -42);
  EXPECT_EQ((*tokens)[3].type, TokenType::kNotEq);
  EXPECT_EQ((*tokens)[4].type, TokenType::kNotEq);
  EXPECT_EQ((*tokens)[5].type, TokenType::kGreaterEq);
}

TEST(LexerTest, RejectsGarbage) {
  EXPECT_FALSE(sql::Tokenize("SELECT $ FROM t").ok());
  EXPECT_FALSE(sql::Tokenize("SELECT 'unterminated").ok());
  EXPECT_FALSE(sql::Tokenize("a ! b").ok());
}

TEST(ParserTest, SimpleSelection) {
  auto q = Parse("SELECT shipdate, linenum FROM lineitem "
                 "WHERE shipdate < 100 AND linenum < 7");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  EXPECT_EQ(q->table, "lineitem");
  ASSERT_EQ(q->items.size(), 2u);
  EXPECT_EQ(q->items[0].column, "shipdate");
  EXPECT_FALSE(q->items[0].aggregated);
  ASSERT_EQ(q->conditions.size(), 2u);
  EXPECT_EQ(q->conditions[0].column, "shipdate");
  EXPECT_EQ(q->conditions[0].op, Condition::Op::kLess);
  EXPECT_EQ(q->conditions[0].a.int_value, 100);
  EXPECT_FALSE(q->group_by.has_value());
}

TEST(ParserTest, AggregateWithGroupBy) {
  auto q = Parse("SELECT shipdate, SUM(linenum) FROM lineitem "
                 "WHERE linenum < 7 GROUP BY shipdate");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  ASSERT_EQ(q->items.size(), 2u);
  EXPECT_TRUE(q->items[1].aggregated);
  EXPECT_EQ(q->items[1].func, exec::AggFunc::kSum);
  ASSERT_TRUE(q->group_by.has_value());
  EXPECT_EQ(*q->group_by, "shipdate");
}

TEST(ParserTest, BetweenSwallowsItsAnd) {
  auto q = Parse("SELECT a FROM t WHERE a BETWEEN 5 AND 10 AND b = 3");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  ASSERT_EQ(q->conditions.size(), 2u);
  EXPECT_EQ(q->conditions[0].op, Condition::Op::kBetween);
  EXPECT_EQ(q->conditions[0].a.int_value, 5);
  EXPECT_EQ(q->conditions[0].b.int_value, 10);
  EXPECT_EQ(q->conditions[1].op, Condition::Op::kEq);
}

TEST(ParserTest, DateLiteralsAndStar) {
  auto q = Parse("SELECT * FROM lineitem WHERE shipdate < '1995-01-01'");
  ASSERT_TRUE(q.ok());
  EXPECT_TRUE(q->items[0].star);
  EXPECT_TRUE(q->conditions[0].a.is_date);
  EXPECT_EQ(q->conditions[0].a.date_text, "1995-01-01");
}

TEST(ParserTest, UpdateStatement) {
  auto stmt = sql::ParseStatement(
      "UPDATE t SET b = 5, c = '1993-01-01' WHERE a < 10 AND b <> 3");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  ASSERT_EQ(stmt->kind, sql::ParsedStatement::Kind::kUpdate);
  EXPECT_EQ(stmt->update.table, "t");
  ASSERT_EQ(stmt->update.sets.size(), 2u);
  EXPECT_EQ(stmt->update.sets[0].first, "b");
  EXPECT_EQ(stmt->update.sets[0].second.int_value, 5);
  EXPECT_TRUE(stmt->update.sets[1].second.is_date);
  ASSERT_EQ(stmt->update.conditions.size(), 2u);
  EXPECT_EQ(stmt->update.conditions[1].op, Condition::Op::kNotEq);

  EXPECT_FALSE(sql::ParseStatement("UPDATE t SET").ok());
  EXPECT_FALSE(sql::ParseStatement("UPDATE t b = 5").ok());
  EXPECT_FALSE(sql::ParseStatement("UPDATE t SET b < 5").ok());
  EXPECT_FALSE(sql::ParseStatement("UPDATE t SET b = 1, b = 2").ok());
}

TEST(ParserTest, PositionalParameters) {
  auto stmt = sql::ParseStatement(
      "SELECT a FROM t WHERE a BETWEEN ? AND ? AND b = ?");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  EXPECT_EQ(stmt->param_count, 3);
  const auto& conds = stmt->select.conditions;
  ASSERT_EQ(conds.size(), 2u);
  EXPECT_TRUE(conds[0].a.is_param);
  EXPECT_EQ(conds[0].a.param_index, 0);
  EXPECT_TRUE(conds[0].b.is_param);
  EXPECT_EQ(conds[0].b.param_index, 1);
  EXPECT_EQ(conds[1].a.param_index, 2);

  auto ins = sql::ParseStatement("INSERT INTO t VALUES (?, 2, ?)");
  ASSERT_TRUE(ins.ok());
  EXPECT_EQ(ins->param_count, 2);
  EXPECT_TRUE(ins->insert.rows[0][0].is_param);
  EXPECT_FALSE(ins->insert.rows[0][1].is_param);

  auto upd = sql::ParseStatement("UPDATE t SET b = ? WHERE a = ?");
  ASSERT_TRUE(upd.ok());
  EXPECT_EQ(upd->param_count, 2);

  // '?' is only a literal, never a column or table.
  EXPECT_FALSE(sql::ParseStatement("SELECT ? FROM t").ok());
  EXPECT_FALSE(sql::ParseStatement("SELECT a FROM ?").ok());
}

TEST(ParserTest, RejectsMalformed) {
  EXPECT_FALSE(Parse("").ok());
  EXPECT_FALSE(Parse("SELECT FROM t").ok());
  EXPECT_FALSE(Parse("SELECT a FROM").ok());
  EXPECT_FALSE(Parse("SELECT a t WHERE x < 1").ok());
  EXPECT_FALSE(Parse("SELECT a FROM t WHERE a <").ok());
  EXPECT_FALSE(Parse("SELECT a FROM t GROUP a").ok());
  EXPECT_FALSE(Parse("SELECT SUM(a FROM t").ok());
  EXPECT_FALSE(Parse("SELECT a FROM t trailing garbage").ok());
}

class SqlEngineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db::Database::Options opts;
    opts.dir = dir_.path();
    auto db = db::Database::Open(opts);
    ASSERT_TRUE(db.ok());
    db_ = std::move(db).value();

    const size_t n = 60000;
    a_ = testing::SortedRunnyValues(n, 500, 8.0, 1);
    b_ = testing::RunnyValues(n, 7, 2.0, 2);
    c_ = testing::RunnyValues(n, 100, 1.0, 3);
    ASSERT_OK(db_->CreateColumn("t.a", codec::Encoding::kRle, a_));
    ASSERT_OK(db_->CreateColumn("t.b", codec::Encoding::kUncompressed, b_));
    ASSERT_OK(db_->CreateColumn("t.c", codec::Encoding::kUncompressed, c_));
    ASSERT_OK(db_->RegisterTable(
        "t", {{"a", "t.a"}, {"b", "t.b"}, {"c", "t.c"}}));
    conn_ = std::make_unique<api::Connection>(db_.get());
  }

  TempDir dir_;
  std::unique_ptr<db::Database> db_;
  std::vector<Value> a_, b_, c_;
  std::unique_ptr<api::Connection> conn_;
};

TEST_F(SqlEngineTest, SelectionEndToEnd) {
  auto r = conn_->Query("SELECT a, b FROM t WHERE a < 100 AND b < 6",
                        plan::Strategy::kLmParallel);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->column_names, (std::vector<std::string>{"a", "b"}));
  uint64_t expected = 0;
  for (size_t i = 0; i < a_.size(); ++i) {
    if (a_[i] < 100 && b_[i] < 6) ++expected;
  }
  EXPECT_EQ(r->tuples.num_tuples(), expected);
}

TEST_F(SqlEngineTest, WhereOnlyColumnsProjectedOut) {
  auto r = conn_->Query("SELECT b FROM t WHERE a < 50",
                        plan::Strategy::kEmParallel);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->tuples.width(), 1u);
  size_t j = 0;
  for (size_t i = 0; i < a_.size(); ++i) {
    if (a_[i] < 50) {
      ASSERT_LT(j, r->tuples.num_tuples());
      EXPECT_EQ(r->tuples.value(j, 0), b_[i]);
      ++j;
    }
  }
  EXPECT_EQ(r->tuples.num_tuples(), j);
}

TEST_F(SqlEngineTest, StarExpandsAllColumns) {
  auto r = conn_->Query("SELECT * FROM t WHERE a = 0");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->column_names, (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(r->tuples.width(), 3u);
}

TEST_F(SqlEngineTest, RangeConditionsMergeIntoBetween) {
  auto r = conn_->Query(
      "SELECT a FROM t WHERE a >= 100 AND a < 200",
      plan::Strategy::kLmParallel);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  uint64_t expected = 0;
  for (Value v : a_) {
    if (v >= 100 && v < 200) ++expected;
  }
  EXPECT_EQ(r->tuples.num_tuples(), expected);
}

TEST_F(SqlEngineTest, AggregateEndToEnd) {
  auto r = conn_->Query(
      "SELECT a, SUM(b) FROM t WHERE b < 6 GROUP BY a");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  std::map<Value, int64_t> expected;
  for (size_t i = 0; i < a_.size(); ++i) {
    if (b_[i] < 6) expected[a_[i]] += b_[i];
  }
  ASSERT_EQ(r->tuples.num_tuples(), expected.size());
  size_t i = 0;
  for (const auto& [g, s] : expected) {
    EXPECT_EQ(r->tuples.value(i, 0), g);
    EXPECT_EQ(r->tuples.value(i, 1), s);
    ++i;
  }
}

TEST_F(SqlEngineTest, AggregateColumnOrderFollowsSelectList) {
  auto r = conn_->Query(
      "SELECT COUNT(b), a FROM t GROUP BY a");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->column_names[0], "agg(b)");
  EXPECT_EQ(r->column_names[1], "a");
  std::map<Value, int64_t> counts;
  for (size_t i = 0; i < a_.size(); ++i) ++counts[a_[i]];
  ASSERT_EQ(r->tuples.num_tuples(), counts.size());
  size_t i = 0;
  for (const auto& [g, c] : counts) {
    EXPECT_EQ(r->tuples.value(i, 0), c);  // aggregate first per select list
    EXPECT_EQ(r->tuples.value(i, 1), g);
    ++i;
  }
}

TEST_F(SqlEngineTest, GlobalAggregates) {
  // No GROUP BY: a single aggregate over the filtered rows.
  int64_t sum = 0;
  int64_t count = 0;
  Value vmin = 0;
  Value vmax = 0;
  bool first = true;
  for (size_t i = 0; i < a_.size(); ++i) {
    if (a_[i] >= 100) continue;
    sum += b_[i];
    ++count;
    vmin = first ? b_[i] : std::min(vmin, b_[i]);
    vmax = first ? b_[i] : std::max(vmax, b_[i]);
    first = false;
  }

  struct Case {
    const char* sql;
    int64_t expected;
  };
  const Case cases[] = {
      {"SELECT SUM(b) FROM t WHERE a < 100", sum},
      {"SELECT COUNT(b) FROM t WHERE a < 100", count},
      {"SELECT MIN(b) FROM t WHERE a < 100", vmin},
      {"SELECT MAX(b) FROM t WHERE a < 100", vmax},
      {"SELECT AVG(b) FROM t WHERE a < 100", count ? sum / count : 0},
  };
  for (const Case& c : cases) {
    for (plan::Strategy s :
         {plan::Strategy::kEmParallel, plan::Strategy::kLmParallel,
          plan::Strategy::kLmPipelined}) {
      auto r = conn_->Query(c.sql, s);
      ASSERT_TRUE(r.ok()) << c.sql << ": " << r.status().ToString();
      ASSERT_EQ(r->tuples.num_tuples(), 1u) << c.sql;
      EXPECT_EQ(r->tuples.value(0, 0), c.expected)
          << c.sql << " via " << StrategyName(s);
    }
  }
}

TEST_F(SqlEngineTest, AvgWithGroupBy) {
  auto r = conn_->Query("SELECT a, AVG(c) FROM t GROUP BY a",
                        plan::Strategy::kLmParallel);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  std::map<Value, std::pair<int64_t, int64_t>> acc;  // sum, count
  for (size_t i = 0; i < a_.size(); ++i) {
    acc[a_[i]].first += c_[i];
    acc[a_[i]].second += 1;
  }
  ASSERT_EQ(r->tuples.num_tuples(), acc.size());
  size_t i = 0;
  for (const auto& [g, sc] : acc) {
    EXPECT_EQ(r->tuples.value(i, 0), g);
    EXPECT_EQ(r->tuples.value(i, 1), sc.first / sc.second);
    ++i;
  }
}

TEST_F(SqlEngineTest, GlobalAggregateRejectsExtraItems) {
  EXPECT_TRUE(
      conn_->Query("SELECT a, SUM(b) FROM t").status().IsNotSupported());
  EXPECT_TRUE(conn_->Query("SELECT SUM(a), SUM(b) FROM t")
                  .status()
                  .IsNotSupported());
}

TEST_F(SqlEngineTest, AutoStrategyRunsAndAgreesWithExplicit) {
  const char* query = "SELECT a, b FROM t WHERE a < 250 AND b < 7";
  auto auto_r = conn_->Query(query);
  ASSERT_TRUE(auto_r.ok()) << auto_r.status().ToString();
  auto explicit_r = conn_->Query(query, plan::Strategy::kEmParallel);
  ASSERT_TRUE(explicit_r.ok());
  EXPECT_EQ(auto_r->stats.checksum, explicit_r->stats.checksum);
  EXPECT_EQ(auto_r->tuples.num_tuples(), explicit_r->tuples.num_tuples());
}

TEST_F(SqlEngineTest, ErrorsSurfaceCleanly) {
  EXPECT_TRUE(conn_->Query("SELECT a FROM missing").status().IsNotFound());
  EXPECT_TRUE(
      conn_->Query("SELECT ghost FROM t").status().IsNotFound());
  // A quoted literal that isn't a date binds as a string literal (interned
  // at >= 1 << 40 for the system.* string columns), so comparing it against
  // an integer column succeeds and simply matches every row below the id —
  // not an error. Equality with a never-interned-in-data string matches
  // nothing.
  auto str_eq = conn_->Query("SELECT a FROM t WHERE a = 'not-a-date'");
  ASSERT_TRUE(str_eq.ok()) << str_eq.status().ToString();
  EXPECT_EQ(str_eq->tuples.num_tuples(), 0u);
  EXPECT_TRUE(conn_->Query("SELECT SUM(a), SUM(b) FROM t GROUP BY a")
                  .status()
                  .IsNotSupported());
  EXPECT_FALSE(
      conn_->Query("SELECT b, SUM(b) FROM t GROUP BY a").ok());
}

TEST_F(SqlEngineTest, SelectivityEstimates) {
  codec::ColumnMeta meta;
  meta.num_values = 1000;
  meta.min_value = 0;
  meta.max_value = 99;  // width 100
  meta.num_distinct = 100;
  EXPECT_NEAR(api::EstimateSelectivity(meta,
                                       codec::Predicate::LessThan(50)),
              0.5, 1e-9);
  EXPECT_NEAR(api::EstimateSelectivity(meta,
                                       codec::Predicate::GreaterEqual(90)),
              0.1, 1e-9);
  EXPECT_NEAR(api::EstimateSelectivity(meta, codec::Predicate::Equal(5)),
              0.01, 1e-9);
  EXPECT_NEAR(api::EstimateSelectivity(meta,
                                       codec::Predicate::Between(10, 19)),
              0.1, 1e-9);
  EXPECT_NEAR(api::EstimateSelectivity(meta, codec::Predicate::True()),
              1.0, 1e-9);
  // Out-of-domain thresholds clamp.
  EXPECT_NEAR(api::EstimateSelectivity(meta,
                                       codec::Predicate::LessThan(-5)),
              0.0, 1e-9);
  EXPECT_NEAR(api::EstimateSelectivity(meta,
                                       codec::Predicate::LessThan(1000)),
              1.0, 1e-9);
}

TEST_F(SqlEngineTest, ExplainReportsAllStrategies) {
  auto report =
      conn_->Explain("SELECT a, b FROM t WHERE a < 100 AND b < 6");
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  for (plan::Strategy s : plan::kAllStrategies) {
    EXPECT_NE(report->find(StrategyName(s)), std::string::npos)
        << *report;
  }
  EXPECT_NE(report->find("<- chosen"), std::string::npos);
  EXPECT_NE(report->find("inputs:"), std::string::npos);

  auto agg_report =
      conn_->Explain("SELECT a, SUM(b) FROM t GROUP BY a");
  ASSERT_TRUE(agg_report.ok());
  EXPECT_NE(agg_report->find("groups:"), std::string::npos);

  EXPECT_FALSE(conn_->Explain("SELECT nope FROM t").ok());
}

TEST_F(SqlEngineTest, UpdateThroughSql) {
  // UPDATE through the SQL front end.
  uint64_t expected = 0;
  for (size_t i = 0; i < a_.size(); ++i) {
    if (a_[i] < 5) ++expected;
  }
  auto upd = conn_->Query("UPDATE t SET c = 12345 WHERE a < 5");
  ASSERT_TRUE(upd.ok()) << upd.status().ToString();
  EXPECT_TRUE(upd->is_write);
  EXPECT_EQ(upd->rows_affected, expected);
  auto check = conn_->Query("SELECT COUNT(c) FROM t WHERE c = 12345");
  ASSERT_TRUE(check.ok());
  ASSERT_EQ(check->tuples.num_tuples(), 1u);
  EXPECT_EQ(static_cast<uint64_t>(check->tuples.value(0, 0)), expected);
}

TEST_F(SqlEngineTest, ParameterizedStatementsNeedPrepare) {
  EXPECT_TRUE(conn_->Query("SELECT a FROM t WHERE a < ?")
                  .status()
                  .IsInvalidArgument());
}

TEST_F(SqlEngineTest, DateLiteralBinding) {
  // a's domain is 0..499 (day offsets); '1993-01-01' = day 366.
  auto r = conn_->Query(
      "SELECT a FROM t WHERE a < '1993-01-01'",
      plan::Strategy::kLmParallel);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  uint64_t expected = 0;
  for (Value v : a_) {
    if (v < 366) ++expected;
  }
  EXPECT_EQ(r->tuples.num_tuples(), expected);
}

// --- Planned conjunctions over lineitem at sf 0.02 (sql_shell's data) -------

class PlanOrderTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    dir_ = new TempDir();
    db::Database::Options opts;
    opts.dir = dir_->path();
    auto db = db::Database::Open(opts);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    db_ = std::move(db).value().release();
    ASSERT_OK(tpch::LoadLineitem(db_, 0.02).status());
  }

  static void TearDownTestSuite() {
    delete db_;
    delete dir_;
    db_ = nullptr;
    dir_ = nullptr;
  }

  static TempDir* dir_;
  static db::Database* db_;
};

TempDir* PlanOrderTest::dir_ = nullptr;
db::Database* PlanOrderTest::db_ = nullptr;

TEST_F(PlanOrderTest, SelectListOrderDoesNotChangeTheWork) {
  // The planner filters shipdate, then quantity, whatever order the select
  // list names the columns in: every list does the `shipdate, quantity`
  // list's predicate evaluations, and lists of the same columns do the
  // same work in every counter.
  const std::string from =
      " FROM lineitem WHERE shipdate < '1992-06-01' AND quantity < 5";
  api::Connection conn(db_);
  for (plan::Strategy s : plan::kAllStrategies) {
    const std::string name = plan::StrategyName(s);
    ASSERT_OK_AND_ASSIGN(api::QueryResult ref,
                         conn.Query("SELECT shipdate, quantity" + from, s));
    ASSERT_GT(ref.stats.output_tuples, 0u);
    if (plan::IsPipelined(s)) {
      // Pipelined plans evaluate quantity only where shipdate passed.
      EXPECT_LT(ref.stats.exec.predicate_evals, 120000u) << name;
    }
    std::map<std::string, plan::RunStats> by_list;
    for (const char* list : {"linenum, quantity", "quantity, linenum",
                             "quantity, shipdate", "shipdate, quantity"}) {
      ASSERT_OK_AND_ASSIGN(api::QueryResult r,
                           conn.Query(std::string("SELECT ") + list + from, s));
      EXPECT_EQ(r.stats.output_tuples, ref.stats.output_tuples)
          << name << ": " << list;
      EXPECT_EQ(r.stats.exec.predicate_evals, ref.stats.exec.predicate_evals)
          << name << ": " << list;
      by_list[list] = r.stats;
    }
    for (auto [a, b] : {std::pair{"linenum, quantity", "quantity, linenum"},
                        std::pair{"quantity, shipdate", "shipdate, quantity"}}) {
      const exec::ExecStats& x = by_list[a].exec;
      const exec::ExecStats& y = by_list[b].exec;
      EXPECT_EQ(x.blocks_fetched, y.blocks_fetched) << name << ": " << a;
      EXPECT_EQ(x.tuples_constructed, y.tuples_constructed)
          << name << ": " << a;
      EXPECT_EQ(x.values_gathered, y.values_gathered) << name << ": " << a;
      EXPECT_EQ(x.position_ands, y.position_ands) << name << ": " << a;
    }
  }
}

TEST_F(PlanOrderTest, ExplainPrintsThePlanOrder) {
  // analytic GROUP BY shape: returnflag has no condition, so it is read
  // for the result, after the two filters.
  api::Connection conn(db_);
  ASSERT_OK_AND_ASSIGN(
      std::string report,
      conn.Explain("SELECT returnflag, SUM(quantity) FROM lineitem WHERE "
                   "shipdate < '1994-03-01' AND quantity < 10 "
                   "GROUP BY returnflag"));
  const size_t at = report.find("\norder: shipdate{filter, sf=");
  ASSERT_NE(at, std::string::npos) << report;
  const std::string line =
      report.substr(at + 1, report.find('\n', at + 1) - at - 1);
  const size_t quantity = line.find(" quantity{filter, sf=0.");
  const size_t returnflag = line.find(" returnflag{output-only, sf=1.000, RL=");
  EXPECT_NE(quantity, std::string::npos) << line;
  EXPECT_NE(returnflag, std::string::npos) << line;
  EXPECT_LT(quantity, returnflag) << line;
}

TEST_F(PlanOrderTest, EqualRanksBreakTiesByColumnName) {
  // Both conditions select nothing on RL-1 columns, so both rank -1:
  // linenum_bv filters first whatever the select list says, which keeps
  // LM-pipelined legal (its bit-vector column is not position-filtered)
  // and the work the same.
  api::Connection conn(db_);
  const std::string from =
      " FROM lineitem WHERE quantity > 100 AND linenum_bv > 100";
  std::optional<plan::RunStats> first;
  for (const char* list : {"quantity, linenum_bv", "linenum_bv, quantity"}) {
    const std::string sql = std::string("SELECT ") + list + from;
    ASSERT_OK_AND_ASSIGN(std::string report, conn.Explain(sql));
    EXPECT_NE(report.find("\norder: linenum_bv{filter, sf=0.000, RL=1.0} "
                          "quantity{filter, sf=0.000, RL=1.0}\n"),
              std::string::npos)
        << report;
    for (plan::Strategy s : {plan::Strategy::kEmPipelined,
                             plan::Strategy::kLmPipelined}) {
      ASSERT_OK_AND_ASSIGN(api::QueryResult r, conn.Query(sql, s));
      EXPECT_EQ(r.stats.output_tuples, 0u);
      if (s != plan::Strategy::kEmPipelined) continue;
      if (!first) first = r.stats;
      EXPECT_EQ(r.stats.exec.blocks_fetched, first->exec.blocks_fetched)
          << list;
      EXPECT_EQ(r.stats.exec.predicate_evals, first->exec.predicate_evals)
          << list;
    }
  }
}

TEST_F(PlanOrderTest, AdvisorRanksOnlyPlansThePlannerBuilds) {
  // A bit-vector column in each scan position. LM-pipelined cannot
  // position-filter it once it is a filter after the first; the advisor's
  // ranking takes the planner's verdict, so every strategy it marks
  // supported builds and answers, every one it marks unsupported is
  // NotSupported, and its own pick always runs.
  const std::string early = "shipdate < '1992-03-01'";
  const std::vector<std::pair<std::string, bool>> cases = {
      // select list, conditioned: second in the order
      {"SELECT linenum_bv, shipdate FROM lineitem WHERE linenum_bv < 3 AND " +
           early,
       false},
      // a GROUP BY's aggregate input
      {"SELECT shipdate, SUM(linenum_bv) FROM lineitem WHERE " + early +
           " AND linenum_bv < 3 GROUP BY shipdate",
       false},
      // WHERE-only
      {"SELECT shipdate, SUM(quantity) FROM lineitem WHERE " + early +
           " AND linenum_bv < 3 GROUP BY shipdate",
       false},
      {"SELECT quantity, shipdate FROM lineitem WHERE " + early +
           " AND linenum_bv < 3 ORDER BY quantity DESC LIMIT 10",
       false},
      // the only filter: first, so never position-filtered
      {"SELECT shipdate, linenum_bv FROM lineitem WHERE linenum_bv = 2", true},
      // unconditioned: output-only, gathered
      {"SELECT linenum_bv, quantity FROM lineitem WHERE " + early +
           " AND quantity < 10",
       true},
  };
  api::Connection conn(db_);
  for (const auto& [sql, lm_pipelined] : cases) {
    ASSERT_OK_AND_ASSIGN(std::string report, conn.Explain(sql));
    std::optional<uint64_t> checksum;
    for (plan::Strategy s : plan::kAllStrategies) {
      const std::string name = plan::StrategyName(s);
      const size_t at = report.find("\n  " + name + " ");
      ASSERT_NE(at, std::string::npos) << name << "\n" << report;
      const std::string line =
          report.substr(at + 1, report.find('\n', at + 1) - at - 1);
      const bool supported = line.find("unsupported") == std::string::npos;
      if (s == plan::Strategy::kLmPipelined) {
        EXPECT_EQ(supported, lm_pipelined) << sql;
      }
      Result<api::QueryResult> r = conn.Query(sql, s);
      if (!supported) {
        EXPECT_TRUE(r.status().IsNotSupported())
            << name << ": " << sql << ": " << r.status().ToString();
        continue;
      }
      ASSERT_TRUE(r.ok()) << name << ": " << sql << ": "
                          << r.status().ToString();
      if (!checksum) checksum = r->stats.checksum;
      EXPECT_EQ(r->stats.checksum, *checksum) << name << ": " << sql;
    }
    Result<api::QueryResult> picked = conn.Query(sql);
    ASSERT_TRUE(picked.ok()) << sql << ": " << picked.status().ToString();
    EXPECT_EQ(picked->stats.checksum, *checksum) << sql;
  }
}

}  // namespace
}  // namespace cstore
