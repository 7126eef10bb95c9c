// Warehouse analytics: the paper's motivating workload end to end. Loads a
// TPC-H-like lineitem projection, then runs the two query shapes of the
// evaluation — a selection and a grouped aggregation — under every
// materialization strategy, at a selective and a permissive operating point.
//
//   build/examples/warehouse_analytics [scale_factor]

#include <cstdio>
#include <cstdlib>

#include "api/connection.h"
#include "db/database.h"
#include "tpch/dates.h"
#include "tpch/loader.h"

using namespace cstore;  // NOLINT

namespace {

void ShowSelectionAt(db::Database* db, api::Connection* conn,
                     const tpch::LineitemColumns& li,
                     const char* date, Value threshold) {
  plan::SelectionQuery q;
  q.columns.push_back({li.shipdate, codec::Predicate::LessThan(threshold)});
  q.columns.push_back({li.linenum_rle, codec::Predicate::LessThan(7)});

  std::printf(
      "\nSELECT shipdate, linenum FROM lineitem\n"
      "WHERE shipdate < '%s' AND linenum < 7\n",
      date);
  std::printf("%-14s %10s %10s\n", "strategy", "rows", "time(ms)");
  for (plan::Strategy s : plan::kAllStrategies) {
    db->DropCaches();
    auto r = conn->Query(plan::PlanTemplate::Selection(q, s));
    CSTORE_CHECK(r.ok()) << r.status().ToString();
    std::printf("%-14s %10llu %10.1f\n", StrategyName(s),
                static_cast<unsigned long long>(r->stats.output_tuples),
                r->stats.TotalMillis());
  }
}

void ShowAggAt(db::Database* db, api::Connection* conn,
               const tpch::LineitemColumns& li,
               const char* date, Value threshold) {
  plan::AggQuery q;
  q.selection.columns.push_back(
      {li.shipdate, codec::Predicate::LessThan(threshold)});
  q.selection.columns.push_back(
      {li.linenum_rle, codec::Predicate::LessThan(7)});
  q.group_index = 0;
  q.agg_index = 1;
  q.func = exec::AggFunc::kSum;

  std::printf(
      "\nSELECT shipdate, SUM(linenum) FROM lineitem\n"
      "WHERE shipdate < '%s' AND linenum < 7 GROUP BY shipdate\n",
      date);
  std::printf("%-14s %10s %10s\n", "strategy", "groups", "time(ms)");
  uint64_t shown = 0;
  api::QueryResult sample;
  for (plan::Strategy s : plan::kAllStrategies) {
    db->DropCaches();
    auto r = conn->Query(plan::PlanTemplate::Agg(q, s));
    CSTORE_CHECK(r.ok()) << r.status().ToString();
    std::printf("%-14s %10llu %10.1f\n", StrategyName(s),
                static_cast<unsigned long long>(r->stats.output_tuples),
                r->stats.TotalMillis());
    if (shown++ == 0) sample = std::move(*r);
  }
  std::printf("sample groups:\n");
  for (size_t i = 0; i < sample.tuples.num_tuples() && i < 3; ++i) {
    std::printf("  %s  SUM(linenum)=%lld\n",
                tpch::DayToString(
                    static_cast<int32_t>(sample.tuples.value(i, 0)))
                    .c_str(),
                static_cast<long long>(sample.tuples.value(i, 1)));
  }
}

}  // namespace

int main(int argc, char** argv) {
  double sf = argc > 1 ? std::atof(argv[1]) : 0.02;

  db::Database::Options opts;
  opts.dir = "/tmp/cstore_warehouse";
  opts.disk.enabled = true;  // simulate the paper's 2006 disk for cold reads
  auto db_r = db::Database::Open(opts);
  CSTORE_CHECK(db_r.ok()) << db_r.status().ToString();
  auto db = std::move(db_r).value();

  std::printf("loading lineitem projection at scale factor %.3g ...\n", sf);
  auto li_r = tpch::LoadLineitem(db.get(), sf);
  CSTORE_CHECK(li_r.ok()) << li_r.status().ToString();
  tpch::LineitemColumns li = std::move(li_r).value();
  std::printf("%llu rows; shipdate RLE blocks=%llu, linenum RLE blocks=%llu\n",
              static_cast<unsigned long long>(li.num_rows),
              static_cast<unsigned long long>(li.shipdate->num_blocks()),
              static_cast<unsigned long long>(li.linenum_rle->num_blocks()));

  api::Connection conn(db.get());

  // A very selective date (early in the calendar) and a permissive one.
  Value selective = tpch::StringToDay("1992-06-01");
  Value permissive = tpch::StringToDay("1998-01-01");

  ShowSelectionAt(db.get(), &conn, li, "1992-06-01", selective);
  ShowSelectionAt(db.get(), &conn, li, "1998-01-01", permissive);
  ShowAggAt(db.get(), &conn, li, "1992-06-01", selective);
  ShowAggAt(db.get(), &conn, li, "1998-01-01", permissive);

  std::printf(
      "\nRule of thumb (paper Section 6): aggregation, selective predicates\n"
      "or light-weight compression favour LATE materialization; permissive\n"
      "non-aggregated queries favour EARLY materialization.\n");
  return 0;
}
