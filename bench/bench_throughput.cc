// Mixed-workload throughput: the scheduler's reason to exist.
//
// Builds a batch mixing selections, aggregations, and joins across all four
// materialization strategies — the workload shape where the paper's
// per-query strategy choice actually matters — and runs it two ways at each
// (worker count, concurrency) point:
//
//   back-to-back  each query on a standalone api::Connection's W-worker
//                 session pool, one after another
//   shared-pool   all K queries submitted at once to one sched::Scheduler
//                 with W workers, interleaving at morsel granularity
//
// Reported per point: batch wall time, QPS, and p50/p99 per-query latency
// (submit → finalize, so queueing shows up in the tail, as it should).
// Every concurrent result's checksum/output_tuples are verified against the
// query's serial (workers=1) run; any mismatch fails the process — which
// makes this binary double as a CI smoke test for the scheduler.
//
//   ./build/bench_throughput --sf=0.1 --workers=2,4 --concurrency=4,16

#include <algorithm>
#include <string>
#include <vector>

#include "api/connection.h"
#include "bench_common.h"
#include "sched/scheduler.h"
#include "util/stopwatch.h"

namespace cstore {
namespace bench {
namespace {

struct QuerySpec {
  std::string name;
  plan::PlanTemplate tmpl;
  // Serial (workers=1) ground truth.
  uint64_t checksum = 0;
  uint64_t output_tuples = 0;
};

/// Selections + aggregations over every strategy, joins over two inner
/// representations: 10 distinct queries, cycled to the batch size.
std::vector<QuerySpec> BuildSpecs(const tpch::LineitemColumns& li,
                                  const tpch::JoinColumns& jc) {
  plan::SelectionQuery sel;
  Value mid =
      (li.shipdate->meta().min_value + li.shipdate->meta().max_value) / 2;
  sel.columns.push_back({li.shipdate, codec::Predicate::LessThan(mid)});
  sel.columns.push_back({li.quantity, codec::Predicate::LessThan(30)});

  plan::AggQuery agg;
  agg.selection = sel;
  agg.group_index = 0;  // GROUP BY shipdate
  agg.agg_index = 1;    // SUM(quantity)
  agg.func = exec::AggFunc::kSum;

  plan::JoinQuery join;
  join.left_key = jc.orders_custkey;
  join.left_pred = codec::Predicate::LessThan(
      (jc.orders_custkey->meta().min_value +
       jc.orders_custkey->meta().max_value) /
      2);
  join.left_payload = jc.orders_shipdate;
  join.right_key = jc.customer_custkey;
  join.right_payload = jc.customer_nationcode;

  std::vector<QuerySpec> specs;
  for (plan::Strategy s : plan::kAllStrategies) {
    QuerySpec spec;
    spec.name = std::string("sel/") + StrategyName(s);
    spec.tmpl = plan::PlanTemplate::Selection(sel, s);
    specs.push_back(spec);
  }
  for (plan::Strategy s : plan::kAllStrategies) {
    QuerySpec spec;
    spec.name = std::string("agg/") + StrategyName(s);
    spec.tmpl = plan::PlanTemplate::Agg(agg, s);
    specs.push_back(spec);
  }
  for (exec::JoinRightMode m :
       {exec::JoinRightMode::kMaterialized,
        exec::JoinRightMode::kMultiColumn}) {
    QuerySpec spec;
    spec.name = std::string("join/") + exec::JoinRightModeName(m);
    spec.tmpl = plan::PlanTemplate::Join(join, m);
    specs.push_back(spec);
  }
  return specs;
}

}  // namespace
}  // namespace bench
}  // namespace cstore

int main(int argc, char** argv) {
  using namespace cstore;          // NOLINT
  using namespace cstore::bench;   // NOLINT

  BenchOptions opts = ParseArgs(argc, argv);
  if (opts.worker_sweep == std::vector<int>{1}) opts.worker_sweep = {2, 4};
  auto db = OpenBenchDb(opts);
  auto li = tpch::LoadLineitem(db.get(), opts.sf);
  CSTORE_CHECK(li.ok()) << li.status().ToString();
  auto jc = tpch::LoadJoinTables(db.get(), opts.sf);
  CSTORE_CHECK(jc.ok()) << jc.status().ToString();

  std::vector<QuerySpec> specs = BuildSpecs(*li, *jc);

  // Serial ground truth (also warms the buffer pool — throughput batches
  // measure scheduling, not first-touch I/O), via a standalone connection.
  api::Connection conn(db.get());
  for (QuerySpec& spec : specs) {
    plan::PlanTemplate tmpl = spec.tmpl;
    tmpl.config.num_workers = 1;
    auto r = conn.Query(tmpl);
    CSTORE_CHECK(r.ok()) << spec.name << ": " << r.status().ToString();
    spec.checksum = r->stats.checksum;
    spec.output_tuples = r->stats.output_tuples;
  }

  std::printf(
      "# fig=throughput mixed workload: %zu distinct queries "
      "(sf=%.3g, rows=%llu, runs=%d)\n",
      specs.size(), opts.sf,
      static_cast<unsigned long long>(li->num_rows), opts.runs);
  TablePrinter table({"workers", "concurrency", "mode", "wall_ms", "qps",
                      "p50_ms", "p99_ms", "speedup"});
  BenchJson json("throughput");

  int mismatches = 0;
  for (int workers : opts.worker_sweep) {
    for (int concurrency : opts.concurrency_sweep) {
      // The batch: the distinct queries cycled up to the concurrency level.
      std::vector<const QuerySpec*> batch;
      for (int i = 0; i < concurrency; ++i) {
        batch.push_back(&specs[i % specs.size()]);
      }

      double serial_best = 1e100;
      std::vector<double> serial_lat;
      double pooled_best = 1e100;
      std::vector<double> pooled_lat;
      for (int run = 0; run < opts.runs; ++run) {
        // Back-to-back: each query gets all W workers, queries serialize.
        std::vector<double> lat;
        Stopwatch wall;
        for (const QuerySpec* spec : batch) {
          plan::PlanTemplate tmpl = spec->tmpl;
          tmpl.config.num_workers = workers;
          auto r = conn.Query(tmpl);
          CSTORE_CHECK(r.ok()) << spec->name << ": " << r.status().ToString();
          lat.push_back(r->stats.wall_micros / 1000.0);
          if (r->stats.checksum != spec->checksum ||
              r->stats.output_tuples != spec->output_tuples) {
            std::fprintf(stderr, "MISMATCH (back-to-back) %s\n",
                         spec->name.c_str());
            ++mismatches;
          }
        }
        if (wall.ElapsedMillis() < serial_best) {
          serial_best = wall.ElapsedMillis();
          serial_lat = std::move(lat);
        }

        // Shared pool: all K queries in flight on the same W workers.
        lat.clear();
        Stopwatch pooled_wall;
        {
          sched::Scheduler::Options so;
          so.num_workers = workers;
          sched::Scheduler scheduler(so);
          api::Connection pooled(db.get(), &scheduler);
          std::vector<api::PendingResult> pending;
          pending.reserve(batch.size());
          for (const QuerySpec* spec : batch) {
            pending.push_back(
                pooled.Submit(spec->tmpl, /*materialize=*/false));
          }
          for (size_t i = 0; i < pending.size(); ++i) {
            auto r = pending[i].Wait();
            CSTORE_CHECK(r.ok())
                << batch[i]->name << ": " << r.status().ToString();
            lat.push_back(r->stats.wall_micros / 1000.0);
            if (r->stats.checksum != batch[i]->checksum ||
                r->stats.output_tuples != batch[i]->output_tuples) {
              std::fprintf(stderr, "MISMATCH (shared-pool) %s\n",
                           batch[i]->name.c_str());
              ++mismatches;
            }
          }
        }
        if (pooled_wall.ElapsedMillis() < pooled_best) {
          pooled_best = pooled_wall.ElapsedMillis();
          pooled_lat = std::move(lat);
        }
      }

      const double serial_qps = concurrency * 1000.0 / serial_best;
      const double pooled_qps = concurrency * 1000.0 / pooled_best;
      table.AddRow({std::to_string(workers), std::to_string(concurrency),
                    "back-to-back", Fmt(serial_best), Fmt(serial_qps),
                    Fmt(Percentile(serial_lat, 0.5)),
                    Fmt(Percentile(serial_lat, 0.99)), "1.00"});
      table.AddRow({std::to_string(workers), std::to_string(concurrency),
                    "shared-pool", Fmt(pooled_best), Fmt(pooled_qps),
                    Fmt(Percentile(pooled_lat, 0.5)),
                    Fmt(Percentile(pooled_lat, 0.99)),
                    Fmt(serial_best / pooled_best, 2)});
      json.AddRow()
          .Int("workers", workers)
          .Int("concurrency", concurrency)
          .Str("mode", "back-to-back")
          .Num("wall_ms", serial_best)
          .Num("qps", serial_qps)
          .Num("p50_ms", Percentile(serial_lat, 0.5))
          .Num("p99_ms", Percentile(serial_lat, 0.99));
      json.AddRow()
          .Int("workers", workers)
          .Int("concurrency", concurrency)
          .Str("mode", "shared-pool")
          .Num("wall_ms", pooled_best)
          .Num("qps", pooled_qps)
          .Num("p50_ms", Percentile(pooled_lat, 0.5))
          .Num("p99_ms", Percentile(pooled_lat, 0.99));
    }
  }
  table.Print();
  json.WriteAndReport();
  if (mismatches > 0) {
    std::fprintf(stderr, "%d checksum mismatches\n", mismatches);
    return 1;
  }
  return 0;
}
