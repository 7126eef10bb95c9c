// Join scaling: the two-phase (build barrier + morsel-parallel probe) join
// across worker counts, per inner-table representation.
//
// Two panels:
//
//  1. Probe scaling (fig=join): batches of the Section 4.3 orders ⋈
//     customer join (warm buffer pool — this measures the executor, not
//     first-touch I/O), QPS plus speedup over the serial (workers=1) run.
//
//  2. Build-dominated shapes (fig=join-build-shapes): inner ≈ outer and
//     inner > outer joins, where the serial hash build is a large share of
//     the query, swept over workers; each row reports the query wall and
//     the build phase's wall (build_ms).
//
// Self-verification: every run's checksum and output count are compared to
// the serial ground truth; any divergence fails the process, which makes
// this binary double as a CI correctness smoke for the parallel join path.
//
// Machine-readable output: BENCH_join.json (one record per table row;
// rows carry a "section" discriminator).
//
//   ./build/bench_join --sf=0.2 --workers=1,2,4 --runs=3

#include <algorithm>
#include <random>
#include <string>
#include <vector>

#include "api/connection.h"
#include "bench_common.h"
#include "util/stopwatch.h"

namespace cstore {
namespace bench {
namespace {

constexpr exec::JoinRightMode kModes[] = {
    exec::JoinRightMode::kMaterialized,
    exec::JoinRightMode::kMultiColumn,
    exec::JoinRightMode::kSingleColumn,
};

/// A synthetic FK-PK join shape sized in chunk windows, so the build side's
/// weight relative to the probe side is under the bench's control (the TPC-H
/// orders ⋈ customer shape is heavily probe-dominated).
struct BuildShape {
  const char* name;  // display label
  const char* tag;   // column-name-safe identifier
  size_t outer_rows;
  size_t inner_rows;
};

/// Loads (or reuses, the bench dir persists) the two columns of one side.
const codec::ColumnReader* ShapeColumn(db::Database* db,
                                       const std::string& name,
                                       const std::vector<Value>& vals) {
  auto existing = db->GetColumn(name);
  if (existing.ok()) return *existing;
  Status st = db->CreateColumn(name, codec::Encoding::kUncompressed, vals);
  CSTORE_CHECK(st.ok()) << st.ToString();
  auto r = db->GetColumn(name);
  CSTORE_CHECK(r.ok()) << r.status().ToString();
  return *r;
}

plan::JoinQuery MakeShapeQuery(db::Database* db, const BuildShape& shape) {
  std::mt19937_64 rng(0xC57011E5u ^ shape.inner_rows);
  std::vector<Value> inner_key(shape.inner_rows);
  std::vector<Value> inner_payload(shape.inner_rows);
  for (size_t i = 0; i < shape.inner_rows; ++i) {
    inner_key[i] = static_cast<Value>(i + 1);
    inner_payload[i] = static_cast<Value>(rng() % 25);
  }
  std::vector<Value> outer_key(shape.outer_rows);
  std::vector<Value> outer_payload(shape.outer_rows);
  for (size_t i = 0; i < shape.outer_rows; ++i) {
    outer_key[i] = static_cast<Value>(rng() % shape.inner_rows + 1);
    outer_payload[i] = static_cast<Value>(rng() % 3000);
  }
  const std::string prefix = std::string("bshape_") + shape.tag + "_";
  plan::JoinQuery q;
  q.left_key = ShapeColumn(db, prefix + "lk", outer_key);
  q.left_payload = ShapeColumn(db, prefix + "lp", outer_payload);
  q.right_key = ShapeColumn(db, prefix + "rk", inner_key);
  q.right_payload = ShapeColumn(db, prefix + "rp", inner_payload);
  q.left_pred = codec::Predicate::LessThan(
      static_cast<Value>(shape.inner_rows / 2));
  return q;
}

}  // namespace
}  // namespace bench
}  // namespace cstore

int main(int argc, char** argv) {
  using namespace cstore;          // NOLINT
  using namespace cstore::bench;   // NOLINT

  BenchOptions opts = ParseArgs(argc, argv);
  // Bench-local default (same idiom as bench_readwrite): the shared 0.1
  // default is too small for a meaningful probe sweep, so it maps to 0.2
  // (~5 one-window probe morsels). Any other explicit --sf is honoured.
  if (opts.sf == 0.1) opts.sf = 0.2;
  if (opts.worker_sweep == std::vector<int>{1}) opts.worker_sweep = {1, 2, 4};
  auto db = OpenBenchDb(opts);
  auto jc = tpch::LoadJoinTables(db.get(), opts.sf);
  CSTORE_CHECK(jc.ok()) << jc.status().ToString();

  // SELECT orders.shipdate, customer.nationcode FROM orders, customer
  // WHERE orders.custkey = customer.custkey AND orders.custkey < X
  // with X at half the key domain (sf ≈ 0.5 — the Figure 13 midpoint).
  plan::JoinQuery q;
  q.left_key = jc->orders_custkey;
  q.left_pred = codec::Predicate::LessThan(
      static_cast<Value>(jc->num_customers / 2));
  q.left_payload = jc->orders_shipdate;
  q.right_key = jc->customer_custkey;
  q.right_payload = jc->customer_nationcode;

  // One-window morsels so every worker count in the sweep genuinely
  // partitions the probe (auto-sizing would also work; fixing it keeps the
  // sweep comparable across scale factors).
  const int kBatch = 8;
  api::Connection conn(db.get());

  // Serial ground truth per mode (also warms the buffer pool).
  struct Truth {
    uint64_t checksum = 0;
    uint64_t tuples = 0;
  };
  std::vector<Truth> truth;
  for (exec::JoinRightMode mode : kModes) {
    plan::PlanConfig config;
    config.num_workers = 1;
    auto r = conn.Query(plan::PlanTemplate::Join(q, mode, config));
    CSTORE_CHECK(r.ok()) << r.status().ToString();
    truth.push_back({r->stats.checksum, r->stats.output_tuples});
  }

  std::printf(
      "# fig=join two-phase join scaling (sf=%.3g, orders=%llu, "
      "customers=%llu, batch=%d, runs=%d)\n",
      opts.sf, static_cast<unsigned long long>(jc->num_orders),
      static_cast<unsigned long long>(jc->num_customers), kBatch, opts.runs);
  TablePrinter table({"mode", "workers", "wall_ms", "qps", "speedup",
                      "out_tuples"});
  BenchJson json("join");

  // Speedup baseline: the sweep's lowest worker count (workers=1 in the
  // default sweep), regardless of sweep order.
  const int base_workers =
      *std::min_element(opts.worker_sweep.begin(), opts.worker_sweep.end());

  int mismatches = 0;
  for (size_t m = 0; m < std::size(kModes); ++m) {
    const exec::JoinRightMode mode = kModes[m];
    struct Point {
      int workers;
      double best_ms;
    };
    std::vector<Point> points;
    for (int workers : opts.worker_sweep) {
      plan::PlanConfig config;
      config.num_workers = workers;
      config.morsel_positions = kChunkPositions;
      plan::PlanTemplate tmpl = plan::PlanTemplate::Join(q, mode, config);

      double best_ms = 1e100;
      for (int run = 0; run < opts.runs; ++run) {
        Stopwatch wall;
        for (int i = 0; i < kBatch; ++i) {
          auto r = conn.Query(tmpl);
          CSTORE_CHECK(r.ok()) << r.status().ToString();
          if (r->stats.checksum != truth[m].checksum ||
              r->stats.output_tuples != truth[m].tuples) {
            std::fprintf(stderr, "MISMATCH %s workers=%d\n",
                         exec::JoinRightModeName(mode), workers);
            ++mismatches;
          }
        }
        best_ms = std::min(best_ms, wall.ElapsedMillis());
      }
      points.push_back({workers, best_ms});
    }
    double base_qps = 0;
    for (const Point& p : points) {
      if (p.workers == base_workers) base_qps = kBatch * 1000.0 / p.best_ms;
    }
    for (const Point& p : points) {
      const double qps = kBatch * 1000.0 / p.best_ms;
      const double speedup = qps / base_qps;
      table.AddRow({exec::JoinRightModeName(mode),
                    std::to_string(p.workers), Fmt(p.best_ms), Fmt(qps),
                    Fmt(speedup, 2), std::to_string(truth[m].tuples)});
      json.AddRow()
          .Str("section", "probe")
          .Str("mode", exec::JoinRightModeName(mode))
          .Int("workers", p.workers)
          .Num("wall_ms", p.best_ms)
          .Num("qps", qps)
          .Num("speedup", speedup)
          .Int("out_tuples", truth[m].tuples);
    }
  }
  table.Print();

  // --- Panel 2: build-dominated shapes ------------------------------------
  // The TPC-H shape above probes ~40x more rows than it builds; these shapes
  // make the one serial build task a large share of each query, so build_ms
  // shows how much of the wall the probe's scaling cannot touch.
  const BuildShape kShapes[] = {
      {"inner~outer", "eq", 4 * kChunkPositions, 4 * kChunkPositions},
      {"inner>outer", "gt", 2 * kChunkPositions, 6 * kChunkPositions},
  };
  const int kShapeBatch = 4;
  std::printf("\n# fig=join-build-shapes build-dominated joins "
              "(right-materialized)\n");
  TablePrinter shapes_table({"shape", "workers", "wall_ms", "build_ms", "qps",
                             "speedup"});
  for (const BuildShape& shape : kShapes) {
    plan::JoinQuery q2 = MakeShapeQuery(db.get(), shape);
    uint64_t shape_checksum = 0;
    uint64_t shape_tuples = 0;
    {
      plan::PlanConfig config;
      config.num_workers = 1;
      auto r = conn.Query(plan::PlanTemplate::Join(
          q2, exec::JoinRightMode::kMaterialized, config));
      CSTORE_CHECK(r.ok()) << r.status().ToString();
      shape_checksum = r->stats.checksum;
      shape_tuples = r->stats.output_tuples;
    }
    struct ShapePoint {
      int workers;
      double best_ms;
      double build_ms;
    };
    std::vector<ShapePoint> points;
    for (int workers : opts.worker_sweep) {
      plan::PlanConfig config;
      config.num_workers = workers;
      config.morsel_positions = kChunkPositions;
      plan::PlanTemplate tmpl = plan::PlanTemplate::Join(
          q2, exec::JoinRightMode::kMaterialized, config);
      double best_ms = 1e100;
      double build_ms = 0;
      for (int run = 0; run < opts.runs; ++run) {
        Stopwatch wall;
        for (int i = 0; i < kShapeBatch; ++i) {
          auto r = conn.Query(tmpl);
          CSTORE_CHECK(r.ok()) << r.status().ToString();
          if (r->stats.checksum != shape_checksum ||
              r->stats.output_tuples != shape_tuples) {
            std::fprintf(stderr, "MISMATCH shape=%s workers=%d\n",
                         shape.name, workers);
            ++mismatches;
          }
          build_ms = r->stats.build_wall_micros / 1000.0;
        }
        best_ms = std::min(best_ms, wall.ElapsedMillis());
      }
      points.push_back({workers, best_ms, build_ms});
    }
    double base_qps = 0;
    for (const ShapePoint& p : points) {
      if (p.workers == base_workers) {
        base_qps = kShapeBatch * 1000.0 / p.best_ms;
      }
    }
    for (const ShapePoint& p : points) {
      const double qps = kShapeBatch * 1000.0 / p.best_ms;
      const double speedup = base_qps > 0 ? qps / base_qps : 0;
      shapes_table.AddRow({shape.name, std::to_string(p.workers),
                           Fmt(p.best_ms), Fmt(p.build_ms, 2), Fmt(qps),
                           Fmt(speedup, 2)});
      json.AddRow()
          .Str("section", "build_shape")
          .Str("shape", shape.name)
          .Int("workers", p.workers)
          .Num("wall_ms", p.best_ms)
          .Num("build_ms", p.build_ms)
          .Num("qps", qps)
          .Num("speedup", speedup);
    }
  }
  shapes_table.Print();

  json.WriteAndReport();
  if (mismatches > 0) {
    std::fprintf(stderr, "%d checksum mismatches\n", mismatches);
    return 1;
  }
  return 0;
}
