// Figure 11: end-to-end runtimes of the four materialization strategies on
// the selection query
//
//   SELECT SHIPDATE, LINENUM FROM LINEITEM
//   WHERE SHIPDATE < X AND LINENUM < 7
//
// as X sweeps the SHIPDATE domain (selectivity 0 → 1), with the LINENUM
// column stored (a) uncompressed, (b) RLE, (c) bit-vector. LM-pipelined is
// omitted for (c), as in the paper (DS3 position filtering is not supported
// on bit-vector data).
//
// Paper shapes to check: (a) LM-pipelined wins at low selectivity (block
// skipping), EM-parallel at high; (b) both LM strategies beat both EM
// strategies, which pay RLE decompression for tuple construction; (c)
// EM-parallel ≈ LM-parallel (decompression dominates).

#include <cstdio>

#include "bench_common.h"
#include "codec/encoding.h"
#include "plan/strategy.h"

using namespace cstore;        // NOLINT
using namespace cstore::bench; // NOLINT

int main(int argc, char** argv) {
  BenchOptions opts = ParseArgs(argc, argv);
  auto db = OpenBenchDb(opts);

  auto lineitem_r = tpch::LoadLineitem(db.get(), opts.sf);
  CSTORE_CHECK(lineitem_r.ok()) << lineitem_r.status().ToString();
  tpch::LineitemColumns li = std::move(lineitem_r).value();

  std::vector<Value> shipdates = ReadColumn(*li.shipdate);
  auto sweep = SelectivitySweep(shipdates, opts.points);

  std::printf(
      "Figure 11: selection query, SHIPDATE < X AND LINENUM < 7 "
      "(sf=%.3g, rows=%llu, disk-sim=%d, runs=%d)\n",
      opts.sf, static_cast<unsigned long long>(li.num_rows),
      opts.simulate_disk, opts.runs);
  std::printf("runtimes in ms (wall + simulated I/O)\n\n");

  struct Panel {
    const char* fig;
    codec::Encoding enc;
  };
  const Panel panels[] = {
      {"11a-linenum-uncompressed", codec::Encoding::kUncompressed},
      {"11b-linenum-rle", codec::Encoding::kRle},
      {"11c-linenum-bitvector", codec::Encoding::kBitVector},
      // Extension beyond the paper: dictionary-coded LINENUM — the other
      // light-weight scheme; supports all four strategies.
      {"ext-linenum-dict", codec::Encoding::kDict},
  };

  for (const Panel& panel : panels) {
    const codec::ColumnReader* linenum = li.linenum(panel.enc);
    std::printf("# fig=%s\n", panel.fig);
    bool has_lm_pipe = panel.enc != codec::Encoding::kBitVector;
    std::vector<std::string> headers = {"selectivity", "EM-pipelined",
                                        "EM-parallel", "LM-parallel"};
    if (has_lm_pipe) headers.push_back("LM-pipelined");
    TablePrinter table(headers);

    for (const SelectivityPoint& pt : sweep) {
      plan::SelectionQuery q;
      q.columns.push_back(
          {li.shipdate, codec::Predicate::LessThan(pt.threshold)});
      q.columns.push_back({linenum, codec::Predicate::LessThan(7)});

      std::vector<std::string> row = {Fmt(pt.actual, 3)};
      row.push_back(Fmt(
          TimeSelection(db.get(), q, plan::Strategy::kEmPipelined, opts.runs)));
      row.push_back(Fmt(
          TimeSelection(db.get(), q, plan::Strategy::kEmParallel, opts.runs)));
      row.push_back(Fmt(
          TimeSelection(db.get(), q, plan::Strategy::kLmParallel, opts.runs)));
      if (has_lm_pipe) {
        row.push_back(Fmt(TimeSelection(db.get(), q,
                                        plan::Strategy::kLmPipelined,
                                        opts.runs)));
      }
      table.AddRow(std::move(row));
    }
    table.Print();
    std::printf("\n");
  }

  // Morsel-parallel scaling curves (beyond the paper): one selectivity point
  // per strategy, swept over --workers=... thread counts. Uses the
  // uncompressed LINENUM panel at the sweep's midpoint.
  if (opts.worker_sweep.size() > 1) {
    const SelectivityPoint& mid = sweep[sweep.size() / 2];
    plan::SelectionQuery q;
    q.columns.push_back(
        {li.shipdate, codec::Predicate::LessThan(mid.threshold)});
    q.columns.push_back({li.linenum_plain, codec::Predicate::LessThan(7)});

    // Wall time only: the simulated charged-I/O component is by design
    // unchanged by parallelism and would flatten the curves.
    std::printf("# fig=ext-parallel-scaling (selectivity=%.3f, wall ms)\n",
                mid.actual);
    std::vector<std::string> headers = {"workers", "EM-pipelined",
                                        "EM-parallel", "LM-parallel",
                                        "LM-pipelined"};
    TablePrinter table(headers);
    api::Connection conn(db.get());
    for (int workers : opts.worker_sweep) {
      plan::PlanConfig config;
      config.num_workers = workers;
      // One chunk window per morsel: maximizes the number of morsels so
      // requested workers get work (still clamped to one worker when the
      // table has fewer rows than a 64K-position window — use sf >= 0.1
      // for a genuine multi-threaded sweep).
      config.morsel_positions = kChunkPositions;
      std::vector<std::string> row = {std::to_string(workers)};
      for (plan::Strategy s :
           {plan::Strategy::kEmPipelined, plan::Strategy::kEmParallel,
            plan::Strategy::kLmParallel, plan::Strategy::kLmPipelined}) {
        double best_wall = 1e100;
        for (int r = 0; r < opts.runs; ++r) {
          db->DropCaches();
          auto result =
              conn.Query(plan::PlanTemplate::Selection(q, s, config));
          CSTORE_CHECK(result.ok()) << result.status().ToString();
          best_wall = std::min(best_wall, result->stats.wall_micros / 1000.0);
        }
        row.push_back(Fmt(best_wall));
      }
      table.AddRow(std::move(row));
    }
    table.Print();
    std::printf("\n");
  }
  return 0;
}
