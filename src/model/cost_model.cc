#include "model/cost_model.h"

#include <algorithm>
#include <cmath>

#include "util/logging.h"

namespace cstore {
namespace model {

namespace {

/// Scan I/O: (|C|/PF * SEEK + |C| * READ) * (1 - F)   [Figures 1, 3, 6]
double ScanIo(const ColumnStats& col, const CostParams& p) {
  return (col.num_blocks / p.pf * p.seek + col.num_blocks * p.read) *
         (1.0 - col.fraction_cached);
}

}  // namespace

double PositionRunLength(double sf, double matches, bool clustered) {
  if (matches <= 0) return 1.0;
  if (clustered) return std::max(1.0, matches);  // a single position range
  if (sf >= 1.0) return std::max(1.0, matches);
  // Expected run length of consecutive matches under i.i.d. selection.
  return std::clamp(1.0 / (1.0 - sf), 1.0, matches);
}

Cost DS1Cost(const ColumnStats& col, double sf, const CostParams& p) {
  Cost c;
  // (1) block iteration, (3,4) per-run column iteration + predicate,
  // (5) position output for matches.  [Figure 1]
  c.cpu = col.num_blocks * p.bic +
          col.num_tuples * (p.tic_col + p.fc) / col.run_length +
          sf * col.num_tuples * p.fc;
  c.io = ScanIo(col, p);
  return c;
}

Cost DS2Cost(const ColumnStats& col, double sf, const CostParams& p) {
  Cost c;
  // Case 2 = Case 1 with step (5) gluing positions and values together:
  // SF * ||C|| * (TIC_TUP + FC).
  c.cpu = col.num_blocks * p.bic +
          col.num_tuples * (p.tic_col + p.fc) / col.run_length +
          sf * col.num_tuples * (p.tic_tup + p.fc);
  c.io = ScanIo(col, p);
  return c;
}

Cost DS3Cost(const ColumnStats& col, double poslist, double rl_pos,
             double sf, bool already_accessed, const CostParams& p) {
  Cost c;
  double runs = poslist / std::max(1.0, rl_pos);
  // (1) block iteration, (3) position-list iteration, (4) jump + output.
  // [Figure 2]
  c.cpu = col.num_blocks * p.bic + runs * p.tic_col +
          runs * (p.tic_col + p.fc);
  if (already_accessed) {
    c.io = 0;  // F = 1: the multi-column optimization (Section 3.6)
  } else {
    c.io = (col.num_blocks / p.pf * p.seek + sf * col.num_blocks * p.read) *
           (1.0 - col.fraction_cached);
  }
  return c;
}

Cost DS4Cost(const ColumnStats& col, double em, double sf,
             const CostParams& p) {
  Cost c;
  // (1) block iteration, (3) EM-tuple iteration, (4) jump + predicate,
  // (5) merge passing tuples.  [Figure 3]
  c.cpu = col.num_blocks * p.bic + em * p.tic_tup +
          em * ((p.fc + p.tic_tup) + p.fc) + sf * em * p.tic_tup;
  c.io = ScanIo(col, p);
  return c;
}

Cost IndexScanCost(const ColumnStats& col, int bounds, const CostParams& p) {
  Cost c;
  // One boundary search: FC per probe of the binary search over the block
  // first values, BIC for the boundary block, FC per probe of the search
  // over that block's ||C|| / (|C| * RL) runs.
  const double blocks = std::max(1.0, col.num_blocks);
  const double runs_per_block =
      col.num_tuples / (blocks * std::max(1.0, col.run_length));
  const double search = std::log2(1.0 + col.num_blocks) * p.fc + p.bic +
                        std::log2(1.0 + runs_per_block) * p.fc;
  // One range descriptor per window: a column-iterator step and a call.
  const double windows =
      std::ceil(col.num_tuples / static_cast<double>(kChunkPositions));
  c.cpu = bounds * search + windows * (p.tic_col + p.fc);
  // Cold, each boundary block is one seek and one read.
  c.io = bounds * (p.seek + p.read) * (1.0 - col.fraction_cached);
  return c;
}

Cost AndCost(const std::vector<double>& sizes,
             const std::vector<double>& rl_pos, bool bit_inputs,
             const CostParams& p) {
  CSTORE_CHECK(sizes.size() == rl_pos.size() && !sizes.empty());
  Cost c;
  // Effective per-input iteration unit: ||inpos_i|| / RLp_i for ranged
  // inputs (Case 1), ||inpos_i|| / word_bits for bit inputs (Case 2).
  double m = 0;
  double iter = 0;
  for (size_t i = 0; i < sizes.size(); ++i) {
    double units =
        bit_inputs ? sizes[i] / p.word_bits
                   : sizes[i] / std::max(1.0, rl_pos[i]);
    iter += p.tic_col * units;
    m = std::max(m, units);
  }
  double k = static_cast<double>(sizes.size());
  c.cpu = iter + m * (k - 1) * p.fc + m * p.tic_col * p.fc;
  return c;  // streaming operator: no I/O (Figure 4)
}

Cost MergeCost(double values, int k, const CostParams& p) {
  Cost c;
  // (1) access values as vectors, (2) produce tuples as arrays.  [Figure 5]
  c.cpu = values * k * p.fc + values * k * p.fc;
  return c;
}

Cost SpcCost(const std::vector<ColumnStats>& cols,
             const std::vector<double>& sf, const CostParams& p) {
  CSTORE_CHECK(cols.size() == sf.size() && !cols.empty());
  Cost c;
  double running_sf = 1.0;
  for (size_t i = 0; i < cols.size(); ++i) {
    c.cpu += cols[i].num_blocks * p.bic;               // (2)
    c.cpu += cols[i].num_tuples * p.fc * running_sf;   // (4) short-circuit
    c.io += ScanIo(cols[i], p);                        // (3)
    running_sf *= sf[i];
  }
  c.cpu += cols.back().num_tuples * p.tic_tup * running_sf;  // (5)
  return c;
}

double ParallelCpuFactor(int workers) {
  if (workers <= 1) return 1.0;
  // Linear speedup on work that is 2% per-extra-worker heavier from
  // coordination (morsel claiming, stats and accumulator merges). Keeps
  // EXPLAIN honest: 4 workers predict ~3.8x, not 4x — and the factor is
  // monotonically decreasing, so more workers never predict more CPU time.
  const double w = static_cast<double>(workers);
  return (1.0 + 0.02 * (w - 1.0)) / w;
}

namespace {

/// The position-producing leaf of colN in a late-materialized plan: its
/// index lookup when the planner answers it from the index, else a DS1 scan.
Cost LateLeaf(const ColumnStats& col, bool from_index, int bounds, double sf,
              const CostParams& p) {
  return from_index ? IndexScanCost(col, bounds, p) : DS1Cost(col, sf, p);
}

/// The top of every late-materialized plan: DS3 extraction of both columns
/// at the output positions, their MERGE, and the output iteration. A scanned
/// column's blocks are already pinned as mini-columns (F = 1, Section 3.6);
/// an index-answered column's are not, so its DS3 pays their I/O.
struct LateTop {
  double rl_out = 1;  // RLp of the output positions
  Cost ds3_1;
  Cost ds3_2;
  Cost merge;
  Cost out_iter;
  Cost total() const { return ds3_1 + ds3_2 + merge + out_iter; }
};

LateTop LateMaterialization(const SelectionModelInput& in,
                            const CostParams& p) {
  const double sf = in.sf1 * in.sf2;
  const double num_out = sf * in.col1.num_tuples;
  LateTop top;
  top.rl_out = PositionRunLength(in.sf2, num_out,
                                 in.col1_clustered && in.sf2 >= 1.0);
  top.ds3_1 = DS3Cost(in.col1, num_out, top.rl_out, sf, !in.col1_index, p);
  top.ds3_2 = DS3Cost(in.col2, num_out, top.rl_out, sf, !in.col2_index, p);
  top.merge = MergeCost(num_out, 2, p);
  top.out_iter.cpu = num_out * p.tic_tup;
  return top;
}

/// Serial (1-worker) selection prediction; the public entry point applies
/// the parallel CPU discount exactly once on top of this.
Cost PredictSelectionSerial(plan::Strategy strategy,
                            const SelectionModelInput& in,
                            const CostParams& p) {
  const double n = in.col1.num_tuples;
  const double matches1 = in.sf1 * n;
  const double matches2 = in.sf2 * n;
  const double num_out = in.sf1 * in.sf2 * n;
  Cost out_iter;
  out_iter.cpu = num_out * p.tic_tup;  // final result iteration

  switch (strategy) {
    case plan::Strategy::kEmPipelined: {
      Cost ds4 = DS4Cost(in.col2, matches1, in.sf2, p);
      // DS4 only reads blocks containing input positions ("in some cases
      // the entire block can be skipped", Section 3.5); with a clustered
      // first predicate that is the matching fraction of the column.
      if (in.col1_clustered) {
        double touched =
            std::min(in.col2.num_blocks,
                     std::ceil(in.sf1 * in.col2.num_blocks) +
                         (in.sf1 > 0 ? 1 : 0));
        ds4.io = (touched / p.pf * p.seek + touched * p.read) *
                 (1.0 - in.col2.fraction_cached);
      }
      return DS2Cost(in.col1, in.sf1, p) + ds4 + out_iter;
    }
    case plan::Strategy::kEmParallel: {
      return SpcCost({in.col1, in.col2}, {in.sf1, in.sf2}, p) + out_iter;
    }
    case plan::Strategy::kLmParallel: {
      // Clustered first predicate → ranged list; dense second predicate →
      // effectively bit-mapped. Model the AND with each input in its
      // natural representation (the mixed Case 3 generalization); an
      // index-answered column's input is one range.
      double rl1 = PositionRunLength(in.sf1, matches1, in.col1_clustered);
      double rl2 = PositionRunLength(in.sf2, matches2, in.col2_index);
      bool bit_inputs = !in.col1_clustered;
      Cost and_cost =
          AndCost({matches1, matches2}, {rl1, rl2}, bit_inputs, p);
      return LateLeaf(in.col1, in.col1_index, in.bounds1, in.sf1, p) +
             LateLeaf(in.col2, in.col2_index, in.bounds2, in.sf2, p) +
             and_cost + LateMaterialization(in, p).total();
    }
    case plan::Strategy::kLmPipelined: {
      Cost leaf = LateLeaf(in.col1, in.col1_index, in.bounds1, in.sf1, p);
      Cost refine;
      if (in.col2_index) {
        // Refinement by col2's index: its range lookup, then one AND of
        // each window's positions with that range. No col2 block is read.
        double rl1 = PositionRunLength(in.sf1, matches1, in.col1_clustered);
        refine = IndexScanCost(in.col2, in.bounds2, p) +
                 AndCost({matches1, matches2},
                         {rl1, std::max(1.0, matches2)},
                         !in.col1_clustered, p);
      } else {
        // Pipelined scan of col2 at col1's matching positions: only blocks
        // containing candidates are read/processed ("entire blocks can be
        // skipped"); each candidate is an individual jump + predicate
        // application on the value subset.
        double touched_blocks =
            in.col1_clustered
                ? std::min(in.col2.num_blocks,
                           std::ceil(in.sf1 * in.col2.num_blocks) +
                               (in.sf1 > 0 ? 1 : 0))
                : (in.sf1 > 0 ? in.col2.num_blocks : 0);
        refine.cpu = touched_blocks * p.bic +
                     matches1 * (p.tic_col + p.fc) +  // jump + extract
                     matches1 * p.fc +                // predicate on subset
                     in.sf2 * matches1 * p.fc;  // emit surviving positions
        refine.io =
            (touched_blocks / p.pf * p.seek + touched_blocks * p.read) *
            (1.0 - in.col2.fraction_cached);
      }
      return leaf + refine + LateMaterialization(in, p).total();
    }
  }
  return Cost{};
}

}  // namespace

Cost PredictSelection(plan::Strategy strategy,
                      const SelectionModelInput& in, const CostParams& p) {
  Cost c = PredictSelectionSerial(strategy, in, p);
  c.cpu *= ParallelCpuFactor(in.num_workers);
  return c;
}

Cost PredictAggregation(plan::Strategy strategy,
                        const SelectionModelInput& in, double groups,
                        const CostParams& p) {
  const double n = in.col1.num_tuples;
  const double num_out = in.sf1 * in.sf2 * n;
  Cost group_iter;
  group_iter.cpu = groups * p.tic_tup;

  if (!plan::IsLate(strategy)) {
    // EM: the selection plan runs unchanged; the aggregator's input
    // iteration replaces the output iteration (same per-tuple cost), plus a
    // hash update per input tuple and the (small) group-result iteration.
    Cost sel = PredictSelectionSerial(strategy, in, p);
    sel.cpu += num_out * p.fc;  // hash add per consumed tuple
    Cost total = sel + group_iter;
    total.cpu *= ParallelCpuFactor(in.num_workers);
    return total;
  }

  // LM: position stream as in selection, but the aggregator replaces
  // DS3 + Merge + output iteration, operating directly on compressed data.
  // The DS3s' I/O stays: the aggregator reads the same blocks.
  Cost sel = PredictSelectionSerial(strategy, in, p);
  const LateTop top = LateMaterialization(in, p);
  sel.cpu -= top.total().cpu;

  bool both_rle = in.col1.encoding == codec::Encoding::kRle &&
                  in.col2.encoding == codec::Encoding::kRle;
  Cost agg;
  if (both_rle) {
    // Run-zip: one accumulator call per (group-run × agg-run × range)
    // segment.
    double rl_zip = std::min({in.col1.run_length, in.col2.run_length,
                              std::max(1.0, top.rl_out)});
    double segments = num_out / std::max(1.0, rl_zip);
    agg.cpu = segments * (p.tic_col + 2 * p.fc);
  } else {
    // Gather both columns (per-range extraction) + hash add per row.
    agg.cpu = top.ds3_1.cpu + top.ds3_2.cpu + num_out * 2 * p.fc;
  }
  Cost total = sel + agg + group_iter;
  total.cpu *= ParallelCpuFactor(in.num_workers);
  return total;
}

Cost PredictJoin(exec::JoinRightMode mode, const JoinModelInput& in,
                 const CostParams& p, Cost* build_out, Cost* probe_out) {
  const double inner = in.right_key.num_tuples;
  const double matches = in.sf * in.left_key.num_tuples;

  // --- Build phase (one serial task) ---------------------------------------
  Cost build;
  switch (mode) {
    case exec::JoinRightMode::kMaterialized:
      // Read key + payload columns, construct every inner tuple into the
      // hash table (2 gathers + a hash insert per row).
      build.cpu = (in.right_key.num_blocks + in.right_payload.num_blocks) *
                      p.bic +
                  inner * (2 * p.fc + p.tic_tup + p.fc);
      build.io = ScanIo(in.right_key, p) + ScanIo(in.right_payload, p);
      break;
    case exec::JoinRightMode::kMultiColumn:
      // Read both columns but only hash key → position; the payload column
      // is pinned compressed (block iteration, no per-row construction).
      build.cpu = (in.right_key.num_blocks + in.right_payload.num_blocks) *
                      p.bic +
                  inner * (p.tic_col + p.fc);
      build.io = ScanIo(in.right_key, p) + ScanIo(in.right_payload, p);
      break;
    case exec::JoinRightMode::kSingleColumn:
      // Only the key column enters the build.
      build.cpu = in.right_key.num_blocks * p.bic + inner * (p.tic_col + p.fc);
      build.io = ScanIo(in.right_key, p);
      break;
  }

  // --- Probe phase (morsel-parallel over the outer side) -------------------
  // Outer stream: DS1 positions + key (kLate) or an SPC construction of
  // (key, payload) tuples (kEarly).
  Cost probe = in.left_mode == exec::JoinLeftMode::kLate
                   ? DS1Cost(in.left_key, in.sf, p)
                   : SpcCost({in.left_key, in.left_payload},
                             {in.sf, 1.0}, p);
  probe.cpu += matches * p.fc;  // hash lookup per candidate
  if (in.left_mode == exec::JoinLeftMode::kLate) {
    // Sorted left positions: the payload gather is an in-order merge.
    double rl = PositionRunLength(in.sf, matches, false);
    probe += DS3Cost(in.left_payload, matches, rl, in.sf,
                     /*already_accessed=*/false, p);
  }
  switch (mode) {
    case exec::JoinRightMode::kMaterialized:
      break;  // payload already in the table
    case exec::JoinRightMode::kMultiColumn:
      // On-the-fly extraction from the pinned multi-column (no I/O).
      probe.cpu += matches * (p.tic_col + p.fc);
      break;
    case exec::JoinRightMode::kSingleColumn: {
      // Unsorted right positions: every payload access is an independent
      // jump — and, cold, an independent block read (the non-merge
      // positional join the paper charges Figure 13's right-single-column
      // line for). Cap the charged blocks at one per inner block per probe
      // "pass" isn't meaningful without clustering, so charge min(matches,
      // |C|) distinct block reads.
      probe.cpu += matches * (p.fc + p.tic_col);
      double blocks = std::min(matches, in.right_payload.num_blocks);
      probe.io += (blocks / p.pf * p.seek + blocks * p.read) *
                  (1.0 - in.right_payload.fraction_cached);
      break;
    }
  }
  probe.cpu += matches * p.tic_tup;  // output tuple construction + iteration

  if (build_out != nullptr) *build_out = build;
  if (probe_out != nullptr) *probe_out = probe;

  // The probe is morsel-parallel; the build is not discounted.
  Cost total = build;
  total.cpu += probe.cpu * ParallelCpuFactor(in.num_workers);
  total.io += probe.io;
  return total;
}

Cost PredictSort(plan::Strategy strategy, const SelectionModelInput& in,
                 double limit, const CostParams& p, Cost* sort_phase) {
  Cost sel = PredictSelection(strategy, in, p);
  // Rows entering the sort = the selection's output; rows leaving = min
  // with the limit.
  const double n = in.sf1 * in.sf2 * in.col1.num_tuples;
  const double kept = limit > 0 ? std::min(n, limit) : n;
  Cost sort;
  // Run formation: log2(kept) comparisons per input row — a bounded-heap
  // push under a LIMIT, a comparison sort's per-element share otherwise.
  // Morsel-parallel, so it takes the same CPU discount as the scan.
  sort.cpu = n * std::log2(std::max(2.0, kept)) * p.fc *
             ParallelCpuFactor(in.num_workers);
  // Finalize merge: a serial heap over one run per worker, plus the output
  // tuple iteration for every emitted row.
  const double runs = std::max(1, in.num_workers);
  sort.cpu += kept * std::log2(std::max(2.0, runs)) * p.fc +
              kept * p.tic_tup;
  if (sort_phase != nullptr) *sort_phase = sort;
  return sel + sort;
}

}  // namespace model
}  // namespace cstore
