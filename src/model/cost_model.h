// The analytical cost model of paper Section 3: operator formulas
// (Figures 1-6) and their composition into full query-plan predictions for
// the four materialization strategies (Section 3.5 plans), in microseconds.
//
// Everything is expressed in the Table 1 notation; formula comments cite the
// corresponding figure. The aggregation model is our extension (the paper
// models selection plans only but reports aggregate behaviour in Section
// 4.2): it reuses the same constants and replaces the top-of-plan tuple
// construction/iteration terms.

#ifndef CSTORE_MODEL_COST_MODEL_H_
#define CSTORE_MODEL_COST_MODEL_H_

#include <optional>
#include <vector>

#include "exec/join.h"
#include "model/cost_params.h"
#include "plan/strategy.h"

namespace cstore {
namespace model {

/// Cost of one operator or plan, split CPU vs. I/O (microseconds).
struct Cost {
  double cpu = 0;
  double io = 0;
  double total() const { return cpu + io; }

  Cost& operator+=(const Cost& o) {
    cpu += o.cpu;
    io += o.io;
    return *this;
  }
  friend Cost operator+(Cost a, const Cost& b) { return a += b; }
};

// --- Operator-level formulas -----------------------------------------------

/// DS_Scan Case 1 (Figure 1): read column, apply predicate, output
/// positions.
Cost DS1Cost(const ColumnStats& col, double sf, const CostParams& p);

/// DS_Scan Case 2 (Figure 1 variant): as Case 1 but outputs (pos, value)
/// pairs — step 5 costs TIC_TUP + FC per emitted pair.
Cost DS2Cost(const ColumnStats& col, double sf, const CostParams& p);

/// DS_Scan Case 3 (Figure 2): extract values at a position list.
/// `poslist` = ||POSLIST||, `rl_pos` = RLp (average position-run length),
/// `sf` = fraction of the column's blocks that must be read when cold,
/// `already_accessed` sets F = 1 (I/O → 0; the multi-column optimization).
Cost DS3Cost(const ColumnStats& col, double poslist, double rl_pos,
             double sf, bool already_accessed, const CostParams& p);

/// DS_Scan Case 4 (Figure 3): jump to EM-tuple positions, apply predicate,
/// merge passing values into wider tuples. `em` = ||EM_i||.
Cost DS4Cost(const ColumnStats& col, double em, double sf,
             const CostParams& p);

/// Index scan (Section 2.1.1): a sorted column's positions for a value-range
/// predicate, read off the index without touching the column's values —
/// what ColumnReader::PositionRangeFor does. Per bound (`bounds` =
/// Predicate::num_bounds(): two for = and BETWEEN, one for a one-sided
/// range) a binary search over the |C| block first values, one boundary
/// block fetch and a binary search inside it; then one range descriptor per
/// kChunkPositions window. I/O: the boundary blocks only, when cold.
Cost IndexScanCost(const ColumnStats& col, int bounds, const CostParams& p);

/// AND (Figure 4). One input per position list: `sizes[i]` = ||inpos_i||,
/// `rl_pos[i]` = RLp_i for range-coded lists. `bit_inputs` selects Case 2
/// (bit-lists: every ||inpos_i||/RLp_i becomes ||inpos_i||/word_bits).
Cost AndCost(const std::vector<double>& sizes,
             const std::vector<double>& rl_pos, bool bit_inputs,
             const CostParams& p);

/// MERGE (Figure 5): construct `values` k-ary tuples from k value streams.
Cost MergeCost(double values, int k, const CostParams& p);

/// SPC (Figure 6): scan k columns, short-circuit predicates, construct.
/// `sf[i]` is predicate i's selectivity.
Cost SpcCost(const std::vector<ColumnStats>& cols,
             const std::vector<double>& sf, const CostParams& p);

// --- Plan-level composition (Section 3.5) ----------------------------------

/// Inputs describing the two-predicate selection query of Section 3.5:
///   SELECT col1, col2 FROM proj WHERE pred1(col1) AND pred2(col2).
struct SelectionModelInput {
  ColumnStats col1;
  ColumnStats col2;
  double sf1 = 1.0;
  double sf2 = 1.0;
  // True when pred1's matches are contiguous in position space (predicate
  // on a sort key), letting ranged position lists represent them and
  // pipelined plans touch only matching blocks of col2.
  bool col1_clustered = true;
  // True when the planner answers colN from its index (plan::UsesIndex):
  // late-materialized plans then charge IndexScanCost, with `boundsN`
  // searches (predN's Predicate::num_bounds()), where they would scan the
  // column. Early-materialized plans scan it either way.
  bool col1_index = false;
  bool col2_index = false;
  int bounds1 = 2;
  int bounds2 = 2;
  // The planner's verdict on LM-pipelined (plan::CheckStrategy over every
  // filter of the plan), which the SQL front end supplies. Unset, the
  // advisor applies the same Section 4.1 rule to col2, the second filter
  // this input describes.
  std::optional<bool> lm_pipelined_supported;
  // Morsel workers the plan will run with. The model discounts the CPU
  // component by the parallel efficiency (ParallelCpuFactor); the I/O
  // component is unchanged — workers share one buffer pool and one
  // (simulated) disk.
  int num_workers = 1;
};

/// Fraction of serial CPU time a `workers`-way morsel run is charged:
/// an idealized linear speedup plus a small per-worker coordination tax
/// (morsel claiming, stats/accumulator merging), so adding workers is never
/// modelled as free. 1.0 for workers <= 1.
double ParallelCpuFactor(int workers);

/// Predicted end-to-end cost (including the final output-tuple iteration,
/// numOutTuples * TIC_TUP, which both the paper's model and experiments
/// include).
Cost PredictSelection(plan::Strategy strategy,
                      const SelectionModelInput& input, const CostParams& p);

/// Aggregation extension: SELECT col1, SUM(col2) ... GROUP BY col1 with
/// `groups` distinct output groups.
Cost PredictAggregation(plan::Strategy strategy,
                        const SelectionModelInput& input, double groups,
                        const CostParams& p);

/// Inputs describing the Section 4.3 join shape:
///   SELECT L.payload, R.payload FROM L, R
///   WHERE L.key = R.key AND pred(L.key)  — R.key unique.
struct JoinModelInput {
  ColumnStats left_key;       // outer key column
  ColumnStats left_payload;   // outer payload column
  double sf = 1.0;            // outer predicate selectivity
  ColumnStats right_key;      // inner key column (num_tuples = inner size)
  ColumnStats right_payload;  // inner payload column
  exec::JoinLeftMode left_mode = exec::JoinLeftMode::kLate;
  // Probe-side morsel workers: the probe CPU is discounted by
  // ParallelCpuFactor, I/O never (workers share one buffer pool and one
  // simulated disk). The build is one task, charged in full.
  int num_workers = 1;
};

/// Join extension (the paper reports Figure 13 behaviour; the model
/// composes its Section 3 operator formulas): a serial build over the inner
/// table plus a morsel-parallel probe of the outer side, per inner-table
/// representation. `build` / `probe` (optional) receive the two phases'
/// costs before the probe discount, so callers can show the per-phase split
/// EXPLAIN prints.
Cost PredictJoin(exec::JoinRightMode mode, const JoinModelInput& input,
                 const CostParams& p, Cost* build = nullptr,
                 Cost* probe = nullptr);

/// Sort extension: ORDER BY over the Section 3.5 selection output with an
/// optional Top-N `limit` (0 = sort everything). Two phases ride on the
/// selection: morsel-local run formation (with a LIMIT, a bounded-heap push
/// per input row; a comparison sort otherwise — both morsel-parallel) and a
/// serial k-way merge of one run per worker at finalize. `sort_phase`
/// (optional) receives just the sort cost, without the underlying
/// selection.
Cost PredictSort(plan::Strategy strategy, const SelectionModelInput& input,
                 double limit, const CostParams& p,
                 Cost* sort_phase = nullptr);

/// Average run length of the position list produced by a predicate with
/// selectivity `sf` over a column: contiguous (one range) when clustered,
/// expected Bernoulli run length 1/(1-sf) otherwise.
double PositionRunLength(double sf, double matches, bool clustered);

}  // namespace model
}  // namespace cstore

#endif  // CSTORE_MODEL_COST_MODEL_H_
