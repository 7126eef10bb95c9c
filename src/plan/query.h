// Typed query descriptions — the interface level at which the paper's
// executor experiments operate (two fixed query shapes plus a star join).

#ifndef CSTORE_PLAN_QUERY_H_
#define CSTORE_PLAN_QUERY_H_

#include <algorithm>
#include <memory>
#include <optional>
#include <vector>

#include "codec/column_reader.h"
#include "codec/predicate.h"
#include "exec/aggregate.h"
#include "exec/join.h"
#include "exec/morsel_source.h"
#include "obs/profile.h"
#include "position/range_set.h"
#include "write/write_store.h"

namespace cstore {
namespace plan {

/// SELECT col_1, ..., col_k FROM projection WHERE pred_1(col_1) AND ... —
/// the output tuples hold the columns in this order. Without a filter
/// order, every listed column is filtered (pred may be True), in column
/// order.
struct SelectionQuery {
  struct Column {
    const codec::ColumnReader* reader = nullptr;
    codec::Predicate pred;
  };
  std::vector<Column> columns;
  // The planned conjunction of a SQL SELECT: the columns the plan filters,
  // in the order it applies their predicates. Every other column is
  // output-only: its predicate is True, and the plan reads it for the
  // result without ever filtering it. Unset (typed plans): every column is
  // filtered, in column order.
  std::optional<std::vector<uint32_t>> filter_order;

  size_t num_filters() const {
    return filter_order ? filter_order->size() : columns.size();
  }
  /// The i-th column the plan filters (i < num_filters()).
  uint32_t filter(size_t i) const {
    return filter_order ? (*filter_order)[i] : static_cast<uint32_t>(i);
  }
  /// False for an output-only column.
  bool is_filter(uint32_t c) const {
    return !filter_order || std::find(filter_order->begin(),
                                      filter_order->end(),
                                      c) != filter_order->end();
  }
  /// Every column in plan order: the num_filters() filters in the order
  /// the plan applies them, then the output-only columns in column order.
  std::vector<uint32_t> PlanOrder() const {
    std::vector<uint32_t> order;
    order.reserve(columns.size());
    for (size_t i = 0; i < num_filters(); ++i) order.push_back(filter(i));
    for (uint32_t c = 0; c < columns.size(); ++c) {
      if (!is_filter(c)) order.push_back(c);
    }
    return order;
  }
};

/// SELECT group_col, AGG(agg_col) FROM projection WHERE ... GROUP BY
/// group_col. `group_index` / `agg_index` identify columns of `selection`.
struct AggQuery {
  SelectionQuery selection;
  uint32_t group_index = 0;
  uint32_t agg_index = 1;
  exec::AggFunc func = exec::AggFunc::kSum;
  // Global aggregation (no GROUP BY): one output row; group_index ignored.
  bool global = false;
};

/// SELECT left_payload, right_payload FROM L, R
/// WHERE L.key = R.key AND pred(L.key)  — R.key unique.
struct JoinQuery {
  const codec::ColumnReader* left_key = nullptr;
  codec::Predicate left_pred;
  const codec::ColumnReader* left_payload = nullptr;
  const codec::ColumnReader* right_key = nullptr;
  const codec::ColumnReader* right_payload = nullptr;
  // Outer-side materialization (Section 4.3 discusses both).
  exec::JoinLeftMode left_mode = exec::JoinLeftMode::kLate;
  // Inner (right) table's write snapshot. When it carries pending rows or
  // deletes, the hash build masks the deleted positions and merges the
  // write-store tail rows, so the join sees exactly this state of R. Null
  // (or empty) builds from the read store alone. The *outer* table's
  // snapshot rides in PlanConfig::snapshot, like every scanned table's.
  std::shared_ptr<const write::WriteSnapshot> right_snapshot;
};

/// SELECT col_1, ..., col_k FROM projection WHERE ... ORDER BY col_s
/// [ASC|DESC] [LIMIT n] — the selection's rows, totally ordered by
/// (sort column, then position) so the output is deterministic even
/// among ties, optionally truncated to the first `limit` rows.
struct SortQuery {
  SelectionQuery selection;
  // Index into selection.columns of the sort column.
  uint32_t sort_index = 0;
  bool desc = false;
  // 0 = no LIMIT. With a limit, per-morsel runs keep only their top n
  // rows (heap-based Top-N) before the finalize merge.
  uint64_t limit = 0;
};

/// Plan-construction knobs.
struct PlanConfig {
  // Attach mini-columns to DS1 outputs (the multi-column optimization of
  // Section 3.6). Disabling it forces Merge/aggregate to re-fetch columns
  // through the buffer pool — the A-2 ablation.
  bool use_multicolumn = true;
  // Derive positions from the column index when a column is sorted and the
  // predicate is a value range (Section 2.1.1: "the original column values
  // never have to be accessed"). LM plans only.
  bool use_sorted_index = true;

  // --- Morsel-driven parallel execution -----------------------------------
  // Worker count of a standalone api::Connection's run of this plan: 1
  // runs a synchronous query inline on the caller's thread (the classic
  // serial pull loop); values > 1 run it on the session's pool of that
  // width, whose workers split the scan — for joins, the outer probe side,
  // after a build phase — into morsels. Result *bags* (output_tuples,
  // checksum, aggregate groups) are identical for every worker count, but
  // selection chunk order is not. A shared sched::Scheduler ignores it:
  // its own width decides.
  int num_workers = 1;
  // Positions per morsel; rounded up to a multiple of kChunkPositions so
  // worker-local chunk windows coincide with the serial executor's.
  Position morsel_positions = exec::kDefaultMorselPositions;
  // Scan restriction [begin, end) used internally by the scheduler to hand
  // one morsel to one plan instance. `begin` must be
  // kChunkPositions-aligned; the default covers the whole column.
  position::Range scan_range = exec::kFullScanRange;

  // --- Write-store snapshot ----------------------------------------------
  // When set, the built plan sees exactly this snapshot's state: scans mask
  // its deleted positions and append its write-store tail rows (served from
  // an uncompressed in-memory window) after the read store, extending the
  // position space to snapshot->total_rows(). Null (the default) scans the
  // read store alone — bit-identical to the pre-write-path engine. Captured
  // at plan-build/submit time so concurrent writers never perturb an
  // in-flight query. For joins this is the *outer* (left, probed) table's
  // snapshot — probe morsels extend over its write-store tail exactly like
  // scan morsels do; the inner table's snapshot is
  // JoinQuery::right_snapshot (merged into the hash build).
  std::shared_ptr<const write::WriteSnapshot> snapshot;

  // --- Observability ------------------------------------------------------
  // When set (EXPLAIN ANALYZE), every plan instance built from this config
  // is profiled: per-operator wall time / calls / rows accumulate into this
  // shared profile, merged once per morsel. Null (the default) costs one
  // null check per operator Next().
  std::shared_ptr<obs::PlanProfile> profile;
};

}  // namespace plan
}  // namespace cstore

#endif  // CSTORE_PLAN_QUERY_H_
