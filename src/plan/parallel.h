// Plan templates.
//
// A PlanTemplate is the reusable description of a query (query shape +
// strategy + config); a *plan instance* is one operator tree built from the
// template by the BuildSelectionPlan/BuildAggPlan/BuildJoinPlan/
// BuildSortPlan factories, restricted to one morsel of the position space.
//
// One executor, sched/scheduler.h, runs every template, in one of two
// places: on a pool's workers, or on the caller's thread
// (sched::RunOnCaller) as one task over the full position space.
// Either way each task instantiates and drains a plan into its worker's
// partial, and one finalize merges the partials:
//
//   * counters       — summed (ExecStats::Merge, order-independent)
//   * checksum       — wrapping addition of per-tuple digests, so the
//                      merged digest is bit-identical for every worker count
//   * output tuples  — buffered per worker and handed to the sink once, as
//                      one chunk (bag semantics: the order of rows across
//                      workers is not deterministic; one worker's is the
//                      plan's own)
//   * aggregations   — per-morsel partial GroupAccumulators are merged and
//                      final groups emitted once, exactly as a serial
//                      aggregation over the same rows would
//   * sorts          — every morsel forms a sorted run, and finalize k-way
//                      merges the runs
//   * I/O stats      — attributed per (query, worker) and summed
//
// Joins are two-phase: one build task constructs the shared inner-side hash
// table (JoinBuildTable), then probe morsels partition the outer side
// exactly like scan morsels (an empty outer side is one task, still after
// the build).
//
// Which of the two places a template runs in is the session's choice
// (api/connection.h), made from TouchedPositions(): a plan that reads at
// most one window's positions runs on the caller's thread on every
// session, since a morsel is at least one window and a pool could only
// hand the whole plan to one worker.

#ifndef CSTORE_PLAN_PARALLEL_H_
#define CSTORE_PLAN_PARALLEL_H_

#include <memory>

#include "plan/executor.h"
#include "plan/planner.h"
#include "plan/query.h"
#include "storage/buffer_pool.h"
#include "util/status.h"

namespace cstore {
namespace plan {

/// Reusable query description: everything needed to build one plan instance
/// per morsel. Column readers are borrowed (not owned) just as in the
/// query structs themselves.
struct PlanTemplate {
  enum class Kind { kSelection, kAgg, kJoin, kSort };

  Kind kind = Kind::kSelection;
  SelectionQuery selection;  // kSelection
  AggQuery agg;              // kAgg
  JoinQuery join;            // kJoin
  SortQuery sort;            // kSort
  exec::JoinRightMode join_mode = exec::JoinRightMode::kMaterialized;
  Strategy strategy = Strategy::kLmParallel;
  PlanConfig config;

  static PlanTemplate Selection(SelectionQuery query, Strategy strategy,
                                PlanConfig config = {});
  static PlanTemplate Agg(AggQuery query, Strategy strategy,
                          PlanConfig config = {});
  static PlanTemplate Join(JoinQuery query, exec::JoinRightMode mode,
                           PlanConfig config = {});
  static PlanTemplate Sort(SortQuery query, Strategy strategy,
                           PlanConfig config = {});

  /// Size of the position space morsels partition (the scanned projection's
  /// row count — for joins, the *outer* side's, write-store tail included).
  Position TotalPositions() const;

  /// Positions a run of the whole template reads. A late plan whose
  /// positions come from the sorted index alone (the index-answered column
  /// is its only filter, or its first filter under LM-pipelined, which
  /// refines only the index's positions) touches the index range plus the
  /// write-store tail; a join touches its outer side plus the inner side
  /// its hash build reads; every other plan touches TotalPositions(). The
  /// lookup costs one binary search per bound, as the plan's own does.
  /// api::Connection runs a plan touching at most kChunkPositions on the
  /// caller's thread: a morsel is at least one window, so no pool could
  /// split its work.
  Position TouchedPositions() const;

  /// Positions per morsel on a pool of `workers`: config.morsel_positions,
  /// or sized from TotalPositions() and the pool width when left at the
  /// default.
  Position MorselPositions(int workers) const;

  /// True when the template needs a build phase before any morsel can run
  /// (joins: the hash build). The executor calls BuildJoinTable as one
  /// build task ahead of every morsel and hands the table to every
  /// Instantiate.
  bool NeedsBuildPhase() const { return kind == Kind::kJoin; }

  /// Validates the join (JoinBuildSpec) and builds its inner-side hash
  /// table, recording the build's work in `stats`. Only valid when
  /// NeedsBuildPhase().
  Result<std::shared_ptr<const exec::JoinBuildTable>> BuildJoinTable(
      exec::ExecStats* stats) const;

  /// Builds one plan instance restricted to `morsel` (which must be
  /// kChunkPositions-aligned at its begin, per MorselSource). Joins need
  /// `table`, their build phase's product; other kinds ignore it.
  Result<std::unique_ptr<Plan>> Instantiate(
      position::Range morsel,
      const exec::JoinBuildTable* table = nullptr) const;
};

}  // namespace plan
}  // namespace cstore

#endif  // CSTORE_PLAN_PARALLEL_H_
