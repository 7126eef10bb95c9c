// Plan templates and the inline executor.
//
// A PlanTemplate is the reusable description of a query (query shape +
// strategy + config); a *plan instance* is one operator tree built from the
// template by the BuildSelectionPlan/BuildAggPlan/BuildJoinPlan/
// BuildSortPlan factories, restricted to one morsel of the position space.
//
// A query reaches its operators by one of two routes:
//
//   * ExecuteInline (below) builds one plan instance over the full position
//     space and pulls it on the caller's thread: the classic serial
//     executor, including its output chunk order. A join first builds its
//     hash table on that thread, then pulls the probe. Standalone
//     api::Connection sessions run their 1-worker synchronous queries this
//     way, and Database::DeleteWhere/UpdateWhere their row-finding scans.
//   * sched::Scheduler runs everything else — a server's shared pool, or a
//     standalone session's long-lived pools. Its workers claim morsels,
//     instantiate and drain a plan per morsel, and merge the results:
//
//       * counters       — summed (ExecStats::Merge, order-independent)
//       * checksum       — wrapping addition of per-tuple digests, so the
//                          merged digest is bit-identical to a serial run's
//       * output tuples  — buffered per worker and handed to the sink once,
//                          at finalization, with no lock on the emit path
//                          (bag semantics: chunk *order* across workers is
//                          not deterministic)
//       * aggregations   — per-morsel partial GroupAccumulators are merged
//                          and final groups emitted once, exactly as a
//                          serial aggregation over the same rows would
//       * I/O stats      — attributed per (query, worker) and summed
//
//     Joins are two-phase: one build task constructs the shared inner-side
//     hash table (JoinBuildTable), then probe morsels partition the outer
//     side exactly like scan morsels (an empty outer side is one task,
//     still after the build). Sorts are two-phase the other way
//     round: every morsel forms a sorted run (SortOp with final emit
//     disabled), and the scheduler's finalize k-way merges the runs.

#ifndef CSTORE_PLAN_PARALLEL_H_
#define CSTORE_PLAN_PARALLEL_H_

#include <functional>
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

  /// Positions per morsel on a pool of `workers`: config.morsel_positions,
  /// or sized from TotalPositions() and the pool width when left at the
  /// default.
  Position MorselPositions(int workers) const;

  /// True when the template needs a build phase before any morsel can run
  /// (joins: the hash build). Both routes call BuildJoinTable first — the
  /// scheduler as one build task ahead of every morsel, ExecuteInline on the
  /// caller's thread — and hand the table to every Instantiate.
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

/// Runs the templated query inline on the calling thread — a join's hash
/// build, then one plan instance over the full position space, whatever
/// config.num_workers says — and fills `stats` with its RunStats, the
/// build's work, I/O and wall time included. `sink` (optional) receives
/// every output chunk in the serial executor's order; for aggregations,
/// exactly one chunk of final groups. A failing run may have passed chunks
/// to the sink before the error.
Status ExecuteInline(const PlanTemplate& tmpl, storage::BufferPool* pool,
                     RunStats* stats,
                     const std::function<void(const exec::TupleChunk&)>&
                         sink = nullptr);

}  // namespace plan
}  // namespace cstore

#endif  // CSTORE_PLAN_PARALLEL_H_
