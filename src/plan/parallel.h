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
//     executor, including its output chunk order. A join first runs its
//     build pipeline on that thread, then pulls the probe. Standalone
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
//     Joins are two-phase: a BuildPipeline constructs the shared inner-side
//     hash table (JoinBuildTable) behind the scheduler's phase barrier —
//     either as one serial task (small inners, radix_bits = 0) or as N
//     radix partition-scan tasks, a barrier, 1 << radix_bits per-partition
//     build tasks, and a merge — then probe morsels partition the outer
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

/// A staged, multi-task build phase run on the scheduler pool ahead of any
/// morsel. Stages run in order with a barrier between them; the tasks
/// *within* a stage run concurrently, and distinct (stage, task) pairs
/// touch disjoint pipeline state, so RunTask needs no locking. After the
/// last stage's barrier the scheduler calls Finish() exactly once to merge
/// and publish the product. The serial build is the degenerate pipeline:
/// one stage, one task, Finish returns the table. ExecuteInline runs a
/// pipeline's tasks in order on the caller's thread.
class BuildPipeline {
 public:
  virtual ~BuildPipeline() = default;

  virtual int num_stages() const = 0;
  virtual int TasksInStage(int stage) const = 0;
  /// Trace span name for the stage's tasks (e.g. "join_partition").
  virtual const char* StageName(int stage) const = 0;

  /// Runs one task of one stage on the calling worker, recording its work
  /// in `stats`. Called exactly once per (stage, task); the scheduler
  /// guarantees stage `s` tasks only run after every stage `s-1` task
  /// returned.
  virtual Status RunTask(int stage, int task, exec::ExecStats* stats) = 0;

  /// Merges the stages' products into the published table. Called once,
  /// after the last stage's barrier, on whichever worker finished last.
  virtual Result<std::shared_ptr<const exec::JoinBuildTable>> Finish(
      exec::ExecStats* stats) = 0;

  /// Span name for the Finish() step.
  virtual const char* FinishName() const { return "join_build_merge"; }
};

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
  /// (joins: the hash build). Both routes run the pipeline from
  /// MakeBuildPipeline first — the scheduler behind its phase barrier,
  /// ExecuteInline on the caller's thread — and hand the product to every
  /// Instantiate.
  bool NeedsBuildPhase() const { return kind == Kind::kJoin; }

  /// Creates the build-phase pipeline for a pool of `pool_workers`, honoring
  /// config.radix_bits (-1 auto / 0 serial / k forced). Only valid when
  /// NeedsBuildPhase(). Infallible: spec errors surface from the pipeline's
  /// RunTask, keeping error routing identical to the serial build's.
  std::unique_ptr<BuildPipeline> MakeBuildPipeline(int pool_workers) const;

  /// Builds one plan instance restricted to `morsel` (which must be
  /// kChunkPositions-aligned at its begin, per MorselSource). Joins need
  /// `table`, their build phase's product; other kinds ignore it.
  Result<std::unique_ptr<Plan>> Instantiate(
      position::Range morsel,
      const exec::JoinBuildTable* table = nullptr) const;
};

/// Runs the templated query inline on the calling thread — a join's build
/// pipeline, then one plan instance over the full position space, whatever
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
