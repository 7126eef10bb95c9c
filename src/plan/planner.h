// Plan builders: translate a query description + strategy into an operator
// tree (Figures 7 and 8 of the paper).

#ifndef CSTORE_PLAN_PLANNER_H_
#define CSTORE_PLAN_PLANNER_H_

#include <memory>
#include <vector>

#include "exec/exec_stats.h"
#include "exec/operator.h"
#include "exec/sort.h"
#include "obs/profile.h"
#include "plan/query.h"
#include "plan/strategy.h"

namespace cstore {
namespace plan {

/// An executable plan: owns its operator tree and execution counters.
class Plan {
 public:
  exec::TupleOp* root() const { return root_; }
  exec::ExecStats& stats() { return stats_; }
  const exec::ExecStats& stats() const { return stats_; }

  /// Takes ownership of an operator and returns the raw pointer for wiring.
  template <typename T>
  T* Own(std::unique_ptr<T> op) {
    T* raw = op.get();
    if constexpr (std::is_base_of_v<exec::MultiColumnOp, T>) {
      mc_ops_.push_back(std::move(op));
    } else {
      tuple_ops_.push_back(std::move(op));
    }
    return raw;
  }

  void SetRoot(exec::TupleOp* root) { root_ = root; }

  /// For aggregation plans: the root aggregate operator, whose partial
  /// accumulator the scheduler takes once the root is drained. Null for
  /// other plans.
  void SetAggOp(exec::GroupAggOp* op) { agg_op_ = op; }
  exec::GroupAggOp* agg_op() const { return agg_op_; }

  /// For sort plans: the root sort operator, whose sorted run the
  /// scheduler takes once the root is drained, for the finalize k-way
  /// merge. Null for other plans.
  void SetSortOp(exec::SortOp* op) { sort_op_ = op; }
  exec::SortOp* sort_op() const { return sort_op_; }

  /// Attaches a fresh OpProbe to every owned operator (EXPLAIN ANALYZE).
  /// Call once, after the plan is fully built and before any Next().
  void EnableProfiling() {
    mc_probes_.assign(mc_ops_.size(), exec::OpProbe{});
    tuple_probes_.assign(tuple_ops_.size(), exec::OpProbe{});
    for (size_t i = 0; i < mc_ops_.size(); ++i) {
      mc_ops_[i]->set_probe(&mc_probes_[i]);
    }
    for (size_t i = 0; i < tuple_ops_.size(); ++i) {
      tuple_ops_[i]->set_probe(&tuple_probes_[i]);
    }
  }

  /// Folds this instance's probes into `profile`, keyed by ownership order
  /// so every morsel clone of the same logical operator merges into one
  /// row. No-op unless EnableProfiling ran.
  void FlushProfile(obs::PlanProfile* profile) const {
    for (size_t i = 0; i < mc_probes_.size(); ++i) {
      obs::OpActuals a;
      a.calls = mc_probes_[i].calls;
      a.time_ns = mc_probes_[i].time_ns;
      // MultiColumnChunk has no O(1) position count — rows stay unset.
      profile->Merge(obs::OpSection::kMultiColumn, static_cast<int>(i),
                     mc_ops_[i]->name(), a);
    }
    for (size_t i = 0; i < tuple_probes_.size(); ++i) {
      obs::OpActuals a;
      a.calls = tuple_probes_[i].calls;
      a.rows = tuple_probes_[i].rows;
      a.time_ns = tuple_probes_[i].time_ns;
      a.has_rows = true;
      profile->Merge(obs::OpSection::kTuple, static_cast<int>(i),
                     tuple_ops_[i]->name(), a);
    }
  }

 private:
  std::vector<std::unique_ptr<exec::MultiColumnOp>> mc_ops_;
  std::vector<std::unique_ptr<exec::TupleOp>> tuple_ops_;
  std::vector<exec::OpProbe> mc_probes_;
  std::vector<exec::OpProbe> tuple_probes_;
  exec::TupleOp* root_ = nullptr;
  exec::GroupAggOp* agg_op_ = nullptr;
  exec::SortOp* sort_op_ = nullptr;
  exec::ExecStats stats_;
};

/// True when late-materialized plans built under `config` take `column`'s
/// positions straight from its index (an IndexScan, Section 2.1.1) instead
/// of scanning it: the column is sorted and its predicate is one value
/// range. The cost model prices exactly these columns as index lookups.
bool UsesIndex(const PlanConfig& config,
               const SelectionQuery::Column& column);

/// The planner's one legality check, which the advisor's ranking also
/// takes: NotSupported for LM-pipelined when a filter after its first is
/// an unindexed bit-vector column (position filtering on bit-vector data
/// is not supported — Section 4.1), OK otherwise. Filters are taken in the
/// query's filter order, so an output-only bit-vector column is legal.
Status CheckStrategy(const SelectionQuery& query, Strategy strategy,
                     const PlanConfig& config);

/// Builds the operator tree for a selection query under `strategy`
/// (CheckStrategy's verdict first). The plan filters the query's filters
/// in order and reads its output-only columns without filtering them: LM
/// plans DS3-gather them in the MERGE, EM-pipelined fetches them with DS4s
/// after its last filter, and SPC reads them only in windows where a row
/// passed. Output tuples hold the columns in `query.columns` order.
///
/// Over a config.snapshot with write state, every plan builder reads the
/// snapshot's readers instead of the query's: one lookup per column per
/// plan instance, whose blocks cover the tail rows too. Since the index
/// answers over the read store only, an LM plan with an index-answered
/// filter over tail rows is built twice and concatenated: with the index
/// over the morsel's read-store part, without it over its tail part, which
/// starts mid-window at base_rows. Deleted positions are masked after the
/// leaves.
Result<std::unique_ptr<Plan>> BuildSelectionPlan(const SelectionQuery& query,
                                                 Strategy strategy,
                                                 const PlanConfig& config);

/// Builds the aggregation query plan: the selection pipeline feeding either
/// a hash aggregator over tuples (EM) or a late aggregator over positions +
/// mini-columns (LM).
Result<std::unique_ptr<Plan>> BuildAggPlan(const AggQuery& query,
                                           Strategy strategy,
                                           const PlanConfig& config);

/// Validates the join query and assembles the build-phase spec: the
/// inner-side readers and mode — when JoinQuery::right_snapshot carries
/// pending rows or deletes, the snapshot and its readers. Every join's
/// build (PlanTemplate::BuildJoinTable) starts from it, before any probe
/// plan exists.
Result<exec::JoinBuildTable::Spec> JoinBuildSpec(const JoinQuery& query,
                                                 exec::JoinRightMode mode);

/// Builds the join plan's probe side with the chosen inner-table
/// representation: the outer stream (DS1 or SPC leaf over config.snapshot's
/// readers and delete-masked when it carries state, restricted to
/// config.scan_range) feeding a JoinProbeOp over `table`,
/// the query's built hash table (its build ran JoinBuildSpec, which
/// validated `query`). `table` must outlive the plan.
Result<std::unique_ptr<Plan>> BuildJoinPlan(const JoinQuery& query,
                                            const PlanConfig& config,
                                            const exec::JoinBuildTable& table);

/// Builds the sort plan: the selection pipeline (under `strategy`, restricted
/// to config.scan_range like any scan) feeding a SortOp that orders rows by
/// (sort column, then position) — a total order, so output is deterministic
/// even among duplicate keys — and applies the LIMIT. The parallel executor
/// disables the op's final emit and k-way merges per-morsel runs instead.
Result<std::unique_ptr<Plan>> BuildSortPlan(const SortQuery& query,
                                            Strategy strategy,
                                            const PlanConfig& config);

}  // namespace plan
}  // namespace cstore

#endif  // CSTORE_PLAN_PLANNER_H_
