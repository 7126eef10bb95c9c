#include "plan/parallel.h"

#include "exec/morsel_source.h"
#include "util/logging.h"

namespace cstore {
namespace plan {

PlanTemplate PlanTemplate::Selection(SelectionQuery query, Strategy strategy,
                                     PlanConfig config) {
  PlanTemplate t;
  t.kind = Kind::kSelection;
  t.selection = std::move(query);
  t.strategy = strategy;
  t.config = config;
  return t;
}

PlanTemplate PlanTemplate::Agg(AggQuery query, Strategy strategy,
                               PlanConfig config) {
  PlanTemplate t;
  t.kind = Kind::kAgg;
  t.agg = std::move(query);
  t.strategy = strategy;
  t.config = config;
  return t;
}

PlanTemplate PlanTemplate::Join(JoinQuery query, exec::JoinRightMode mode,
                                PlanConfig config) {
  PlanTemplate t;
  t.kind = Kind::kJoin;
  t.join = std::move(query);
  t.join_mode = mode;
  t.config = config;
  return t;
}

PlanTemplate PlanTemplate::Sort(SortQuery query, Strategy strategy,
                                PlanConfig config) {
  PlanTemplate t;
  t.kind = Kind::kSort;
  t.sort = std::move(query);
  t.strategy = strategy;
  t.config = config;
  return t;
}

Position PlanTemplate::TotalPositions() const {
  // With a write snapshot the scanned position space extends past the read
  // store by the snapshot's tail rows, so morsels cover them too.
  const Position tail =
      config.snapshot != nullptr ? config.snapshot->tail_rows() : 0;
  switch (kind) {
    case Kind::kSelection:
      return selection.columns.empty()
                 ? 0
                 : selection.columns[0].reader->num_values() + tail;
    case Kind::kAgg:
      return agg.selection.columns.empty()
                 ? 0
                 : agg.selection.columns[0].reader->num_values() + tail;
    case Kind::kJoin:
      // Probe morsels partition the outer (left) side's position space,
      // extended over its write-store tail like any scan.
      return join.left_key == nullptr ? 0
                                      : join.left_key->num_values() + tail;
    case Kind::kSort:
      return sort.selection.columns.empty()
                 ? 0
                 : sort.selection.columns[0].reader->num_values() + tail;
  }
  return 0;
}

Position PlanTemplate::TouchedPositions() const {
  if (kind == Kind::kJoin) {
    // The hash build reads the whole inner side, its tail included.
    const Position inner =
        (join.right_key != nullptr ? join.right_key->num_values() : 0) +
        (join.right_snapshot != nullptr ? join.right_snapshot->tail_rows()
                                        : 0);
    return TotalPositions() + inner;
  }
  const SelectionQuery* scan = kind == Kind::kSelection ? &selection
                               : kind == Kind::kAgg     ? &agg.selection
                                                        : &sort.selection;
  // LM-parallel ANDs every filter's leaf, and a DS1 leaf reads every
  // window; LM-pipelined refines the first leaf's positions only.
  if (!IsLate(strategy) || scan->num_filters() == 0 ||
      (strategy == Strategy::kLmParallel && scan->num_filters() > 1)) {
    return TotalPositions();
  }
  const SelectionQuery::Column& first = scan->columns[scan->filter(0)];
  if (!UsesIndex(config, first)) return TotalPositions();
  Result<position::Range> range = first.reader->PositionRangeFor(first.pred);
  // A failed lookup is the plan's to report, wherever it runs.
  if (!range.ok()) return TotalPositions();
  const Position tail =
      config.snapshot != nullptr ? config.snapshot->tail_rows() : 0;
  return range->end - range->begin + tail;
}

Position PlanTemplate::MorselPositions(int workers) const {
  if (config.morsel_positions != exec::kDefaultMorselPositions) {
    return config.morsel_positions;
  }
  return exec::AutoMorselPositions(TotalPositions(), workers);
}

Result<std::shared_ptr<const exec::JoinBuildTable>>
PlanTemplate::BuildJoinTable(exec::ExecStats* stats) const {
  CSTORE_CHECK(NeedsBuildPhase());
  CSTORE_ASSIGN_OR_RETURN(exec::JoinBuildTable::Spec spec,
                          JoinBuildSpec(join, join_mode));
  CSTORE_ASSIGN_OR_RETURN(std::unique_ptr<exec::JoinBuildTable> table,
                          exec::JoinBuildTable::Build(spec, stats));
  return std::shared_ptr<const exec::JoinBuildTable>(std::move(table));
}

Result<std::unique_ptr<Plan>> PlanTemplate::Instantiate(
    position::Range morsel, const exec::JoinBuildTable* table) const {
  PlanConfig cfg = config;
  cfg.scan_range = morsel;
  switch (kind) {
    case Kind::kSelection:
      return BuildSelectionPlan(selection, strategy, cfg);
    case Kind::kAgg:
      return BuildAggPlan(agg, strategy, cfg);
    case Kind::kJoin:
      if (table == nullptr) {
        return Status::Internal("join instance without its built table");
      }
      return BuildJoinPlan(join, cfg, *table);
    case Kind::kSort:
      return BuildSortPlan(sort, strategy, cfg);
  }
  return Status::Internal("unreachable template kind");
}

}  // namespace plan
}  // namespace cstore
