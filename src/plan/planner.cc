#include "plan/planner.h"

#include <algorithm>

#include "codec/encoding.h"
#include "exec/and_op.h"
#include "exec/ds_scan.h"
#include "exec/merge_op.h"
#include "exec/ws_scan.h"
#include "util/logging.h"

namespace cstore {
namespace plan {

namespace {

Status ValidateSelection(const SelectionQuery& query) {
  if (query.columns.empty()) {
    return Status::InvalidArgument("selection query needs >= 1 column");
  }
  uint64_t n = query.columns[0].reader->num_values();
  for (const auto& col : query.columns) {
    if (col.reader == nullptr) {
      return Status::InvalidArgument("null column reader");
    }
    if (col.reader->num_values() != n) {
      return Status::InvalidArgument(
          "selection columns must belong to one projection (equal length)");
    }
  }
  if (query.filter_order) {
    // Each column at most once; an output-only column must have no
    // predicate, or dropping it would widen the answer.
    const std::vector<uint32_t>& order = *query.filter_order;
    for (auto it = order.begin(); it != order.end(); ++it) {
      if (*it >= query.columns.size() ||
          std::find(order.begin(), it, *it) != it) {
        return Status::InvalidArgument("bad filter order");
      }
    }
    for (uint32_t c = 0; c < query.columns.size(); ++c) {
      if (!query.is_filter(c) && !query.columns[c].pred.is_true()) {
        return Status::InvalidArgument(
            "a predicated column is missing from the filter order");
      }
    }
  }
  return Status::OK();
}

/// The leaf of an LM position stream over column `c`: its positions off
/// the index, or a DS1 scan.
Result<exec::MultiColumnOp*> LateLeaf(const SelectionQuery& query, uint32_t c,
                                      const PlanConfig& config, Plan* plan) {
  const auto& col = query.columns[c];
  if (UsesIndex(config, col)) {
    CSTORE_ASSIGN_OR_RETURN(position::Range range,
                            col.reader->PositionRangeFor(col.pred));
    return plan->Own(std::make_unique<exec::IndexScan>(
        col.reader, range, &plan->stats(), config.scan_range));
  }
  return plan->Own(std::make_unique<exec::DS1Scan>(
      col.reader, c, col.pred, config.use_multicolumn, &plan->stats(),
      config.scan_range));
}

/// LM position-stream construction shared by selection and aggregation
/// plans: returns the operator producing the final position descriptor
/// chunks over the query's filters (DS1s/IndexScans + AND for parallel; a
/// pipelined refinement chain for pipelined). Output-only columns get no
/// operator here: the MERGE or late aggregate above DS3-gathers them.
Result<exec::MultiColumnOp*> BuildLatePositionStream(
    const SelectionQuery& query, Strategy strategy, const PlanConfig& config,
    Plan* plan) {
  CSTORE_RETURN_IF_ERROR(CheckStrategy(query, strategy, config));
  const size_t nf = query.num_filters();
  if (nf == 0) {
    // Nothing to filter: every position of every window qualifies, which
    // the index leaf reports over the whole column without reading it.
    const codec::ColumnReader* reader = query.columns[0].reader;
    return plan->Own(std::make_unique<exec::IndexScan>(
        reader, position::Range{0, reader->num_values()}, &plan->stats(),
        config.scan_range));
  }
  if (strategy == Strategy::kLmParallel) {
    std::vector<exec::MultiColumnOp*> scans;
    scans.reserve(nf);
    for (size_t i = 0; i < nf; ++i) {
      CSTORE_ASSIGN_OR_RETURN(exec::MultiColumnOp * scan,
                              LateLeaf(query, query.filter(i), config, plan));
      scans.push_back(scan);
    }
    if (scans.size() == 1) return scans[0];
    return plan->Own(
        std::make_unique<exec::AndOp>(std::move(scans), &plan->stats()));
  }

  CSTORE_CHECK(strategy == Strategy::kLmPipelined);
  CSTORE_ASSIGN_OR_RETURN(exec::MultiColumnOp * stream,
                          LateLeaf(query, query.filter(0), config, plan));
  for (size_t i = 1; i < nf; ++i) {
    const uint32_t c = query.filter(i);
    const auto& col = query.columns[c];
    if (UsesIndex(config, col)) {
      CSTORE_ASSIGN_OR_RETURN(position::Range range,
                              col.reader->PositionRangeFor(col.pred));
      stream = plan->Own(std::make_unique<exec::IndexScan>(
          stream, col.reader, range, &plan->stats()));
    } else {
      stream = plan->Own(std::make_unique<exec::DS1PipelinedScan>(
          stream, col.reader, c, col.pred, config.use_multicolumn,
          &plan->stats()));
    }
  }
  return stream;
}

/// The predicate plan-order step `i` applies: its column's, or none for an
/// output-only column.
std::optional<codec::Predicate> StepPredicate(const SelectionQuery& query,
                                              const std::vector<uint32_t>& order,
                                              size_t i) {
  if (i >= query.num_filters()) return std::nullopt;
  return query.columns[order[i]].pred;
}

Result<exec::TupleOp*> BuildEarlyTupleStream(const SelectionQuery& query,
                                             Strategy strategy,
                                             const PlanConfig& config,
                                             Plan* plan) {
  const std::vector<uint32_t> order = query.PlanOrder();
  // Both read the columns in plan order and emit them in the query's
  // layout: SPC directly, EM-pipelined through its last DS4's stitch.
  std::vector<uint32_t> out_slots;
  if (!std::is_sorted(order.begin(), order.end())) out_slots = order;
  if (strategy == Strategy::kEmParallel) {
    std::vector<exec::SpcScan::Input> inputs;
    inputs.reserve(order.size());
    for (size_t i = 0; i < order.size(); ++i) {
      inputs.push_back(exec::SpcScan::Input{query.columns[order[i]].reader,
                                            StepPredicate(query, order, i)});
    }
    return static_cast<exec::TupleOp*>(
        plan->Own(std::make_unique<exec::SpcScan>(
            std::move(inputs), &plan->stats(), config.scan_range,
            std::move(out_slots))));
  }

  CSTORE_CHECK(strategy == Strategy::kEmPipelined);
  exec::TupleOp* stream = plan->Own(std::make_unique<exec::DS2Scan>(
      query.columns[order[0]].reader, StepPredicate(query, order, 0),
      &plan->stats(), config.scan_range));
  for (size_t i = 1; i < order.size(); ++i) {
    stream = plan->Own(std::make_unique<exec::DS4ScanMerge>(
        stream, query.columns[order[i]].reader,
        StepPredicate(query, order, i), &plan->stats(), config.scan_range,
        i + 1 == order.size() ? std::move(out_slots)
                              : std::vector<uint32_t>()));
  }
  return stream;
}

// --- Write-store integration ------------------------------------------------

/// True when the plan must merge write-store state: a snapshot is attached
/// and it actually holds deletes or tail rows (an empty snapshot builds the
/// exact pre-write-path plan, keeping the serial path bit-identical).
bool HasWriteState(const PlanConfig& config) {
  return config.snapshot != nullptr && config.snapshot->has_state();
}

/// Checks the snapshot matches the readers' generation.
Status CheckSnapshotGeneration(const SelectionQuery& query,
                               const write::WriteSnapshot& snap) {
  if (snap.base_rows() != query.columns[0].reader->num_values()) {
    return Status::InvalidArgument(
        "write snapshot generation mismatch: snapshot has " +
        std::to_string(snap.base_rows()) + " read-store rows, reader has " +
        std::to_string(query.columns[0].reader->num_values()));
  }
  return Status::OK();
}

/// Maps each scan column, in plan order, to its snapshot schema column
/// (readers are keyed by storage file). Only needed when a tail leaf is
/// built.
Result<std::vector<exec::WsScanColumn>> WsColumnsFor(
    const SelectionQuery& query, const write::WriteSnapshot& snap) {
  const std::vector<uint32_t> order = query.PlanOrder();
  std::vector<exec::WsScanColumn> cols;
  cols.reserve(order.size());
  for (size_t i = 0; i < order.size(); ++i) {
    const codec::ColumnReader* reader = query.columns[order[i]].reader;
    int idx = snap.ColumnIndexForFile(reader->name());
    if (idx < 0) {
      return Status::InvalidArgument(
          "column file '" + reader->name() +
          "' is not part of the write snapshot's table");
    }
    cols.push_back(exec::WsScanColumn{order[i], static_cast<size_t>(idx),
                                      StepPredicate(query, order, i)});
  }
  return cols;
}

/// True when the morsel `scan_range` overlaps the snapshot's tail rows.
bool RangeTouchesTail(const write::WriteSnapshot& snap,
                      position::Range scan_range) {
  return snap.tail_rows() > 0 && scan_range.end > snap.base_rows() &&
         scan_range.begin < snap.total_rows();
}

/// Wraps an LM position stream with the snapshot's delete mask and appends
/// the write-store tail leaf scanning `cols`. The caller has validated the
/// snapshot against its readers and checked HasWriteState.
exec::MultiColumnOp* ApplyWriteStatePosCols(exec::MultiColumnOp* stream,
                                            std::vector<exec::WsScanColumn>
                                                cols,
                                            const PlanConfig& config,
                                            Plan* plan) {
  const auto& snap = config.snapshot;
  if (snap->has_deletes()) {
    stream = plan->Own(
        std::make_unique<exec::DeleteMaskOp>(stream, snap, &plan->stats()));
  }
  if (RangeTouchesTail(*snap, config.scan_range)) {
    exec::MultiColumnOp* tail = plan->Own(std::make_unique<exec::WsScanPos>(
        snap, std::move(cols), &plan->stats(), config.scan_range));
    stream = plan->Own(std::make_unique<exec::ConcatPosOp>(stream, tail));
  }
  return stream;
}

/// EM counterpart of ApplyWriteStatePosCols.
exec::TupleOp* ApplyWriteStateTupleCols(exec::TupleOp* stream,
                                        std::vector<exec::WsScanColumn> cols,
                                        const PlanConfig& config,
                                        Plan* plan) {
  const auto& snap = config.snapshot;
  if (snap->has_deletes()) {
    stream =
        plan->Own(std::make_unique<exec::DeleteMaskTupleOp>(stream, snap));
  }
  if (RangeTouchesTail(*snap, config.scan_range)) {
    exec::TupleOp* tail = plan->Own(std::make_unique<exec::WsScanTuple>(
        snap, std::move(cols), &plan->stats(), config.scan_range));
    stream = plan->Own(std::make_unique<exec::ConcatTupleOp>(stream, tail));
  }
  return stream;
}

/// Selection-query front end: validates the snapshot generation, maps the
/// scan columns to snapshot schema columns, and applies the shared wiring.
/// No-op without write state.
Result<exec::MultiColumnOp*> ApplyWriteStatePos(exec::MultiColumnOp* stream,
                                                const SelectionQuery& query,
                                                const PlanConfig& config,
                                                Plan* plan) {
  if (!HasWriteState(config)) return stream;
  CSTORE_RETURN_IF_ERROR(CheckSnapshotGeneration(query, *config.snapshot));
  CSTORE_ASSIGN_OR_RETURN(std::vector<exec::WsScanColumn> cols,
                          WsColumnsFor(query, *config.snapshot));
  return ApplyWriteStatePosCols(stream, std::move(cols), config, plan);
}

/// EM counterpart of ApplyWriteStatePos.
Result<exec::TupleOp*> ApplyWriteStateTuple(exec::TupleOp* stream,
                                            const SelectionQuery& query,
                                            const PlanConfig& config,
                                            Plan* plan) {
  if (!HasWriteState(config)) return stream;
  CSTORE_RETURN_IF_ERROR(CheckSnapshotGeneration(query, *config.snapshot));
  CSTORE_ASSIGN_OR_RETURN(std::vector<exec::WsScanColumn> cols,
                          WsColumnsFor(query, *config.snapshot));
  return ApplyWriteStateTupleCols(stream, std::move(cols), config, plan);
}

}  // namespace

bool UsesIndex(const PlanConfig& config,
               const SelectionQuery::Column& column) {
  return config.use_sorted_index &&
         column.reader->SupportsIndexLookup(column.pred);
}

Status CheckStrategy(const SelectionQuery& query, Strategy strategy,
                     const PlanConfig& config) {
  if (strategy != Strategy::kLmPipelined) return Status::OK();
  for (size_t i = 1; i < query.num_filters(); ++i) {
    const SelectionQuery::Column& col = query.columns[query.filter(i)];
    if (!PositionFilterable(col.reader->meta().encoding,
                            UsesIndex(config, col))) {
      return Status::NotSupported(
          "LM-pipelined cannot position-filter bit-vector column '" +
          col.reader->name() + "'");
    }
  }
  return Status::OK();
}

Result<std::unique_ptr<Plan>> BuildSelectionPlan(const SelectionQuery& query,
                                                 Strategy strategy,
                                                 const PlanConfig& config) {
  CSTORE_RETURN_IF_ERROR(ValidateSelection(query));
  auto plan = std::make_unique<Plan>();

  if (IsLate(strategy)) {
    CSTORE_ASSIGN_OR_RETURN(
        exec::MultiColumnOp * stream,
        BuildLatePositionStream(query, strategy, config, plan.get()));
    CSTORE_ASSIGN_OR_RETURN(
        stream, ApplyWriteStatePos(stream, query, config, plan.get()));
    std::vector<exec::MergeOp::OutputColumn> outs;
    outs.reserve(query.columns.size());
    for (uint32_t c = 0; c < query.columns.size(); ++c) {
      outs.push_back(exec::MergeOp::OutputColumn{c, query.columns[c].reader});
    }
    plan->SetRoot(plan->Own(std::make_unique<exec::MergeOp>(
        stream, std::move(outs), &plan->stats())));
  } else {
    CSTORE_ASSIGN_OR_RETURN(
        exec::TupleOp * stream,
        BuildEarlyTupleStream(query, strategy, config, plan.get()));
    CSTORE_ASSIGN_OR_RETURN(
        stream, ApplyWriteStateTuple(stream, query, config, plan.get()));
    plan->SetRoot(stream);
  }
  return plan;
}

Result<std::unique_ptr<Plan>> BuildAggPlan(const AggQuery& query,
                                           Strategy strategy,
                                           const PlanConfig& config) {
  CSTORE_RETURN_IF_ERROR(ValidateSelection(query.selection));
  const auto& cols = query.selection.columns;
  if ((!query.global && query.group_index >= cols.size()) ||
      query.agg_index >= cols.size()) {
    return Status::InvalidArgument("group/agg index out of range");
  }
  auto plan = std::make_unique<Plan>();

  if (IsLate(strategy)) {
    CSTORE_ASSIGN_OR_RETURN(
        exec::MultiColumnOp * stream,
        BuildLatePositionStream(query.selection, strategy, config,
                                plan.get()));
    CSTORE_ASSIGN_OR_RETURN(
        stream,
        ApplyWriteStatePos(stream, query.selection, config, plan.get()));
    // The aggregator consumes positions + mini-columns directly; no tuples
    // are constructed below it.
    uint32_t gidx = query.global ? query.agg_index : query.group_index;
    auto source = [&](uint32_t c) {
      return exec::LateAggOp::ColumnSource{c, cols[c].reader,
                                           !query.selection.is_filter(c)};
    };
    exec::LateAggOp::ColumnSource group = source(gidx);
    exec::LateAggOp::ColumnSource agg = source(query.agg_index);
    exec::LateAggOp* root = plan->Own(std::make_unique<exec::LateAggOp>(
        stream, group, agg, query.func, query.global, &plan->stats()));
    plan->SetRoot(root);
    plan->SetAggOp(root);
  } else {
    CSTORE_ASSIGN_OR_RETURN(
        exec::TupleOp * stream,
        BuildEarlyTupleStream(query.selection, strategy, config, plan.get()));
    CSTORE_ASSIGN_OR_RETURN(
        stream,
        ApplyWriteStateTuple(stream, query.selection, config, plan.get()));
    exec::HashAggOp* root = plan->Own(std::make_unique<exec::HashAggOp>(
        stream, query.global ? query.agg_index : query.group_index,
        query.agg_index, query.func, query.global));
    plan->SetRoot(root);
    plan->SetAggOp(root);
  }
  return plan;
}

namespace {

/// Locates `reader`'s column in `snap`'s schema (readers are keyed by
/// storage file) and checks the generation matches.
Result<size_t> SnapColumnFor(const write::WriteSnapshot& snap,
                             const codec::ColumnReader* reader,
                             const char* side) {
  if (snap.base_rows() != reader->num_values()) {
    return Status::InvalidArgument(
        std::string(side) + " join snapshot generation mismatch: snapshot "
        "has " + std::to_string(snap.base_rows()) +
        " read-store rows, reader has " +
        std::to_string(reader->num_values()));
  }
  int idx = snap.ColumnIndexForFile(reader->name());
  if (idx < 0) {
    return Status::InvalidArgument(
        "column file '" + reader->name() + "' is not part of the " + side +
        " join table's write snapshot");
  }
  return static_cast<size_t>(idx);
}

}  // namespace

Result<exec::JoinBuildTable::Spec> JoinBuildSpec(const JoinQuery& query,
                                                 exec::JoinRightMode mode) {
  if (query.left_key == nullptr || query.left_payload == nullptr ||
      query.right_key == nullptr || query.right_payload == nullptr) {
    return Status::InvalidArgument("join query has null column readers");
  }
  if (query.left_key->num_values() != query.left_payload->num_values()) {
    return Status::InvalidArgument("left columns must have equal length");
  }
  if (query.right_key->num_values() != query.right_payload->num_values()) {
    return Status::InvalidArgument("right columns must have equal length");
  }
  exec::JoinBuildTable::Spec spec;
  spec.right_key = query.right_key;
  spec.right_payload = query.right_payload;
  spec.mode = mode;
  if (query.right_snapshot != nullptr && query.right_snapshot->has_state()) {
    spec.snapshot = query.right_snapshot;
    CSTORE_ASSIGN_OR_RETURN(
        spec.snap_key_index,
        SnapColumnFor(*query.right_snapshot, query.right_key, "inner"));
    CSTORE_ASSIGN_OR_RETURN(
        spec.snap_payload_index,
        SnapColumnFor(*query.right_snapshot, query.right_payload, "inner"));
  }
  return spec;
}

Result<std::unique_ptr<Plan>> BuildJoinPlan(const JoinQuery& query,
                                            const PlanConfig& config,
                                            const exec::JoinBuildTable& table) {
  // Outer-side write state: the probe stream masks the snapshot's deletes
  // and extends over its write-store tail, exactly like a scan. Tail chunks
  // attach the payload as a mini-column too — write-store positions have no
  // reader blocks for the probe to merge-gather.
  const bool outer_state = HasWriteState(config);
  std::vector<exec::WsScanColumn> outer_cols;
  if (outer_state) {
    const auto& snap = config.snapshot;
    CSTORE_ASSIGN_OR_RETURN(size_t key_idx,
                            SnapColumnFor(*snap, query.left_key, "outer"));
    CSTORE_ASSIGN_OR_RETURN(
        size_t payload_idx,
        SnapColumnFor(*snap, query.left_payload, "outer"));
    outer_cols = {{0, key_idx, query.left_pred},
                  {1, payload_idx, codec::Predicate::True()}};
  }

  auto plan = std::make_unique<Plan>();
  exec::JoinProbeOp::Spec spec;
  if (query.left_mode == exec::JoinLeftMode::kEarly) {
    // The outer tuples are constructed before the join (row-store style):
    // scan key + payload, filter on the key, emit (key, payload) rows.
    std::vector<exec::SpcScan::Input> inputs = {
        {query.left_key, query.left_pred},
        {query.left_payload, codec::Predicate::True()},
    };
    exec::TupleOp* stream = plan->Own(std::make_unique<exec::SpcScan>(
        std::move(inputs), &plan->stats(), config.scan_range));
    if (outer_state) {
      stream = ApplyWriteStateTupleCols(stream, std::move(outer_cols),
                                        config, plan.get());
    }
    spec.tuple_input = stream;
  } else {
    exec::MultiColumnOp* stream = plan->Own(std::make_unique<exec::DS1Scan>(
        query.left_key, /*column=*/0, query.left_pred,
        /*attach_mini=*/true, &plan->stats(), config.scan_range));
    if (outer_state) {
      stream = ApplyWriteStatePosCols(stream, std::move(outer_cols), config,
                                      plan.get());
    }
    spec.pos_input = stream;
    spec.left_payload = query.left_payload;
  }
  plan->SetRoot(plan->Own(
      std::make_unique<exec::JoinProbeOp>(spec, table, &plan->stats())));
  return plan;
}

Result<std::unique_ptr<Plan>> BuildSortPlan(const SortQuery& query,
                                            Strategy strategy,
                                            const PlanConfig& config) {
  if (query.sort_index >= query.selection.columns.size()) {
    return Status::InvalidArgument("sort column index out of range");
  }
  // The sort consumes the ordinary selection pipeline (any strategy,
  // morsel-restricted, write-state merged) and re-orders its rows.
  CSTORE_ASSIGN_OR_RETURN(
      std::unique_ptr<Plan> plan,
      BuildSelectionPlan(query.selection, strategy, config));
  exec::SortOp::Spec spec;
  spec.input = plan->root();
  spec.sort_slot = query.sort_index;
  spec.desc = query.desc;
  spec.limit = query.limit;
  exec::SortOp* root =
      plan->Own(std::make_unique<exec::SortOp>(spec));
  plan->SetRoot(root);
  plan->SetSortOp(root);
  return plan;
}

}  // namespace plan
}  // namespace cstore
