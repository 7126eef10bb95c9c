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

/// True when the plan must see write-store state: a snapshot is attached
/// and it actually holds deletes or tail rows (an empty snapshot builds the
/// exact pre-write-path plan, keeping the serial path bit-identical).
bool HasWriteState(const PlanConfig& config) {
  return config.snapshot != nullptr && config.snapshot->has_state();
}

/// The query a plan instance reads: `query` itself without write state,
/// else a copy in `*swapped` over the snapshot's readers (WriteSnapshot::
/// ReaderFor checks each column against the snapshot), whose blocks run
/// on past the read store over the snapshot's tail rows.
Result<const SelectionQuery*> InstanceQuery(const SelectionQuery& query,
                                            const PlanConfig& config,
                                            SelectionQuery* swapped) {
  if (!HasWriteState(config)) return &query;
  *swapped = query;
  for (SelectionQuery::Column& col : swapped->columns) {
    CSTORE_ASSIGN_OR_RETURN(col.reader, config.snapshot->ReaderFor(col.reader));
  }
  return swapped;
}

/// True when an LM plan over `query` is built twice: the snapshot has tail
/// rows, and the index answers a filter, but over the read store only.
bool SplitsAtTail(const SelectionQuery& query, const PlanConfig& config) {
  if (config.snapshot == nullptr || config.snapshot->tail_rows() == 0) {
    return false;
  }
  for (size_t i = 0; i < query.num_filters(); ++i) {
    if (UsesIndex(config, query.columns[query.filter(i)])) return true;
  }
  return false;
}

/// The LM position stream over the instance query, its deleted positions
/// masked. A plan that SplitsAtTail reads the morsel's read-store part off
/// the index and its tail part without it, where DS1 leaves scan the tail
/// blocks.
Result<exec::MultiColumnOp*> LatePositions(const SelectionQuery& query,
                                           Strategy strategy,
                                           const PlanConfig& config,
                                           Plan* plan) {
  CSTORE_RETURN_IF_ERROR(CheckStrategy(query, strategy, config));
  const write::WriteSnapshot* snap = config.snapshot.get();
  exec::MultiColumnOp* stream = nullptr;
  if (!SplitsAtTail(query, config)) {
    CSTORE_ASSIGN_OR_RETURN(
        stream, BuildLatePositionStream(query, strategy, config, plan));
  } else {
    // A morsel wholly on one side builds that side's half alone.
    const Position base = snap->base_rows();
    if (config.scan_range.begin < base) {
      PlanConfig stored = config;
      stored.scan_range.end = std::min(config.scan_range.end, base);
      CSTORE_ASSIGN_OR_RETURN(
          stream, BuildLatePositionStream(query, strategy, stored, plan));
    }
    if (config.scan_range.end > base || stream == nullptr) {
      PlanConfig tail = config;
      tail.scan_range.begin = std::max(config.scan_range.begin, base);
      tail.use_sorted_index = false;
      CSTORE_ASSIGN_OR_RETURN(
          exec::MultiColumnOp * tail_stream,
          BuildLatePositionStream(query, strategy, tail, plan));
      stream = stream == nullptr ? tail_stream
                                 : plan->Own(std::make_unique<exec::ConcatPosOp>(
                                       stream, tail_stream));
    }
  }
  if (snap != nullptr && snap->has_deletes()) {
    stream = plan->Own(std::make_unique<exec::DeleteMaskOp>(
        stream, config.snapshot, &plan->stats()));
  }
  return stream;
}

/// The EM tuple stream over the instance query, its deleted positions
/// masked.
Result<exec::TupleOp*> EarlyTuples(const SelectionQuery& query,
                                   Strategy strategy, const PlanConfig& config,
                                   Plan* plan) {
  CSTORE_ASSIGN_OR_RETURN(
      exec::TupleOp * stream,
      BuildEarlyTupleStream(query, strategy, config, plan));
  if (config.snapshot != nullptr && config.snapshot->has_deletes()) {
    stream = plan->Own(
        std::make_unique<exec::DeleteMaskTupleOp>(stream, config.snapshot));
  }
  return stream;
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
  SelectionQuery swapped;
  CSTORE_ASSIGN_OR_RETURN(const SelectionQuery* q,
                          InstanceQuery(query, config, &swapped));
  auto plan = std::make_unique<Plan>();

  if (IsLate(strategy)) {
    CSTORE_ASSIGN_OR_RETURN(
        exec::MultiColumnOp * stream,
        LatePositions(*q, strategy, config, plan.get()));
    std::vector<exec::MergeOp::OutputColumn> outs;
    outs.reserve(q->columns.size());
    for (uint32_t c = 0; c < q->columns.size(); ++c) {
      outs.push_back(exec::MergeOp::OutputColumn{c, q->columns[c].reader});
    }
    plan->SetRoot(plan->Own(std::make_unique<exec::MergeOp>(
        stream, std::move(outs), &plan->stats())));
  } else {
    CSTORE_ASSIGN_OR_RETURN(exec::TupleOp * stream,
                            EarlyTuples(*q, strategy, config, plan.get()));
    plan->SetRoot(stream);
  }
  return plan;
}

Result<std::unique_ptr<Plan>> BuildAggPlan(const AggQuery& query,
                                           Strategy strategy,
                                           const PlanConfig& config) {
  CSTORE_RETURN_IF_ERROR(ValidateSelection(query.selection));
  if ((!query.global && query.group_index >= query.selection.columns.size()) ||
      query.agg_index >= query.selection.columns.size()) {
    return Status::InvalidArgument("group/agg index out of range");
  }
  SelectionQuery swapped;
  CSTORE_ASSIGN_OR_RETURN(const SelectionQuery* q,
                          InstanceQuery(query.selection, config, &swapped));
  auto plan = std::make_unique<Plan>();

  if (IsLate(strategy)) {
    CSTORE_ASSIGN_OR_RETURN(
        exec::MultiColumnOp * stream,
        LatePositions(*q, strategy, config, plan.get()));
    // The aggregator consumes positions + mini-columns directly; no tuples
    // are constructed below it.
    uint32_t gidx = query.global ? query.agg_index : query.group_index;
    auto source = [&](uint32_t c) {
      return exec::LateAggOp::ColumnSource{c, q->columns[c].reader,
                                           !q->is_filter(c)};
    };
    exec::LateAggOp::ColumnSource group = source(gidx);
    exec::LateAggOp::ColumnSource agg = source(query.agg_index);
    exec::LateAggOp* root = plan->Own(std::make_unique<exec::LateAggOp>(
        stream, group, agg, query.func, query.global, &plan->stats()));
    plan->SetRoot(root);
    plan->SetAggOp(root);
  } else {
    CSTORE_ASSIGN_OR_RETURN(exec::TupleOp * stream,
                            EarlyTuples(*q, strategy, config, plan.get()));
    exec::HashAggOp* root = plan->Own(std::make_unique<exec::HashAggOp>(
        stream, query.global ? query.agg_index : query.group_index,
        query.agg_index, query.func, query.global));
    plan->SetRoot(root);
    plan->SetAggOp(root);
  }
  return plan;
}

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
    CSTORE_ASSIGN_OR_RETURN(spec.right_key,
                            spec.snapshot->ReaderFor(query.right_key));
    CSTORE_ASSIGN_OR_RETURN(spec.right_payload,
                            spec.snapshot->ReaderFor(query.right_payload));
  }
  return spec;
}

Result<std::unique_ptr<Plan>> BuildJoinPlan(const JoinQuery& query,
                                            const PlanConfig& config,
                                            const exec::JoinBuildTable& table) {
  // The outer side reads the outer snapshot's readers, tail rows included,
  // and masks its deletes, exactly like a scan.
  const codec::ColumnReader* left_key = query.left_key;
  const codec::ColumnReader* left_payload = query.left_payload;
  const auto& snap = config.snapshot;
  if (HasWriteState(config)) {
    CSTORE_ASSIGN_OR_RETURN(left_key, snap->ReaderFor(left_key));
    CSTORE_ASSIGN_OR_RETURN(left_payload, snap->ReaderFor(left_payload));
  }
  const bool masked = snap != nullptr && snap->has_deletes();

  auto plan = std::make_unique<Plan>();
  exec::JoinProbeOp::Spec spec;
  if (query.left_mode == exec::JoinLeftMode::kEarly) {
    // The outer tuples are constructed before the join (row-store style):
    // scan key + payload, filter on the key, emit (key, payload) rows.
    std::vector<exec::SpcScan::Input> inputs = {
        {left_key, query.left_pred},
        {left_payload, codec::Predicate::True()},
    };
    exec::TupleOp* stream = plan->Own(std::make_unique<exec::SpcScan>(
        std::move(inputs), &plan->stats(), config.scan_range));
    if (masked) {
      stream =
          plan->Own(std::make_unique<exec::DeleteMaskTupleOp>(stream, snap));
    }
    spec.tuple_input = stream;
  } else {
    exec::MultiColumnOp* stream = plan->Own(std::make_unique<exec::DS1Scan>(
        left_key, /*column=*/0, query.left_pred,
        /*attach_mini=*/true, &plan->stats(), config.scan_range));
    if (masked) {
      stream = plan->Own(
          std::make_unique<exec::DeleteMaskOp>(stream, snap, &plan->stats()));
    }
    spec.pos_input = stream;
    spec.left_payload = left_payload;
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
