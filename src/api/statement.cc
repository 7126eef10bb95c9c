#include "api/statement.h"

#include <algorithm>
#include <functional>
#include <limits>
#include <tuple>

#include "api/connection.h"
#include "model/cost_params.h"
#include "tpch/dates.h"
#include "util/string_dict.h"

namespace cstore {
namespace api {

double EstimateSelectivity(const codec::ColumnMeta& meta,
                           const codec::Predicate& pred) {
  if (meta.num_values == 0) return 0.0;
  const double lo = static_cast<double>(meta.min_value);
  const double hi = static_cast<double>(meta.max_value);
  const double width = hi - lo + 1.0;
  auto frac_below = [&](double x) {  // P(v < x) under uniformity
    return std::clamp((x - lo) / width, 0.0, 1.0);
  };
  using Op = codec::Predicate::Op;
  switch (pred.op()) {
    case Op::kTrue:
      return 1.0;
    case Op::kLess:
      return frac_below(static_cast<double>(pred.bound_a()));
    case Op::kLessEq:
      return frac_below(static_cast<double>(pred.bound_a()) + 1.0);
    case Op::kGreaterEq:
      return 1.0 - frac_below(static_cast<double>(pred.bound_a()));
    case Op::kGreater:
      return 1.0 - frac_below(static_cast<double>(pred.bound_a()) + 1.0);
    case Op::kEqual: {
      double d = meta.num_distinct > 0 ? static_cast<double>(meta.num_distinct)
                                       : width;
      return std::clamp(1.0 / std::max(1.0, d), 0.0, 1.0);
    }
    case Op::kNotEqual: {
      double d = meta.num_distinct > 0 ? static_cast<double>(meta.num_distinct)
                                       : width;
      return 1.0 - std::clamp(1.0 / std::max(1.0, d), 0.0, 1.0);
    }
    case Op::kBetween:
      return std::clamp(frac_below(static_cast<double>(pred.bound_b()) + 1.0) -
                            frac_below(static_cast<double>(pred.bound_a())),
                        0.0, 1.0);
  }
  return 1.0;
}

void OrderConjunction(const std::vector<std::string>& names,
                      plan::SelectionQuery* scan) {
  if (!scan->filter_order) scan->filter_order.emplace();
  std::vector<uint32_t>& order = *scan->filter_order;
  order.clear();
  for (uint32_t c = 0; c < scan->columns.size(); ++c) {
    if (!scan->columns[c].pred.is_true()) order.push_back(c);
  }
  auto key = [&](uint32_t c) {
    const plan::SelectionQuery::Column& col = scan->columns[c];
    const codec::ColumnMeta& meta = col.reader->meta();
    const double rank = (EstimateSelectivity(meta, col.pred) - 1.0) *
                        model::ColumnStats::FromMeta(meta).run_length;
    return std::make_tuple(!col.reader->SupportsIndexLookup(col.pred), rank,
                           std::cref(names[c]));
  };
  std::sort(order.begin(), order.end(),
            [&](uint32_t a, uint32_t b) { return key(a) < key(b); });
}

namespace internal {

Result<Value> LiteralValue(const sql::Literal& lit,
                           const std::vector<Value>& params) {
  if (lit.is_param) {
    if (lit.param_index < 0 ||
        static_cast<size_t>(lit.param_index) >= params.size()) {
      return Status::InvalidArgument(
          "statement has unbound parameter ?" +
          std::to_string(lit.param_index + 1) +
          " (prepare the statement and pass parameter values)");
    }
    return params[lit.param_index];
  }
  if (!lit.is_date) return lit.int_value;
  int32_t day = tpch::StringToDay(lit.date_text);
  if (day >= 0) return static_cast<Value>(day);
  // Any quoted literal that doesn't parse as a date is a string literal:
  // intern it so equality predicates on dictionary-encoded columns (the
  // system.* string columns) compare ids. Dict ids live at >= 1 << 40, so
  // a mistyped date simply matches nothing instead of erroring.
  return util::StringDict::Global().Intern(lit.date_text);
}

namespace {

/// Per-column accumulated bounds from one or more WHERE conditions.
struct Bounds {
  bool has_lower = false;
  Value lower = 0;  // inclusive
  bool has_upper = false;
  Value upper = 0;  // inclusive
  bool has_not_eq = false;
  Value neq_value = 0;
  // `v < INT64_MIN` / `v > INT64_MAX`: satisfiable by nothing (and not
  // representable as an inclusive bound without overflowing).
  bool impossible = false;

  Status Add(sql::Condition::Op op, Value a, Value b);
  Result<codec::Predicate> ToPredicate() const;
};

Status Bounds::Add(sql::Condition::Op op, Value a, Value b) {
  auto add_lower = [this](Value v) {
    lower = has_lower ? std::max(lower, v) : v;
    has_lower = true;
    return Status::OK();
  };
  auto add_upper = [this](Value v) {
    upper = has_upper ? std::min(upper, v) : v;
    has_upper = true;
    return Status::OK();
  };
  using Op = sql::Condition::Op;
  switch (op) {
    case Op::kLess:
      if (a == std::numeric_limits<Value>::min()) {
        impossible = true;  // nothing is < INT64_MIN; a-1 would overflow
        return Status::OK();
      }
      return add_upper(a - 1);
    case Op::kLessEq:
      return add_upper(a);
    case Op::kGreater:
      if (a == std::numeric_limits<Value>::max()) {
        impossible = true;  // nothing is > INT64_MAX; a+1 would overflow
        return Status::OK();
      }
      return add_lower(a + 1);
    case Op::kGreaterEq:
      return add_lower(a);
    case Op::kEq:
      CSTORE_RETURN_IF_ERROR(add_lower(a));
      return add_upper(a);
    case Op::kBetween:
      CSTORE_RETURN_IF_ERROR(add_lower(a));
      return add_upper(b);
    case Op::kNotEq:
      if (has_not_eq) {
        return Status::NotSupported("multiple <> conditions on one column");
      }
      has_not_eq = true;
      neq_value = a;
      return Status::OK();
  }
  return Status::Internal("unreachable");
}

Result<codec::Predicate> Bounds::ToPredicate() const {
  if (impossible) {
    // Matches nothing — the same inverted range a contradictory pair of
    // conditions (e.g. a > 5 AND a < 3) folds to.
    return codec::Predicate::Between(1, 0);
  }
  if (has_not_eq) {
    if (has_lower || has_upper) {
      return Status::NotSupported(
          "mixing <> with range conditions on one column");
    }
    return codec::Predicate::NotEqual(neq_value);
  }
  if (has_lower && has_upper) {
    if (lower == upper) return codec::Predicate::Equal(lower);
    return codec::Predicate::Between(lower, upper);
  }
  if (has_lower) return codec::Predicate::GreaterEqual(lower);
  if (has_upper) return codec::Predicate::LessEqual(upper);
  return codec::Predicate::True();
}

/// Re-resolves `bound`'s readers against `snapshot`'s generation when the
/// file fingerprint changed (a compaction swapped the table since bind);
/// no-op otherwise.
Status RefreshReaders(db::Database* db, BoundSelect* bound,
                      const write::WriteSnapshot& snapshot) {
  // Logical rows and positions are preserved by the tuple mover, so results
  // are unaffected — only the file handles change.
  if (snapshot.column_files() == bound->bound_files) return Status::OK();
  for (size_t i = 0; i < bound->readers.size(); ++i) {
    int idx = bound->scan_schema_index[i];
    if (idx < 0 ||
        static_cast<size_t>(idx) >= snapshot.column_files().size()) {
      return Status::Internal("scan column lost its schema slot");
    }
    CSTORE_ASSIGN_OR_RETURN(bound->readers[i],
                            db->GetColumn(snapshot.column_files()[idx]));
  }
  bound->bound_files = snapshot.column_files();
  return Status::OK();
}

}  // namespace

Result<std::vector<std::pair<std::string, codec::Predicate>>> FoldConditions(
    const std::vector<sql::Condition>& conditions,
    const std::vector<Value>& params) {
  // Flat accumulation (condition lists are tiny; a map would allocate a
  // node per column on the hot prepared-execution path), then name order to
  // match the bind-time scan order.
  std::vector<std::pair<const std::string*, Bounds>> bounds;
  bounds.reserve(conditions.size());
  for (const sql::Condition& cond : conditions) {
    CSTORE_ASSIGN_OR_RETURN(Value a, LiteralValue(cond.a, params));
    Value b = 0;
    if (cond.op == sql::Condition::Op::kBetween) {
      CSTORE_ASSIGN_OR_RETURN(b, LiteralValue(cond.b, params));
    }
    Bounds* slot = nullptr;
    for (auto& [name, acc] : bounds) {
      if (*name == cond.column) {
        slot = &acc;
        break;
      }
    }
    if (slot == nullptr) {
      bounds.emplace_back(&cond.column, Bounds());
      slot = &bounds.back().second;
    }
    CSTORE_RETURN_IF_ERROR(slot->Add(cond.op, a, b));
  }
  std::sort(bounds.begin(), bounds.end(),
            [](const auto& x, const auto& y) { return *x.first < *y.first; });
  std::vector<std::pair<std::string, codec::Predicate>> out;
  out.reserve(bounds.size());
  for (const auto& [col, bound] : bounds) {
    CSTORE_ASSIGN_OR_RETURN(codec::Predicate pred, bound.ToPredicate());
    out.emplace_back(*col, pred);
  }
  return out;
}

Result<BoundSelect> BindSelect(db::Database* db, const sql::ParsedQuery& q) {
  BoundSelect bound;
  bound.table = q.table;
  bound.conditions = q.conditions;
  // First reference to a system.* table materializes the virtual schema.
  if (db::Database::IsSystemTable(q.table)) {
    db->EnsureSystemTables();
  }
  if (!db->HasTable(q.table)) {
    return Status::NotFound("unknown table '" + q.table + "'");
  }
  // Capture the table's write state once; columns are resolved from the
  // snapshot's generation so the readers and the snapshot always agree,
  // even if the tuple mover swaps the table mid-bind.
  CSTORE_ASSIGN_OR_RETURN(bound.bind_snapshot, db->SnapshotTable(q.table));
  const write::WriteSnapshot& snap = *bound.bind_snapshot;
  bound.bound_files = snap.column_files();

  // Expand the select list.
  std::vector<sql::SelectItem> items;
  for (const sql::SelectItem& item : q.items) {
    if (item.star) {
      for (const std::string& c : snap.column_names()) {
        sql::SelectItem expanded;
        expanded.column = c;
        items.push_back(expanded);
      }
    } else {
      items.push_back(item);
    }
  }
  if (items.empty()) {
    return Status::InvalidArgument("empty select list");
  }

  // The scan column list: select-list columns first (deduplicated), then
  // WHERE-only columns in name order.
  auto add_scan_column = [&](const std::string& name) -> Result<uint32_t> {
    for (uint32_t i = 0; i < bound.scan_column_names.size(); ++i) {
      if (bound.scan_column_names[i] == name) return i;
    }
    int snap_idx = snap.ColumnIndexForName(name);
    if (snap_idx < 0) {
      return Status::NotFound("no column '" + name + "' in table '" +
                              q.table + "'");
    }
    CSTORE_ASSIGN_OR_RETURN(const codec::ColumnReader* reader,
                            db->GetColumn(snap.column_files()[snap_idx]));
    bound.scan_column_names.push_back(name);
    bound.scan_schema_index.push_back(snap_idx);
    bound.readers.push_back(reader);
    return static_cast<uint32_t>(bound.scan_column_names.size() - 1);
  };
  // Condition columns, deduplicated, in name order (the order the bounds
  // map folds them).
  std::vector<std::string> cond_columns;
  for (const sql::Condition& cond : q.conditions) {
    cond_columns.push_back(cond.column);
  }
  std::sort(cond_columns.begin(), cond_columns.end());
  cond_columns.erase(std::unique(cond_columns.begin(), cond_columns.end()),
                     cond_columns.end());

  // Aggregate vs. plain selection.
  uint32_t num_agg = 0;
  for (const sql::SelectItem& item : items) {
    if (item.aggregated) ++num_agg;
  }
  bound.is_aggregate = num_agg > 0 || q.group_by.has_value();

  if (q.order_by.has_value() && bound.is_aggregate) {
    return Status::NotSupported(
        "ORDER BY on aggregate queries is not supported");
  }

  if (bound.is_aggregate) {
    // Global aggregate: SELECT AGG(a) FROM t [WHERE ...] — no GROUP BY.
    if (!q.group_by.has_value()) {
      if (num_agg != 1 || items.size() != 1) {
        return Status::NotSupported(
            "without GROUP BY, the select list must be exactly one "
            "aggregate");
      }
      const sql::SelectItem& agg_item = items[0];
      CSTORE_ASSIGN_OR_RETURN(uint32_t aidx, add_scan_column(agg_item.column));
      for (const std::string& col : cond_columns) {
        CSTORE_RETURN_IF_ERROR(add_scan_column(col).status());
      }
      bound.agg_global = true;
      bound.agg_index = aidx;
      bound.func = agg_item.func;
      // Aggregate output tuples are (group=0, value); project the value.
      bound.output_slots.push_back(1);
      bound.output_names.push_back(std::string("agg(") + agg_item.column +
                                   ")");
      return bound;
    }
    if (num_agg != 1 || items.size() != 2) {
      return Status::NotSupported(
          "aggregate queries must have the form SELECT g, AGG(a) ... "
          "GROUP BY g");
    }
    const sql::SelectItem* group_item = nullptr;
    const sql::SelectItem* agg_item = nullptr;
    for (const sql::SelectItem& item : items) {
      (item.aggregated ? agg_item : group_item) = &item;
    }
    CSTORE_CHECK(group_item != nullptr && agg_item != nullptr);
    if (group_item->column != *q.group_by) {
      return Status::InvalidArgument(
          "selected column '" + group_item->column +
          "' must match GROUP BY column '" + *q.group_by + "'");
    }
    CSTORE_ASSIGN_OR_RETURN(uint32_t gidx, add_scan_column(group_item->column));
    CSTORE_ASSIGN_OR_RETURN(uint32_t aidx, add_scan_column(agg_item->column));
    if (gidx == aidx) {
      return Status::NotSupported("GROUP BY column equal to aggregate input");
    }
    for (const std::string& col : cond_columns) {
      CSTORE_RETURN_IF_ERROR(add_scan_column(col).status());
    }
    bound.group_index = gidx;
    bound.agg_index = aidx;
    bound.func = agg_item->func;
    // Output order follows the select list.
    for (const sql::SelectItem& item : items) {
      bound.output_slots.push_back(item.aggregated ? 1 : 0);
      bound.output_names.push_back(
          item.aggregated ? std::string("agg(") + item.column + ")"
                          : item.column);
    }
    return bound;
  }

  for (const sql::SelectItem& item : items) {
    CSTORE_ASSIGN_OR_RETURN(uint32_t idx, add_scan_column(item.column));
    bound.output_slots.push_back(idx);
    bound.output_names.push_back(item.column);
  }
  if (q.order_by.has_value()) {
    // The sort key joins the scan list (deduplicated against the select
    // list); the sort runs over full scan tuples, projection comes after.
    CSTORE_ASSIGN_OR_RETURN(uint32_t sidx, add_scan_column(*q.order_by));
    bound.has_order = true;
    bound.sort_slot = sidx;
    bound.sort_desc = q.order_desc;
    bound.limit = q.limit;
  }
  for (const std::string& col : cond_columns) {
    CSTORE_RETURN_IF_ERROR(add_scan_column(col).status());
  }
  return bound;
}

Result<ResolvedSelect> ResolveSelect(
    db::Database* db, BoundSelect* bound, const std::vector<Value>& params,
    std::shared_ptr<const write::WriteSnapshot> snapshot) {
  CSTORE_RETURN_IF_ERROR(RefreshReaders(db, bound, *snapshot));

  CSTORE_ASSIGN_OR_RETURN(auto folded, FoldConditions(bound->conditions,
                                                      params));
  ResolvedSelect out;
  out.snapshot = std::move(snapshot);
  out.is_aggregate = bound->is_aggregate;

  plan::SelectionQuery scan;
  scan.columns.reserve(bound->readers.size());
  for (size_t i = 0; i < bound->readers.size(); ++i) {
    plan::SelectionQuery::Column col;
    col.reader = bound->readers[i];
    for (const auto& [name, pred] : folded) {
      if (name == bound->scan_column_names[i]) {
        col.pred = pred;
        break;
      }
    }
    scan.columns.push_back(col);
  }
  OrderConjunction(bound->scan_column_names, &scan);
  if (bound->is_aggregate) {
    out.agg.selection = std::move(scan);
    out.agg.group_index = bound->group_index;
    out.agg.agg_index = bound->agg_index;
    out.agg.func = bound->func;
    out.agg.global = bound->agg_global;
  } else {
    out.selection = std::move(scan);
  }
  return out;
}

}  // namespace internal

// --- PreparedStatement ------------------------------------------------------

Status PreparedStatement::CheckParams(
    const std::vector<Value>& params) const {
  if (conn_ == nullptr) {
    return Status::Internal("default-constructed PreparedStatement");
  }
  if (static_cast<int>(params.size()) != stmt_.param_count) {
    return Status::InvalidArgument(
        "statement takes " + std::to_string(stmt_.param_count) +
        " parameter(s), got " + std::to_string(params.size()));
  }
  return Status::OK();
}

Result<internal::Runnable> PreparedStatement::Plan(
    const std::vector<Value>& params) {
  CSTORE_ASSIGN_OR_RETURN(auto snapshot,
                          conn_->database()->SnapshotTable(bound_.table));
  CSTORE_ASSIGN_OR_RETURN(
      internal::Runnable run,
      conn_->PlanBound(&bound_, params, std::move(snapshot), std::nullopt,
                       conn_->EffectiveWorkers(0)));
  run.label = sql_;
  return run;
}

Result<QueryResult> PreparedStatement::Execute(
    const std::vector<Value>& params) {
  CSTORE_RETURN_IF_ERROR(CheckParams(params));
  if (is_write()) return conn_->ExecuteWrite(stmt_, params);
  CSTORE_ASSIGN_OR_RETURN(internal::Runnable run, Plan(params));
  return conn_->RunRunnableSync(run);
}

PendingResult PreparedStatement::Submit(const std::vector<Value>& params) {
  PendingResult pending;
  pending.engaged_ = true;
  pending.early_ = [&]() -> Status {
    CSTORE_RETURN_IF_ERROR(CheckParams(params));
    if (is_write()) {
      CSTORE_ASSIGN_OR_RETURN(QueryResult result,
                              conn_->ExecuteWrite(stmt_, params));
      pending.immediate_ = std::move(result);
      return Status::OK();
    }
    CSTORE_ASSIGN_OR_RETURN(internal::Runnable run, Plan(params));
    pending = conn_->SubmitRunnable(run);
    return Status::OK();
  }();
  return pending;
}

Result<RowCursor> PreparedStatement::Stream(const std::vector<Value>& params) {
  CSTORE_RETURN_IF_ERROR(CheckParams(params));
  if (is_write()) {
    return Status::InvalidArgument("cannot stream a write statement");
  }
  CSTORE_ASSIGN_OR_RETURN(internal::Runnable run, Plan(params));
  return conn_->StreamRunnable(run);
}

}  // namespace api
}  // namespace cstore
