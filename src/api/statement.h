// Statement binding and prepared statements.
//
// The binder translates a parsed SQL statement into an executable plan
// description against the database catalog. It is split into two phases so
// a PreparedStatement can pay the first exactly once:
//
//   Bind     (per statement)  — resolve the table, expand the select list,
//            fix the scan-column order, resolve column readers, compute the
//            output projection. Everything that does not depend on
//            parameter values or the table's current write state.
//   Resolve  (per execution)  — substitute `?` parameters, fold WHERE
//            conditions into per-column predicates, order the conjunction
//            (OrderConjunction), and (only if a compaction swapped the
//            table's generation since bind) re-resolve the readers.
//
// Every execution, one-shot or prepared, resolves and plans through one
// step (Connection::PlanBound): one-shot SQL under its bind-time snapshot,
// a prepared execution under a fresh one. Connection::Query re-parses and
// re-binds every statement; api::PreparedStatement parses and binds once —
// that is the whole difference bench_api measures.

#ifndef CSTORE_API_STATEMENT_H_
#define CSTORE_API_STATEMENT_H_

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "api/result.h"
#include "codec/column_meta.h"
#include "codec/column_reader.h"
#include "codec/predicate.h"
#include "db/database.h"
#include "plan/parallel.h"
#include "plan/query.h"
#include "sql/ast.h"
#include "util/status.h"

namespace cstore {
namespace api {

class Connection;

/// Statistics-based selectivity estimate for a predicate over a column
/// (uniform-distribution interpolation over [min, max]); what the strategy
/// advisor feeds on when no sample is available.
double EstimateSelectivity(const codec::ColumnMeta& meta,
                           const codec::Predicate& pred);

/// Plans a SELECT's conjunction, as every execution does (the order
/// depends on the parameter values): sets `scan->filter_order` to the
/// columns with a WHERE condition — a predicate other than True — with an
/// index-answered one first, then by ascending rank (sf - 1) * RL, ties
/// broken by column name (`names`, one per scan column). The rank is
/// Figure 1's DS1 per-value cost (TIC_COL + FC) / RL with the shared
/// constant cancelled: the ordering of independent filters in Hellerstein
/// & Stonebraker, "Predicate Migration" (SIGMOD 1993). Every other column
/// is output-only.
void OrderConjunction(const std::vector<std::string>& names,
                      plan::SelectionQuery* scan);

namespace internal {

/// Resolves a literal (or a `?` parameter) to a Value.
Result<Value> LiteralValue(const sql::Literal& lit,
                           const std::vector<Value>& params);

/// Folds WHERE conditions into one predicate per column (range conditions
/// intersect; mixing `<>` with ranges on one column is rejected). Shared by
/// every statement kind so SELECT / DELETE / UPDATE semantics never
/// diverge.
Result<std::vector<std::pair<std::string, codec::Predicate>>> FoldConditions(
    const std::vector<sql::Condition>& conditions,
    const std::vector<Value>& params);

/// Bind-time product for a SELECT: parameter- and snapshot-independent.
struct BoundSelect {
  std::string table;
  // Scan columns: select-list columns first (deduplicated), then
  // WHERE-only columns in name order. This is the layout of the plan's
  // output tuples; the order it filters them is OrderConjunction's.
  std::vector<std::string> scan_column_names;
  std::vector<int> scan_schema_index;  // snapshot schema index per column
  std::vector<const codec::ColumnReader*> readers;  // per scan column
  // Generation fingerprint the readers were resolved against; when a fresh
  // snapshot disagrees, Resolve re-resolves the readers.
  std::vector<std::string> bound_files;
  // Unresolved WHERE conditions (may contain parameters); every execution
  // folds them (FoldConditions).
  std::vector<sql::Condition> conditions;

  bool is_aggregate = false;
  bool agg_global = false;
  uint32_t group_index = 0;
  uint32_t agg_index = 0;
  exec::AggFunc func = exec::AggFunc::kSum;

  // ORDER BY col [ASC|DESC] [LIMIT n]: the sort key is a scan column (it
  // need not be in the select list; projection happens after the sort).
  bool has_order = false;
  uint32_t sort_slot = 0;
  bool sort_desc = false;
  uint64_t limit = 0;  // 0 = no LIMIT

  std::vector<uint32_t> output_slots;
  std::vector<std::string> output_names;

  // The snapshot captured at bind time; one-shot execution resolves
  // against it so bind and execution see one instant.
  std::shared_ptr<const write::WriteSnapshot> bind_snapshot;
};

/// Execute-time product: a query description plus the snapshot it must run
/// under.
struct ResolvedSelect {
  plan::SelectionQuery selection;
  bool is_aggregate = false;
  plan::AggQuery agg;
  std::shared_ptr<const write::WriteSnapshot> snapshot;

  const plan::SelectionQuery& scan() const {
    return is_aggregate ? agg.selection : selection;
  }
};

Result<BoundSelect> BindSelect(db::Database* db, const sql::ParsedQuery& q);

/// Resolves `bound` for one execution under `snapshot` with the given
/// parameter values. Mutates `bound` only to refresh readers after a
/// generation change.
Result<ResolvedSelect> ResolveSelect(
    db::Database* db, BoundSelect* bound, const std::vector<Value>& params,
    std::shared_ptr<const write::WriteSnapshot> snapshot);

/// A planned SELECT, ready for any execution back end: its plan template
/// plus the projection applied to the template's output tuples.
struct Runnable {
  plan::PlanTemplate tmpl;
  std::vector<uint32_t> output_slots;
  std::vector<std::string> output_names;
  plan::Strategy strategy = plan::Strategy::kLmParallel;
  // Query identity in system.queries / system.query_log: the SQL text.
  // Empty (typed-plan paths) falls back to "plan:<kind>".
  std::string label;
};

}  // namespace internal

/// A statement parsed and bound once, executable many times with `?`
/// parameter values. Each execution captures a fresh write snapshot (so it
/// sees all writes completed before the call), then resolves, advises and
/// plans exactly as one-shot SQL does, so the new parameter values pick
/// the conjunction order and the strategy. Not thread-safe: one
/// PreparedStatement per thread, or external synchronization. Must not
/// outlive its Connection.
class PreparedStatement {
 public:
  PreparedStatement() = default;
  PreparedStatement(PreparedStatement&&) = default;
  PreparedStatement& operator=(PreparedStatement&&) = default;

  /// Number of `?` parameters; Execute/Submit/Stream require exactly this
  /// many values (dates are passed as day numbers, see tpch::StringToDay).
  int param_count() const { return stmt_.param_count; }

  bool is_write() const {
    return stmt_.kind != sql::ParsedStatement::Kind::kSelect;
  }

  /// Output column names (SELECT statements; fixed at prepare time).
  const std::vector<std::string>& column_names() const {
    return bound_.output_names;
  }

  /// Synchronous execution (write statements apply immediately).
  Result<QueryResult> Execute(const std::vector<Value>& params = {});

  /// Asynchronous execution on the connection's scheduler (writes still
  /// apply at submit time, carried in the returned handle).
  PendingResult Submit(const std::vector<Value>& params = {});

  /// Streaming execution (SELECT only).
  Result<RowCursor> Stream(const std::vector<Value>& params = {});

 private:
  friend class Connection;

  Status CheckParams(const std::vector<Value>& params) const;
  /// Plans a SELECT execution under a fresh snapshot, labelled with its
  /// SQL text.
  Result<internal::Runnable> Plan(const std::vector<Value>& params);

  Connection* conn_ = nullptr;
  sql::ParsedStatement stmt_;
  std::string sql_;  // original text — the query-log label of each execution
  internal::BoundSelect bound_;  // selects only
};

}  // namespace api
}  // namespace cstore

#endif  // CSTORE_API_STATEMENT_H_
