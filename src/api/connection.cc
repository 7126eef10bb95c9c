#include "api/connection.h"

#include <algorithm>
#include <utility>

#include "exec/chunk_pool.h"
#include "exec/morsel_source.h"
#include "model/calibrate.h"
#include "obs/metrics.h"
#include "obs/profile.h"
#include "obs/query_log.h"
#include "obs/trace.h"
#include "plan/planner.h"
#include "sql/parser.h"

namespace cstore {
namespace api {

using internal::BoundSelect;
using internal::FoldConditions;
using internal::LiteralValue;
using internal::ResolvedSelect;

Connection::Connection(db::Database* db, sched::Scheduler* scheduler)
    : Connection(db, scheduler, Settings()) {}

Connection::Connection(db::Database* db, sched::Scheduler* scheduler,
                       Settings settings)
    : db_(db), scheduler_(scheduler), settings_(std::move(settings)) {}

Connection::~Connection() = default;

int Connection::EffectiveWorkers(int per_call) const {
  if (per_call > 0) return per_call;
  if (scheduler_ != nullptr) return scheduler_->num_workers();
  return std::max(1, settings_.num_workers);
}

sched::Scheduler* Connection::PoolFor(int workers) {
  if (scheduler_ != nullptr) return scheduler_;
  workers = std::max(1, workers);
  std::lock_guard<std::mutex> lock(pools_mu_);
  std::unique_ptr<sched::Scheduler>& pool = pools_[workers];
  if (pool == nullptr) {
    pool = std::make_unique<sched::Scheduler>(
        sched::Scheduler::Options{workers});
  }
  return pool.get();
}

model::CostParams Connection::Params() const {
  return model::Calibrator::ForProcess(*db_->disk_model());
}

model::SelectionModelInput Connection::ModelInputFor(
    const plan::SelectionQuery& sel, const plan::PlanConfig& config) {
  // The plan's first two filters; past its filters come the output-only
  // columns, at sf 1 (a lone filter's col2 is the first of them).
  const std::vector<uint32_t> order = sel.PlanOrder();
  const plan::SelectionQuery::Column& first = sel.columns[order[0]];
  const plan::SelectionQuery::Column& second =
      sel.columns[order.size() > 1 ? order[1] : order[0]];
  model::SelectionModelInput input;
  input.num_workers = config.num_workers;
  input.col1 = model::ColumnStats::FromMeta(first.reader->meta());
  input.sf1 = EstimateSelectivity(first.reader->meta(), first.pred);
  input.col1_clustered = first.reader->meta().sorted;
  input.col1_index = plan::UsesIndex(config, first);
  input.bounds1 = first.pred.num_bounds();
  input.col2 = model::ColumnStats::FromMeta(second.reader->meta());
  input.sf2 = order.size() > 1
                  ? EstimateSelectivity(second.reader->meta(), second.pred)
                  : 1.0;
  input.col2_index = plan::UsesIndex(config, second);
  input.bounds2 = second.pred.num_bounds();
  input.lm_pipelined_supported =
      plan::CheckStrategy(sel, plan::Strategy::kLmPipelined, config).ok();
  return input;
}

double Connection::GroupEstimateFor(const plan::AggQuery& agg) {
  if (agg.global) return 1.0;
  const plan::SelectionQuery& sel = agg.selection;
  const codec::ColumnMeta& gmeta =
      sel.columns[agg.group_index].reader->meta();
  return gmeta.num_distinct > 0
             ? static_cast<double>(gmeta.num_distinct)
             : std::min<double>(1000.0,
                                static_cast<double>(gmeta.max_value -
                                                    gmeta.min_value + 1));
}

Result<plan::Strategy> Connection::ChooseStrategy(
    const plan::SelectionQuery& scan, const plan::AggQuery* agg,
    std::optional<plan::Strategy> per_call, const plan::PlanConfig& config) {
  if (per_call.has_value()) return *per_call;
  if (settings_.strategy.has_value()) return *settings_.strategy;
  if (scan.columns.size() == 1 && agg == nullptr) {
    // Degenerate single-column plans differ little; LM-parallel avoids
    // constructing non-matching tuples.
    return plan::Strategy::kLmParallel;
  }
  model::SelectionModelInput input = ModelInputFor(scan, config);
  model::Advisor advisor(Params());
  if (agg != nullptr) {
    return advisor.ChooseAggregation(input, GroupEstimateFor(*agg));
  }
  return advisor.ChooseSelection(input);
}

Result<Connection::Runnable> Connection::PlanBound(
    BoundSelect* bound, const std::vector<Value>& params,
    std::shared_ptr<const write::WriteSnapshot> snapshot,
    std::optional<plan::Strategy> per_call, int num_workers) {
  obs::SpanTimer span("plan", "sql");
  CSTORE_ASSIGN_OR_RETURN(
      ResolvedSelect resolved,
      internal::ResolveSelect(db_, bound, params, std::move(snapshot)));
  Runnable run;
  plan::PlanConfig config;
  config.num_workers = num_workers;
  config.snapshot = std::move(resolved.snapshot);
  CSTORE_ASSIGN_OR_RETURN(
      run.strategy,
      ChooseStrategy(resolved.scan(),
                     resolved.is_aggregate ? &resolved.agg : nullptr,
                     per_call, config));
  if (bound->has_order) {
    plan::SortQuery sort;
    sort.selection = std::move(resolved.selection);
    sort.sort_index = bound->sort_slot;
    sort.desc = bound->sort_desc;
    sort.limit = bound->limit;
    run.tmpl = plan::PlanTemplate::Sort(std::move(sort), run.strategy, config);
  } else if (resolved.is_aggregate) {
    run.tmpl = plan::PlanTemplate::Agg(std::move(resolved.agg), run.strategy,
                                       config);
  } else {
    run.tmpl = plan::PlanTemplate::Selection(std::move(resolved.selection),
                                             run.strategy, config);
  }
  run.output_slots = bound->output_slots;
  run.output_names = bound->output_names;
  return run;
}

// --- Write statements -------------------------------------------------------

namespace {

/// One-row result ("rows_inserted: 3" style) every write statement returns.
QueryResult WriteResult(const char* counter_name, uint64_t n) {
  QueryResult out;
  out.is_write = true;
  out.rows_affected = n;
  out.column_names = {counter_name};
  out.tuples.Reset(1);
  Value v = static_cast<Value>(n);
  out.tuples.AppendTuple(0, &v);
  out.stats.output_tuples = n;
  return out;
}

}  // namespace

Result<QueryResult> Connection::ExecuteWrite(
    const sql::ParsedStatement& stmt, const std::vector<Value>& params) {
  using Kind = sql::ParsedStatement::Kind;
  if (stmt.kind == Kind::kInsert) {
    const sql::ParsedInsert& ins = stmt.insert;
    CSTORE_ASSIGN_OR_RETURN(std::vector<std::string> cols,
                            db_->TableColumns(ins.table));
    std::vector<std::vector<Value>> rows;
    rows.reserve(ins.rows.size());
    for (const std::vector<sql::Literal>& row : ins.rows) {
      if (row.size() != cols.size()) {
        return Status::InvalidArgument(
            "INSERT row has " + std::to_string(row.size()) +
            " values, table '" + ins.table + "' has " +
            std::to_string(cols.size()) + " columns");
      }
      std::vector<Value> values;
      values.reserve(row.size());
      for (const sql::Literal& lit : row) {
        CSTORE_ASSIGN_OR_RETURN(Value v, LiteralValue(lit, params));
        values.push_back(v);
      }
      rows.push_back(std::move(values));
    }
    CSTORE_RETURN_IF_ERROR(db_->Insert(ins.table, rows));
    return WriteResult("rows_inserted", rows.size());
  }

  if (stmt.kind == Kind::kDelete) {
    CSTORE_ASSIGN_OR_RETURN(auto conds,
                            FoldConditions(stmt.del.conditions, params));
    plan::RunStats scan_stats;
    CSTORE_ASSIGN_OR_RETURN(
        uint64_t deleted, db_->DeleteWhere(stmt.del.table, conds,
                                           &scan_stats));
    QueryResult out = WriteResult("rows_deleted", deleted);
    // Report the position-finding scan's cost — a DELETE is that scan.
    out.stats = scan_stats;
    out.stats.output_tuples = deleted;
    return out;
  }

  if (stmt.kind == Kind::kUpdate) {
    const sql::ParsedUpdate& upd = stmt.update;
    CSTORE_ASSIGN_OR_RETURN(auto conds,
                            FoldConditions(upd.conditions, params));
    std::vector<std::pair<std::string, Value>> sets;
    sets.reserve(upd.sets.size());
    for (const auto& [col, lit] : upd.sets) {
      CSTORE_ASSIGN_OR_RETURN(Value v, LiteralValue(lit, params));
      sets.emplace_back(col, v);
    }
    plan::RunStats scan_stats;
    CSTORE_ASSIGN_OR_RETURN(
        uint64_t updated,
        db_->UpdateWhere(upd.table, sets, conds, &scan_stats));
    QueryResult out = WriteResult("rows_updated", updated);
    out.stats = scan_stats;
    out.stats.output_tuples = updated;
    return out;
  }

  return Status::Internal("not a write statement");
}

// --- Execution back ends ----------------------------------------------------

namespace {

/// True when a standalone run of `tmpl` has work for more than one worker:
/// it asks for several and its position space splits into several morsels.
bool RunsParallel(const plan::PlanTemplate& tmpl) {
  const int workers = tmpl.config.num_workers;
  if (workers <= 1) return false;
  const exec::MorselSource morsels(tmpl.TotalPositions(),
                                   tmpl.MorselPositions(workers));
  return morsels.num_morsels() > 1;
}

}  // namespace

bool Connection::RunsOnCaller(const plan::PlanTemplate& tmpl,
                              bool streamed) const {
  // A stream holds a caller-thread result whole, so only the one-window
  // half of the rule bounds its memory.
  if (!streamed && scheduler_ == nullptr && !RunsParallel(tmpl)) return true;
  return tmpl.TouchedPositions() <= kChunkPositions;
}

Result<QueryResult> Connection::RunTemplateSync(const plan::PlanTemplate& tmpl,
                                                const std::string& label) {
  QueryResult result;
  sched::Scheduler::Sink sink = [&result](exec::TupleChunk&& chunk) {
    result.tuples = std::move(chunk);
  };
  sched::ExecResult done;
  if (RunsOnCaller(tmpl, /*streamed=*/false)) {
    done = sched::RunOnCaller(tmpl, std::move(sink), label,
                              settings_.priority);
  } else {
    sched::Scheduler::SubmitOptions options;
    options.sink = std::move(sink);
    options.priority = settings_.priority;
    options.label = label;
    done = PoolFor(tmpl.config.num_workers)
               ->Submit(tmpl, std::move(options))
               .Wait();
  }
  CSTORE_RETURN_IF_ERROR(done.status);
  result.stats = std::move(done.stats);
  result.strategy = tmpl.strategy;
  return result;
}

Result<QueryResult> Connection::RunRunnableSync(const Runnable& run) {
  CSTORE_ASSIGN_OR_RETURN(QueryResult result,
                          RunTemplateSync(run.tmpl, run.label));
  result.tuples = ProjectChunk(run.output_slots, std::move(result.tuples));
  result.column_names = run.output_names;
  result.strategy = run.strategy;
  return result;
}

PendingResult Connection::SubmitRunnable(const Runnable& run,
                                         bool materialize) {
  sched::Scheduler* scheduler = PoolFor(run.tmpl.config.num_workers);
  PendingResult pending;
  pending.engaged_ = true;
  pending.early_ = Status::OK();
  pending.buffer_ = std::make_shared<QueryResult>();
  pending.output_slots_ = run.output_slots;
  pending.column_names_ = run.output_names;
  pending.strategy_ = run.strategy;
  sched::Scheduler::SubmitOptions options;
  options.priority = settings_.priority;
  options.label = run.label;
  if (materialize) {
    // The sink runs once, at finalization, before the ticket resolves.
    std::shared_ptr<QueryResult> buffer = pending.buffer_;
    options.sink = [buffer](exec::TupleChunk&& chunk) {
      buffer->tuples = std::move(chunk);
    };
  }
  pending.ticket_ =
      scheduler->Submit(run.tmpl, std::move(options));
  return pending;
}

Result<RowCursor> Connection::StreamRunnable(const Runnable& run) {
  RowCursor cursor;
  cursor.output_slots_ = run.output_slots;
  cursor.column_names_ = run.output_names;
  cursor.strategy_ = run.strategy;

  if (RunsOnCaller(run.tmpl, /*streamed=*/true)) {
    // The whole run happens here; the cursor hands out its one chunk and
    // then the final status, as a drained pool stream would.
    auto hold = [&cursor](exec::TupleChunk&& chunk) {
      cursor.held_bytes_ = chunk.num_tuples() *
                           std::max<uint32_t>(1, chunk.width()) * sizeof(Value);
      cursor.held_ = std::move(chunk);
    };
    sched::ExecResult done = sched::RunOnCaller(run.tmpl, std::move(hold),
                                                run.label, settings_.priority);
    cursor.stats_ = std::move(done.stats);
    cursor.final_status_ = std::move(done.status);
    cursor.finished_ = true;
    return cursor;
  }

  cursor.queue_ =
      std::make_shared<ChunkQueue>(std::max<size_t>(1,
                                                    settings_.stream_queue_chunks));
  if (settings_.stream_byte_account != nullptr) {
    cursor.queue_->set_byte_account(settings_.stream_byte_account);
  }
  sched::Scheduler* scheduler = scheduler_;
  if (scheduler == nullptr) {
    // Standalone session: a private pool per stream, not the session pool.
    // A consumer that stops reading parks the producing workers in
    // ChunkQueue::Push; on the session pool, the next statement this
    // session runs while it holds the cursor would wait for them forever.
    sched::Scheduler::Options so;
    so.num_workers = std::max(1, run.tmpl.config.num_workers);
    cursor.own_scheduler_ = std::make_shared<sched::Scheduler>(so);
    scheduler = cursor.own_scheduler_.get();
  }

  std::shared_ptr<ChunkQueue> queue = cursor.queue_;
  sched::Scheduler::SubmitOptions options;
  options.priority = settings_.priority;
  options.label = run.label;
  options.stream_sink = [queue](const exec::TupleChunk& chunk) {
    return queue->Push(chunk);
  };
  options.on_complete = [queue] { queue->Finish(); };
  cursor.ticket_ = scheduler->Submit(run.tmpl, std::move(options));
  return cursor;
}

// --- SQL entry points -------------------------------------------------------

Result<Connection::PlannedSelect> Connection::PlanSelect(
    const sql::ParsedStatement& stmt, std::optional<plan::Strategy> strategy,
    int num_workers, const std::vector<Value>& params) {
  PlannedSelect planned;
  {
    obs::SpanTimer span("bind", "sql");
    CSTORE_ASSIGN_OR_RETURN(planned.bound,
                            internal::BindSelect(db_, stmt.select));
  }
  CSTORE_ASSIGN_OR_RETURN(
      planned.run, PlanBound(&planned.bound, params,
                             planned.bound.bind_snapshot, strategy,
                             num_workers));
  return planned;
}

Result<sql::ParsedStatement> Connection::FrontEnd(
    const std::string& sql, std::optional<plan::Strategy> strategy,
    int num_workers, PlannedSelect* planned) {
  Result<sql::ParsedStatement> parsed = [&] {
    obs::SpanTimer span("parse", "sql");
    return sql::ParseStatement(sql);
  }();
  CSTORE_RETURN_IF_ERROR(parsed.status());
  if (parsed->param_count > 0) {
    return Status::InvalidArgument(
        "statement has ? parameters; use Connection::Prepare");
  }
  if (parsed->explain == sql::ParsedStatement::Explain::kNone &&
      parsed->kind == sql::ParsedStatement::Kind::kSelect) {
    CSTORE_ASSIGN_OR_RETURN(*planned,
                            PlanSelect(*parsed, strategy, num_workers, {}));
    planned->run.label = sql;
  }
  return parsed;
}

Result<QueryResult> Connection::Query(const std::string& sql,
                                      std::optional<plan::Strategy> strategy,
                                      int num_workers) {
  const int workers = EffectiveWorkers(num_workers);
  PlannedSelect planned;
  CSTORE_ASSIGN_OR_RETURN(sql::ParsedStatement stmt,
                          FrontEnd(sql, strategy, workers, &planned));
  if (stmt.explain != sql::ParsedStatement::Explain::kNone) {
    return ExplainStatement(stmt, sql, strategy, workers, {});
  }
  if (stmt.kind != sql::ParsedStatement::Kind::kSelect) {
    return ExecuteWrite(stmt, {});
  }
  return RunRunnableSync(planned.run);
}

PendingResult Connection::Submit(const std::string& sql,
                                 std::optional<plan::Strategy> strategy) {
  // Prepare (parse/bind/advise) now; failures are carried in the handle so
  // the caller drains a batch uniformly. Write statements execute here, at
  // submit time — later statements bind snapshots that include them.
  PendingResult pending;
  pending.engaged_ = true;
  pending.early_ = [&]() -> Status {
    const int workers = EffectiveWorkers(0);
    PlannedSelect planned;
    CSTORE_ASSIGN_OR_RETURN(sql::ParsedStatement stmt,
                            FrontEnd(sql, strategy, workers, &planned));
    if (stmt.explain != sql::ParsedStatement::Explain::kNone) {
      // EXPLAIN [ANALYZE] runs to completion here (its product is a
      // report, not a stream of chunks) and rides back as an immediate
      // result, like a write.
      CSTORE_ASSIGN_OR_RETURN(
          QueryResult result,
          ExplainStatement(stmt, sql, strategy, workers, {}));
      pending.immediate_ = std::move(result);
      return Status::OK();
    }
    if (stmt.kind != sql::ParsedStatement::Kind::kSelect) {
      CSTORE_ASSIGN_OR_RETURN(QueryResult result, ExecuteWrite(stmt, {}));
      pending.immediate_ = std::move(result);
      return Status::OK();
    }
    pending = SubmitRunnable(planned.run);
    return Status::OK();
  }();
  return pending;
}

Result<RowCursor> Connection::Stream(const std::string& sql,
                                     std::optional<plan::Strategy> strategy) {
  PlannedSelect planned;
  CSTORE_ASSIGN_OR_RETURN(
      sql::ParsedStatement stmt,
      FrontEnd(sql, strategy, EffectiveWorkers(0), &planned));
  if (stmt.explain != sql::ParsedStatement::Explain::kNone) {
    return Status::InvalidArgument(
        "cannot stream EXPLAIN output; use Query");
  }
  if (stmt.kind != sql::ParsedStatement::Kind::kSelect) {
    return Status::InvalidArgument("cannot stream a write statement");
  }
  return StreamRunnable(planned.run);
}

Result<PreparedStatement> Connection::Prepare(const std::string& sql) {
  PreparedStatement prepared;
  prepared.conn_ = this;
  prepared.sql_ = sql;
  {
    obs::SpanTimer span("parse", "sql");
    CSTORE_ASSIGN_OR_RETURN(prepared.stmt_, sql::ParseStatement(sql));
  }
  const sql::ParsedStatement& st = prepared.stmt_;
  if (st.explain != sql::ParsedStatement::Explain::kNone) {
    return Status::InvalidArgument(
        "cannot prepare an EXPLAIN statement; use Query");
  }
  using Kind = sql::ParsedStatement::Kind;
  if (st.kind == Kind::kSelect) {
    obs::SpanTimer span("bind", "sql");
    CSTORE_ASSIGN_OR_RETURN(prepared.bound_,
                            internal::BindSelect(db_, st.select));
    // Every execution captures its own snapshot.
    prepared.bound_.bind_snapshot.reset();
    return prepared;
  }
  const std::string& table = st.kind == Kind::kInsert   ? st.insert.table
                             : st.kind == Kind::kDelete ? st.del.table
                                                        : st.update.table;
  if (!db_->HasTable(table)) {
    return Status::NotFound("unknown table in write statement");
  }
  return prepared;
}

Result<std::string> Connection::Explain(const std::string& sql,
                                        int num_workers) {
  return Explain(sql, std::vector<Value>(), num_workers);
}

Result<std::string> Connection::Explain(const std::string& sql,
                                        const std::vector<Value>& params,
                                        int num_workers) {
  CSTORE_ASSIGN_OR_RETURN(
      QueryResult out,
      ExplainSql(sql, params, num_workers, sql::ParsedStatement::Explain::kPlan));
  return std::move(out.explain_text);
}

std::string Connection::PressureReport() const {
  const storage::IoStats io = db_->pool()->stats();
  const util::ObjectPool<exec::TupleChunk>::Stats chunks =
      exec::GlobalChunkPool().stats();
  char buf[256];
  std::string out = "-- shared-resource pressure --\n";
  const double contended_pct =
      io.pool_lock_acquisitions == 0
          ? 0.0
          : 100.0 * static_cast<double>(io.pool_lock_contended) /
                static_cast<double>(io.pool_lock_acquisitions);
  std::snprintf(buf, sizeof(buf),
                "pool locks: acquisitions=%llu contended=%llu (%.2f%%) "
                "wait=%.3f ms\n",
                static_cast<unsigned long long>(io.pool_lock_acquisitions),
                static_cast<unsigned long long>(io.pool_lock_contended),
                contended_pct, io.pool_lock_wait_ns / 1e6);
  out += buf;
  std::snprintf(buf, sizeof(buf),
                "pool io: hits=%llu physical_reads=%llu read_time=%.3f ms\n",
                static_cast<unsigned long long>(io.cache_hits),
                static_cast<unsigned long long>(io.physical_reads),
                io.physical_read_ns / 1e6);
  out += buf;
  std::snprintf(buf, sizeof(buf), "retired fds: %llu\n",
                static_cast<unsigned long long>(
                    db_->files()->retired_fd_count()));
  out += buf;
  std::snprintf(buf, sizeof(buf),
                "chunk pool: acquires=%llu reuses=%llu allocs=%llu "
                "discards=%llu\n",
                static_cast<unsigned long long>(chunks.acquires),
                static_cast<unsigned long long>(chunks.reuses),
                static_cast<unsigned long long>(chunks.allocs),
                static_cast<unsigned long long>(chunks.discards));
  out += buf;
  return out;
}

namespace {

/// EXPLAIN's plan-order line: the scan columns in the order the plan reads
/// them — its filters, each an index lookup or a scan, then the
/// output-only columns — with each one's selectivity and run length.
std::string DescribeOrder(const std::vector<std::string>& names,
                          const plan::SelectionQuery& scan,
                          const plan::PlanConfig& config) {
  std::string out = "order:";
  const std::vector<uint32_t> order = scan.PlanOrder();
  for (size_t i = 0; i < order.size(); ++i) {
    const plan::SelectionQuery::Column& col = scan.columns[order[i]];
    const codec::ColumnMeta& meta = col.reader->meta();
    const char* role = i >= scan.num_filters()          ? "output-only"
                       : plan::UsesIndex(config, col) ? "index-scan"
                                                      : "filter";
    char buf[96];
    std::snprintf(buf, sizeof(buf), "{%s, sf=%.3f, RL=%.1f}", role,
                  EstimateSelectivity(meta, col.pred),
                  model::ColumnStats::FromMeta(meta).run_length);
    out += " " + names[order[i]] + buf;
  }
  return out + "\n";
}

}  // namespace

Result<QueryResult> Connection::ExplainStatement(
    const sql::ParsedStatement& stmt, const std::string& sql,
    std::optional<plan::Strategy> strategy, int num_workers,
    const std::vector<Value>& params) {
  CSTORE_ASSIGN_OR_RETURN(PlannedSelect planned,
                          PlanSelect(stmt, strategy, num_workers, params));
  const BoundSelect& bound = planned.bound;
  Runnable& run = planned.run;
  const plan::PlanTemplate& tmpl = run.tmpl;
  using Kind = plan::PlanTemplate::Kind;
  const bool is_agg = tmpl.kind == Kind::kAgg;
  const plan::SelectionQuery& scan =
      is_agg                     ? tmpl.agg.selection
      : tmpl.kind == Kind::kSort ? tmpl.sort.selection
                                 : tmpl.selection;

  // The model's predictions — what EXPLAIN without ANALYZE reports.
  model::SelectionModelInput input = ModelInputFor(scan, tmpl.config);
  model::Advisor advisor(Params());
  std::string report = "strategy: ";
  report += plan::StrategyName(run.strategy);
  report += "\n";
  report += DescribeOrder(bound.scan_column_names, scan, tmpl.config);
  report += is_agg ? advisor.ExplainAggregation(input,
                                                GroupEstimateFor(tmpl.agg))
            : bound.has_order
                ? advisor.ExplainSort(input, static_cast<double>(bound.limit))
                : advisor.ExplainSelection(input);

  QueryResult out;
  out.column_names = {"explain"};
  out.strategy = run.strategy;

  if (stmt.explain == sql::ParsedStatement::Explain::kAnalyze) {
    auto profile = std::make_shared<obs::PlanProfile>();
    run.tmpl.config.profile = profile;
    run.label = sql;
    CSTORE_ASSIGN_OR_RETURN(QueryResult executed, RunRunnableSync(run));
    out.stats = executed.stats;
    report += "plan (actual, all workers summed):\n";
    report += profile->Format();
    char buf[320];
    std::snprintf(
        buf, sizeof(buf),
        "actual: wall=%.3f ms  rows=%llu  blocks_fetched=%llu  "
        "predicate_evals=%llu  tuples_constructed=%llu  "
        "cache_hits=%llu  physical_reads=%llu  read_time=%.3f ms\n",
        executed.stats.wall_micros / 1000.0,
        static_cast<unsigned long long>(executed.stats.output_tuples),
        static_cast<unsigned long long>(executed.stats.exec.blocks_fetched),
        static_cast<unsigned long long>(executed.stats.exec.predicate_evals),
        static_cast<unsigned long long>(
            executed.stats.exec.tuples_constructed),
        static_cast<unsigned long long>(executed.stats.io.cache_hits),
        static_cast<unsigned long long>(executed.stats.io.physical_reads),
        executed.stats.io.physical_read_ns / 1e6);
    report += buf;
    // Two-phase queries: measured per-phase wall time, next to the model's
    // phase split above (joins: build; sorts: k-way run merge).
    if (executed.stats.build_wall_micros > 0 ||
        executed.stats.merge_wall_micros > 0) {
      std::snprintf(buf, sizeof(buf),
                    "phases: build=%.3f ms  merge=%.3f ms\n",
                    executed.stats.build_wall_micros / 1000.0,
                    executed.stats.merge_wall_micros / 1000.0);
      report += buf;
    }
  }
  report += PressureReport();
  out.explain_text = std::move(report);
  return out;
}

Result<QueryResult> Connection::ExplainAnalyze(
    const std::string& sql, const std::vector<Value>& params,
    int num_workers) {
  return ExplainSql(sql, params, num_workers,
                    sql::ParsedStatement::Explain::kAnalyze);
}

Result<QueryResult> Connection::ExplainSql(
    const std::string& sql, const std::vector<Value>& params, int num_workers,
    sql::ParsedStatement::Explain kind) {
  Result<sql::ParsedStatement> parsed = [&] {
    obs::SpanTimer span("parse", "sql");
    return sql::ParseStatement(sql);
  }();
  CSTORE_RETURN_IF_ERROR(parsed.status());
  sql::ParsedStatement& stmt = *parsed;
  if (stmt.kind != sql::ParsedStatement::Kind::kSelect) {
    return Status::InvalidArgument("EXPLAIN supports SELECT statements");
  }
  // Exact-count, like PreparedStatement::Execute — an Explain that accepts
  // an argument list a real execution would reject helps nobody debug.
  if (stmt.param_count != static_cast<int>(params.size())) {
    return Status::InvalidArgument(
        "statement takes " + std::to_string(stmt.param_count) +
        " parameter(s), got " + std::to_string(params.size()));
  }
  stmt.explain = kind;
  return ExplainStatement(stmt, sql, std::nullopt,
                          EffectiveWorkers(num_workers), params);
}

std::string Connection::Metrics() const {
  std::string out = obs::MetricsRegistry::Global().PrometheusText();
  // Database-scoped gauges, composed at dump time (several Databases may
  // coexist in one process; each Connection reports its own).
  const storage::IoStats io = db_->pool()->stats();
  const uint64_t lookups = io.cache_hits + io.physical_reads;
  out += "# TYPE cstore_bufferpool_hit_ratio gauge\n";
  obs::AppendSample(&out, "cstore_bufferpool_hit_ratio",
                    lookups == 0 ? 0.0
                                 : static_cast<double>(io.cache_hits) /
                                       static_cast<double>(lookups));
  out += "# TYPE cstore_bufferpool_cache_hits counter\n";
  obs::AppendSample(&out, "cstore_bufferpool_cache_hits",
                    static_cast<double>(io.cache_hits));
  out += "# TYPE cstore_bufferpool_physical_reads counter\n";
  obs::AppendSample(&out, "cstore_bufferpool_physical_reads",
                    static_cast<double>(io.physical_reads));
  out += "# TYPE cstore_bufferpool_physical_read_seconds counter\n";
  obs::AppendSample(&out, "cstore_bufferpool_physical_read_seconds",
                    io.physical_read_ns / 1e9);
  out += "# TYPE cstore_bufferpool_lock_acquisitions counter\n";
  obs::AppendSample(&out, "cstore_bufferpool_lock_acquisitions",
                    static_cast<double>(io.pool_lock_acquisitions));
  out += "# TYPE cstore_bufferpool_lock_contended counter\n";
  obs::AppendSample(&out, "cstore_bufferpool_lock_contended",
                    static_cast<double>(io.pool_lock_contended));
  out += "# TYPE cstore_bufferpool_lock_wait_seconds counter\n";
  obs::AppendSample(&out, "cstore_bufferpool_lock_wait_seconds",
                    io.pool_lock_wait_ns / 1e9);
  out += "# TYPE cstore_retired_fds gauge\n";
  obs::AppendSample(&out, "cstore_retired_fds",
                    static_cast<double>(db_->files()->retired_fd_count()));
  const util::ObjectPool<exec::TupleChunk>::Stats chunks =
      exec::GlobalChunkPool().stats();
  const uint64_t chunk_lookups = chunks.acquires;
  out += "# TYPE cstore_chunk_pool_hit_ratio gauge\n";
  obs::AppendSample(&out, "cstore_chunk_pool_hit_ratio",
                    chunk_lookups == 0
                        ? 0.0
                        : static_cast<double>(chunks.reuses) /
                              static_cast<double>(chunk_lookups));
  out += "# TYPE cstore_chunk_pool_acquires counter\n";
  obs::AppendSample(&out, "cstore_chunk_pool_acquires",
                    static_cast<double>(chunks.acquires));
  out += "# TYPE cstore_chunk_pool_allocs counter\n";
  obs::AppendSample(&out, "cstore_chunk_pool_allocs",
                    static_cast<double>(chunks.allocs));
  return out;
}

// --- Typed-plan entry points ------------------------------------------------

Result<QueryResult> Connection::Query(const plan::PlanTemplate& tmpl) {
  CSTORE_ASSIGN_OR_RETURN(QueryResult result, RunTemplateSync(tmpl));
  result.strategy = tmpl.strategy;  // report what ran, as the pooled path does
  return result;
}

PendingResult Connection::Submit(const plan::PlanTemplate& tmpl,
                                 bool materialize) {
  Runnable run;
  run.tmpl = tmpl;
  run.strategy = tmpl.strategy;
  return SubmitRunnable(run, materialize);
}

Result<RowCursor> Connection::Stream(const plan::PlanTemplate& tmpl) {
  Runnable run;
  run.tmpl = tmpl;
  run.strategy = tmpl.strategy;
  return StreamRunnable(run);
}

}  // namespace api
}  // namespace cstore
