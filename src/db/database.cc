#include "db/database.h"

#include <algorithm>
#include <cctype>

#include "exec/chunk_pool.h"
#include "exec/sys_scan.h"
#include "sched/scheduler.h"
#include "util/string_dict.h"

namespace cstore {
namespace db {

namespace {
// Sidecar name of the persisted table registry (one line per table column:
// "table\tcolumn\tfile\n", registration order preserved).
constexpr char kCatalogName[] = "_catalog";

/// Strips a trailing ".g<digits>" generation suffix so compaction names
/// grow as file.g1, file.g2, ... instead of file.g1.g2.
std::string GenerationBaseName(const std::string& file) {
  size_t dot = file.rfind(".g");
  if (dot == std::string::npos || dot + 2 >= file.size()) return file;
  for (size_t i = dot + 2; i < file.size(); ++i) {
    if (!std::isdigit(static_cast<unsigned char>(file[i]))) return file;
  }
  return file.substr(0, dot);
}

}  // namespace

Result<std::unique_ptr<Database>> Database::Open(const Options& options) {
  auto db = std::unique_ptr<Database>(new Database());
  CSTORE_ASSIGN_OR_RETURN(db->files_,
                          storage::FileManager::Open(options.dir));
  db->disk_model_.set_params(options.disk);
  db->pool_ = std::make_unique<storage::BufferPool>(
      db->files_.get(), options.pool_frames, &db->disk_model_);
  CSTORE_RETURN_IF_ERROR(db->LoadCatalog());
  return db;
}

Database::~Database() { DisableTupleMover(); }

Status Database::LoadCatalog() {
  auto bytes = files_->ReadSidecar(kCatalogName);
  if (!bytes.ok()) return Status::OK();  // no catalog yet
  std::string text(bytes->begin(), bytes->end());
  size_t pos = 0;
  while (pos < text.size()) {
    size_t eol = text.find('\n', pos);
    if (eol == std::string::npos) eol = text.size();
    std::string line = text.substr(pos, eol - pos);
    pos = eol + 1;
    if (line.empty()) continue;
    size_t t1 = line.find('\t');
    size_t t2 = line.find('\t', t1 + 1);
    if (t1 == std::string::npos || t2 == std::string::npos) {
      return Status::Corruption("malformed catalog line: " + line);
    }
    std::string table = line.substr(0, t1);
    std::string column = line.substr(t1 + 1, t2 - t1 - 1);
    std::string file = line.substr(t2 + 1);
    tables_[table].columns.emplace_back(column, file);
  }
  return Status::OK();
}

Status Database::SaveCatalogLocked() const {
  std::string text;
  for (const auto& [table, info] : tables_) {
    // Virtual tables re-register on every open; keeping them out of the
    // sidecar keeps it a pure user-table registry.
    if (IsSystemTable(table)) continue;
    for (const auto& [col, file] : info.columns) {
      text += table;
      text += '\t';
      text += col;
      text += '\t';
      text += file;
      text += '\n';
    }
  }
  return files_->WriteSidecar(kCatalogName,
                              std::vector<char>(text.begin(), text.end()));
}

Status Database::CreateColumn(const std::string& name,
                              codec::Encoding encoding,
                              const std::vector<Value>& values) {
  {
    std::lock_guard<std::mutex> lock(catalog_mu_);
    // Invalidate any open reader — parked, not destroyed: an in-flight
    // query may still scan through it (same hazard CompactTable handles).
    auto it = columns_.find(name);
    if (it != columns_.end()) {
      retired_.push_back(std::move(it->second));
      columns_.erase(it);
    }
  }
  CSTORE_ASSIGN_OR_RETURN(auto writer,
                          codec::ColumnWriter::Create(files_.get(), name,
                                                      encoding));
  for (Value v : values) {
    CSTORE_RETURN_IF_ERROR(writer->Append(v));
  }
  CSTORE_ASSIGN_OR_RETURN(codec::ColumnMeta meta, writer->Finish());
  (void)meta;
  return Status::OK();
}

Result<const codec::ColumnReader*> Database::GetColumnLocked(
    const std::string& name) {
  auto it = columns_.find(name);
  if (it != columns_.end()) return it->second.get();
  CSTORE_ASSIGN_OR_RETURN(
      auto reader, codec::ColumnReader::Open(files_.get(), pool_.get(), name));
  const codec::ColumnReader* raw = reader.get();
  columns_[name] = std::move(reader);
  return raw;
}

Result<const codec::ColumnReader*> Database::GetColumn(
    const std::string& name) {
  std::lock_guard<std::mutex> lock(catalog_mu_);
  return GetColumnLocked(name);
}

bool Database::HasColumn(const std::string& name) const {
  {
    std::lock_guard<std::mutex> lock(catalog_mu_);
    if (columns_.count(name) > 0) return true;
  }
  return files_->Exists(name);
}

Status Database::RegisterTable(
    const std::string& table,
    const std::vector<std::pair<std::string, std::string>>& column_to_file) {
  if (column_to_file.empty()) {
    return Status::InvalidArgument("table " + table + " needs >= 1 column");
  }
  if (IsSystemTable(table)) {
    return Status::InvalidArgument("table name '" + table +
                                   "' is reserved for the system schema");
  }
  std::lock_guard<std::mutex> lock(catalog_mu_);
  uint64_t rows = 0;
  bool first = true;
  for (const auto& [col, file] : column_to_file) {
    CSTORE_ASSIGN_OR_RETURN(const codec::ColumnReader* reader,
                            GetColumnLocked(file));
    if (first) {
      rows = reader->num_values();
      first = false;
    } else if (reader->num_values() != rows) {
      return Status::InvalidArgument(
          "table " + table + ": column " + col + " has " +
          std::to_string(reader->num_values()) + " rows, expected " +
          std::to_string(rows));
    }
  }
  TableInfo& info = tables_[table];
  info.columns = column_to_file;
  info.ws.reset();  // re-registration resets any write state
  info.generation = 0;
  return SaveCatalogLocked();
}

bool Database::HasTable(const std::string& table) const {
  std::lock_guard<std::mutex> lock(catalog_mu_);
  return tables_.count(table) > 0;
}

// ---------------------------------------------------------------------------
// system.* virtual tables
// ---------------------------------------------------------------------------

bool Database::IsSystemTable(const std::string& table) {
  return exec::IsSystemTableName(table);
}

void Database::EnsureSystemTables() {
  std::lock_guard<std::mutex> lock(catalog_mu_);
  for (const exec::SysTableDef& def : exec::SysTables()) {
    if (tables_.count(def.name) > 0) continue;
    // Back each column with an in-memory zero-row reader: the planner
    // validates tables through their readers, and a zero-row read store
    // matches the synthetic snapshot's base_rows = 0 exactly.
    TableInfo& info = tables_[def.name];
    for (size_t c = 0; c < def.columns.size(); ++c) {
      std::string file = exec::SysColumnFileName(def, c);
      std::unique_ptr<codec::ColumnReader>& reader = columns_[file];
      if (reader == nullptr) reader = codec::ColumnReader::Empty(file);
      info.columns.emplace_back(def.columns[c].name, std::move(file));
    }
    // No SaveCatalogLocked: virtual registrations are per-process.
  }
}

namespace {

/// system.tables rows (schema: exec::FindSysTable("system.tables")).
struct TableRow {
  std::string name;
  uint64_t columns = 0;
  uint64_t generation = 0;
  std::string first_file;  // base_rows source
  std::shared_ptr<write::WriteStore> ws;
};

}  // namespace

Result<std::shared_ptr<const write::WriteSnapshot>> Database::SystemSnapshot(
    const std::string& table) {
  const exec::SysTableDef* def = exec::FindSysTable(table);
  if (def == nullptr) {
    return Status::NotFound("unknown system table '" + table + "'");
  }
  EnsureSystemTables();

  std::vector<std::vector<Value>> cols;
  if (table == "system.metrics") {
    // A process that has only run standalone queries hasn't built a pool
    // yet; register the scheduler families so their gauges report as zero
    // instead of being absent.
    sched::EnsureSchedMetricsRegistered();
    cols = exec::SysMetricsColumns();
  } else if (table == "system.queries") {
    cols = exec::SysQueriesColumns();
  } else if (table == "system.query_log") {
    cols = exec::SysQueryLogColumns();
  } else if (table == "system.tables") {
    // Copy the catalog under its lock, then interrogate readers and write
    // stores after releasing it: WriteStore::pending_rows takes the store's
    // own mutex, and GetColumn retakes catalog_mu_.
    std::vector<TableRow> rows;
    {
      std::lock_guard<std::mutex> lock(catalog_mu_);
      rows.reserve(tables_.size());
      for (const auto& [name, info] : tables_) {
        TableRow row;
        row.name = name;
        row.columns = info.columns.size();
        row.generation = info.generation;
        if (!info.columns.empty()) row.first_file = info.columns[0].second;
        row.ws = info.ws;
        rows.push_back(std::move(row));
      }
    }
    std::sort(rows.begin(), rows.end(),
              [](const TableRow& a, const TableRow& b) {
                return a.name < b.name;
              });
    util::StringDict& dict = util::StringDict::Global();
    cols.assign(def->columns.size(), {});
    for (const TableRow& row : rows) {
      uint64_t base_rows = 0;
      if (!row.first_file.empty()) {
        CSTORE_ASSIGN_OR_RETURN(const codec::ColumnReader* reader,
                                GetColumn(row.first_file));
        base_rows = reader->num_values();
      }
      cols[0].push_back(dict.Intern(row.name));
      cols[1].push_back(static_cast<Value>(row.columns));
      cols[2].push_back(static_cast<Value>(row.generation));
      cols[3].push_back(static_cast<Value>(base_rows));
      cols[4].push_back(
          row.ws ? static_cast<Value>(row.ws->pending_rows()) : 0);
      cols[5].push_back(
          row.ws ? static_cast<Value>(row.ws->delete_log_size()) : 0);
    }
  } else {  // system.pools
    util::StringDict& dict = util::StringDict::Global();
    cols.assign(def->columns.size(), {});
    auto add = [&](const char* pool, const char* metric, uint64_t value) {
      cols[0].push_back(dict.Intern(pool));
      cols[1].push_back(dict.Intern(metric));
      cols[2].push_back(static_cast<Value>(value));
    };
    const storage::IoStats io = pool_->stats();
    add("buffer_pool", "cache_hits", io.cache_hits);
    add("buffer_pool", "physical_reads", io.physical_reads);
    add("buffer_pool", "seeks", io.seeks);
    add("buffer_pool", "evictions", io.evictions);
    add("buffer_pool", "lock_acquisitions", io.pool_lock_acquisitions);
    add("buffer_pool", "lock_contended", io.pool_lock_contended);
    add("buffer_pool", "lock_wait_ns", io.pool_lock_wait_ns);
    add("buffer_pool", "physical_read_ns", io.physical_read_ns);
    const util::ObjectPool<exec::TupleChunk>::Stats chunks =
        exec::GlobalChunkPool().stats();
    add("chunk_pool", "acquires", chunks.acquires);
    add("chunk_pool", "reuses", chunks.reuses);
    add("chunk_pool", "allocs", chunks.allocs);
    add("chunk_pool", "discards", chunks.discards);
    add("file_manager", "retired_fds", files_->retired_fd_count());
  }
  return exec::MakeSysSnapshot(*def, std::move(cols));
}

Result<const codec::ColumnReader*> Database::GetTableColumn(
    const std::string& table, const std::string& column) {
  std::lock_guard<std::mutex> lock(catalog_mu_);
  auto it = tables_.find(table);
  if (it == tables_.end()) {
    return Status::NotFound("unknown table '" + table + "'");
  }
  for (const auto& [col, file] : it->second.columns) {
    if (col == column) return GetColumnLocked(file);
  }
  return Status::NotFound("no column '" + column + "' in table '" + table +
                          "'");
}

Result<std::vector<std::string>> Database::TableColumns(
    const std::string& table) const {
  std::lock_guard<std::mutex> lock(catalog_mu_);
  auto it = tables_.find(table);
  if (it == tables_.end()) {
    return Status::NotFound("unknown table '" + table + "'");
  }
  std::vector<std::string> out;
  out.reserve(it->second.columns.size());
  for (const auto& [col, file] : it->second.columns) out.push_back(col);
  return out;
}

// ---------------------------------------------------------------------------
// Write path
// ---------------------------------------------------------------------------

Result<write::WriteStore*> Database::EnsureWriteStoreLocked(
    const std::string& table) {
  auto it = tables_.find(table);
  if (it == tables_.end()) {
    return Status::NotFound("unknown table '" + table + "'");
  }
  TableInfo& info = it->second;
  if (info.ws == nullptr) {
    std::vector<std::string> names;
    std::vector<std::string> files;
    Position base = 0;
    bool first = true;
    for (const auto& [col, file] : info.columns) {
      CSTORE_ASSIGN_OR_RETURN(const codec::ColumnReader* reader,
                              GetColumnLocked(file));
      if (first) {
        base = reader->num_values();
        first = false;
      }
      names.push_back(col);
      files.push_back(file);
    }
    info.ws = std::make_shared<write::WriteStore>(std::move(names),
                                                  std::move(files), base);
  }
  return info.ws.get();
}

Status Database::Insert(const std::string& table,
                        const std::vector<std::vector<Value>>& rows) {
  if (IsSystemTable(table)) {
    return Status::InvalidArgument("system table '" + table +
                                   "' is read-only");
  }
  std::shared_ptr<write::WriteStore> ws;
  {
    std::lock_guard<std::mutex> lock(catalog_mu_);
    CSTORE_RETURN_IF_ERROR(EnsureWriteStoreLocked(table).status());
    ws = tables_.find(table)->second.ws;
  }
  return ws->Insert(rows);
}

Result<std::shared_ptr<const write::WriteSnapshot>> Database::SnapshotTable(
    const std::string& table) {
  if (IsSystemTable(table)) return SystemSnapshot(table);
  std::shared_ptr<write::WriteStore> ws;
  {
    std::lock_guard<std::mutex> lock(catalog_mu_);
    CSTORE_RETURN_IF_ERROR(EnsureWriteStoreLocked(table).status());
    ws = tables_.find(table)->second.ws;
  }
  return ws->Snapshot();
}

Result<Database::FoundRows> Database::FindRows(
    const std::string& table,
    const std::vector<std::pair<std::string, Value>>& sets,
    const std::vector<std::pair<std::string, codec::Predicate>>& conds,
    plan::RunStats* scan_stats) {
  if (IsSystemTable(table)) {
    return Status::InvalidArgument("system table '" + table +
                                   "' is read-only");
  }
  // Hold the store itself (not the table name) across the scan: if the
  // table is re-registered concurrently, the mutation lands in the store the
  // scan actually saw instead of corrupting the new incarnation.
  FoundRows found;
  {
    std::lock_guard<std::mutex> lock(catalog_mu_);
    CSTORE_RETURN_IF_ERROR(EnsureWriteStoreLocked(table).status());
    found.ws = tables_.find(table)->second.ws;
  }
  // Serialize against other scan-then-apply mutations of this table: two
  // UPDATEs racing on the same rows would each re-insert them, and an
  // UPDATE racing a DELETE could resurrect the rows the DELETE removed.
  found.lock = std::unique_lock<std::mutex>(found.ws->scan_mutation_mu());
  found.snap = found.ws->Snapshot();
  const write::WriteSnapshot& snap = *found.snap;
  auto column_index = [&](const std::string& name) -> Result<size_t> {
    const int idx = snap.ColumnIndexForName(name);
    if (idx < 0) {
      return Status::NotFound("no column '" + name + "' in table '" + table +
                              "'");
    }
    return static_cast<size_t>(idx);
  };

  // The SET and WHERE columns' schema slots, the WHERE ones in schema
  // order; an unknown column fails here, before anything is scanned or
  // written.
  found.set_slots.reserve(sets.size());
  for (const auto& [name, value] : sets) {
    CSTORE_ASSIGN_OR_RETURN(const size_t c, column_index(name));
    found.set_slots.emplace_back(c, value);
  }
  std::vector<std::pair<size_t, codec::Predicate>> filters;
  filters.reserve(conds.size());
  for (const auto& [name, pred] : conds) {
    CSTORE_ASSIGN_OR_RETURN(const size_t c, column_index(name));
    filters.emplace_back(c, pred);
  }
  std::stable_sort(filters.begin(), filters.end(),
                   [](const auto& x, const auto& y) {
                     return x.first < y.first;
                   });

  const bool all_columns = !sets.empty();
  if (!all_columns && filters.empty()) {
    // A DELETE without WHERE matches every live row and reads no column.
    found.rows.Reset(0);
    snap.LiveSet(0, snap.total_rows()).ForEachPosition([&](Position p) {
      found.rows.AppendTuple(p);
    });
    return found;
  }

  // Read every column in schema order (an UPDATE) or none yet, then
  // filter the WHERE columns, a column named twice once per condition. An
  // UPDATE without WHERE filters nothing.
  plan::SelectionQuery query;
  query.filter_order.emplace();
  auto add_column = [&](size_t c, codec::Predicate pred) -> Status {
    CSTORE_ASSIGN_OR_RETURN(const codec::ColumnReader* reader,
                            GetColumn(snap.column_files()[c]));
    query.columns.push_back({reader, pred});
    return Status::OK();
  };
  if (all_columns) {
    for (size_t c = 0; c < snap.column_names().size(); ++c) {
      CSTORE_RETURN_IF_ERROR(add_column(c, codec::Predicate::True()));
    }
  }
  for (const auto& [c, pred] : filters) {
    uint32_t col = static_cast<uint32_t>(c);
    if (!all_columns || query.is_filter(col)) {
      col = static_cast<uint32_t>(query.columns.size());
      CSTORE_RETURN_IF_ERROR(add_column(c, pred));
    } else {
      query.columns[col].pred = pred;
    }
    query.filter_order->push_back(col);
  }

  plan::PlanConfig config;
  config.snapshot = found.snap;
  // One chunk, its rows in ascending position order (one worker).
  const sched::ExecResult r = sched::RunOnCaller(
      plan::PlanTemplate::Selection(query, plan::Strategy::kLmParallel,
                                    config),
      [&found](exec::TupleChunk&& chunk) { found.rows = std::move(chunk); });
  CSTORE_RETURN_IF_ERROR(r.status);
  if (scan_stats != nullptr) *scan_stats = r.stats;
  return found;
}

Result<uint64_t> Database::DeleteWhere(
    const std::string& table,
    const std::vector<std::pair<std::string, codec::Predicate>>& conds,
    plan::RunStats* scan_stats) {
  CSTORE_ASSIGN_OR_RETURN(FoundRows found,
                          FindRows(table, {}, conds, scan_stats));
  if (!found.rows.empty()) {
    CSTORE_RETURN_IF_ERROR(found.ws->MarkDeleted(found.rows.positions()));
  }
  return found.rows.num_tuples();
}

Result<uint64_t> Database::UpdateWhere(
    const std::string& table,
    const std::vector<std::pair<std::string, Value>>& sets,
    const std::vector<std::pair<std::string, codec::Predicate>>& conds,
    plan::RunStats* scan_stats) {
  if (sets.empty()) {
    return Status::InvalidArgument("UPDATE needs at least one SET column");
  }
  CSTORE_ASSIGN_OR_RETURN(FoundRows found,
                          FindRows(table, sets, conds, scan_stats));

  // Each row is its tuple's first (schema-width) values: any further
  // values are a twice-named WHERE column's second read.
  const size_t width = found.snap->column_names().size();
  std::vector<std::vector<Value>> rows;
  rows.reserve(found.rows.num_tuples());
  for (size_t i = 0; i < found.rows.num_tuples(); ++i) {
    const Value* tuple = found.rows.tuple(i);
    std::vector<Value> row(tuple, tuple + width);
    for (const auto& [slot, value] : found.set_slots) row[slot] = value;
    rows.push_back(std::move(row));
  }
  if (!rows.empty()) {
    CSTORE_RETURN_IF_ERROR(
        found.ws->DeleteAndInsert(found.rows.positions(), rows));
  }
  return rows.size();
}

uint64_t Database::PendingWriteRows(const std::string& table) const {
  std::shared_ptr<write::WriteStore> ws;
  {
    std::lock_guard<std::mutex> lock(catalog_mu_);
    auto it = tables_.find(table);
    if (it == tables_.end() || it->second.ws == nullptr) return 0;
    ws = it->second.ws;
  }
  return ws->pending_rows();
}

std::vector<std::string> Database::WriteTables() const {
  std::lock_guard<std::mutex> lock(catalog_mu_);
  std::vector<std::string> out;
  for (const auto& [table, info] : tables_) {
    if (info.ws != nullptr) out.push_back(table);
  }
  return out;
}

namespace {

/// Streams every value of `reader`, then `tail`, into a fresh column file
/// `new_file` with the given encoding.
Status RewriteColumn(storage::FileManager* files,
                     const codec::ColumnReader* reader,
                     const std::vector<Value>& tail,
                     const std::string& new_file, codec::Encoding encoding) {
  CSTORE_ASSIGN_OR_RETURN(auto writer, codec::ColumnWriter::Create(
                                           files, new_file, encoding));
  std::vector<Value> scratch;
  for (uint64_t b = 0; b < reader->num_blocks(); ++b) {
    CSTORE_ASSIGN_OR_RETURN(codec::EncodedBlock blk, reader->FetchBlock(b));
    scratch.clear();
    blk.view.Decompress(&scratch);
    for (Value v : scratch) {
      CSTORE_RETURN_IF_ERROR(writer->Append(v));
    }
  }
  for (Value v : tail) {
    CSTORE_RETURN_IF_ERROR(writer->Append(v));
  }
  return writer->Finish().status();
}

}  // namespace

Result<uint64_t> Database::CompactTable(const std::string& table) {
  std::lock_guard<std::mutex> compact_lock(compact_mu_);

  std::shared_ptr<write::WriteStore> ws;
  std::vector<std::pair<std::string, std::string>> old_columns;
  uint64_t generation = 0;
  {
    std::lock_guard<std::mutex> lock(catalog_mu_);
    auto it = tables_.find(table);
    if (it == tables_.end()) {
      return Status::NotFound("unknown table '" + table + "'");
    }
    if (it->second.ws == nullptr) return 0;
    ws = it->second.ws;
    old_columns = it->second.columns;
    generation = it->second.generation;
  }

  uint64_t moved = 0;
  std::vector<std::vector<Value>> tail = ws->PeekPending(UINT64_MAX, &moved);
  if (moved == 0) return 0;

  // Re-encode each column (read store + moved rows) into the next
  // generation. A column whose encoding can no longer hold the merged data
  // (e.g. bit-vector with new distinct values) falls back to uncompressed.
  std::vector<std::pair<std::string, std::string>> new_columns;
  std::vector<std::string> new_files;
  for (size_t c = 0; c < old_columns.size(); ++c) {
    const auto& [col, file] = old_columns[c];
    CSTORE_ASSIGN_OR_RETURN(const codec::ColumnReader* reader,
                            GetColumn(file));
    std::string new_file =
        GenerationBaseName(file) + ".g" + std::to_string(generation + 1);
    Status st = RewriteColumn(files_.get(), reader, tail[c], new_file,
                              reader->meta().encoding);
    if (!st.ok() && reader->meta().encoding != codec::Encoding::kUncompressed) {
      st = RewriteColumn(files_.get(), reader, tail[c], new_file,
                         codec::Encoding::kUncompressed);
    }
    CSTORE_RETURN_IF_ERROR(st);
    new_columns.emplace_back(col, new_file);
    new_files.push_back(new_file);
  }

  // Open the new generation's readers before taking the catalog lock (disk
  // metadata reads; concurrent binds must not stall behind them). Also
  // validates the rewrite output before any state changes.
  std::vector<std::unique_ptr<codec::ColumnReader>> new_readers;
  for (const std::string& file : new_files) {
    CSTORE_ASSIGN_OR_RETURN(
        auto reader,
        codec::ColumnReader::Open(files_.get(), pool_.get(), file));
    new_readers.push_back(std::move(reader));
  }

  // Swap the catalog to the new generation; retire the old readers (kept
  // open — in-flight queries may still hold them).
  {
    std::lock_guard<std::mutex> lock(catalog_mu_);
    auto it = tables_.find(table);
    // If the table was re-registered while we rewrote (its write store was
    // replaced), the compacted files describe a dead incarnation: abort
    // without touching the new one. The .gN files become orphans.
    if (it == tables_.end() || it->second.ws != ws) {
      return Status::AlreadyExists(
          "table '" + table + "' was re-registered during compaction");
    }
    TableInfo& info = it->second;
    // Persist the new mapping first; on failure roll the in-memory state
    // back so the pending rows are not duplicated by a retry against a
    // catalog that already includes them.
    info.columns = new_columns;
    info.generation = generation + 1;
    Status saved = SaveCatalogLocked();
    if (!saved.ok()) {
      info.columns = old_columns;
      info.generation = generation;
      Status restored = SaveCatalogLocked();  // best effort
      (void)restored;
      return saved;
    }
    // Install the pre-opened readers and retire the old generation's only
    // once the swap is durable (any same-name stragglers — e.g. from an
    // earlier failed attempt — are parked, never destroyed in place).
    for (size_t c = 0; c < new_files.size(); ++c) {
      std::unique_ptr<codec::ColumnReader>& slot = columns_[new_files[c]];
      if (slot != nullptr) retired_.push_back(std::move(slot));
      slot = std::move(new_readers[c]);
    }
    for (const auto& [col, file] : old_columns) {
      auto old_it = columns_.find(file);
      if (old_it != columns_.end()) {
        retired_.push_back(std::move(old_it->second));
        columns_.erase(old_it);
      }
    }
  }
  // Only now do new snapshots see the moved rows as read-store rows.
  ws->MarkMoved(moved, std::move(new_files));
  return moved;
}

Status Database::EnableTupleMover(sched::Scheduler* scheduler,
                                  write::TupleMover::Options options) {
  if (scheduler == nullptr) {
    return Status::InvalidArgument("EnableTupleMover needs a scheduler");
  }
  DisableTupleMover();
  write::TupleMover::Hooks hooks;
  hooks.list_tables = [this] { return WriteTables(); };
  hooks.pending_rows = [this](const std::string& table) {
    return PendingWriteRows(table);
  };
  hooks.compact = [this](const std::string& table) {
    return CompactTable(table).status();
  };
  mover_ = std::make_unique<write::TupleMover>(std::move(hooks), scheduler,
                                               options);
  return Status::OK();
}

void Database::DisableTupleMover() { mover_.reset(); }

}  // namespace db
}  // namespace cstore
