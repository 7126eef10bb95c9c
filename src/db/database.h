// Database facade: owns the storage stack (file manager, disk model, buffer
// pool), a catalog of loaded columns and tables, and the per-table write
// stores. Queries run through api::Connection, the one client surface.
//
// Reads and writes compose through snapshots: every query captures a
// WriteSnapshot of its table at plan-build/submit time and sees exactly
// that state; Insert/DeleteWhere mutate the table's WriteStore; the
// TupleMover (see EnableTupleMover / CompactTable) re-encodes accumulated
// write-store rows into a fresh generation of read-store column files,
// preserving every row's logical position so results never change across a
// compaction. Retired generations stay open until the Database closes, so
// in-flight queries holding old readers stay valid.

#ifndef CSTORE_DB_DATABASE_H_
#define CSTORE_DB_DATABASE_H_

#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "codec/column_reader.h"
#include "codec/column_writer.h"
#include "plan/executor.h"
#include "plan/parallel.h"
#include "plan/planner.h"
#include "plan/query.h"
#include "sched/scheduler.h"
#include "storage/buffer_pool.h"
#include "storage/disk_model.h"
#include "storage/file_manager.h"
#include "util/status.h"
#include "write/tuple_mover.h"
#include "write/write_store.h"

namespace cstore {
namespace db {

class Database {
 public:
  struct Options {
    std::string dir;
    // Buffer-pool capacity in 64 KB frames (default 8192 = 512 MB). The
    // pool is one CLOCK frame table under one mutex (storage::BufferPool).
    size_t pool_frames = 8192;
    // Simulated-disk parameters (disabled by default).
    storage::DiskModel::Params disk;
  };

  static Result<std::unique_ptr<Database>> Open(const Options& options);
  ~Database();

  storage::FileManager* files() { return files_.get(); }
  storage::BufferPool* pool() { return pool_.get(); }
  storage::DiskModel* disk_model() { return &disk_model_; }

  /// Writes `values` as column `name` with the given encoding and registers
  /// it in the catalog. Overwrites an existing column of the same name.
  Status CreateColumn(const std::string& name, codec::Encoding encoding,
                      const std::vector<Value>& values);

  /// Returns the reader for a loaded column (opened lazily if the file
  /// already exists in the directory).
  Result<const codec::ColumnReader*> GetColumn(const std::string& name);

  bool HasColumn(const std::string& name) const;

  /// Registers a logical table: a named mapping from column names to stored
  /// column files (a C-Store projection). All columns must have equal
  /// length. Used by the SQL front end.
  Status RegisterTable(
      const std::string& table,
      const std::vector<std::pair<std::string, std::string>>&
          column_to_file);

  bool HasTable(const std::string& table) const;

  // --- system.* virtual tables --------------------------------------------

  /// True for names in the reserved introspection schema ("system." prefix).
  /// System tables are read-only: Insert/DeleteWhere/UpdateWhere reject
  /// them, and RegisterTable must not be pointed at one.
  static bool IsSystemTable(const std::string& table);

  /// Registers the system.* virtual tables (system.metrics, system.queries,
  /// system.query_log, system.tables, system.pools) in this database's
  /// catalog. Idempotent and cheap after the first call. The registrations
  /// are backed by in-memory zero-row readers (codec::ColumnReader::Empty),
  /// so the planner's reader-based validation sees a zero-row read store
  /// and nothing is written to the directory; all data arrives through the
  /// synthetic snapshot built per query by SnapshotTable. Not persisted to
  /// the catalog sidecar — virtual tables re-register on every open. The
  /// SQL binder calls this lazily on the first reference to a system table.
  void EnsureSystemTables();

  /// Resolves table.column to its reader (current generation).
  Result<const codec::ColumnReader*> GetTableColumn(
      const std::string& table, const std::string& column);

  /// Column names of a registered table, in registration order.
  Result<std::vector<std::string>> TableColumns(
      const std::string& table) const;

  // --- Write path ----------------------------------------------------------

  /// Appends `rows` (row-major; one value per table column, registration
  /// order) to the table's write store. Visible to snapshots taken after
  /// this returns; queries already in flight are unaffected. Not durable
  /// until the tuple mover compacts (WAL/group-commit is a follow-up).
  Status Insert(const std::string& table,
                const std::vector<std::vector<Value>>& rows);

  /// Deletes every row of `table` matching all of `conds` (column name →
  /// predicate; empty = delete every row), as of a snapshot taken at entry.
  /// Returns the number of rows deleted; `scan_stats` (optional) receives
  /// the RunStats of the position-finding scan, which an empty `conds`
  /// does without (it leaves them untouched). Deleted rows keep their
  /// logical positions; scans mask them from results.
  Result<uint64_t> DeleteWhere(
      const std::string& table,
      const std::vector<std::pair<std::string, codec::Predicate>>& conds,
      plan::RunStats* scan_stats = nullptr);

  /// Updates every row of `table` matching all of `conds` (as of a snapshot
  /// taken at entry): each matching row is atomically deleted and
  /// re-inserted with the `sets` columns (column name → new value)
  /// replaced, under one write-store lock acquisition, so no concurrent
  /// snapshot ever sees a half-applied update. Updated rows move to the
  /// write-store tail (they get fresh logical positions). Returns the
  /// number of rows updated; `scan_stats` (optional) receives the RunStats
  /// of the row-finding scan.
  Result<uint64_t> UpdateWhere(
      const std::string& table,
      const std::vector<std::pair<std::string, Value>>& sets,
      const std::vector<std::pair<std::string, codec::Predicate>>& conds,
      plan::RunStats* scan_stats = nullptr);

  /// Captures the table's current write state (read-store generation,
  /// visible write-store rows, delete epoch). Attach to
  /// PlanConfig::snapshot so the plan sees exactly this state. Tables that
  /// were never written return a valid, empty snapshot. System tables
  /// return a synthetic snapshot materializing the introspection source
  /// (metrics registry, live queries, query log, catalog, pools) as of
  /// this call — every query over a system table sees the state at its own
  /// snapshot time.
  Result<std::shared_ptr<const write::WriteSnapshot>> SnapshotTable(
      const std::string& table);

  /// Synchronously compacts the table's pending write-store rows into a new
  /// generation of encoded read-store column files (the tuple mover's unit
  /// of work, callable directly as a deterministic test hook). Returns the
  /// number of rows moved. Positions are preserved; results of concurrent
  /// and future queries are unaffected.
  Result<uint64_t> CompactTable(const std::string& table);

  /// Rows inserted into `table` but not yet compacted (0 for unknown or
  /// never-written tables).
  uint64_t PendingWriteRows(const std::string& table) const;

  /// Tables that currently have a write store.
  std::vector<std::string> WriteTables() const;

  /// Starts a TupleMover over this database's tables on `scheduler`
  /// (compaction jobs run as low-priority scheduler work). The mover is
  /// owned by the Database and stopped on destruction. `scheduler` must
  /// outlive the Database or a preceding DisableTupleMover call.
  Status EnableTupleMover(sched::Scheduler* scheduler,
                          write::TupleMover::Options options =
                              write::TupleMover::Options());
  void DisableTupleMover();
  write::TupleMover* tuple_mover() { return mover_.get(); }

  /// Drops all cached pages (for cold-cache measurements).
  void DropCaches() { pool_->Clear(); }

 private:
  struct TableInfo {
    // Ordered (column name, file name) pairs — the current generation.
    std::vector<std::pair<std::string, std::string>> columns;
    std::shared_ptr<write::WriteStore> ws;  // lazily created on first write
    uint64_t generation = 0;                // bumped by each compaction
  };

  Database() = default;

  /// The rows a DELETE or UPDATE applies to, found by FindRows. `lock`
  /// holds ws->scan_mutation_mu() until the caller has applied them.
  struct FoundRows {
    std::shared_ptr<write::WriteStore> ws;
    std::unique_lock<std::mutex> lock;
    std::shared_ptr<const write::WriteSnapshot> snap;
    // The SET columns' schema slots and values.
    std::vector<std::pair<size_t, Value>> set_slots;
    // Ascending positions; one value per scanned column.
    exec::TupleChunk rows;
  };

  /// The row-finding scan of DeleteWhere and UpdateWhere: takes the table's
  /// scan_mutation_mu and a fresh snapshot, then finds the rows matching
  /// all of `conds` with a 1-worker LM-parallel scan that filters the WHERE
  /// columns in schema order. A DELETE (no `sets`) reads only those
  /// columns, and without `conds` runs no scan: its rows are the
  /// snapshot's live positions, each a zero-width tuple. An UPDATE
  /// re-inserts whole rows, so it reads every column in schema order
  /// first. NotFound for an unknown SET or WHERE column, before any scan.
  Result<FoundRows> FindRows(
      const std::string& table,
      const std::vector<std::pair<std::string, Value>>& sets,
      const std::vector<std::pair<std::string, codec::Predicate>>& conds,
      plan::RunStats* scan_stats);
  /// Builds the synthetic snapshot serving one system table.
  Result<std::shared_ptr<const write::WriteSnapshot>> SystemSnapshot(
      const std::string& table);
  Status LoadCatalog();
  Status SaveCatalogLocked() const;
  Result<const codec::ColumnReader*> GetColumnLocked(const std::string& name);
  /// Creates the table's write store if absent. Caller holds catalog_mu_.
  Result<write::WriteStore*> EnsureWriteStoreLocked(const std::string& table);

  std::unique_ptr<storage::FileManager> files_;
  storage::DiskModel disk_model_;
  std::unique_ptr<storage::BufferPool> pool_;

  // Guards columns_, tables_, retired_. Held only for catalog operations —
  // never across query execution or compaction I/O.
  mutable std::mutex catalog_mu_;
  std::unordered_map<std::string, std::unique_ptr<codec::ColumnReader>>
      columns_;
  std::unordered_map<std::string, TableInfo> tables_;
  // Readers of superseded generations: kept open until the Database closes
  // so queries bound before a compaction stay valid.
  std::vector<std::unique_ptr<codec::ColumnReader>> retired_;

  // One compaction at a time (the mover and the CompactTable test hook can
  // race otherwise).
  std::mutex compact_mu_;

  std::unique_ptr<write::TupleMover> mover_;
};

}  // namespace db
}  // namespace cstore

#endif  // CSTORE_DB_DATABASE_H_
