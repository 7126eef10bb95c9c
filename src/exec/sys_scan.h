// The system.* virtual-table scan source.
//
// The engine already serves in-memory rows through the standard block
// machinery: a WriteSnapshot's column readers read its tail rows as
// uncompressed blocks in place, after the read store's. A virtual table is
// exactly that snapshot with base_rows = 0 — *every* row lives in the
// tail, no column file is ever read. The planner, predicates, delete
// masks, aggregates, and all four materialization strategies work
// unchanged; their own leaves are the "sys scan".
//
// This module owns the system schema (table names, column layouts, which
// columns are dictionary-encoded strings — see util/string_dict.h) and the
// row builders for the process-global sources:
//
//   system.metrics    — MetricsRegistry flattened (histograms expand to
//                       :p50/:p95/:p99/:count/:sum rows)
//   system.queries    — LiveQueryRegistry (what is running right now)
//   system.query_log  — QueryLog ring (what ran, and what it cost)
//
// system.tables and system.pools need catalog/pool state and are built by
// db::Database (db/database.cc), against the same SysTableDef schemas.
//
// Every cell is a Value: numeric columns hold the number (doubles rounded
// to the nearest integer), string columns hold util::StringDict ids.

#ifndef CSTORE_EXEC_SYS_SCAN_H_
#define CSTORE_EXEC_SYS_SCAN_H_

#include <memory>
#include <string>
#include <vector>

#include "util/common.h"
#include "write/write_store.h"

namespace cstore {
namespace exec {

struct SysColumn {
  const char* name;
  bool is_string;  // values are StringDict ids
};

struct SysTableDef {
  const char* name;  // full "system.xxx" name
  std::vector<SysColumn> columns;
};

/// True for names in the system schema ("system." prefix).
bool IsSystemTableName(const std::string& table);

/// Schema of every system table, fixed order.
const std::vector<SysTableDef>& SysTables();

/// Definition of one system table; nullptr for unknown names.
const SysTableDef* FindSysTable(const std::string& table);

/// Storage-file name registered for column `c` of `def` — the readers
/// behind these names are in-memory zero-row readers (no file is ever
/// created), they exist so the planner's reader-based validation and
/// morsel accounting see a zero-row read store in front of the tail.
std::string SysColumnFileName(const SysTableDef& def, size_t c);

/// Packs column-major `columns` (one vector per def column, equal lengths)
/// into a synthetic WriteSnapshot serving `def`'s schema.
std::shared_ptr<const write::WriteSnapshot> MakeSysSnapshot(
    const SysTableDef& def, std::vector<std::vector<Value>> columns);

/// Row builders for the global sources (column-major, def column order).
std::vector<std::vector<Value>> SysMetricsColumns();
std::vector<std::vector<Value>> SysQueriesColumns();
std::vector<std::vector<Value>> SysQueryLogColumns();

}  // namespace exec
}  // namespace cstore

#endif  // CSTORE_EXEC_SYS_SCAN_H_
