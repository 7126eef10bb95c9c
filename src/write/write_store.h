// Write path of the engine: a C-Store-style per-table write store.
//
// The read store (encoded column files behind ColumnReaders) is immutable;
// all mutations land here first:
//
//   * inserts  — appended, uncompressed and column-major, to an in-memory
//                row tail. Write-store row i has the *logical position*
//                base_rows + i, directly after the read store, and keeps
//                that position for its whole life: the tuple mover later
//                re-encodes the rows into read-store blocks at exactly
//                those positions, so no query ever observes a row move.
//   * deletes  — recorded in an append-only log of logical positions (over
//                read store and write store alike). Deleted rows are masked
//                at scan time; their positions are never reused, which is
//                what keeps positions stable across compaction (physical
//                purge of deleted rows is a planned follow-up).
//
// Queries never read the live structures. At plan-build time each query
// captures a WriteSnapshot — an immutable copy of exactly
// (visible write-store rows, delete-log prefix) at one instant — and every
// scan of the query resolves against that snapshot. Concurrent writers keep
// appending to the store; in-flight queries cannot see them (epoch-based
// snapshot isolation for single-table statements).
//
// The snapshot also views its row tail as *uncompressed blocks* of
// kUncompressedValuesPerBlock values each: BlockViews that point straight
// into the snapshot's own tail values (no copy, no page, never touching the
// buffer pool). Each column's snapshot reader (ReaderFor) serves the read
// store's blocks followed by these, so every strategy's operators scan,
// gather and join write-store rows exactly as they do stored rows; the
// write store reaches them only as more positions and a delete list.

#ifndef CSTORE_WRITE_WRITE_STORE_H_
#define CSTORE_WRITE_WRITE_STORE_H_

#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "codec/column_reader.h"
#include "position/position_set.h"
#include "util/common.h"
#include "util/status.h"

namespace cstore {
namespace write {

/// Immutable view of one table's write state as of one instant. Cheap to
/// share (queries hold a shared_ptr for their whole lifetime); safe to read
/// from any number of threads. Survives concurrent writes and compaction
/// unchanged — the tail rows and delete prefix are copied out under the
/// store's lock at capture time.
class WriteSnapshot {
 public:
  /// Read-store rows visible to this snapshot (the generation the snapshot
  /// was captured against).
  Position base_rows() const { return base_rows_; }
  /// Write-store tail rows visible to this snapshot.
  uint64_t tail_rows() const { return tail_rows_; }
  /// Total logical positions: [0, base_rows + tail_rows).
  Position total_rows() const { return base_rows_ + tail_rows_; }

  /// Delete-log prefix length this snapshot sees (its "delete epoch").
  uint64_t delete_epoch() const { return delete_epoch_; }
  bool has_deletes() const { return !deleted_.empty(); }
  /// True when the snapshot carries write state a scan or hash build must
  /// merge (pending tail rows or visible deletes); false for never-written
  /// or fully-compacted tables — those build the exact pre-write-path plan.
  bool has_state() const { return has_deletes() || tail_rows_ > 0; }
  /// Sorted, deduplicated deleted positions visible to this snapshot.
  const std::vector<Position>& deleted() const { return deleted_; }

  /// True when any visible delete falls in [begin, end).
  bool AnyDeletedIn(Position begin, Position end) const;

  /// Positions of [begin, end) that are *not* deleted, as a position set
  /// (the complement of the delete list over the window) — scans intersect
  /// their descriptors with this to mask deleted rows.
  position::PositionSet LiveSet(Position begin, Position end) const;

  /// Table schema, in registration order.
  const std::vector<std::string>& column_names() const { return names_; }
  /// Storage file of each column in the generation this snapshot saw.
  const std::vector<std::string>& column_files() const { return files_; }

  /// Schema index of the column named `name`; -1 when unknown.
  int ColumnIndexForName(const std::string& name) const;

  /// The reader plans over this snapshot read `stored`'s column with:
  /// `stored` itself when the snapshot has no tail rows, otherwise
  /// `stored`'s blocks followed by the column's tail_blocks(), built on the
  /// first request (thread-safe) and owned by the snapshot.
  /// InvalidArgument when `stored` is not one of the table's column files
  /// (readers are keyed by file) or belongs to another generation.
  Result<const codec::ColumnReader*> ReaderFor(
      const codec::ColumnReader* stored) const;

  /// Tail values of schema column `c` (tail_rows() entries; logical
  /// position of entry i is base_rows() + i).
  const std::vector<Value>& tail_values(size_t c) const {
    return tail_values_[c];
  }

  /// The tail of schema column `c` as uncompressed EncodedBlocks (start_pos
  /// = logical positions): block b views the kUncompressedValuesPerBlock
  /// values of tail_values(c) from entry b * kUncompressedValuesPerBlock.
  /// Empty when tail_rows() == 0. The blocks pin no buffer-pool frames;
  /// their views point into this snapshot, so they must not outlive it.
  const std::vector<std::shared_ptr<codec::EncodedBlock>>& tail_blocks(
      size_t c) const {
    return tail_blocks_[c];
  }

  /// Builds a free-standing snapshot whose *entire* content is a tail:
  /// base_rows = 0, every row lives in the in-memory tail blocks.
  /// This is how virtual tables (system.*) materialize — the planner,
  /// delete masks, and all four strategies consume the result exactly like
  /// a real table whose read store happens to be empty. `columns` is
  /// column-major and every column must have equal length (may be 0).
  static std::shared_ptr<const WriteSnapshot> Synthetic(
      std::vector<std::string> names, std::vector<std::string> files,
      std::vector<std::vector<Value>> columns);

  // A copy's tail blocks would still view the original's tail_values_.
  WriteSnapshot(const WriteSnapshot&) = delete;
  WriteSnapshot& operator=(const WriteSnapshot&) = delete;

 private:
  friend class WriteStore;
  WriteSnapshot() = default;
  void BuildTailBlocks();

  Position base_rows_ = 0;
  uint64_t tail_rows_ = 0;
  uint64_t delete_epoch_ = 0;
  std::vector<std::string> names_;
  std::vector<std::string> files_;
  std::vector<std::vector<Value>> tail_values_;  // [schema col][tail row]
  std::vector<Position> deleted_;                // sorted, unique
  // Uncompressed views over tail_values_, which never changes once they
  // are built.
  std::vector<std::vector<std::shared_ptr<codec::EncodedBlock>>> tail_blocks_;
  // ReaderFor's reader of each schema column, built on its first request
  // (call_once, so later requests take no lock).
  struct TailReader {
    std::once_flag built;
    std::unique_ptr<codec::ColumnReader> reader;
  };
  std::unique_ptr<TailReader[]> readers_;
};

/// The mutable per-table write store: an append-only uncompressed insert
/// tail plus a delete log, guarded for concurrent access. One instance per
/// registered table (created lazily on first write).
class WriteStore {
 public:
  /// `names` / `files`: the table schema (logical column names and their
  /// current storage files, registration order). `base_rows`: read-store
  /// rows at creation.
  WriteStore(std::vector<std::string> names, std::vector<std::string> files,
             Position base_rows);

  /// Appends rows (row-major; each row must have one value per schema
  /// column). Rows become visible to snapshots taken after this returns.
  Status Insert(const std::vector<std::vector<Value>>& rows);

  /// Records `positions` (logical, must be < the current visible total) as
  /// deleted. One call = one delete epoch tick; duplicates are tolerated.
  Status MarkDeleted(const std::vector<Position>& positions);

  /// UPDATE primitive: atomically marks `positions` deleted and appends
  /// `rows` (the updated images, row-major) under one lock acquisition, so
  /// no snapshot can ever observe the rows deleted but not yet re-inserted
  /// (or vice versa).
  Status DeleteAndInsert(const std::vector<Position>& positions,
                         const std::vector<std::vector<Value>>& rows);

  /// Captures the current visible state. Never blocks writers for longer
  /// than the copy. While the store is unchanged (same tail size, delete
  /// epoch, and generation) the same immutable snapshot object is reused,
  /// so read-heavy phases don't re-copy the tail per query.
  std::shared_ptr<const WriteSnapshot> Snapshot() const;

  /// Rows inserted but not yet compacted into the read store.
  uint64_t pending_rows() const;
  /// Current read-store row count (grows as the tuple mover compacts).
  Position base_rows() const;
  uint64_t delete_log_size() const;

  /// Tuple-mover support: copies the first min(limit, pending) pending rows
  /// column-major (schema order) without consuming them.
  std::vector<std::vector<Value>> PeekPending(uint64_t limit,
                                              uint64_t* taken) const;

  /// Tuple-mover support: the first `moved` pending rows are now persisted
  /// in the read store as generation `files` — drop them from the tail and
  /// advance base_rows. Their logical positions are unchanged.
  void MarkMoved(uint64_t moved, std::vector<std::string> files);

  /// Serializes scan-then-apply mutations (Database::DeleteWhere /
  /// UpdateWhere): each computes its matching positions against a snapshot
  /// and then applies them, so two racing would both match the same row —
  /// and two UPDATEs would re-insert it twice. Held by the Database around
  /// the whole scan + apply pair; never taken together with mu_ (which only
  /// guards the short copy/append sections).
  std::mutex& scan_mutation_mu() const { return scan_mutation_mu_; }

 private:
  mutable std::mutex mu_;
  std::vector<std::string> names_;
  std::vector<std::string> files_;  // current generation (updated by mover)
  Position base_rows_;              // grows by MarkMoved
  std::vector<std::vector<Value>> pending_;  // column-major insert tail
  std::vector<Position> delete_log_;         // append order; epoch = size
  // Last snapshot built; reused while (base, tail size, epoch) match.
  mutable std::shared_ptr<const WriteSnapshot> cached_snapshot_;
  mutable std::mutex scan_mutation_mu_;  // see scan_mutation_mu()
};

}  // namespace write
}  // namespace cstore

#endif  // CSTORE_WRITE_WRITE_STORE_H_
