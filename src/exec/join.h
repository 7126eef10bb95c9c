// Hash join with selectable inner-table (right-side) materialization
// strategy (paper Section 4.3, Figure 13), restructured as a two-phase
// build/probe pipeline so the probe side runs morsel-parallel on the
// scheduler pool:
//
//   JoinBuildTable — the build phase's product: an immutable hash table over
//       the inner table, constructed once per query before any probe runs
//       (the scheduler's build phase behind its barrier, or
//       plan::ExecuteInline on the caller's thread) and then shared
//       read-only by every probe morsel. The build merges the inner table's
//       WriteSnapshot when one is attached: deleted positions are masked
//       out and write-store tail rows are folded into the table (and, for
//       kMultiColumn, the snapshot's synthetic tail blocks extend the
//       pinned payload mini-column).
//   JoinProbeOp — the probe phase: consumes one morsel's outer-side stream
//       (positions + key mini-column for JoinLeftMode::kLate, constructed
//       tuples for kEarly), probes the built table, and emits joined
//       (left_payload, right_payload) tuples. Each morsel's probe work —
//       including the kSingleColumn mode's out-of-order inner payload
//       fetches — is morsel-local, so per-(query,worker) partials merge
//       exactly and results are bit-identical across worker counts.
//
// The three inner-table representations are unchanged from the paper:
//
//   kMaterialized — inner tuples are constructed before the join (EM): the
//       table maps key → payload value, and the join behaves as in a row
//       store.
//   kMultiColumn  — the inner table is sent as a multi-column: the table
//       maps key → position, the payload column stays pinned in compressed
//       form, and payload values are extracted on the fly as probes match.
//   kSingleColumn — "pure" LM: only the join-predicate column enters the
//       join. The join emits (sorted left positions, unsorted right
//       positions); right payload values must then be fetched by position
//       out of order — an expensive non-merge positional join.
//
// The outer (left, probe) side always arrives as a stream built by the
// planner: a DS1 scan of the join key (kLate) or an SPC scan of key +
// payload (kEarly), each restricted to the morsel's scan range and, under a
// write-carrying snapshot, delete-masked and extended with the write-store
// tail leaf. Sorted left positions are cheap to gather payloads for (an
// in-order merge); unsorted right positions are not — the asymmetry the
// paper calls out.

#ifndef CSTORE_EXEC_JOIN_H_
#define CSTORE_EXEC_JOIN_H_

#include <memory>
#include <unordered_map>
#include <vector>

#include "codec/column_reader.h"
#include "codec/predicate.h"
#include "exec/ds_scan.h"
#include "exec/exec_stats.h"
#include "exec/operator.h"
#include "write/write_store.h"

namespace cstore {
namespace exec {

enum class JoinRightMode {
  kMaterialized,
  kMultiColumn,
  kSingleColumn,
};

/// Outer-side representation. kLate sends positions + the key column and
/// merge-gathers the payload afterwards; kEarly constructs (key, payload)
/// tuples before the join — "the join functions as it would in a standard
/// row-store system" (Section 4.3).
enum class JoinLeftMode {
  kLate,
  kEarly,
};

inline const char* JoinRightModeName(JoinRightMode m) {
  switch (m) {
    case JoinRightMode::kMaterialized:
      return "right-materialized";
    case JoinRightMode::kMultiColumn:
      return "right-multicolumn";
    case JoinRightMode::kSingleColumn:
      return "right-single-column";
  }
  return "?";
}

/// The inner (build) side of a hash join: constructed once by Build() (the
/// serial path) or assembled from radix partitions built in parallel by
/// Assemble(); immutable afterwards, safe to probe from any number of
/// threads. `right_key` is assumed unique (primary key).
///
/// The hash table is split into 1 << radix_bits partitions keyed by
/// PartitionIndex(key). The serial build uses one partition (radix_bits =
/// 0, probe lookups skip the mixer entirely); the parallel build buckets
/// rows by partition during its morsel-scan phase, builds each partition's
/// table as an independent task, and hands the finished partitions to
/// Assemble. Table *contents* are identical either way — probe results
/// depend only on the key → payload/position mapping, so results stay
/// bit-identical across radix settings.
class JoinBuildTable {
 public:
  struct Spec {
    const codec::ColumnReader* right_key = nullptr;
    const codec::ColumnReader* right_payload = nullptr;
    JoinRightMode mode = JoinRightMode::kMaterialized;
    // Inner table's write snapshot (optional). When it carries state, the
    // build masks its deleted positions and merges its write-store tail
    // rows; `snap_key_index` / `snap_payload_index` locate the key and
    // payload columns in the snapshot's schema.
    std::shared_ptr<const write::WriteSnapshot> snapshot;
    size_t snap_key_index = 0;
    size_t snap_payload_index = 0;
  };

  /// Builds the table in one pass (the serial phase-one task). Build-side
  /// work — blocks fetched, inner tuples constructed, values gathered — is
  /// recorded in `stats`.
  static Result<std::unique_ptr<JoinBuildTable>> Build(const Spec& spec,
                                                       ExecStats* stats);

  /// Radix partition of `key` among 1 << radix_bits partitions: the top
  /// bits of a Fibonacci-hash mix, so dense and sparse key spaces spread
  /// evenly. The parallel build's bucketing and the probe's lookups use
  /// the same function by construction.
  static size_t PartitionIndex(Value key, int radix_bits) {
    return static_cast<size_t>(
        (static_cast<uint64_t>(key) * UINT64_C(0x9E3779B97F4A7C15)) >>
        (64 - radix_bits));
  }

  /// Assembles a table from per-partition hash tables built in parallel
  /// (exactly one of the two vectors is populated, per `spec.mode`; each
  /// must hold 1 << radix_bits entries bucketed by PartitionIndex). For
  /// kMultiColumn this also pins the payload column (read-store blocks +
  /// snapshot tail blocks) — I/O recorded in `stats`.
  static Result<std::unique_ptr<JoinBuildTable>> Assemble(
      const Spec& spec, int radix_bits,
      std::vector<std::unordered_map<Value, Value>> val_parts,
      std::vector<std::unordered_map<Value, Position>> pos_parts,
      ExecStats* stats);

  JoinRightMode mode() const { return spec_.mode; }
  int radix_bits() const { return radix_bits_; }

  /// kMaterialized: payload value for `key`, or nullptr.
  const Value* FindPayload(Value key) const {
    const auto& t = val_parts_[PartitionOf(key)];
    auto it = t.find(key);
    return it == t.end() ? nullptr : &it->second;
  }

  /// kMultiColumn / kSingleColumn: inner position for `key`, or nullptr.
  const Position* FindPosition(Value key) const {
    const auto& t = pos_parts_[PartitionOf(key)];
    auto it = t.find(key);
    return it == t.end() ? nullptr : &it->second;
  }

  /// kMultiColumn: extracts the payload at `pos` from the pinned
  /// mini-column (read-store blocks + snapshot tail blocks).
  Value PayloadAt(Position pos) const { return payload_mini_.ValueAt(pos); }

  /// kSingleColumn: fetches the payload at `pos` — an independent
  /// out-of-order block lookup through the buffer pool for read-store
  /// positions, a tail-row access for write-store positions.
  Result<Value> FetchPayload(Position pos) const;

 private:
  explicit JoinBuildTable(const Spec& spec)
      : spec_(spec), payload_mini_(/*column=*/1, &spec.right_payload->meta()) {}

  size_t PartitionOf(Value key) const {
    return radix_bits_ == 0 ? 0 : PartitionIndex(key, radix_bits_);
  }

  Status DoBuild(ExecStats* stats);
  /// kMultiColumn: pins the payload column's blocks (plus the snapshot's
  /// synthetic tail blocks) into payload_mini_, ascending.
  Status PinPayload(ExecStats* stats);

  Spec spec_;
  int radix_bits_ = 0;
  // kMaterialized: key → payload value (tuples constructed at build time),
  // one table per radix partition (a single table when radix_bits_ == 0).
  std::vector<std::unordered_map<Value, Value>> val_parts_;
  // kMultiColumn / kSingleColumn: key → position in the inner table.
  std::vector<std::unordered_map<Value, Position>> pos_parts_;
  // kMultiColumn: the pinned, still-compressed payload column.
  MiniColumn payload_mini_;
};

/// Probe phase: equi-join of one morsel's outer stream against a
/// JoinBuildTable, producing (left_payload, right_payload) tuples.
class JoinProbeOp : public TupleOp {
 public:
  struct Spec {
    // Exactly one of the two inputs is set, per JoinLeftMode.
    MultiColumnOp* pos_input = nullptr;  // kLate: positions + key mini
    TupleOp* tuple_input = nullptr;      // kEarly: (key, payload) tuples
    // kLate: the outer payload column, merge-gathered at matching
    // positions (tail chunks carry it as a mini-column instead).
    const codec::ColumnReader* left_payload = nullptr;
  };

  /// `table` is the query's built hash table, borrowed by every probe
  /// morsel; it must outlive the op.
  JoinProbeOp(const Spec& spec, const JoinBuildTable& table,
              ExecStats* stats);

  Result<bool> NextImpl(TupleChunk* out) override;
  const char* name() const override { return "join-probe"; }

 private:
  Status ProbeChunk(const MultiColumnChunk& chunk, TupleChunk* out);
  Status ProbeEarlyChunk(const TupleChunk& in, TupleChunk* out);

  Spec spec_;
  const JoinBuildTable* table_;
  ExecStats* stats_;

  // Per-chunk scratch.
  std::vector<Position> left_pos_;
  std::vector<Value> right_vals_;
  std::vector<Position> right_pos_;
  std::vector<Value> left_vals_;
};

}  // namespace exec
}  // namespace cstore

#endif  // CSTORE_EXEC_JOIN_H_
