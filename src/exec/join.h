// Hash join with selectable inner-table (right-side) materialization
// strategy (paper Section 4.3, Figure 13), restructured as a two-phase
// build/probe pipeline so the probe side runs morsel-parallel on the
// scheduler pool:
//
//   JoinBuildTable — the build phase's product: an immutable flat hash
//       table (FlatMap) over the inner table, constructed once per query
//       before any probe runs (one build task of the executor, on a pool
//       worker or on the caller's thread) and then shared
//       read-only by every probe morsel. The build merges the inner table's
//       WriteSnapshot when one is attached: deleted positions are masked
//       out and write-store tail rows are folded into the table (and, for
//       kMultiColumn, the snapshot's tail blocks, uncompressed views over
//       its tail values, extend the pinned payload mini-column).
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
#include <vector>

#include "codec/column_reader.h"
#include "codec/predicate.h"
#include "exec/ds_scan.h"
#include "exec/exec_stats.h"
#include "exec/flat_map.h"
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

/// The inner (build) side of a hash join: constructed once by Build(),
/// immutable afterwards, safe to probe from any number of threads.
/// `right_key` is assumed unique (primary key); should it repeat, the
/// first row of a key wins.
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

  /// Builds the table in one pass. Build-side work — blocks fetched, inner
  /// tuples constructed, values gathered — is recorded in `stats`.
  static Result<std::unique_ptr<JoinBuildTable>> Build(const Spec& spec,
                                                       ExecStats* stats);

  JoinRightMode mode() const { return spec_.mode; }

  /// kMaterialized: payload value for `key`, or nullptr.
  const Value* FindPayload(Value key) const { return payloads_.Find(key); }

  /// kMultiColumn / kSingleColumn: inner position for `key`, or nullptr.
  const Position* FindPosition(Value key) const {
    return positions_.Find(key);
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
      : spec_(spec), payload_mini_(/*column=*/1) {}

  Status DoBuild(ExecStats* stats);
  /// kMultiColumn: pins the payload column's blocks (plus the snapshot's
  /// tail blocks) into payload_mini_, ascending.
  Status PinPayload(ExecStats* stats);

  Spec spec_;
  // kMaterialized: key → payload value (tuples constructed at build time).
  FlatMap<Value> payloads_;
  // kMultiColumn / kSingleColumn: key → position in the inner table.
  FlatMap<Position> positions_;
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
