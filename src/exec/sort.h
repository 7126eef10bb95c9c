// Two-phase morsel-parallel sort for ORDER BY [ASC|DESC] [LIMIT n].
//
//   SortOp — run formation: drains its (selection) input and accumulates a
//       *sorted run* of the rows it saw, ordered by (sort key, then
//       position). Positions are unique, so the order is total and the
//       output deterministic even among duplicate keys — the property that
//       keeps results bit-identical across worker counts. With a LIMIT the
//       op keeps only its top n rows via a bounded heap (Top-N
//       short-circuit): a morsel's local top n is a superset of its
//       contribution to the global top n, so no correct row can be lost.
//   MergeSortedRuns — the finalize phase: k-way merges the per-morsel runs
//       (a binary heap over run heads) into globally ordered output chunks,
//       stopping after the LIMIT. The scheduler calls it once, after the
//       last morsel's barrier; a lone run needs no merge and is handed on
//       as is.
//
// Like the aggregation operators, SortOp only accumulates: Next() forms
// the run and emits nothing, and the scheduler collects it via TakeRun().

#ifndef CSTORE_EXEC_SORT_H_
#define CSTORE_EXEC_SORT_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "exec/exec_stats.h"
#include "exec/operator.h"
#include "exec/tuple_chunk.h"

namespace cstore {
namespace exec {

/// The sort order: key ascending (or descending), position ascending as the
/// tiebreak. Shared by run formation and the finalize merge so both phases
/// agree on one total order.
inline bool SortRowLess(Value a_key, Position a_pos, Value b_key,
                        Position b_pos, bool desc) {
  if (a_key != b_key) return desc ? a_key > b_key : a_key < b_key;
  return a_pos < b_pos;
}

class SortOp : public TupleOp {
 public:
  struct Spec {
    TupleOp* input = nullptr;
    // Tuple slot holding the sort key.
    uint32_t sort_slot = 0;
    bool desc = false;
    // 0 = no LIMIT.
    uint64_t limit = 0;
  };

  explicit SortOp(const Spec& spec);

  Result<bool> NextImpl(TupleChunk* out) override;
  const char* name() const override { return "sort"; }

  /// Moves out this instance's sorted, limit-truncated run. Valid once
  /// Next() has returned false.
  TupleChunk TakeRun() { return std::move(run_); }

 private:
  Status Accumulate();
  void PushLimited(const TupleChunk& in, size_t row);
  void CompactHeap();

  Spec spec_;
  bool accumulated_ = false;
  // Rows retained so far (unsorted until Accumulate finishes). With a
  // LIMIT, heap_ holds indices into rows_ as a max-heap in sort order (the
  // heap top is the worst retained row); rows evicted from the heap linger
  // in rows_ until CompactHeap reclaims them, keeping memory O(limit).
  TupleChunk rows_;
  std::vector<size_t> heap_;
  // The finished sorted run.
  TupleChunk run_;
};

/// K-way merges sorted runs (each ordered by SortRowLess) and hands the
/// merged rows to `consume` in chunks of at most `chunk_rows` tuples, each
/// reserved up front, stopping after `limit` rows (0 = all). Returns false iff `consume`
/// declined a chunk (streaming consumer cancelled) — the merge stops
/// immediately; true otherwise. Runs must share one width.
bool MergeSortedRuns(const std::vector<const TupleChunk*>& runs,
                     uint32_t sort_slot, bool desc, uint64_t limit,
                     size_t chunk_rows,
                     const std::function<bool(TupleChunk&)>& consume);

}  // namespace exec
}  // namespace cstore

#endif  // CSTORE_EXEC_SORT_H_
