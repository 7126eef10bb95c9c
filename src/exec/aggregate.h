// Aggregation operators for the paper's second query shape:
//
//   SELECT shipdate, SUM(linenum) FROM lineitem
//   WHERE shipdate < X AND linenum < Y GROUP BY shipdate
//
// HashAggOp sits on top of EM plans and consumes constructed tuples
// (tuple-iterator cost per input row). LateAggOp sits on top of LM position
// streams and aggregates straight out of the (still-compressed)
// mini-columns: when both inputs are RLE it zips runs — contributing
// group_sum += value * run_overlap without touching individual tuples —
// which is the "aggregator can optimize its performance by operating
// directly on compressed data" effect of Section 4.2. Neither operator
// constructs input tuples that the aggregate would discard.

#ifndef CSTORE_EXEC_AGGREGATE_H_
#define CSTORE_EXEC_AGGREGATE_H_

#include <unordered_map>
#include <vector>

#include "codec/column_reader.h"
#include "exec/exec_stats.h"
#include "exec/operator.h"

namespace cstore {
namespace exec {

enum class AggFunc {
  kSum,
  kCount,
  kMin,
  kMax,
  kAvg,  // integer average (sum / count, truncating)
};

inline const char* AggFuncName(AggFunc f) {
  switch (f) {
    case AggFunc::kSum: return "SUM";
    case AggFunc::kCount: return "COUNT";
    case AggFunc::kMin: return "MIN";
    case AggFunc::kMax: return "MAX";
    case AggFunc::kAvg: return "AVG";
  }
  return "?";
}

/// Shared accumulation + result emission. The table is probed once per run
/// of equal consecutive groups: the last group's state is cached, so rows
/// arriving in group order (a projection sorted on the group column) skip
/// the hash lookup.
class GroupAccumulator {
 public:
  explicit GroupAccumulator(AggFunc func) : func_(func) {}

  /// Copies hold their own table, so the cache starts empty rather than
  /// pointing into the source's.
  GroupAccumulator(const GroupAccumulator& other)
      : func_(other.func_), groups_(other.groups_) {}
  GroupAccumulator& operator=(const GroupAccumulator& other) {
    func_ = other.func_;
    groups_ = other.groups_;
    last_ = nullptr;
    return *this;
  }
  /// A move takes the table without copying a group; both sides start
  /// with an empty cache.
  GroupAccumulator(GroupAccumulator&& other) noexcept
      : func_(other.func_), groups_(std::move(other.groups_)) {
    other.last_ = nullptr;
  }

  void Add(Value group, Value v, uint64_t count);

  /// Folds another accumulator (a morsel worker's partial aggregate) into
  /// this one. Sum/count/avg states add, min/max states combine — all
  /// commutative, so merged results are independent of worker scheduling
  /// and equal to a serial run over the same rows.
  void MergeFrom(const GroupAccumulator& other);

  /// Emits (group, aggregate) tuples sorted by group value.
  void Emit(TupleChunk* out) const;

 private:
  struct State {
    int64_t acc = 0;
    uint64_t count = 0;
    bool initialized = false;
  };

  AggFunc func_;
  std::unordered_map<Value, State> groups_;
  // State of the last group added (null until the first Add); element
  // pointers of an unordered_map survive rehashing.
  State* last_ = nullptr;
  Value last_group_ = 0;
};

/// Common base of the aggregation operators, which only accumulate: Next()
/// consumes the whole input and emits nothing. The scheduler's finalize
/// merges the instances' accumulators and emits the groups once.
class GroupAggOp {
 public:
  explicit GroupAggOp(AggFunc func) : acc_(func) {}
  virtual ~GroupAggOp() = default;

  /// Moves out this instance's partial aggregate. Valid once Next() has
  /// returned false.
  GroupAccumulator TakeAccumulator() { return std::move(acc_); }

 protected:
  GroupAccumulator acc_;
};

/// Aggregation over constructed tuples (EM side).
class HashAggOp : public TupleOp, public GroupAggOp {
 public:
  /// `group_col` / `agg_col` are slot indices in the input tuples. With
  /// `global`, every row lands in one group (no GROUP BY) and `group_col`
  /// is ignored.
  HashAggOp(TupleOp* input, uint32_t group_col, uint32_t agg_col,
            AggFunc func, bool global)
      : GroupAggOp(func),
        input_(input),
        group_col_(group_col),
        agg_col_(agg_col),
        global_(global) {}

  Result<bool> NextImpl(TupleChunk* out) override;
  const char* name() const override { return "hash-agg"; }

 private:
  TupleOp* input_;
  uint32_t group_col_;
  uint32_t agg_col_;
  bool global_;
  bool done_ = false;
};

/// Aggregation over position streams (LM side), reading group/aggregate
/// values from mini-columns (or re-fetching via the fallback readers).
class LateAggOp : public TupleOp, public GroupAggOp {
 public:
  struct ColumnSource {
    ColumnId column;
    const codec::ColumnReader* reader;  // fallback when no mini present
    // An output-only column of a planned conjunction: no scan attaches its
    // blocks, so when it is RLE the aggregate reads its covering blocks
    // itself, still compressed, and aggregates run at a time.
    bool output_only = false;
  };

  /// With `global`, the group column is never read; all rows accumulate
  /// into one group.
  LateAggOp(MultiColumnOp* input, ColumnSource group, ColumnSource agg,
            AggFunc func, bool global, ExecStats* stats)
      : GroupAggOp(func),
        input_(input),
        group_(group),
        agg_(agg),
        global_(global),
        stats_(stats) {}

  Result<bool> NextImpl(TupleChunk* out) override;
  const char* name() const override { return "late-agg"; }

 private:
  Status ConsumeChunk(const MultiColumnChunk& chunk);
  /// The chunk's mini-column of `src`. Without one, when `read_runs` is
  /// set, the blocks of `src` holding a valid position, read through its
  /// reader into *fetched; null otherwise.
  Result<const MiniColumn*> MiniFor(const MultiColumnChunk& chunk,
                                    const ColumnSource& src, bool read_runs,
                                    MiniColumn* fetched);
  /// RLE×RLE fast path; returns false if the chunk is not eligible.
  bool TryRunZip(const MultiColumnChunk& chunk, const MiniColumn* gmini,
                 const MiniColumn* amini);

  MultiColumnOp* input_;
  ColumnSource group_;
  ColumnSource agg_;
  bool global_ = false;
  ExecStats* stats_;
  bool done_ = false;
  std::vector<Value> gbuf_;
  std::vector<Value> abuf_;
};

}  // namespace exec
}  // namespace cstore

#endif  // CSTORE_EXEC_AGGREGATE_H_
