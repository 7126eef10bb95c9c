#include "exec/aggregate.h"

#include <algorithm>
#include <memory>
#include <span>

#include "exec/gather.h"
#include "position/run_cursor.h"
#include "util/logging.h"

namespace cstore {
namespace exec {

void GroupAccumulator::Add(Value group, Value v, uint64_t count) {
  if (last_ == nullptr || group != last_group_) {
    last_ = &groups_[group];
    last_group_ = group;
  }
  State& s = *last_;
  switch (func_) {
    case AggFunc::kSum:
    case AggFunc::kAvg:
      s.acc += v * static_cast<int64_t>(count);
      break;
    case AggFunc::kCount:
      break;  // count tracked below
    case AggFunc::kMin:
      s.acc = s.initialized ? std::min<int64_t>(s.acc, v) : v;
      break;
    case AggFunc::kMax:
      s.acc = s.initialized ? std::max<int64_t>(s.acc, v) : v;
      break;
  }
  s.count += count;
  s.initialized = true;
}

void GroupAccumulator::MergeFrom(const GroupAccumulator& other) {
  CSTORE_CHECK(func_ == other.func_) << "merging mismatched aggregates";
  for (const auto& [g, s] : other.groups_) {
    if (!s.initialized) continue;
    State& d = groups_[g];
    if (!d.initialized) {
      d = s;
      continue;
    }
    switch (func_) {
      case AggFunc::kSum:
      case AggFunc::kAvg:
        d.acc += s.acc;
        break;
      case AggFunc::kCount:
        break;  // count tracked below
      case AggFunc::kMin:
        d.acc = std::min(d.acc, s.acc);
        break;
      case AggFunc::kMax:
        d.acc = std::max(d.acc, s.acc);
        break;
    }
    d.count += s.count;
  }
}

void GroupAccumulator::Emit(TupleChunk* out) const {
  std::vector<std::pair<Value, const State*>> sorted;
  sorted.reserve(groups_.size());
  for (const auto& [g, s] : groups_) sorted.emplace_back(g, &s);
  std::sort(sorted.begin(), sorted.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });

  out->Reset(2);
  out->Reserve(sorted.size());
  Position i = 0;
  for (const auto& [g, s] : sorted) {
    Value* slots = out->AppendTuple(i++);
    slots[0] = g;
    switch (func_) {
      case AggFunc::kCount:
        slots[1] = static_cast<Value>(s->count);
        break;
      case AggFunc::kAvg:
        slots[1] = s->count > 0
                       ? s->acc / static_cast<int64_t>(s->count)
                       : 0;
        break;
      default:
        slots[1] = s->acc;
        break;
    }
  }
}

Result<bool> HashAggOp::NextImpl(TupleChunk* /*out*/) {
  if (done_) return false;
  TupleChunk in;
  while (true) {
    CSTORE_ASSIGN_OR_RETURN(bool has, input_->Next(&in));
    if (!has) break;
    // Tuple-iterator walk over constructed tuples: one getNext per row.
    for (size_t i = 0; i < in.num_tuples(); ++i) {
      acc_.Add(global_ ? 0 : in.value(i, group_col_), in.value(i, agg_col_),
               1);
    }
  }
  done_ = true;
  return false;
}

bool LateAggOp::TryRunZip(const MultiColumnChunk& chunk,
                          const MiniColumn* gmini, const MiniColumn* amini) {
  if (gmini == nullptr || amini == nullptr) return false;
  auto all_rle = [](const MiniColumn& m) {
    for (const auto& blk : m.blocks()) {
      if (blk->view.AsRle() == nullptr) return false;
    }
    return !m.blocks().empty();
  };
  if (!all_rle(*gmini) || !all_rle(*amini)) return false;

  // Flatten the runs overlapping this chunk (cheap: few runs per block).
  struct Run {
    Value value;
    Position begin;
    Position end;
  };
  auto collect = [](const MiniColumn& m) {
    std::vector<Run> runs;
    for (const auto& blk : m.blocks()) {
      blk->view.AsRle()->ForEachRun(
          [&](Value v, uint64_t start, uint64_t len) {
            runs.push_back(Run{v, start, start + len});
          });
    }
    return runs;
  };
  std::vector<Run> gruns = collect(*gmini);
  std::vector<Run> aruns = collect(*amini);

  // Zip group runs × aggregate runs × valid ranges: each overlap segment
  // contributes (group, value, segment length) in one accumulator call.
  size_t gi = 0;
  size_t ai = 0;
  chunk.desc.ForEachRange([&](Position b, Position e) {
    Position p = b;
    while (gi < gruns.size() && gruns[gi].end <= p) ++gi;
    while (ai < aruns.size() && aruns[ai].end <= p) ++ai;
    while (p < e) {
      CSTORE_CHECK(gi < gruns.size() && ai < aruns.size());
      Position seg_end = std::min({e, gruns[gi].end, aruns[ai].end});
      acc_.Add(gruns[gi].value, aruns[ai].value, seg_end - p);
      p = seg_end;
      if (gi < gruns.size() && gruns[gi].end == p) ++gi;
      if (ai < aruns.size() && aruns[ai].end == p) ++ai;
    }
  });
  return true;
}

namespace {

bool StoredRle(const LateAggOp::ColumnSource& src) {
  return src.reader != nullptr &&
         src.reader->meta().encoding == codec::Encoding::kRle;
}

}  // namespace

Result<const MiniColumn*> LateAggOp::MiniFor(const MultiColumnChunk& chunk,
                                             const ColumnSource& src,
                                             bool read_runs,
                                             MiniColumn* fetched) {
  if (const MiniColumn* mini = chunk.FindMini(src.column)) return mini;
  if (!read_runs) return nullptr;
  *fetched = MiniColumn(src.column);
  CSTORE_RETURN_IF_ERROR(ForEachCoveringBlock(
      src.reader, chunk.desc, stats_,
      [&](codec::EncodedBlock& blk, std::span<const position::Range>) {
        fetched->AddBlock(
            std::make_shared<codec::EncodedBlock>(std::move(blk)));
      }));
  return fetched;
}

Status LateAggOp::ConsumeChunk(const MultiColumnChunk& chunk) {
  if (chunk.desc.IsEmpty()) return Status::OK();

  if (global_) {
    // The group column is never read: gather the aggregate input only. For
    // RLE mini-columns, accumulate run-at-a-time.
    MiniColumn fetched;
    CSTORE_ASSIGN_OR_RETURN(
        const MiniColumn* amini,
        MiniFor(chunk, agg_, agg_.output_only && StoredRle(agg_), &fetched));
    if (amini != nullptr && !amini->blocks().empty()) {
      bool all_rle = true;
      for (const auto& blk : amini->blocks()) {
        if (blk->view.AsRle() == nullptr) {
          all_rle = false;
          break;
        }
      }
      if (all_rle) {
        // Each run's overlap with the valid positions is one accumulator
        // call.
        position::RunCursor runs(chunk.desc);
        for (const auto& blk : amini->blocks()) {
          const codec::RleView* rle = blk->view.AsRle();
          rle->ForEachRunIn(runs.Clip(rle->start_pos(), rle->end_pos()),
                            [&](Value v, Position b, Position e) {
                              acc_.Add(0, v, e - b);
                            });
        }
        return Status::OK();
      }
    }
    abuf_.clear();
    CSTORE_RETURN_IF_ERROR(
        GatherColumnValues(chunk.desc, amini, agg_.reader, stats_, &abuf_));
    for (Value v : abuf_) acc_.Add(0, v, 1);
    return Status::OK();
  }

  // Only two RLE columns zip; an output-only one is then read compressed.
  const bool zip = StoredRle(group_) && StoredRle(agg_);
  MiniColumn gfetched;
  MiniColumn afetched;
  CSTORE_ASSIGN_OR_RETURN(
      const MiniColumn* gmini,
      MiniFor(chunk, group_, zip && group_.output_only, &gfetched));
  CSTORE_ASSIGN_OR_RETURN(
      const MiniColumn* amini,
      MiniFor(chunk, agg_, zip && agg_.output_only, &afetched));
  if (TryRunZip(chunk, gmini, amini)) return Status::OK();

  // General path: extract aligned value arrays, then accumulate per row.
  gbuf_.clear();
  abuf_.clear();
  CSTORE_RETURN_IF_ERROR(
      GatherColumnValues(chunk.desc, gmini, group_.reader, stats_, &gbuf_));
  CSTORE_RETURN_IF_ERROR(
      GatherColumnValues(chunk.desc, amini, agg_.reader, stats_, &abuf_));
  CSTORE_CHECK(gbuf_.size() == abuf_.size());
  for (size_t i = 0; i < gbuf_.size(); ++i) {
    acc_.Add(gbuf_[i], abuf_[i], 1);
  }
  return Status::OK();
}

Result<bool> LateAggOp::NextImpl(TupleChunk* /*out*/) {
  if (done_) return false;
  MultiColumnChunk in;
  while (true) {
    CSTORE_ASSIGN_OR_RETURN(bool has, input_->Next(&in));
    if (!has) break;
    CSTORE_RETURN_IF_ERROR(ConsumeChunk(in));
  }
  done_ = true;
  return false;
}

}  // namespace exec
}  // namespace cstore
