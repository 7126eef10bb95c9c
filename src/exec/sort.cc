#include "exec/sort.h"

#include <algorithm>
#include <numeric>

#include "util/logging.h"

namespace cstore {
namespace exec {

SortOp::SortOp(const Spec& spec) : spec_(spec) {
  CSTORE_CHECK(spec_.input != nullptr);
}

void SortOp::PushLimited(const TupleChunk& in, size_t row) {
  // heap_ is a max-heap in sort order: the top is the worst retained row,
  // the one a better incoming row evicts.
  auto worse = [this](size_t a, size_t b) {
    return SortRowLess(rows_.value(a, spec_.sort_slot), rows_.position(a),
                       rows_.value(b, spec_.sort_slot), rows_.position(b),
                       spec_.desc);
  };
  const Value key = in.value(row, spec_.sort_slot);
  const Position pos = in.position(row);
  if (heap_.size() == spec_.limit) {
    const size_t top = heap_.front();
    if (!SortRowLess(key, pos, rows_.value(top, spec_.sort_slot),
                     rows_.position(top), spec_.desc)) {
      return;
    }
    std::pop_heap(heap_.begin(), heap_.end(), worse);
    heap_.pop_back();
  }
  heap_.push_back(rows_.num_tuples());
  rows_.AppendTuple(pos, in.tuple(row));
  std::push_heap(heap_.begin(), heap_.end(), worse);
  // Evicted rows linger in rows_; compact once they dominate so memory
  // stays O(limit) regardless of input size.
  if (rows_.num_tuples() > std::max<size_t>(4 * spec_.limit, size_t{4096})) {
    CompactHeap();
  }
}

void SortOp::CompactHeap() {
  TupleChunk fresh;
  fresh.Reset(rows_.width());
  fresh.Reserve(heap_.size());
  // Rewriting indices slot-by-slot keeps each heap slot's row unchanged,
  // so the heap property survives the renumbering.
  for (size_t& idx : heap_) {
    const size_t ni = fresh.num_tuples();
    fresh.AppendTuple(rows_.position(idx), rows_.tuple(idx));
    idx = ni;
  }
  rows_ = std::move(fresh);
}

Status SortOp::Accumulate() {
  TupleChunk in;
  bool first = true;
  for (;;) {
    CSTORE_ASSIGN_OR_RETURN(bool has, spec_.input->Next(&in));
    if (!has) break;
    if (first) {
      rows_.Reset(in.width());
      first = false;
    }
    if (spec_.limit > 0) {
      for (size_t i = 0; i < in.num_tuples(); ++i) PushLimited(in, i);
    } else {
      rows_.Reserve(rows_.num_tuples() + in.num_tuples());
      for (size_t i = 0; i < in.num_tuples(); ++i) {
        rows_.AppendTuple(in.position(i), in.tuple(i));
      }
    }
  }

  std::vector<size_t> order;
  if (spec_.limit > 0) {
    order = std::move(heap_);
  } else {
    order.resize(rows_.num_tuples());
    std::iota(order.begin(), order.end(), size_t{0});
  }
  std::sort(order.begin(), order.end(), [this](size_t a, size_t b) {
    return SortRowLess(rows_.value(a, spec_.sort_slot), rows_.position(a),
                       rows_.value(b, spec_.sort_slot), rows_.position(b),
                       spec_.desc);
  });
  run_.Reset(rows_.width());
  run_.Reserve(order.size());
  for (size_t idx : order) {
    run_.AppendTuple(rows_.position(idx), rows_.tuple(idx));
  }
  rows_.Reset(0);
  accumulated_ = true;
  return Status::OK();
}

Result<bool> SortOp::NextImpl(TupleChunk* /*out*/) {
  if (!accumulated_) CSTORE_RETURN_IF_ERROR(Accumulate());
  return false;
}

bool MergeSortedRuns(const std::vector<const TupleChunk*>& runs,
                     uint32_t sort_slot, bool desc, uint64_t limit,
                     size_t chunk_rows,
                     const std::function<bool(TupleChunk&)>& consume) {
  struct Head {
    const TupleChunk* run;
    size_t next;
  };
  std::vector<Head> heads;
  uint32_t width = 0;
  uint64_t rows = 0;
  for (const TupleChunk* r : runs) {
    if (r == nullptr || r->empty()) continue;
    heads.push_back({r, 0});
    width = r->width();
    rows += r->num_tuples();
  }
  if (limit > 0) rows = std::min(rows, limit);
  TupleChunk out;
  auto flush = [&]() {
    if (out.empty()) return true;
    rows -= out.num_tuples();
    if (!consume(out)) return false;
    out.Reset(width);
    out.Reserve(std::min<uint64_t>(chunk_rows, rows));
    return true;
  };
  out.Reset(width);
  out.Reserve(std::min<uint64_t>(chunk_rows, rows));
  // Min-heap over run heads (comparator answers "a comes after b").
  auto after = [&](const Head& a, const Head& b) {
    return SortRowLess(b.run->value(b.next, sort_slot), b.run->position(b.next),
                       a.run->value(a.next, sort_slot), a.run->position(a.next),
                       desc);
  };
  std::make_heap(heads.begin(), heads.end(), after);
  uint64_t emitted = 0;
  while (!heads.empty() && (limit == 0 || emitted < limit)) {
    std::pop_heap(heads.begin(), heads.end(), after);
    Head& h = heads.back();
    out.AppendTuple(h.run->position(h.next), h.run->tuple(h.next));
    ++emitted;
    if (++h.next < h.run->num_tuples()) {
      std::push_heap(heads.begin(), heads.end(), after);
    } else {
      heads.pop_back();
    }
    if (out.num_tuples() >= chunk_rows && !flush()) return false;
  }
  return flush();
}

}  // namespace exec
}  // namespace cstore
