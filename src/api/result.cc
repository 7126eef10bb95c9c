#include "api/result.h"

#include "exec/chunk_pool.h"

namespace cstore {
namespace api {

exec::TupleChunk ProjectChunk(const std::vector<uint32_t>& output_slots,
                              exec::TupleChunk&& in) {
  bool identity = output_slots.empty();
  if (!identity && in.width() == output_slots.size()) {
    identity = true;
    for (uint32_t i = 0; i < output_slots.size(); ++i) {
      if (output_slots[i] != i) {
        identity = false;
        break;
      }
    }
  }
  if (identity) return std::move(in);
  exec::TupleChunk out(static_cast<uint32_t>(output_slots.size()));
  out.Reserve(in.num_tuples());
  for (size_t i = 0; i < in.num_tuples(); ++i) {
    Value* slots = out.AppendTuple(in.position(i));
    for (uint32_t c = 0; c < output_slots.size(); ++c) {
      slots[c] = in.value(i, output_slots[c]);
    }
  }
  return out;
}

// --- ChunkQueue -------------------------------------------------------------

bool ChunkQueue::Push(const exec::TupleChunk& chunk) {
  std::unique_lock<std::mutex> lock(mu_);
  can_push_.wait(lock,
                 [this] { return chunks_.size() < capacity_ || cancelled_; });
  if (cancelled_) return false;
  const uint64_t values =
      chunk.num_tuples() * (chunk.width() == 0 ? 1 : chunk.width());
  buffered_values_ += values;
  peak_buffered_values_ = std::max(peak_buffered_values_, buffered_values_);
  if (byte_account_ != nullptr) {
    byte_account_->fetch_add(static_cast<int64_t>(values * sizeof(Value)),
                             std::memory_order_relaxed);
  }
  chunks_.push_back(chunk);
  lock.unlock();
  can_pop_.notify_one();
  return true;
}

void ChunkQueue::Finish() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    finished_ = true;
  }
  can_pop_.notify_all();
}

bool ChunkQueue::Pop(exec::TupleChunk* out) {
  std::unique_lock<std::mutex> lock(mu_);
  can_pop_.wait(lock, [this] {
    return !chunks_.empty() || finished_ || cancelled_;
  });
  if (chunks_.empty() || cancelled_) return false;
  *out = std::move(chunks_.front());
  chunks_.pop_front();
  const uint64_t values =
      out->num_tuples() * (out->width() == 0 ? 1 : out->width());
  buffered_values_ -= values;
  if (byte_account_ != nullptr) {
    byte_account_->fetch_sub(static_cast<int64_t>(values * sizeof(Value)),
                             std::memory_order_relaxed);
  }
  lock.unlock();
  can_push_.notify_one();
  return true;
}

void ChunkQueue::Cancel() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    cancelled_ = true;
    chunks_.clear();
    if (byte_account_ != nullptr && buffered_values_ != 0) {
      byte_account_->fetch_sub(
          static_cast<int64_t>(buffered_values_ * sizeof(Value)),
          std::memory_order_relaxed);
    }
    buffered_values_ = 0;
  }
  can_push_.notify_all();
  can_pop_.notify_all();
}

uint64_t ChunkQueue::peak_buffered_values() const {
  std::lock_guard<std::mutex> lock(mu_);
  return peak_buffered_values_;
}

// --- PendingResult ----------------------------------------------------------

Result<QueryResult> PendingResult::Wait() {
  CSTORE_RETURN_IF_ERROR(early_);
  if (immediate_.has_value()) return std::move(*immediate_);
  const sched::ExecResult r = ticket_.Wait();
  CSTORE_RETURN_IF_ERROR(r.status);
  QueryResult out = std::move(*buffer_);
  out.stats = r.stats;
  out.tuples = ProjectChunk(output_slots_, std::move(out.tuples));
  out.column_names = std::move(column_names_);
  out.strategy = strategy_;
  return out;
}

bool PendingResult::Done() const {
  if (!early_.ok() || immediate_.has_value()) return true;
  return ticket_.Done();
}

// --- RowCursor --------------------------------------------------------------

RowCursor::~RowCursor() {
  if (queue_ == nullptr || finished_) return;
  queue_->Cancel();
  if (ticket_.valid()) ticket_.Wait();  // drain before the queue dies
}

Status RowCursor::FinishStream() {
  const sched::ExecResult r = ticket_.Wait();
  stats_ = r.stats;
  final_status_ = r.status;
  finished_ = true;
  own_scheduler_.reset();
  return final_status_;
}

Result<bool> RowCursor::Next(exec::TupleChunk* chunk) {
  if (!valid()) {
    return Status::Internal("Next on a default-constructed RowCursor");
  }
  if (finished_) {
    CSTORE_RETURN_IF_ERROR(final_status_);
    if (held_.empty()) return false;
    *chunk = ProjectChunk(output_slots_, std::move(held_));
    held_ = exec::TupleChunk();
    return true;
  }
  exec::TupleChunk raw;
  if (queue_->Pop(&raw)) {
    *chunk = ProjectChunk(output_slots_, std::move(raw));
    return true;
  }
  CSTORE_RETURN_IF_ERROR(FinishStream());
  return false;
}

Result<QueryResult> RowCursor::FetchAll() {
  QueryResult out;
  exec::PooledChunk chunk_handle = exec::AcquireChunk();
  exec::TupleChunk& chunk = *chunk_handle;
  while (true) {
    Result<bool> has = Next(&chunk);
    CSTORE_RETURN_IF_ERROR(has.status());
    if (!*has) break;
    out.tuples.Append(chunk);
  }
  if (out.tuples.empty() && !output_slots_.empty()) {
    // Empty stream: still present the projected output width, exactly as
    // the materialized path does for zero-row results.
    out.tuples.Reset(static_cast<uint32_t>(output_slots_.size()));
  }
  out.stats = stats_;
  out.column_names = column_names_;
  out.strategy = strategy_;
  return out;
}

uint64_t RowCursor::peak_buffered_bytes() const {
  return queue_ == nullptr ? held_bytes_
                           : queue_->peak_buffered_values() * sizeof(Value);
}

}  // namespace api
}  // namespace cstore
