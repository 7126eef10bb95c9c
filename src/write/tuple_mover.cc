#include "write/tuple_mover.h"

#include <chrono>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/logging.h"

namespace cstore {
namespace write {

TupleMover::TupleMover(Hooks hooks, sched::Scheduler* scheduler,
                       Options options)
    : hooks_(std::move(hooks)), scheduler_(scheduler), options_(options) {
  CSTORE_CHECK(hooks_.list_tables && hooks_.pending_rows && hooks_.compact);
  CSTORE_CHECK(scheduler_ != nullptr);
  thread_ = std::thread([this] { Loop(); });
}

TupleMover::TupleMover(Hooks hooks, sched::Scheduler* scheduler)
    : TupleMover(std::move(hooks), scheduler, Options()) {}

TupleMover::~TupleMover() { Stop(); }

void TupleMover::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stop_) return;
    stop_ = true;
  }
  cv_.notify_all();
  if (thread_.joinable()) thread_.join();
}

uint64_t TupleMover::moves_completed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return moves_;
}

Status TupleMover::CompactEligible(uint64_t threshold) {
  std::vector<std::string> eligible;
  for (const std::string& table : hooks_.list_tables()) {
    uint64_t pending = hooks_.pending_rows(table);
    if (pending > 0 && pending >= threshold) eligible.push_back(table);
  }
  if (eligible.empty()) return Status::OK();
  // One job for the whole pass: compactions serialize on the database's
  // compaction lock anyway, so submitting them individually would only
  // park claimed workers on a mutex and starve query morsels.
  sched::QueryTicket ticket = scheduler_->SubmitJob(
      [this, eligible] {
        static obs::Counter* moves_metric =
            obs::MetricsRegistry::Global().GetCounter(
                "cstore_tuple_mover_moves_total",
                "Write-store compactions completed by the TupleMover");
        Status first_error;
        for (const std::string& table : eligible) {
          Status st;
          {
            obs::SpanTimer span("tuple_mover_compact", "write");
            if (span.active()) {
              span.Arg("pending_rows",
                       static_cast<int64_t>(hooks_.pending_rows(table)));
            }
            st = hooks_.compact(table);
          }
          if (!st.ok()) {
            CSTORE_LOG(kWarn) << "compaction of '" << table
                              << "' failed: " << st.ToString();
            if (first_error.ok()) first_error = st;
          }
          if (st.ok()) {
            if (moves_metric != nullptr) moves_metric->Inc();
            std::lock_guard<std::mutex> lock(mu_);
            ++moves_;
          }
        }
        return first_error;
      },
      /*priority=*/1);
  return ticket.Wait().status;
}

Status TupleMover::ForceCompaction() { return CompactEligible(1); }

void TupleMover::Loop() {
  std::unique_lock<std::mutex> lock(mu_);
  while (!stop_) {
    cv_.wait_for(lock, std::chrono::milliseconds(options_.poll_millis),
                 [this] { return stop_; });
    if (stop_) break;
    lock.unlock();
    // Best-effort: a failing compaction leaves the rows pending; the next
    // pass retries. (Persistent failures keep the write store growing —
    // surfacing them via a health counter is a follow-up.)
    (void)CompactEligible(options_.threshold_rows);
    lock.lock();
  }
}

}  // namespace write
}  // namespace cstore
