// Memory-pressure admission control for the SQL server: decide, *before*
// any work happens, whether a request may enter the scheduler — and shed it
// with a clean retryable error (Status::Unavailable → HTTP 503) when the
// engine is saturated. Two pressure signals, both read from instruments the
// engine already maintains rather than new counters:
//
//   * in-flight queries — the scheduler's cstore_sched_inflight_queries
//     gauge (every submitted-but-unfinalized query, any session). It
//     counts pool work only: a statement whose plan touches at most one
//     window runs on its handler thread (api/connection.h), so it passes
//     this gate like any other request but never adds to the count;
//   * buffered output bytes — the shared gauge every server session's
//     ChunkQueue accounts into (Connection::Settings::stream_byte_account):
//     results produced but not yet drained to clients, i.e. the memory a
//     slow reader is holding.
//
// Priority classes buy headroom, not exemption: a low-priority request is
// refused once the engine passes half its capacity, normal at three
// quarters, high only at the full cap — so when load climbs, background
// traffic sheds first and interactive traffic keeps landing. Within the
// scheduler, the classes map to weighted-round-robin priorities (1/2/4
// consecutive morsel claims), which is what keeps admitted low-priority
// queries starvation-free: they always hold at least one claim per
// rotation.

#ifndef CSTORE_SERVER_ADMISSION_H_
#define CSTORE_SERVER_ADMISSION_H_

#include <atomic>
#include <cstdint>
#include <string>

#include "util/status.h"

namespace cstore {

namespace obs {
class Gauge;
}  // namespace obs

namespace server {

/// Client-visible priority classes (the /query `priority` parameter).
enum class PriorityClass { kLow, kNormal, kHigh };

const char* PriorityClassName(PriorityClass c);
Result<PriorityClass> ParsePriorityClass(const std::string& name);

/// Scheduler priority (consecutive morsel claims per rotation) each class
/// maps to: low = 1, normal = 2, high = 4.
int SchedulerPriority(PriorityClass c);

/// Fraction of each admission cap available to this class (0.5 / 0.75 / 1).
double HeadroomFraction(PriorityClass c);

class AdmissionController {
 public:
  struct Options {
    // Cap on scheduler-in-flight queries; 0 disables the check.
    int max_inflight = 32;
    // Cap on result bytes buffered across all sessions' streaming queues;
    // 0 disables the check.
    int64_t max_buffered_bytes = 64 << 20;
  };

  /// `buffered_bytes` is the shared per-server output gauge (not owned;
  /// may be null, which disables the byte check like a 0 cap).
  AdmissionController(Options options,
                      const std::atomic<int64_t>* buffered_bytes);

  /// OK to run, or Status::Unavailable explaining which cap refused the
  /// request (in-flight or buffered bytes), at what level, and that a
  /// retry later is safe. Purely a read of two gauges — never blocks.
  Status Admit(PriorityClass c) const;

  const Options& options() const { return options_; }

 private:
  Options options_;
  const std::atomic<int64_t>* buffered_bytes_;  // not owned; may be null
  obs::Gauge* inflight_;                        // registry-owned
};

}  // namespace server
}  // namespace cstore

#endif  // CSTORE_SERVER_ADMISSION_H_
