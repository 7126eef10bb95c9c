#include "util/logging.h"

#include <chrono>
#include <cstring>

namespace cstore {
namespace util {

namespace logging_internal {

std::atomic<int> g_log_level{static_cast<int>(LogLevel::kWarn)};

namespace {

// Monotonic seconds since the first log line of the process: under the
// pool scheduler many threads interleave lines, and a monotonic base makes
// their relative order and spacing legible (the system clock can step).
double MonotonicLogSeconds() {
  using Clock = std::chrono::steady_clock;
  static const Clock::time_point epoch = Clock::now();
  return std::chrono::duration<double>(Clock::now() - epoch).count();
}

// Small sequential id per logging thread — stable within a run, far more
// readable than the opaque pthread handle.
uint32_t LogThreadId() {
  static std::atomic<uint32_t> next{1};
  thread_local uint32_t id = next.fetch_add(1, std::memory_order_relaxed);
  return id;
}

}  // namespace

LogMessageSink::LogMessageSink(LogLevel level, const char* file, int line)
    : level_(level), file_(file), line_(line) {}

LogMessageSink::~LogMessageSink() {
  const double secs = MonotonicLogSeconds();
  // Strip the directory — the repo-relative basename is enough to find it.
  const char* base = std::strrchr(file_, '/');
  base = (base != nullptr) ? base + 1 : file_;
  std::string msg = stream_.str();
  std::fprintf(stderr, "[%12.6f] [t%02u] %s %s:%d: %s\n", secs,
               LogThreadId(), LogLevelName(level_), base, line_,
               msg.c_str());
}

}  // namespace logging_internal

void SetLogLevel(LogLevel level) {
  logging_internal::g_log_level.store(static_cast<int>(level),
                                      std::memory_order_relaxed);
}

std::optional<LogLevel> ParseLogLevel(const std::string& text) {
  std::string lower;
  lower.reserve(text.size());
  for (char c : text) {
    lower.push_back(
        static_cast<char>(c >= 'A' && c <= 'Z' ? c - 'A' + 'a' : c));
  }
  if (lower == "debug") return LogLevel::kDebug;
  if (lower == "info") return LogLevel::kInfo;
  if (lower == "warn" || lower == "warning") return LogLevel::kWarn;
  if (lower == "error") return LogLevel::kError;
  return std::nullopt;
}

const char* LogLevelName(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug:
      return "DEBUG";
    case LogLevel::kInfo:
      return "INFO";
    case LogLevel::kWarn:
      return "WARN";
    case LogLevel::kError:
      return "ERROR";
  }
  return "?";
}

}  // namespace util

namespace internal {

void CheckFailed(const char* file, int line, const char* expr,
                 const std::string& extra) {
  std::fprintf(stderr, "CHECK failed at %s:%d: %s%s%s\n", file, line, expr,
               extra.empty() ? "" : " — ", extra.c_str());
  std::fflush(stderr);
  std::abort();
}

}  // namespace internal
}  // namespace cstore
