// Minimal logging and invariant-checking macros.
//
// CSTORE_CHECK(cond) aborts with a message when cond is false (always on).
// CSTORE_DCHECK(cond) is compiled out in NDEBUG builds.
//
// CSTORE_LOG(level) streams a timestamped line to stderr when `level` is at
// or above the process log level (default kWarn; see util::SetLogLevel and
// sql_shell's --log-level= flag):
//   CSTORE_LOG(kInfo) << "compacted " << n << " rows";
// Levels below the threshold cost one relaxed atomic load and skip the
// stream entirely.

#ifndef CSTORE_UTIL_LOGGING_H_
#define CSTORE_UTIL_LOGGING_H_

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <sstream>
#include <string>

namespace cstore {
namespace util {

enum class LogLevel : int { kDebug = 0, kInfo = 1, kWarn = 2, kError = 3 };

/// Sets the process-wide minimum level actually emitted.
void SetLogLevel(LogLevel level);

/// Parses "debug" / "info" / "warn" / "error" (case-insensitive);
/// nullopt on anything else.
std::optional<LogLevel> ParseLogLevel(const std::string& text);

const char* LogLevelName(LogLevel level);

namespace logging_internal {

extern std::atomic<int> g_log_level;

inline bool LogEnabled(LogLevel level) {
  return static_cast<int>(level) >=
         g_log_level.load(std::memory_order_relaxed);
}

/// Stream sink that emits one formatted line to stderr on destruction.
class LogMessageSink {
 public:
  LogMessageSink(LogLevel level, const char* file, int line);
  ~LogMessageSink();

  template <typename T>
  LogMessageSink& operator<<(const T& v) {
    stream_ << v;
    return *this;
  }

 private:
  LogLevel level_;
  const char* file_;
  int line_;
  std::ostringstream stream_;
};

}  // namespace logging_internal
}  // namespace util

namespace internal {

[[noreturn]] void CheckFailed(const char* file, int line, const char* expr,
                              const std::string& extra);

/// Stream sink that aborts on destruction; lets CHECK carry a message:
///   CSTORE_CHECK(x > 0) << "x was " << x;
class CheckMessageSink {
 public:
  CheckMessageSink(const char* file, int line, const char* expr)
      : file_(file), line_(line), expr_(expr) {}

  [[noreturn]] ~CheckMessageSink() {
    CheckFailed(file_, line_, expr_, stream_.str());
  }

  template <typename T>
  CheckMessageSink& operator<<(const T& v) {
    stream_ << v;
    return *this;
  }

 private:
  const char* file_;
  int line_;
  const char* expr_;
  std::ostringstream stream_;
};

/// Lowers the streamed sink expression to void so it can sit in the else
/// branch of the CHECK ternary ('&' binds looser than '<<').
struct Voidify {
  void operator&(CheckMessageSink&) {}
  void operator&(CheckMessageSink&&) {}
  void operator&(util::logging_internal::LogMessageSink&) {}
  void operator&(util::logging_internal::LogMessageSink&&) {}
};

}  // namespace internal
}  // namespace cstore

#define CSTORE_LOG(level)                                                  \
  !::cstore::util::logging_internal::LogEnabled(                           \
      ::cstore::util::LogLevel::level)                                     \
      ? (void)0                                                            \
      : ::cstore::internal::Voidify() &                                    \
            ::cstore::util::logging_internal::LogMessageSink(              \
                ::cstore::util::LogLevel::level, __FILE__, __LINE__)

#define CSTORE_CHECK(cond)                                       \
  (cond) ? (void)0                                               \
         : ::cstore::internal::Voidify() &                       \
               ::cstore::internal::CheckMessageSink(__FILE__, __LINE__, #cond)

#define CSTORE_CHECK_OK(expr)                                   \
  do {                                                          \
    ::cstore::Status _st = (expr);                              \
    CSTORE_CHECK(_st.ok()) << _st.ToString();                   \
  } while (0)

#ifdef NDEBUG
#define CSTORE_DCHECK(cond) \
  while (false) CSTORE_CHECK(cond)
#else
#define CSTORE_DCHECK(cond) CSTORE_CHECK(cond)
#endif

#endif  // CSTORE_UTIL_LOGGING_H_
