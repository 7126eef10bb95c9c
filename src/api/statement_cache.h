// StatementCache: a thread-safe, lock-striped cache of parse+bind work,
// keyed by SQL text, shared across api::Connection sessions.
//
// Many concurrent sessions of a SQL front end run the same statement
// shapes; parsing and binding each one per session repeats identical
// catalog work. A Connection given a StatementCache
// (set_statement_cache) resolves Prepare(sql) through it: the first
// session to present a SQL string parses and binds it — *while holding
// the stripe lock*, so N racing sessions produce exactly one parse — and
// every later Prepare copies the immutable cached entry. Per-execution
// state is untouched: each session's PreparedStatement still captures its
// own snapshot, folds its own parameter predicates, and refreshes readers
// after compaction, so prepared-statement semantics are exactly those of
// an uncached Prepare.
//
// Entries are immutable once published (sessions copy, never mutate, the
// cached BoundSelect; the readers it references stay valid because
// retired column generations remain open for the Database's lifetime).
// Statements that fail to parse or bind are NOT cached — a statement that
// names a not-yet-created table succeeds once the table exists. Each
// stripe evicts FIFO past its capacity. The cache must outlive every
// Connection using it and belongs to one Database (entries embed that
// database's readers).

#ifndef CSTORE_API_STATEMENT_CACHE_H_
#define CSTORE_API_STATEMENT_CACHE_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "api/statement.h"
#include "db/database.h"
#include "sql/ast.h"
#include "util/status.h"

namespace cstore {
namespace api {

class StatementCache {
 public:
  struct Stats {
    uint64_t hits = 0;       // lookups served from the cache
    uint64_t misses = 0;     // lookups that parsed + bound (== parse count)
    uint64_t evictions = 0;  // entries dropped by FIFO capacity
  };

  /// An immutable parsed + bound statement, exactly as an uncached
  /// Connection::Prepare makes it (internal::ParseAndBind).
  using Entry = internal::ParsedAndBound;

  explicit StatementCache(size_t num_stripes = 8,
                          size_t max_entries_per_stripe = 128);

  StatementCache(const StatementCache&) = delete;
  StatementCache& operator=(const StatementCache&) = delete;

  /// Returns the cached entry for `sql`, parsing and binding against `db`
  /// on a miss. Concurrent callers with the same SQL serialize on the
  /// stripe and share one parse; callers with different SQL usually hit
  /// different stripes and proceed in parallel. Errors are returned, not
  /// cached.
  Result<std::shared_ptr<const Entry>> GetOrBind(db::Database* db,
                                                 const std::string& sql);

  Stats stats() const;
  void ResetStats();
  void Clear();
  size_t size() const;

 private:
  struct Stripe {
    mutable std::mutex mu;
    std::unordered_map<std::string, std::shared_ptr<const Entry>> map;
    std::vector<std::string> fifo;  // insertion order, for eviction
  };

  Stripe& StripeFor(const std::string& sql) {
    return stripes_[std::hash<std::string>()(sql) % stripes_.size()];
  }

  std::vector<Stripe> stripes_;
  const size_t max_entries_per_stripe_;
  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> misses_{0};
  std::atomic<uint64_t> evictions_{0};
};

}  // namespace api
}  // namespace cstore

#endif  // CSTORE_API_STATEMENT_CACHE_H_
