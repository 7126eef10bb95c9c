#include "api/statement_cache.h"

namespace cstore {
namespace api {

StatementCache::StatementCache(size_t num_stripes,
                               size_t max_entries_per_stripe)
    : stripes_(num_stripes == 0 ? 1 : num_stripes),
      max_entries_per_stripe_(max_entries_per_stripe == 0
                                  ? 1
                                  : max_entries_per_stripe) {}

Result<std::shared_ptr<const StatementCache::Entry>> StatementCache::GetOrBind(
    db::Database* db, const std::string& sql) {
  Stripe& stripe = StripeFor(sql);
  std::lock_guard<std::mutex> lock(stripe.mu);
  auto it = stripe.map.find(sql);
  if (it != stripe.map.end()) {
    hits_.fetch_add(1, std::memory_order_relaxed);
    return it->second;
  }

  // Miss: parse + bind while holding the stripe lock. Deliberate — a racing
  // second session with the same SQL blocks here and then *hits*, which is
  // the single-parse guarantee. Catalog locks nest under the stripe lock;
  // nothing in the engine takes them the other way around.
  misses_.fetch_add(1, std::memory_order_relaxed);
  CSTORE_ASSIGN_OR_RETURN(Entry entry, internal::ParseAndBind(db, sql));
  if (stripe.fifo.size() >= max_entries_per_stripe_) {
    stripe.map.erase(stripe.fifo.front());
    stripe.fifo.erase(stripe.fifo.begin());
    evictions_.fetch_add(1, std::memory_order_relaxed);
  }
  stripe.fifo.push_back(sql);
  std::shared_ptr<const Entry> published =
      std::make_shared<Entry>(std::move(entry));
  stripe.map.emplace(sql, published);
  return published;
}

StatementCache::Stats StatementCache::stats() const {
  Stats out;
  out.hits = hits_.load(std::memory_order_relaxed);
  out.misses = misses_.load(std::memory_order_relaxed);
  out.evictions = evictions_.load(std::memory_order_relaxed);
  return out;
}

void StatementCache::ResetStats() {
  hits_.store(0, std::memory_order_relaxed);
  misses_.store(0, std::memory_order_relaxed);
  evictions_.store(0, std::memory_order_relaxed);
}

void StatementCache::Clear() {
  for (Stripe& s : stripes_) {
    std::lock_guard<std::mutex> lock(s.mu);
    s.map.clear();
    s.fifo.clear();
  }
}

size_t StatementCache::size() const {
  size_t n = 0;
  for (const Stripe& s : stripes_) {
    std::lock_guard<std::mutex> lock(s.mu);
    n += s.map.size();
  }
  return n;
}

}  // namespace api
}  // namespace cstore
