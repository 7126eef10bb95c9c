// FlatMap: the join build's insert-only hash table from int64 keys.
//
// One array of (key, value) slots, linear probing over a power-of-two
// capacity, sized once for the number of keys the caller will insert so
// the load never exceeds 1/2. A key's home slot is the top bits of a
// Fibonacci multiply-shift, which spreads dense and sparse key spaces
// alike. Slots are never erased or moved, so a pointer returned by Find
// stays valid for the table's lifetime, and a built table can be probed
// from any number of threads.
//
// Every int64 is a valid key. Empty slots hold kEmptyKey; the one entry
// whose key *is* kEmptyKey lives in a side slot instead.

#ifndef CSTORE_EXEC_FLAT_MAP_H_
#define CSTORE_EXEC_FLAT_MAP_H_

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <vector>

#include "util/common.h"
#include "util/logging.h"

namespace cstore {
namespace exec {

template <typename V>
class FlatMap {
 public:
  /// An empty table with room for `max_keys` distinct keys at load <= 1/2.
  explicit FlatMap(size_t max_keys = 0)
      : slots_(std::bit_ceil(std::max<size_t>(2, 2 * max_keys)),
               Slot{kEmptyKey, V{}}),
        mask_(slots_.size() - 1),
        shift_(64 - std::countr_zero(slots_.size())) {}

  /// Inserts (key, value) unless `key` is already present: the first
  /// insert of a key wins. Returns whether it inserted.
  bool Insert(Value key, V value) {
    if (key == kEmptyKey) {
      if (has_empty_key_) return false;
      has_empty_key_ = true;
      empty_key_value_ = value;
      ++size_;
      return true;
    }
    for (size_t i = Home(key);; i = (i + 1) & mask_) {
      Slot& s = slots_[i];
      if (s.key == key) return false;
      if (s.key == kEmptyKey) {
        // More keys than the table was sized for would break the load
        // bound, and with it the empty slot every probe stops at.
        CSTORE_CHECK(2 * (size_ + 1) <= slots_.size())
            << "FlatMap sized for " << slots_.size() / 2 << " keys";
        s.key = key;
        s.value = value;
        ++size_;
        return true;
      }
    }
  }

  /// The value stored for `key`, or nullptr.
  const V* Find(Value key) const {
    if (key == kEmptyKey) return has_empty_key_ ? &empty_key_value_ : nullptr;
    for (size_t i = Home(key);; i = (i + 1) & mask_) {
      const Slot& s = slots_[i];
      if (s.key == key) return &s.value;
      if (s.key == kEmptyKey) return nullptr;
    }
  }

  size_t size() const { return size_; }
  size_t capacity() const { return slots_.size(); }

 private:
  static constexpr Value kEmptyKey = std::numeric_limits<Value>::min();

  struct Slot {
    Value key;
    V value;
  };

  size_t Home(Value key) const {
    return static_cast<size_t>(
        (static_cast<uint64_t>(key) * UINT64_C(0x9E3779B97F4A7C15)) >>
        shift_);
  }

  std::vector<Slot> slots_;
  size_t mask_;
  int shift_;
  size_t size_ = 0;
  bool has_empty_key_ = false;
  V empty_key_value_{};
};

}  // namespace exec
}  // namespace cstore

#endif  // CSTORE_EXEC_FLAT_MAP_H_
