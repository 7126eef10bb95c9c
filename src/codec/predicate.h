// SARGable single-column predicates (Selinger et al. [15]); these are pushed
// down into data sources, which evaluate them with encoding-specific fast
// paths (once per RLE run; by ORing bit-strings for bit-vector columns).
// Loops over individual values fix the comparison once per block
// (Predicate::Dispatch) rather than switching on the operator per value.

#ifndef CSTORE_CODEC_PREDICATE_H_
#define CSTORE_CODEC_PREDICATE_H_

#include <string>

#include "util/common.h"

namespace cstore {
namespace codec {

class Predicate {
 public:
  enum class Op {
    kTrue,     // matches everything (no predicate)
    kLess,
    kLessEq,
    kEqual,
    kNotEqual,
    kGreaterEq,
    kGreater,
    kBetween,  // a <= v <= b
  };

  Predicate() : op_(Op::kTrue), a_(0), b_(0) {}

  static Predicate True() { return Predicate(); }
  static Predicate LessThan(Value v) { return Predicate(Op::kLess, v, v); }
  static Predicate LessEqual(Value v) { return Predicate(Op::kLessEq, v, v); }
  static Predicate Equal(Value v) { return Predicate(Op::kEqual, v, v); }
  static Predicate NotEqual(Value v) { return Predicate(Op::kNotEqual, v, v); }
  static Predicate GreaterEqual(Value v) {
    return Predicate(Op::kGreaterEq, v, v);
  }
  static Predicate GreaterThan(Value v) {
    return Predicate(Op::kGreater, v, v);
  }
  static Predicate Between(Value lo, Value hi) {
    return Predicate(Op::kBetween, lo, hi);
  }

  Op op() const { return op_; }
  Value bound_a() const { return a_; }
  Value bound_b() const { return b_; }
  bool is_true() const { return op_ == Op::kTrue; }

  /// Finite ends of the selected value range: 2 for = and BETWEEN (and
  /// the two ranges of !=), 1 for a one-sided comparison, 0 for True. An
  /// index lookup (ColumnReader::PositionRangeFor) searches once per end.
  int num_bounds() const {
    switch (op_) {
      case Op::kTrue:
        return 0;
      case Op::kLess:
      case Op::kLessEq:
      case Op::kGreaterEq:
      case Op::kGreater:
        return 1;
      case Op::kEqual:
      case Op::kNotEqual:
      case Op::kBetween:
        return 2;
    }
    return 0;
  }

  bool Eval(Value v) const {
    switch (op_) {
      case Op::kTrue:
        return true;
      case Op::kLess:
        return v < a_;
      case Op::kLessEq:
        return v <= a_;
      case Op::kEqual:
        return v == a_;
      case Op::kNotEqual:
        return v != a_;
      case Op::kGreaterEq:
        return v >= a_;
      case Op::kGreater:
        return v > a_;
      case Op::kBetween:
        return v >= a_ && v <= b_;
    }
    return false;
  }

  /// Returns fn(cmp), where cmp(Value) -> bool is this predicate's
  /// comparison with the operator fixed. A loop over many values calls this
  /// once and runs cmp in its body, instead of Eval's switch per value.
  template <typename Fn>
  decltype(auto) Dispatch(Fn&& fn) const {
    const Value a = a_;
    const Value b = b_;
    switch (op_) {
      case Op::kTrue:
        return fn([](Value) { return true; });
      case Op::kLess:
        return fn([a](Value v) { return v < a; });
      case Op::kLessEq:
        return fn([a](Value v) { return v <= a; });
      case Op::kEqual:
        return fn([a](Value v) { return v == a; });
      case Op::kNotEqual:
        return fn([a](Value v) { return v != a; });
      case Op::kGreaterEq:
        return fn([a](Value v) { return v >= a; });
      case Op::kGreater:
        return fn([a](Value v) { return v > a; });
      case Op::kBetween:
        break;
    }
    return fn([a, b](Value v) { return (v >= a) & (v <= b); });
  }

  std::string ToString() const;

 private:
  Predicate(Op op, Value a, Value b) : op_(op), a_(a), b_(b) {}

  Op op_;
  Value a_;
  Value b_;
};

}  // namespace codec
}  // namespace cstore

#endif  // CSTORE_CODEC_PREDICATE_H_
