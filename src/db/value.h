#ifndef ONTOREW_DB_VALUE_H_
#define ONTOREW_DB_VALUE_H_

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "logic/vocabulary.h"

// Values stored in database relations: constants (from a Vocabulary) or
// labeled nulls (introduced by the chase for existential witnesses).

namespace ontorew {

enum class ValueKind : std::uint8_t { kConstant = 0, kNull = 1 };

class Value {
 public:
  Value() : kind_(ValueKind::kConstant), id_(0) {}

  static Value Constant(ConstantId id) {
    return Value(ValueKind::kConstant, id);
  }
  static Value Null(std::int32_t id) { return Value(ValueKind::kNull, id); }

  ValueKind kind() const { return kind_; }
  bool is_constant() const { return kind_ == ValueKind::kConstant; }
  bool is_null() const { return kind_ == ValueKind::kNull; }
  std::int32_t id() const { return id_; }

  friend bool operator==(Value a, Value b) {
    return a.kind_ == b.kind_ && a.id_ == b.id_;
  }
  friend bool operator!=(Value a, Value b) { return !(a == b); }
  friend bool operator<(Value a, Value b) {
    if (a.kind_ != b.kind_) return a.kind_ < b.kind_;
    return a.id_ < b.id_;
  }

  std::size_t Hash() const {
    std::uint64_t v = (static_cast<std::uint64_t>(kind_) << 32) |
                      static_cast<std::uint32_t>(id_);
    v *= 0xff51afd7ed558ccdULL;
    v ^= v >> 33;
    return static_cast<std::size_t>(v);
  }

 private:
  Value(ValueKind kind, std::int32_t id) : kind_(kind), id_(id) {}

  ValueKind kind_;
  std::int32_t id_;
};

struct ValueHash {
  std::size_t operator()(Value v) const { return v.Hash(); }
};

using Tuple = std::vector<Value>;

struct TupleHash {
  std::size_t operator()(const Tuple& tuple) const {
    std::size_t h = 0x9e3779b97f4a7c15ULL;
    for (Value v : tuple) h ^= v.Hash() + (h << 6) + (h >> 2);
    return h;
  }
};

// "alice" for constants, "_:n7" for nulls.
std::string ToString(Value value, const Vocabulary& vocab);
// Appends "(alice, _:n7)" to *out.
void AppendTuple(const Tuple& tuple, const Vocabulary& vocab,
                 std::string* out);
// "(alice, _:n7)".
std::string ToString(const Tuple& tuple, const Vocabulary& vocab);

// gtest's printer for values, which have no vocabulary at hand: "#3" for
// constant 3, "_:n7" for null 7. A Tuple prints as "{ #3, _:n7 }".
void PrintTo(Value value, std::ostream* os);

}  // namespace ontorew

#endif  // ONTOREW_DB_VALUE_H_
