#include "db/database.h"

#include <algorithm>
#include <charconv>
#include <ostream>
#include <string>
#include <vector>

#include "base/logging.h"
#include "base/strings.h"

namespace ontorew {
namespace {
const std::vector<int>& EmptyIndexVector() {
  static const auto& empty = *new std::vector<int>();
  return empty;
}

void AppendValue(Value value, const Vocabulary& vocab, std::string* out) {
  if (value.is_constant()) {
    out->append(vocab.ConstantName(value.id()));
    return;
  }
  char digits[16];
  const char* end =
      std::to_chars(digits, digits + sizeof(digits), value.id()).ptr;
  out->append("_:n");
  out->append(digits, static_cast<std::size_t>(end - digits));
}
}  // namespace

std::string ToString(Value value, const Vocabulary& vocab) {
  std::string out;
  AppendValue(value, vocab, &out);
  return out;
}

void AppendTuple(const Tuple& tuple, const Vocabulary& vocab,
                 std::string* out) {
  out->push_back('(');
  for (std::size_t i = 0; i < tuple.size(); ++i) {
    if (i > 0) out->append(", ");
    AppendValue(tuple[i], vocab, out);
  }
  out->push_back(')');
}

std::string ToString(const Tuple& tuple, const Vocabulary& vocab) {
  std::string out;
  AppendTuple(tuple, vocab, &out);
  return out;
}

void PrintTo(Value value, std::ostream* os) {
  *os << (value.is_constant() ? "#" : "_:n") << value.id();
}

Relation::Relation(int arity) : arity_(arity) {
  OREW_CHECK(arity >= 0);
  index_.resize(static_cast<std::size_t>(arity));
}

bool Relation::Insert(Tuple tuple) {
  OREW_CHECK(static_cast<int>(tuple.size()) == arity_)
      << "tuple arity " << tuple.size() << " vs relation arity " << arity_;
  if (!present_.insert(tuple).second) return false;
  int index = size();
  for (int c = 0; c < arity_; ++c) {
    index_[static_cast<std::size_t>(c)][tuple[static_cast<std::size_t>(c)]]
        .push_back(index);
  }
  tuples_.push_back(std::move(tuple));
  return true;
}

bool Relation::Contains(const Tuple& tuple) const {
  return present_.count(tuple) > 0;
}

const std::vector<int>& Relation::TuplesWith(int column, Value value) const {
  OREW_CHECK(column >= 0 && column < arity_);
  const auto& column_index = index_[static_cast<std::size_t>(column)];
  auto it = column_index.find(value);
  return it == column_index.end() ? EmptyIndexVector() : it->second;
}

Relation& Database::GetOrCreate(PredicateId predicate, int arity) {
  auto it = relations_.find(predicate);
  if (it == relations_.end()) {
    it = relations_.emplace(predicate, Relation(arity)).first;
  }
  OREW_CHECK(it->second.arity() == arity)
      << "predicate " << predicate << " used with arity " << arity
      << " but stored with arity " << it->second.arity();
  return it->second;
}

const Relation* Database::Find(PredicateId predicate) const {
  auto it = relations_.find(predicate);
  return it == relations_.end() ? nullptr : &it->second;
}

bool Database::Insert(PredicateId predicate, Tuple tuple) {
  return GetOrCreate(predicate, static_cast<int>(tuple.size()))
      .Insert(std::move(tuple));
}

int Database::TotalTuples() const {
  int total = 0;
  for (const auto& [predicate, relation] : relations_) {
    total += relation.size();
  }
  return total;
}

std::vector<PredicateId> Database::PredicatesPresent() const {
  std::vector<PredicateId> predicates;
  predicates.reserve(relations_.size());
  for (const auto& [predicate, relation] : relations_) {
    predicates.push_back(predicate);
  }
  return predicates;
}

std::string Database::ToString(const Vocabulary& vocab) const {
  std::vector<std::string> lines;
  for (const auto& [predicate, relation] : relations_) {
    for (const Tuple& tuple : relation.tuples()) {
      lines.push_back(StrCat(vocab.PredicateName(predicate),
                             ontorew::ToString(tuple, vocab)));
    }
  }
  std::sort(lines.begin(), lines.end());
  return StrJoin(lines, "\n");
}

}  // namespace ontorew
