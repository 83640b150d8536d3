#include <algorithm>
#include <cstdint>
#include <map>
#include <set>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "base/rng.h"
#include "chase/chase.h"
#include "db/database.h"
#include "db/eval.h"
#include "gtest/gtest.h"
#include "test_util.h"
#include "workload/generators.h"

namespace ontorew {
namespace {

// A tiny fixture database:
//   edge(a,b), edge(b,c), edge(c,a), label(b).
class EvalTest : public ::testing::Test {
 protected:
  void SetUp() override {
    edge_ = vocab_.MustPredicate("edge", 2);
    label_ = vocab_.MustPredicate("label", 1);
    a_ = Value::Constant(vocab_.InternConstant("a"));
    b_ = Value::Constant(vocab_.InternConstant("b"));
    c_ = Value::Constant(vocab_.InternConstant("c"));
    db_.Insert(edge_, {a_, b_});
    db_.Insert(edge_, {b_, c_});
    db_.Insert(edge_, {c_, a_});
    db_.Insert(label_, {b_});
  }

  Vocabulary vocab_;
  Database db_;
  PredicateId edge_, label_;
  Value a_, b_, c_;
};

TEST_F(EvalTest, SingleAtomScan) {
  ConjunctiveQuery cq = MustQuery("q(X, Y) :- edge(X, Y).", &vocab_);
  std::vector<Tuple> answers = Evaluate(cq, db_);
  EXPECT_EQ(answers.size(), 3u);
}

TEST_F(EvalTest, ConstantSelection) {
  ConjunctiveQuery cq = MustQuery("q(Y) :- edge(a, Y).", &vocab_);
  std::vector<Tuple> answers = Evaluate(cq, db_);
  ASSERT_EQ(answers.size(), 1u);
  EXPECT_EQ(answers[0], Tuple{b_});
}

TEST_F(EvalTest, JoinChain) {
  ConjunctiveQuery cq = MustQuery("q(X, Z) :- edge(X, Y), edge(Y, Z).",
                                  &vocab_);
  std::vector<Tuple> answers = Evaluate(cq, db_);
  // a->b->c, b->c->a, c->a->b.
  EXPECT_EQ(answers.size(), 3u);
}

TEST_F(EvalTest, CrossPredicateJoin) {
  ConjunctiveQuery cq = MustQuery("q(X) :- edge(X, Y), label(Y).", &vocab_);
  std::vector<Tuple> answers = Evaluate(cq, db_);
  ASSERT_EQ(answers.size(), 1u);
  EXPECT_EQ(answers[0], Tuple{a_});
}

TEST_F(EvalTest, RepeatedVariableInAtom) {
  db_.Insert(edge_, {b_, b_});
  ConjunctiveQuery cq = MustQuery("q(X) :- edge(X, X).", &vocab_);
  std::vector<Tuple> answers = Evaluate(cq, db_);
  ASSERT_EQ(answers.size(), 1u);
  EXPECT_EQ(answers[0], Tuple{b_});
}

TEST_F(EvalTest, BooleanQuery) {
  ConjunctiveQuery yes = MustQuery("q() :- edge(a, X).", &vocab_);
  ConjunctiveQuery no = MustQuery("q() :- edge(b, a).", &vocab_);
  EXPECT_EQ(Evaluate(yes, db_).size(), 1u);  // The empty tuple.
  EXPECT_EQ(Evaluate(no, db_).size(), 0u);
}

TEST_F(EvalTest, MissingPredicateYieldsNothing) {
  ConjunctiveQuery cq = MustQuery("q(X) :- ghost(X).", &vocab_);
  EXPECT_TRUE(Evaluate(cq, db_).empty());
}

TEST_F(EvalTest, ArityMismatchIsACheckedFailure) {
  // A query atom whose arity disagrees with the stored relation is a
  // vocabulary/schema bug, not an empty result: treating it as "no
  // tuples" (as MissingPredicateYieldsNothing legitimately is) would
  // silently mask the bug. Construct the mismatched atom directly — the
  // parser-facing Vocabulary would reject re-interning edge/1.
  Atom unary_edge(edge_, {Term::Var(vocab_.InternVariable("X"))});
  ConjunctiveQuery cq(std::vector<Term>{unary_edge.term(0)}, {unary_edge});
  EXPECT_DEATH(Evaluate(cq, db_), "arity mismatch");
}

TEST_F(EvalTest, NullDroppingOption) {
  db_.Insert(edge_, {a_, db_.FreshNull()});
  ConjunctiveQuery cq = MustQuery("q(Y) :- edge(a, Y).", &vocab_);
  EXPECT_EQ(Evaluate(cq, db_).size(), 2u);
  EvalOptions drop;
  drop.drop_tuples_with_nulls = true;
  EXPECT_EQ(Evaluate(cq, db_, drop).size(), 1u);
}

TEST_F(EvalTest, NullsStillJoin) {
  // Nulls participate in joins (they are values); they are only dropped
  // from answer tuples under the option.
  Value n = db_.FreshNull();
  db_.Insert(edge_, {a_, n});
  db_.Insert(edge_, {n, c_});
  ConjunctiveQuery cq = MustQuery("q(X, Z) :- edge(X, Y), edge(Y, Z).",
                                  &vocab_);
  EvalOptions drop;
  drop.drop_tuples_with_nulls = true;
  std::vector<Tuple> answers = Evaluate(cq, db_, drop);
  // a->n->c joins and (a, c) is null-free.
  EXPECT_NE(std::find(answers.begin(), answers.end(), Tuple({a_, c_})),
            answers.end());
}

TEST_F(EvalTest, UcqUnionsAndDedupes) {
  UnionOfCqs ucq;
  ucq.Add(MustQuery("q(X) :- edge(X, b).", &vocab_));   // a
  ucq.Add(MustQuery("q(X) :- edge(X, Y), label(Y).", &vocab_));  // a again
  ucq.Add(MustQuery("q(X) :- label(X).", &vocab_));     // b
  std::vector<Tuple> answers = Evaluate(ucq, db_);
  EXPECT_EQ(answers.size(), 2u);
}

TEST_F(EvalTest, ConstantAnswerTerm) {
  ConjunctiveQuery cq(std::vector<Term>{Term::Const(vocab_.InternConstant(
                          "marker"))},
                      {MustAtom("label(b)", &vocab_)});
  std::vector<Tuple> answers = Evaluate(cq, db_);
  ASSERT_EQ(answers.size(), 1u);
  EXPECT_EQ(ToString(answers[0][0], vocab_), "marker");
}

// True iff `atoms` have a match in `db` extending `initial`; the first
// match stops the enumeration.
bool AnyMatch(const std::vector<Atom>& atoms, const Database& db,
              std::span<const SlotBinding> initial = {}) {
  bool found = false;
  int calls = 0;
  Status status = ForEachMatch(atoms, db, initial, CancelScope(), nullptr,
                               [&](SlotView) {
                                 found = true;
                                 ++calls;
                                 return false;
                               });
  EXPECT_TRUE(status.ok()) << status;
  EXPECT_LE(calls, 1);
  return found;
}

TEST_F(EvalTest, ForEachMatchStopsEarly) {
  EXPECT_TRUE(AnyMatch({MustAtom("edge(X, Y)", &vocab_)}, db_));
  EXPECT_FALSE(AnyMatch({MustAtom("edge(b, a)", &vocab_)}, db_));
}

TEST_F(EvalTest, ForEachMatchWithInitialBinding) {
  // Slots follow first occurrence: X is slot 0, Y slot 1.
  Atom atom = MustAtom("edge(X, Y)", &vocab_);
  const std::vector<SlotBinding> initial = {{0, c_}};
  EXPECT_TRUE(AnyMatch({atom}, db_, initial));  // c -> a exists.
  const std::vector<SlotBinding> impossible = {{0, b_}, {1, a_}};
  EXPECT_FALSE(AnyMatch({atom}, db_, impossible));
}

TEST_F(EvalTest, ForEachMatchRejectsOutOfRangeSlot) {
  const std::vector<SlotBinding> initial = {{2, a_}};
  Status status =
      ForEachMatch({MustAtom("edge(X, Y)", &vocab_)}, db_, initial,
                   CancelScope(), nullptr, [](SlotView) { return true; });
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << status;
}

TEST_F(EvalTest, RepeatedVariablesAreCheckedNotProbed) {
  // A variable repeated inside one atom is bound at its first column and
  // checked at the others; it is never the index probe, because its slot
  // holds nothing for this atom until a tuple is read.
  const PredicateId t = vocab_.MustPredicate("t", 3);
  db_.Insert(edge_, {b_, b_});
  db_.Insert(t, {c_, a_, a_});
  db_.Insert(t, {c_, a_, b_});
  db_.Insert(t, {c_, b_, b_});
  db_.Insert(t, {a_, c_, c_});
  db_.Insert(t, {b_, a_, a_});
  db_.Insert(t, {b_, a_, c_});

  EXPECT_EQ(Evaluate(MustQuery("q(X) :- edge(X, X).", &vocab_), db_),
            (std::vector<Tuple>{{b_}}));
  EXPECT_EQ(Evaluate(MustQuery("q(X) :- t(c, X, X).", &vocab_), db_),
            (std::vector<Tuple>{{a_}, {b_}}));
  // Z is bound by the edge step, Y is bound at t's second column and
  // repeated at its third.
  EXPECT_EQ(
      Evaluate(MustQuery("q(X, Y) :- edge(X, Z), t(Z, Y, Y).", &vocab_), db_),
      (std::vector<Tuple>{{a_, a_}, {b_, a_}, {b_, b_}, {c_, c_}}));
  // The same repeat under a pre-bound slot: Z = c (slot 0 of t(Z, Y, Y)).
  const std::vector<SlotBinding> z_is_c = {{0, c_}};
  std::vector<Tuple> ys;
  ASSERT_TRUE(ForEachMatch({MustAtom("t(Z, Y, Y)", &vocab_)}, db_, z_is_c,
                           CancelScope(), nullptr,
                           [&ys](SlotView match) {
                             ys.push_back({match[1]});
                             return true;
                           })
                  .ok());
  std::sort(ys.begin(), ys.end());
  EXPECT_EQ(ys, (std::vector<Tuple>{{a_}, {b_}}));
}

TEST_F(EvalTest, ArityMismatchAfterEmptyRelationIsReported) {
  // The empty relation goes first (no bound positions either way, and it
  // is the smaller one), so no tuple ever reaches the mismatched atom —
  // the plan compiler still reports it.
  const PredicateId empty = vocab_.MustPredicate("empty", 1);
  db_.GetOrCreate(empty, 1);
  const Term x = Term::Var(vocab_.InternVariable("X"));
  Atom unary_edge(edge_, {x});
  ConjunctiveQuery cq(std::vector<Term>{x}, {Atom(empty, {x}), unary_edge});
  StatusOr<std::vector<Tuple>> answers = TryEvaluate(cq, db_);
  ASSERT_FALSE(answers.ok());
  EXPECT_EQ(answers.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(answers.status().message().find("arity mismatch"),
            std::string::npos)
      << answers.status();
  EXPECT_FALSE(ForEachMatch(cq.body(), db_, {}, CancelScope(), nullptr,
                            [](SlotView) { return true; })
                   .ok());
}

TEST_F(EvalTest, ZeroAryUnionAnswersEmptyTupleOrNothing) {
  UnionOfCqs yes;
  yes.Add(MustQuery("q() :- edge(X, Y).", &vocab_));  // Three matches.
  yes.Add(MustQuery("q() :- label(c).", &vocab_));    // None.
  EvalStats stats;
  StatusOr<std::vector<Tuple>> answers = TryEvaluate(yes, db_, {}, &stats);
  ASSERT_TRUE(answers.ok()) << answers.status();
  EXPECT_EQ(*answers, std::vector<Tuple>{Tuple()});
  EXPECT_EQ(stats.matches, 3);

  UnionOfCqs no;
  no.Add(MustQuery("q() :- edge(b, a).", &vocab_));
  no.Add(MustQuery("q() :- label(a).", &vocab_));
  answers = TryEvaluate(no, db_);
  ASSERT_TRUE(answers.ok()) << answers.status();
  EXPECT_TRUE(answers->empty());
}

// --- RowBuffer: distinct rows at insert --------------------------------------

// A random cell: a constant or a null, each from 600 ids.
Value RandomCell(Rng* rng) {
  const int id = rng->Uniform(600);
  return rng->Bernoulli(0.5) ? Value::Constant(id) : Value::Null(id);
}

TEST(RowBufferTest, KeepsDistinctRowsThroughRehashes) {
  for (int width : {1, 2, 3}) {
    SCOPED_TRACE(width);
    Rng rng(static_cast<std::uint64_t>(width) * 104729);
    std::vector<Tuple> pool;
    std::set<Tuple> distinct;
    while (distinct.size() < 1000) {
      Tuple row;
      for (int c = 0; c < width; ++c) row.push_back(RandomCell(&rng));
      if (distinct.insert(row).second) pool.push_back(row);
    }
    // 20k inserts: the first 1000 bring every pool row once, the rest
    // repeat them, so the 16-slot table grows through seven rehashes
    // while most inserts are duplicates.
    RowBuffer rows(width);
    std::size_t added = 0;
    for (int i = 0; i < 20000; ++i) {
      const Tuple& row = i < 1000 ? pool[static_cast<std::size_t>(i)]
                                  : pool[static_cast<std::size_t>(
                                        rng.Uniform(1000))];
      added += rows.AddRow(row.data()) ? 1 : 0;
    }
    EXPECT_EQ(added, distinct.size());
    EXPECT_EQ(rows.size(), distinct.size());
    EXPECT_EQ(rows.SortedUnique(),
              std::vector<Tuple>(distinct.begin(), distinct.end()));
  }
}

TEST(RowBufferTest, AppendMergesOverlappingBuffers) {
  const Value a = Value::Constant(1);
  const Value b = Value::Constant(2);
  const Value n = Value::Null(1);
  RowBuffer left(2);
  RowBuffer right(2);
  for (const Tuple& row : {Tuple{b, a}, Tuple{a, n}, Tuple{a, b}}) {
    left.AddRow(row.data());
  }
  for (const Tuple& row : {Tuple{a, n}, Tuple{n, n}, Tuple{b, a}}) {
    right.AddRow(row.data());
  }
  left.Append(std::move(right));
  EXPECT_EQ(right.size(), 0u);
  EXPECT_EQ(left.size(), 4u);
  EXPECT_EQ(left.SortedUnique(),
            (std::vector<Tuple>{{a, b}, {a, n}, {b, a}, {n, n}}));
  // An emptied buffer takes rows again.
  EXPECT_TRUE(right.AddRow(Tuple{a, a}.data()));
  EXPECT_EQ(right.SortedUnique(), (std::vector<Tuple>{{a, a}}));
}

TEST(RowBufferTest, ZeroWidthHoldsAtMostTheEmptyRow) {
  RowBuffer none(0);
  EXPECT_EQ(none.size(), 0u);
  EXPECT_EQ(none.SortedUnique(), std::vector<Tuple>());

  RowBuffer some(0);
  EXPECT_TRUE(some.AddRow(nullptr));
  for (int i = 0; i < 100; ++i) EXPECT_FALSE(some.AddRow(nullptr));
  EXPECT_EQ(some.size(), 1u);
  EXPECT_EQ(some.SortedUnique(), std::vector<Tuple>{Tuple()});
}

TEST_F(EvalTest, MixedArityUnionIsInvalid) {
  UnionOfCqs ucq;
  ucq.Add(MustQuery("q(X) :- label(X).", &vocab_));
  ucq.Add(MustQuery("q(X, Y) :- edge(X, Y).", &vocab_));
  StatusOr<std::vector<Tuple>> answers = TryEvaluate(ucq, db_);
  ASSERT_FALSE(answers.ok());
  EXPECT_EQ(answers.status().code(), StatusCode::kInvalidArgument);
}

// Reference evaluator: enumerate all assignments of `domain` values to the
// body variables brute-force, keeping those that agree with `fixed`.
std::set<Tuple> BruteForce(const ConjunctiveQuery& cq, const Database& db,
                           const std::vector<Value>& domain,
                           const std::map<VariableId, Value>& fixed = {}) {
  std::vector<VariableId> vars = DistinctVariables(cq.body());
  std::set<Tuple> result;
  std::vector<std::size_t> choice(vars.size(), 0);
  while (true) {
    std::map<VariableId, Value> binding;
    for (std::size_t i = 0; i < vars.size(); ++i) {
      binding.emplace(vars[i], domain[choice[i]]);
    }
    bool holds = true;
    for (const auto& [v, value] : fixed) {
      if (binding.at(v) != value) holds = false;
    }
    for (const Atom& atom : cq.body()) {
      if (!holds) break;
      const Relation* relation = db.Find(atom.predicate());
      Tuple tuple;
      for (Term t : atom.terms()) {
        tuple.push_back(t.is_constant() ? Value::Constant(t.id())
                                        : binding.at(t.id()));
      }
      if (relation == nullptr || !relation->Contains(tuple)) {
        holds = false;
      }
    }
    if (holds) {
      Tuple answer;
      for (Term t : cq.answer_terms()) {
        answer.push_back(t.is_constant() ? Value::Constant(t.id())
                                         : binding.at(t.id()));
      }
      result.insert(answer);
    }
    // Advance the odometer.
    std::size_t pos = 0;
    while (pos < vars.size() && ++choice[pos] == domain.size()) {
      choice[pos] = 0;
      ++pos;
    }
    if (pos == vars.size()) break;
    if (vars.empty()) break;
  }
  return result;
}

// The answers of `cq` over `db` whose slot 0 is pre-bound to `value`,
// read off ForEachMatch's slot views.
std::set<Tuple> MatchesWithSlot0(const ConjunctiveQuery& cq,
                                 const Database& db, Value value) {
  const std::vector<VariableId> vars = DistinctVariables(cq.body());
  const std::vector<SlotBinding> initial = {{0, value}};
  std::set<Tuple> result;
  Status status = ForEachMatch(
      cq.body(), db, initial, CancelScope(), nullptr, [&](SlotView match) {
        Tuple answer;
        for (Term t : cq.answer_terms()) {
          if (t.is_constant()) {
            answer.push_back(Value::Constant(t.id()));
            continue;
          }
          auto it = std::find(vars.begin(), vars.end(), t.id());
          answer.push_back(match[static_cast<std::size_t>(it - vars.begin())]);
        }
        result.insert(answer);
        return true;
      });
  EXPECT_TRUE(status.ok()) << status;
  return result;
}

// Property: the join evaluator agrees with brute force on random
// instances and queries.
class EvalPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(EvalPropertyTest, AgreesWithBruteForce) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 7919);
  Vocabulary vocab;
  TgdProgram program = MustProgram(
      "r(X, Y) -> s(X).\n"
      "s(X), t(X, Y, Z) -> r(X, Y).\n",
      &vocab);
  const int domain_size = 4;
  Database db = RandomDatabase(program, 8, domain_size, &rng, &vocab);
  std::vector<Value> domain;
  for (int d = 0; d < domain_size; ++d) {
    domain.push_back(Value::Constant(vocab.InternConstant(
        std::string("d") + std::to_string(d))));
  }
  for (int round = 0; round < 20; ++round) {
    ConjunctiveQuery cq = RandomCq(program, rng.UniformIn(1, 3),
                                   rng.UniformIn(0, 2), &rng, &vocab);
    std::vector<Tuple> fast = Evaluate(cq, db);
    std::set<Tuple> slow = BruteForce(cq, db, domain);
    EXPECT_EQ(std::set<Tuple>(fast.begin(), fast.end()), slow)
        << "round " << round;
    // A pre-bound initial assignment restricts the first variable.
    const std::vector<VariableId> vars = DistinctVariables(cq.body());
    if (vars.empty()) continue;
    for (Value value : domain) {
      EXPECT_EQ(MatchesWithSlot0(cq, db, value),
                BruteForce(cq, db, domain, {{vars[0], value}}))
          << "round " << round;
    }
  }

  // A chased instance: the existential rule invents labeled nulls, which
  // join like any value and are dropped from answers on request.
  TgdProgram existential = MustProgram(
      "r(X, Y) -> s(X).\n"
      "s(X), t(X, Y, Z) -> r(X, Y).\n"
      "s(X) -> t(X, Y, Y).\n",
      &vocab);
  ChaseResult chased = RunChase(existential, db);
  ASSERT_TRUE(chased.terminated);
  ASSERT_TRUE(chased.status.ok()) << chased.status;
  EXPECT_GT(chased.db.num_nulls(), 0);
  std::vector<Value> values = domain;
  for (std::int32_t n = 0; n < chased.db.num_nulls(); ++n) {
    values.push_back(Value::Null(n));
  }
  EvalOptions drop;
  drop.drop_tuples_with_nulls = true;
  for (int round = 0; round < 10; ++round) {
    ConjunctiveQuery cq = RandomCq(existential, rng.UniformIn(1, 2),
                                   rng.UniformIn(0, 2), &rng, &vocab);
    std::set<Tuple> slow = BruteForce(cq, chased.db, values);
    std::vector<Tuple> all = Evaluate(cq, chased.db);
    EXPECT_EQ(std::set<Tuple>(all.begin(), all.end()), slow)
        << "chased round " << round;
    std::erase_if(slow, [](const Tuple& tuple) {
      return std::any_of(tuple.begin(), tuple.end(),
                         [](Value v) { return v.is_null(); });
    });
    std::vector<Tuple> certain = Evaluate(cq, chased.db, drop);
    EXPECT_EQ(std::set<Tuple>(certain.begin(), certain.end()), slow)
        << "chased round " << round;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EvalPropertyTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6));

}  // namespace
}  // namespace ontorew
