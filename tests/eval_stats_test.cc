// Plan-quality tests: the index-nested-loop matcher must exploit the
// per-column indexes — observable through the EvalStats counters rather
// than timing.

#include <string>
#include <vector>

#include "base/rng.h"
#include "base/strings.h"
#include "db/database.h"
#include "db/eval.h"
#include "gtest/gtest.h"
#include "rewriting/rewriter.h"
#include "test_util.h"
#include "workload/university.h"

namespace ontorew {
namespace {

// A star schema: fact(k, d) with many k, dim(d) small.
class EvalStatsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    fact_ = vocab_.MustPredicate("fact", 2);
    dim_ = vocab_.MustPredicate("dim", 1);
    for (int i = 0; i < 1000; ++i) {
      db_.Insert(fact_, {Value::Constant(vocab_.InternConstant(
                             StrCat("k", i))),
                         Value::Constant(vocab_.InternConstant(
                             StrCat("d", i % 10)))});
    }
    db_.Insert(dim_, {Value::Constant(vocab_.InternConstant("d3"))});
  }

  Vocabulary vocab_;
  Database db_;
  PredicateId fact_, dim_;
};

TEST_F(EvalStatsTest, ConstantSelectionUsesIndex) {
  // fact(k500, Y): the column-0 index narrows to one tuple.
  ConjunctiveQuery cq = MustQuery("q(Y) :- fact(k500, Y).", &vocab_);
  EvalStats stats;
  std::vector<Tuple> answers = Evaluate(cq, db_, {}, &stats);
  EXPECT_EQ(answers.size(), 1u);
  EXPECT_LE(stats.tuples_examined, 2);  // Not a 1000-tuple scan.
}

TEST_F(EvalStatsTest, BoundFirstOrderingDrivesTheJoin) {
  // dim is tiny: the matcher must start there, then use the fact index on
  // column 2 — examining ~1 dim tuple + ~100 matching fact tuples, not
  // 1000 * 1.
  ConjunctiveQuery cq = MustQuery("q(X) :- fact(X, D), dim(D).", &vocab_);
  EvalStats stats;
  std::vector<Tuple> answers = Evaluate(cq, db_, {}, &stats);
  EXPECT_EQ(answers.size(), 100u);  // k3, k13, ..., k993.
  EXPECT_LE(stats.tuples_examined, 150);
  EXPECT_EQ(stats.matches, 100);
}

TEST_F(EvalStatsTest, UnboundScanIsCounted) {
  ConjunctiveQuery cq = MustQuery("q(X, Y) :- fact(X, Y).", &vocab_);
  EvalStats stats;
  Evaluate(cq, db_, {}, &stats);
  EXPECT_EQ(stats.tuples_examined, 1000);
  EXPECT_EQ(stats.matches, 1000);
}

TEST_F(EvalStatsTest, StatsAccumulateAcrossUnion) {
  UnionOfCqs ucq;
  ucq.Add(MustQuery("q(Y) :- fact(k1, Y).", &vocab_));
  ucq.Add(MustQuery("q(Y) :- fact(k2, Y).", &vocab_));
  EvalStats stats;
  Evaluate(ucq, db_, {}, &stats);
  EXPECT_EQ(stats.matches, 2);
  EXPECT_LE(stats.tuples_examined, 4);
}

TEST_F(EvalStatsTest, NullStatsPointerIsFine) {
  ConjunctiveQuery cq = MustQuery("q(Y) :- fact(k1, Y).", &vocab_);
  EXPECT_EQ(Evaluate(cq, db_).size(), 1u);
}

// The four join shapes of the serving benchmark's warm_join workload,
// rewritten against the university ontology and evaluated over a seeded
// instance with a `knows` ring (every student knows the next two). The
// counts are exact: they pin the atom order the plan compiler picks (most
// bound positions first, ties to the smaller relation, then to the
// earlier atom) and the probe column each step uses, so a change to
// either shows up here before it shows up as a latency shift.
TEST(EvalPlanOrderTest, WarmJoinShapesExamineExactCounts) {
  Vocabulary vocab;
  const TgdProgram ontology = UniversityOntology(&vocab);
  Rng rng(20);
  const UniversityInstanceOptions options;
  Database db = UniversityInstance(options, &rng, &vocab);
  const PredicateId knows = vocab.MustPredicate("knows", 2);
  const auto student = [&](int i) {
    return Value::Constant(
        vocab.InternConstant(StrCat("stud", i % options.num_students)));
  };
  for (int i = 0; i < options.num_students; ++i) {
    db.Insert(knows, {student(i), student(i + 1)});
    db.Insert(knows, {student(i), student(i + 2)});
  }

  struct Shape {
    std::string query;
    std::size_t answers;
    long long tuples_examined;
    long long matches;
  };
  const std::vector<Shape> shapes = {
      {"q(X0) :- person(X0), knows(X0, X1), person(X1).", 400, 11424, 6904},
      {"q(S) :- enrolled(S, C), teaches(T, C), faculty(T).", 399, 2458, 2358},
      {"q(X) :- person(X).", 490, 1405, 1405},
      {"q(X, C) :- advises(X, Y), enrolled(Y, C), course(C).", 0, 20, 0},
  };
  for (const Shape& shape : shapes) {
    StatusOr<RewriteResult> rewriting =
        RewriteCq(MustQuery(shape.query, &vocab), ontology);
    ASSERT_TRUE(rewriting.ok()) << rewriting.status();
    EvalStats stats;
    StatusOr<std::vector<Tuple>> answers =
        TryEvaluate(rewriting->ucq, db, {}, &stats);
    ASSERT_TRUE(answers.ok()) << answers.status();
    EXPECT_EQ(answers->size(), shape.answers) << shape.query;
    EXPECT_EQ(stats.tuples_examined, shape.tuples_examined) << shape.query;
    EXPECT_EQ(stats.matches, shape.matches) << shape.query;
  }
}

}  // namespace
}  // namespace ontorew
