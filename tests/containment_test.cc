#include <cstddef>
#include <string>
#include <vector>

#include "base/fault_point.h"
#include "base/rng.h"
#include "gtest/gtest.h"
#include "logic/atom.h"
#include "rewriting/containment.h"
#include "test_util.h"
#include "workload/generators.h"

namespace ontorew {
namespace {

TEST(ContainmentTest, IdenticalQueriesSubsumeEachOther) {
  Vocabulary vocab;
  ConjunctiveQuery a = MustQuery("q(X) :- r(X, Y).", &vocab);
  ConjunctiveQuery b = MustQuery("q(U) :- r(U, V).", &vocab);
  EXPECT_TRUE(CqSubsumes(a, b));
  EXPECT_TRUE(CqSubsumes(b, a));
  EXPECT_TRUE(CqEquivalent(a, b));
}

TEST(ContainmentTest, GeneralSubsumesSpecific) {
  Vocabulary vocab;
  ConjunctiveQuery general = MustQuery("q(X) :- r(X, Y).", &vocab);
  ConjunctiveQuery specific = MustQuery("q(X) :- r(X, X).", &vocab);
  EXPECT_TRUE(CqSubsumes(general, specific));
  EXPECT_FALSE(CqSubsumes(specific, general));
}

TEST(ContainmentTest, ConstantsMustMatch) {
  Vocabulary vocab;
  ConjunctiveQuery general = MustQuery("q(X) :- r(X, Y).", &vocab);
  ConjunctiveQuery with_const = MustQuery("q(X) :- r(X, a).", &vocab);
  EXPECT_TRUE(CqSubsumes(general, with_const));
  EXPECT_FALSE(CqSubsumes(with_const, general));
}

TEST(ContainmentTest, AnswerPositionsArePinned) {
  Vocabulary vocab;
  // Swapping the answer variable breaks subsumption even though the bodies
  // are isomorphic.
  ConjunctiveQuery first = MustQuery("q(X) :- r(X, Y).", &vocab);
  ConjunctiveQuery second = MustQuery("q(Y) :- r(X, Y).", &vocab);
  EXPECT_FALSE(CqSubsumes(first, second));
  EXPECT_FALSE(CqSubsumes(second, first));
}

TEST(ContainmentTest, LongerBodyCanStillSubsume) {
  Vocabulary vocab;
  // Both atoms of `general` map onto the single atom of `specific`.
  ConjunctiveQuery general = MustQuery("q(X) :- r(X, Y), r(X, Z).", &vocab);
  ConjunctiveQuery specific = MustQuery("q(X) :- r(X, W).", &vocab);
  EXPECT_TRUE(CqSubsumes(general, specific));
  EXPECT_TRUE(CqSubsumes(specific, general));
}

TEST(ContainmentTest, DifferentArityNeverSubsumes) {
  Vocabulary vocab;
  ConjunctiveQuery one = MustQuery("q(X) :- r(X, Y).", &vocab);
  ConjunctiveQuery two = MustQuery("q(X, Y) :- r(X, Y).", &vocab);
  EXPECT_FALSE(CqSubsumes(one, two));
}

TEST(ContainmentTest, ChainVsTriangle) {
  Vocabulary vocab;
  ConjunctiveQuery chain = MustQuery("q() :- e(X, Y), e(Y, Z).", &vocab);
  ConjunctiveQuery triangle =
      MustQuery("q() :- e(X, Y), e(Y, Z), e(Z, X).", &vocab);
  EXPECT_TRUE(CqSubsumes(chain, triangle));
  EXPECT_FALSE(CqSubsumes(triangle, chain));
}

TEST(MinimizeCqTest, DropsRedundantAtom) {
  Vocabulary vocab;
  // r(X, Z) maps onto r(X, Y): redundant.
  ConjunctiveQuery cq = MustQuery("q(X) :- r(X, Y), r(X, Z).", &vocab);
  ConjunctiveQuery minimized = MinimizeCq(cq);
  EXPECT_EQ(minimized.body().size(), 1u);
  EXPECT_TRUE(CqEquivalent(cq, minimized));
}

TEST(MinimizeCqTest, KeepsNecessaryAtoms) {
  Vocabulary vocab;
  ConjunctiveQuery cq = MustQuery("q(X) :- r(X, Y), s(Y).", &vocab);
  ConjunctiveQuery minimized = MinimizeCq(cq);
  EXPECT_EQ(minimized.body().size(), 2u);
}

TEST(MinimizeCqTest, AnswerVariablesBlockDropping) {
  Vocabulary vocab;
  // r(X, Y) with answer Y cannot be folded into r(X, Z).
  ConjunctiveQuery cq = MustQuery("q(X, Y) :- r(X, Y), r(X, Z).", &vocab);
  ConjunctiveQuery minimized = MinimizeCq(cq);
  // r(X, Z) folds onto r(X, Y) (Z -> Y is fine, Z is existential).
  EXPECT_EQ(minimized.body().size(), 1u);
  EXPECT_TRUE(CqEquivalent(cq, minimized));
}

TEST(MinimizeUcqTest, RemovesSubsumedDisjuncts) {
  Vocabulary vocab;
  UnionOfCqs ucq;
  ucq.Add(MustQuery("q(X) :- r(X, Y).", &vocab));
  ucq.Add(MustQuery("q(X) :- r(X, a).", &vocab));  // Subsumed.
  ucq.Add(MustQuery("q(X) :- s(X).", &vocab));     // Independent.
  StatusOr<UnionOfCqs> minimized = MinimizeUcq(ucq);
  ASSERT_TRUE(minimized.ok()) << minimized.status();
  EXPECT_EQ(minimized->size(), 2);
}

TEST(MinimizeUcqTest, EquivalentPairKeepsOne) {
  Vocabulary vocab;
  UnionOfCqs ucq;
  ucq.Add(MustQuery("q(X) :- r(X, Y).", &vocab));
  ucq.Add(MustQuery("q(U) :- r(U, V).", &vocab));
  StatusOr<UnionOfCqs> minimized = MinimizeUcq(ucq);
  ASSERT_TRUE(minimized.ok()) << minimized.status();
  EXPECT_EQ(minimized->size(), 1);
}

// The historical MinimizeCq rescanned from atom 0 after every successful
// drop. The shipping version keeps scanning forward from the drop index
// (retraction homomorphisms compose, so an undroppable atom stays
// undroppable). This reference implementation pins the two to the exact
// same output, not merely an equivalent one.
ConjunctiveQuery MinimizeCqRestartReference(const ConjunctiveQuery& cq) {
  ConjunctiveQuery current = cq;
  bool changed = true;
  while (changed && current.body().size() > 1) {
    changed = false;
    for (std::size_t drop = 0; drop < current.body().size(); ++drop) {
      std::vector<Atom> smaller_body;
      smaller_body.reserve(current.body().size() - 1);
      for (std::size_t i = 0; i < current.body().size(); ++i) {
        if (i != drop) smaller_body.push_back(current.body()[i]);
      }
      ConjunctiveQuery candidate(current.answer_terms(),
                                 std::move(smaller_body));
      if (candidate.Validate().ok() && CqSubsumes(current, candidate)) {
        current = std::move(candidate);
        changed = true;
        break;  // Restart the scan from atom 0.
      }
    }
  }
  return current;
}

TEST(MinimizeCqTest, SinglePassMatchesRestartReference) {
  Vocabulary vocab;
  // Hand-built shapes with redundancy in different positions (front,
  // middle, back, interleaved) so the pass structure actually matters.
  const char* cases[] = {
      "q(X) :- r(X, Y), r(X, Z).",
      "q(X) :- r(X, Y), s(Y), r(X, Z).",
      "q(X) :- r(X, Z), r(X, Y), s(Y).",
      "q() :- e(X, Y), e(Y, Z), e(U, V).",
      "q(X, Y) :- r(X, Y), r(X, Z), r(W, Y).",
      "q(X) :- p(X), r(X, Y), r(Y, Z), r(X, W), p(W).",
  };
  for (const char* text : cases) {
    ConjunctiveQuery cq = MustQuery(text, &vocab);
    EXPECT_EQ(MinimizeCq(cq), MinimizeCqRestartReference(cq)) << text;
  }
  // And randomized CQs over random linear programs. Each round gets a
  // fresh vocabulary: the generators reuse predicate names and would
  // otherwise trip the arity consistency check.
  Rng rng(20260806);
  for (int round = 0; round < 200; ++round) {
    Vocabulary round_vocab;
    TgdProgram program = RandomLinearProgram(
        /*num_rules=*/4, /*num_predicates=*/3, /*max_arity=*/3,
        /*existential_prob=*/0.3, &rng, &round_vocab);
    ConjunctiveQuery cq =
        RandomCq(program, /*num_atoms=*/1 + rng.Uniform(5),
                 /*num_answer_vars=*/rng.Uniform(3), &rng, &round_vocab);
    ConjunctiveQuery fast = MinimizeCq(cq);
    ConjunctiveQuery reference = MinimizeCqRestartReference(cq);
    EXPECT_EQ(fast, reference) << "seed round " << round;
  }
}

TEST(MinimizeUcqTest, MinimizesWithinDisjuncts) {
  Vocabulary vocab;
  UnionOfCqs ucq;
  ucq.Add(MustQuery("q(X) :- r(X, Y), r(X, Z).", &vocab));
  StatusOr<UnionOfCqs> minimized = MinimizeUcq(ucq);
  ASSERT_TRUE(minimized.ok()) << minimized.status();
  ASSERT_EQ(minimized->size(), 1);
  EXPECT_EQ(minimized->disjuncts()[0].body().size(), 1u);
}

// An armed fault (or a tripped deadline) must surface as an error: an
// empty union would read as "no certain answers", a silently wrong result.
TEST(MinimizeUcqTest, ArmedFaultIsAnErrorNotAnEmptyUnion) {
  Vocabulary vocab;
  UnionOfCqs ucq;
  ucq.Add(MustQuery("q(X) :- r(X, Y).", &vocab));
  ucq.Add(MustQuery("q(X) :- s(X).", &vocab));
  {
    ScopedFault fault("rewrite.step");
    StatusOr<UnionOfCqs> faulted = MinimizeUcq(ucq);
    ASSERT_FALSE(faulted.ok());
    EXPECT_EQ(faulted.status().code(), StatusCode::kInternal);
    EXPECT_NE(faulted.status().message().find("rewrite.step"),
              std::string::npos)
        << faulted.status();
  }
  {
    // Tripping in the subsumption sweep, after every disjunct was
    // minimized, is an error too.
    FaultPointConfig config;
    config.after = ucq.size();
    ScopedFault fault("rewrite.step", config);
    EXPECT_FALSE(MinimizeUcq(ucq).ok());
  }
  StatusOr<UnionOfCqs> clean = MinimizeUcq(ucq);
  ASSERT_TRUE(clean.ok()) << clean.status();
  EXPECT_EQ(clean->size(), 2);
}

}  // namespace
}  // namespace ontorew
