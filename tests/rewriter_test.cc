#include <algorithm>
#include <string>
#include <vector>

#include "chase/chase.h"
#include "db/eval.h"
#include "gtest/gtest.h"
#include "logic/printer.h"
#include "rewriting/containment.h"
#include "rewriting/rewriter.h"
#include "test_util.h"
#include "workload/generators.h"
#include "workload/paper_examples.h"
#include "workload/university.h"

namespace ontorew {
namespace {

// True iff some disjunct of `ucq` is equivalent to `cq`.
bool ContainsEquivalent(const UnionOfCqs& ucq, const ConjunctiveQuery& cq) {
  for (const ConjunctiveQuery& disjunct : ucq.disjuncts()) {
    if (CqEquivalent(disjunct, cq)) return true;
  }
  return false;
}

TEST(RewriterTest, ClassHierarchyUnfolds) {
  Vocabulary vocab;
  TgdProgram program = MustProgram(
      "professor(X) -> faculty(X).\n"
      "lecturer(X) -> faculty(X).\n",
      &vocab);
  StatusOr<RewriteResult> result =
      RewriteCq(MustQuery("q(X) :- faculty(X).", &vocab), program);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->ucq.size(), 3);
  EXPECT_TRUE(ContainsEquivalent(result->ucq,
                                 MustQuery("q(X) :- professor(X).", &vocab)));
  EXPECT_TRUE(ContainsEquivalent(result->ucq,
                                 MustQuery("q(X) :- lecturer(X).", &vocab)));
}

TEST(RewriterTest, ExistentialAbsorbsUnboundVariable) {
  Vocabulary vocab;
  TgdProgram program = MustProgram("person(X) -> hasId(X, Y).", &vocab);
  // Y is unbound in the query: the step applies.
  StatusOr<RewriteResult> unbound =
      RewriteCq(MustQuery("q(X) :- hasId(X, Y).", &vocab), program);
  ASSERT_TRUE(unbound.ok());
  EXPECT_TRUE(ContainsEquivalent(unbound->ucq,
                                 MustQuery("q(X) :- person(X).", &vocab)));
  // Y answer variable: blocked.
  StatusOr<RewriteResult> answer =
      RewriteCq(MustQuery("q(X, Y) :- hasId(X, Y).", &vocab), program);
  ASSERT_TRUE(answer.ok());
  EXPECT_EQ(answer->ucq.size(), 1);
  // Y bound by a join: blocked (no new disjunct from the id atom).
  StatusOr<RewriteResult> joined = RewriteCq(
      MustQuery("q(X) :- hasId(X, Y), uses(Y).", &vocab), program);
  ASSERT_TRUE(joined.ok());
  EXPECT_EQ(joined->ucq.size(), 1);
}

TEST(RewriterTest, ConstantInQueryBlocksExistential) {
  Vocabulary vocab;
  TgdProgram program = MustProgram("person(X) -> hasId(X, Y).", &vocab);
  StatusOr<RewriteResult> result =
      RewriteCq(MustQuery("q(X) :- hasId(X, id42).", &vocab), program);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->ucq.size(), 1);  // Only the original query.
}

TEST(RewriterTest, FactorizationEnablesAbsorption) {
  Vocabulary vocab;
  // With distinct *answer* variables A and B the two r-atoms cannot be
  // folded away by minimization, and neither can absorb the join variable
  // W (it occurs twice). Only a factorization step — unifying the two
  // atoms, specializing A = B — unlocks the absorption. cert semantics
  // requires the resulting disjunct: with p(c) the chase yields r(c, n),
  // so (c, c) is a certain answer of q(A, B).
  TgdProgram program = MustProgram("p(X) -> r(X, Z).", &vocab);
  ConjunctiveQuery query = MustQuery("q(A, B) :- r(A, W), r(B, W).", &vocab);
  StatusOr<RewriteResult> result = RewriteCq(query, program);
  ASSERT_TRUE(result.ok());
  ConjunctiveQuery folded(
      std::vector<VariableId>{vocab.InternVariable("A"),
                              vocab.InternVariable("A")},
      {MustAtom("p(A)", &vocab)});
  EXPECT_TRUE(ContainsEquivalent(result->ucq, folded));
  // Without factorization the disjunct is missed, and evaluating the
  // rewriting over {p(c)} loses the certain answer (c, c).
  RewriterOptions no_factor;
  no_factor.factorize = false;
  StatusOr<RewriteResult> weaker = RewriteCq(query, program, no_factor);
  ASSERT_TRUE(weaker.ok());
  EXPECT_FALSE(ContainsEquivalent(weaker->ucq, folded));
  Database db;
  db.Insert(vocab.FindPredicate("p"),
            {Value::Constant(vocab.InternConstant("c"))});
  EXPECT_EQ(Evaluate(result->ucq, db).size(), 1u);
  EXPECT_TRUE(Evaluate(weaker->ucq, db).empty());
}

TEST(RewriterTest, Seed7275RegressionBothAnswers) {
  // The minimized differential seed 7275 (tests/corpus/seed7275_*.repro):
  // R1 has a head repeating one existential at every position, R2 a
  // constant head. The certain answers of q over {g0(d3)} are d3 (given)
  // and k0 (the chase fires R1 on g0(d3), giving g2(n, n, n), which
  // satisfies R2's join body, giving g0(k0)). Reaching k0 by rewriting
  // needs the full chain: resolve with R2, factorize the two g2-atoms
  // into one g2(t, t, t), then resolve that with R1 — a step the old
  // "occurs exactly once" applicability test wrongly rejected, because
  // after within-atom identification t occurs three times.
  Vocabulary vocab;
  TgdProgram program = MustProgram(
      "g0(R1V1) -> g2(R1V0, R1V0, R1V0).\n"
      "g2(R5V1, R5V3, R5V0), g2(R5V2, R5V1, R5V1) -> g0(k0).\n",
      &vocab);
  ConjunctiveQuery query = MustQuery("q(V) :- g0(V).", &vocab);
  Database db;
  db.Insert(vocab.FindPredicate("g0"),
            {Value::Constant(vocab.InternConstant("d3"))});

  StatusOr<RewriteResult> result = RewriteCq(query, program);
  ASSERT_TRUE(result.ok()) << result.status();
  std::vector<Tuple> answers = Evaluate(result->ucq, db);
  std::vector<Tuple> expected = {
      {Value::Constant(vocab.InternConstant("d3"))},
      {Value::Constant(vocab.InternConstant("k0"))}};
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(answers, expected) << ToString(result->ucq, vocab);

  // And the chase oracle agrees.
  StatusOr<std::vector<Tuple>> cert =
      CertainAnswersViaChase(UnionOfCqs(query), program, db);
  ASSERT_TRUE(cert.ok()) << cert.status();
  EXPECT_EQ(*cert, expected);
}

TEST(RewriterTest, RepeatedExistentialHeadApplies) {
  // b(X) -> g(Y, Y): the chase emits ONE null at both positions, so a
  // query atom whose terms the unification identifies rewrites to b.
  Vocabulary vocab;
  TgdProgram program = MustProgram("b(X) -> g(Y, Y).", &vocab);
  ConjunctiveQuery target = MustQuery("q() :- b(X).", &vocab);
  // Explicit within-atom repetition ...
  StatusOr<RewriteResult> repeated =
      RewriteCq(MustQuery("q() :- g(U, U).", &vocab), program);
  ASSERT_TRUE(repeated.ok()) << repeated.status();
  EXPECT_TRUE(ContainsEquivalent(repeated->ucq, target))
      << ToString(repeated->ucq, vocab);
  // ... and identification performed by the unification itself: g(U, V)
  // unifies with g(Y, Y) by setting U = V.
  StatusOr<RewriteResult> identified =
      RewriteCq(MustQuery("q() :- g(U, V).", &vocab), program);
  ASSERT_TRUE(identified.ok()) << identified.status();
  EXPECT_TRUE(ContainsEquivalent(identified->ucq, target))
      << ToString(identified->ucq, vocab);
}

TEST(RewriterTest, RepeatedExistentialHeadOutsideOccurrenceBlocks) {
  // The identified variable also occurs in p(U): the null emitted by the
  // rule can never satisfy that extra atom, so the step must not apply.
  Vocabulary vocab;
  TgdProgram program = MustProgram("b(X) -> g(Y, Y).", &vocab);
  StatusOr<RewriteResult> result =
      RewriteCq(MustQuery("q() :- g(U, U), p(U).", &vocab), program);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->ucq.size(), 1) << ToString(result->ucq, vocab);
}

TEST(RewriterTest, RepeatedExistentialHeadAnswerVariableBlocks) {
  // An answer variable cannot be absorbed into a null.
  Vocabulary vocab;
  TgdProgram program = MustProgram("b(X) -> g(Y, Y).", &vocab);
  StatusOr<RewriteResult> result =
      RewriteCq(MustQuery("q(U) :- g(U, U).", &vocab), program);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->ucq.size(), 1) << ToString(result->ucq, vocab);
}

TEST(RewriterTest, RepeatedExistentialIdentifiedWithFrontierBlocks) {
  // g(X, Y, Y) repeats the existential Y but also carries the frontier
  // variable X. Unifying with g(U, U, U) identifies Y's image with X's —
  // a null with a database value — so the step must not apply.
  Vocabulary vocab;
  TgdProgram program = MustProgram("b(X) -> g(X, Y, Y).", &vocab);
  StatusOr<RewriteResult> result =
      RewriteCq(MustQuery("q() :- g(U, U, U).", &vocab), program);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->ucq.size(), 1) << ToString(result->ucq, vocab);
}

TEST(RewriterTest, ConstantHeadResolvesQueryAtom) {
  // A head of constants has no existentials at all: resolving against it
  // binds the query's terms to those constants.
  Vocabulary vocab;
  TgdProgram program = MustProgram("reg(X) -> g0(k0).", &vocab);
  StatusOr<RewriteResult> open =
      RewriteCq(MustQuery("q() :- g0(W).", &vocab), program);
  ASSERT_TRUE(open.ok()) << open.status();
  EXPECT_TRUE(ContainsEquivalent(open->ucq,
                                 MustQuery("q() :- reg(X).", &vocab)));
  // A query already mentioning a *different* constant cannot unify.
  StatusOr<RewriteResult> mismatched =
      RewriteCq(MustQuery("q() :- g0(other).", &vocab), program);
  ASSERT_TRUE(mismatched.ok()) << mismatched.status();
  EXPECT_EQ(mismatched->ucq.size(), 1);
}

TEST(RewriterTest, HeadConstantSpecializesAnswerVariable) {
  Vocabulary vocab;
  TgdProgram program = MustProgram("reg(Y) -> r(c0, Y).", &vocab);
  StatusOr<RewriteResult> result =
      RewriteCq(MustQuery("q(X, Y) :- r(X, Y).", &vocab), program);
  ASSERT_TRUE(result.ok());
  // Expect a disjunct q(c0, Y) :- reg(Y).
  bool found = false;
  for (const ConjunctiveQuery& cq : result->ucq.disjuncts()) {
    if (cq.answer_terms()[0].is_constant()) found = true;
  }
  EXPECT_TRUE(found) << ToString(result->ucq, vocab);
}

TEST(RewriterTest, MultiHeadRejected) {
  Vocabulary vocab;
  TgdProgram program = MustProgram("r(X) -> s(X), t(X).", &vocab);
  StatusOr<RewriteResult> result =
      RewriteCq(MustQuery("q(X) :- s(X).", &vocab), program);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition);
}

TEST(RewriterTest, DivergesOnExample2PaperQuery) {
  Vocabulary vocab;
  TgdProgram program = PaperExample2(&vocab);
  // The paper's query q() :- r("a", x): unbounded chain.
  RewriterOptions options;
  options.max_cqs = 500;
  StatusOr<RewriteResult> result = RewriteCq(
      MustQuery("q() :- r(\"a\", X).", &vocab), program, options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
}

TEST(RewriterTest, TerminatesOnExample3) {
  Vocabulary vocab;
  TgdProgram program = PaperExample3(&vocab);
  // Queries over every predicate terminate (Example 3 is FO-rewritable).
  for (const char* query :
       {"q(X) :- t(X, Y, Z).", "q(X) :- s(X, Y, Z).", "q(X) :- r(X, Y).",
        "q() :- t(X, X, Y), u(X)."}) {
    StatusOr<RewriteResult> result =
        RewriteCq(MustQuery(query, &vocab), program);
    EXPECT_TRUE(result.ok()) << query << ": " << result.status();
  }
}

TEST(RewriterTest, TerminatesOnExample1) {
  Vocabulary vocab;
  TgdProgram program = PaperExample1(&vocab);
  StatusOr<RewriteResult> result =
      RewriteCq(MustQuery("q(X, Y) :- r(X, Y).", &vocab), program);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_GE(result->ucq.size(), 2);
}

TEST(RewriterTest, DescribeDerivationBoundsChecked) {
  Vocabulary vocab;
  TgdProgram program = MustProgram("p(X) -> r(X).", &vocab);
  StatusOr<RewriteResult> result =
      RewriteCq(MustQuery("q(X) :- r(X).", &vocab), program);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(static_cast<int>(result->derivations.size()), 2);
  EXPECT_EQ(DescribeDerivation(*result, 0), "q0");
  EXPECT_EQ(DescribeDerivation(*result, 1), "q0 =R1=> q1");
  // Indices refer to `saturated`, not `ucq` — a caller iterating the
  // minimized union can produce an out-of-range index. That must yield a
  // diagnostic, not an out-of-bounds read.
  EXPECT_NE(DescribeDerivation(*result, 2).find("out of range"),
            std::string::npos);
  EXPECT_NE(DescribeDerivation(*result, -1).find("out of range"),
            std::string::npos);
  EXPECT_NE(DescribeDerivation(*result, 1000).find("out of range"),
            std::string::npos);
}

TEST(RewriterTest, DescribeDerivationMultiStepChain) {
  // Two chained rules: the rewriting of q over p2 resolves first with R2
  // (p1 -> p2), then with R1 (p0 -> p1). The derivation string records
  // the full chain in application order.
  Vocabulary vocab;
  TgdProgram program =
      MustProgram("p0(X) -> p1(X). p1(X) -> p2(X).", &vocab);
  StatusOr<RewriteResult> result =
      RewriteCq(MustQuery("q(X) :- p2(X).", &vocab), program);
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_EQ(static_cast<int>(result->derivations.size()), 3);
  EXPECT_EQ(DescribeDerivation(*result, 0), "q0");
  EXPECT_EQ(DescribeDerivation(*result, 1), "q0 =R2=> q1");
  EXPECT_EQ(DescribeDerivation(*result, 2), "q0 =R2=> q1 =R1=> q2");
}

TEST(RewriterTest, DescribeDerivationFactorizationChain) {
  // q() :- r("a", X), r(Y, "b") — neither atom maps onto the other, so
  // reduction leaves the query alone, while factorization unifies the
  // two atoms into r("a", "b"). The derivation must label that step
  // =factorize=> rather than with a rule name.
  Vocabulary vocab;
  TgdProgram program = MustProgram("s(X) -> r(X, X).", &vocab);
  StatusOr<RewriteResult> result = RewriteCq(
      MustQuery("q() :- r(\"a\", X), r(Y, \"b\").", &vocab), program);
  ASSERT_TRUE(result.ok()) << result.status();
  bool saw_factorize = false;
  for (int i = 0; i < static_cast<int>(result->derivations.size()); ++i) {
    const std::string description = DescribeDerivation(*result, i);
    EXPECT_EQ(description.find("out of range"), std::string::npos)
        << description;
    if (description.find("=factorize=>") != std::string::npos) {
      saw_factorize = true;
      // A factorization step composes with rule steps downstream: the
      // chain always starts at the original query.
      EXPECT_EQ(description.rfind("q0", 0), 0) << description;
    }
  }
  EXPECT_TRUE(saw_factorize);
}

TEST(RewriterTest, DescribeDerivationSeed7275Chain) {
  // The derivation that reaches k0 in the seed-7275 regression composes
  // all three step kinds: resolve with the constant-head rule R2,
  // factorize the two g2-atoms, resolve with the repeated-existential
  // rule R1. DescribeDerivation must render the whole chain coherently —
  // starting at q0, every hop labelled either =R<i>=> or =factorize=>,
  // with no out-of-range placeholders.
  Vocabulary vocab;
  TgdProgram program = MustProgram(
      "g0(R1V1) -> g2(R1V0, R1V0, R1V0).\n"
      "g2(R5V1, R5V3, R5V0), g2(R5V2, R5V1, R5V1) -> g0(k0).\n",
      &vocab);
  StatusOr<RewriteResult> result =
      RewriteCq(MustQuery("q(V) :- g0(V).", &vocab), program);
  ASSERT_TRUE(result.ok()) << result.status();
  bool saw_full_chain = false;
  for (int i = 0; i < static_cast<int>(result->derivations.size()); ++i) {
    const std::string description = DescribeDerivation(*result, i);
    EXPECT_EQ(description.find("out of range"), std::string::npos)
        << description;
    if (description.find("=factorize=>") == std::string::npos) continue;
    // Every factorization chain here starts at the original query and
    // follows the R2-then-factorize order.
    EXPECT_EQ(description.rfind("q0 =R2=> ", 0), 0) << description;
    if (description.find("=R1=>") != std::string::npos) {
      saw_full_chain = true;
      // The full chain in application order:
      // q0 =R2=> q_i =factorize=> q_j =R1=> q_k.
      EXPECT_LT(description.find("=R2=>"), description.find("=factorize=>"))
          << description;
      EXPECT_LT(description.find("=factorize=>"), description.find("=R1=>"))
          << description;
    }
  }
  EXPECT_TRUE(saw_full_chain);
}

TEST(RewriterTest, UniversityConcertedRewriting) {
  Vocabulary vocab;
  TgdProgram ontology = UniversityOntology(&vocab);
  StatusOr<RewriteResult> result =
      RewriteCq(MustQuery("q(X) :- person(X).", &vocab), ontology);
  ASSERT_TRUE(result.ok()) << result.status();
  // person unfolds through faculty/student into every raw predicate.
  EXPECT_TRUE(ContainsEquivalent(result->ucq,
                                 MustQuery("q(X) :- professor(X).", &vocab)));
  EXPECT_TRUE(ContainsEquivalent(result->ucq,
                                 MustQuery("q(X) :- phd(X).", &vocab)));
  EXPECT_TRUE(ContainsEquivalent(
      result->ucq, MustQuery("q(X) :- teaches(X, Y).", &vocab)));
  EXPECT_TRUE(ContainsEquivalent(
      result->ucq, MustQuery("q(X) :- enrolled(X, Y).", &vocab)));
}

TEST(RewriterTest, MinimizationPrunesSubsumedDisjuncts) {
  Vocabulary vocab;
  TgdProgram program = MustProgram("p(X) -> r(X, Y).", &vocab);
  // The factorized specialization q(A, A) :- r(A, W) is subsumed by the
  // original q(A, B) :- r(A, W), r(B, W); final minimization prunes it.
  ConjunctiveQuery query = MustQuery("q(A, B) :- r(A, W), r(B, W).", &vocab);
  RewriterOptions raw;
  raw.minimize = false;
  StatusOr<RewriteResult> unminimized = RewriteCq(query, program, raw);
  StatusOr<RewriteResult> minimized = RewriteCq(query, program);
  ASSERT_TRUE(unminimized.ok() && minimized.ok());
  EXPECT_LT(minimized->ucq.size(), unminimized->ucq.size());
  // Both evaluate identically over any database (spot-check one).
  Database db;
  db.Insert(vocab.FindPredicate("p"),
            {Value::Constant(vocab.InternConstant("k"))});
  EXPECT_EQ(Evaluate(minimized->ucq, db), Evaluate(unminimized->ucq, db));
}

TEST(RewriterTest, RewritingMatchesChaseOnUniversity) {
  Vocabulary vocab;
  TgdProgram ontology = UniversityOntology(&vocab);
  Rng rng(99);
  UniversityInstanceOptions options;
  options.num_students = 25;
  options.num_phd_students = 8;
  Database db = UniversityInstance(options, &rng, &vocab);

  for (const char* query_text :
       {"q(X) :- person(X).", "q(X) :- faculty(X).",
        "q(X, Y) :- teaches(X, Y).", "q(X) :- course(X).",
        "q(X) :- advises(Y, X), student(X).",
        "q(X) :- teaches(X, Y), course(Y)."}) {
    ConjunctiveQuery query = MustQuery(query_text, &vocab);
    StatusOr<RewriteResult> rewriting = RewriteCq(query, ontology);
    ASSERT_TRUE(rewriting.ok()) << query_text << ": " << rewriting.status();
    std::vector<Tuple> via_rewriting = Evaluate(rewriting->ucq, db);
    StatusOr<std::vector<Tuple>> via_chase =
        CertainAnswersViaChase(UnionOfCqs(query), ontology, db);
    ASSERT_TRUE(via_chase.ok()) << via_chase.status();
    EXPECT_EQ(via_rewriting, *via_chase) << query_text;
  }
}

TEST(RewriterTest, AblationIntermediateReduction) {
  // Without intermediate minimization the r -> s -> v -> r loop of
  // Example 1 accumulates redundant atoms forever: the saturation hits
  // the cap although the program is FO-rewritable. This is why the
  // engine reduces by default.
  Vocabulary vocab;
  TgdProgram program = PaperExample1(&vocab);
  ConjunctiveQuery query = MustQuery("q(X, Y) :- r(X, Y).", &vocab);
  RewriterOptions no_reduce;
  no_reduce.reduce_intermediate = false;
  // Ablate the naive saturation loop: eager subsumption pruning would
  // otherwise drop the bloated descendants (each is subsumed by its
  // ancestor) and terminate despite the missing reduction.
  no_reduce.eager_subsumption = false;
  // Keep the cap tiny: without reduction the CQs also *grow*, so pushing
  // hundreds of them through canonicalization is pointlessly slow. The
  // terminating saturation has 3 CQs, so 40 proves divergence.
  no_reduce.max_cqs = 40;
  no_reduce.factorize = false;
  StatusOr<RewriteResult> diverged = RewriteCq(query, program, no_reduce);
  ASSERT_FALSE(diverged.ok());
  EXPECT_EQ(diverged.status().code(), StatusCode::kResourceExhausted);
  // With reduction (the default) the same input terminates immediately.
  EXPECT_TRUE(RewriteCq(query, program).ok());
}

TEST(RewriterTest, CapAllowsExactlyMaxCqs) {
  Vocabulary vocab;
  TgdProgram program = MustProgram(
      "professor(X) -> faculty(X).\n"
      "lecturer(X) -> faculty(X).\n",
      &vocab);
  ConjunctiveQuery query = MustQuery("q(X) :- faculty(X).", &vocab);
  // The saturation keeps exactly 3 distinct CQs; a cap of 3 must succeed
  // (the cap bounds what is kept — reaching it exactly is fine) ...
  RewriterOptions exact;
  exact.max_cqs = 3;
  StatusOr<RewriteResult> ok = RewriteCq(query, program, exact);
  ASSERT_TRUE(ok.ok()) << ok.status();
  EXPECT_EQ(ok->generated, 3);
  // ... and a cap of 2 must fail at the third *insertion*: the check
  // lives in the insert path, so a CQ with many successors cannot
  // overshoot the cap within a single saturation iteration.
  RewriterOptions tight;
  tight.max_cqs = 2;
  StatusOr<RewriteResult> exhausted = RewriteCq(query, program, tight);
  ASSERT_FALSE(exhausted.ok());
  EXPECT_EQ(exhausted.status().code(), StatusCode::kResourceExhausted);
}

TEST(RewriterTest, EagerSubsumptionPrunesSubsumedCandidates) {
  Vocabulary vocab;
  // Both rules rewrite t(X); the second produces q(X) :- s(X, X), which
  // the first rule's q(X) :- s(X, Y) subsumes (map Y -> X).
  TgdProgram program = MustProgram(
      "s(X, Y) -> t(X).\n"
      "s(X, X) -> t(X).\n",
      &vocab);
  ConjunctiveQuery query = MustQuery("q(X) :- t(X).", &vocab);
  StatusOr<RewriteResult> eager = RewriteCq(query, program);
  ASSERT_TRUE(eager.ok()) << eager.status();
  EXPECT_GE(eager->pruned, 1);
  RewriterOptions naive_options;
  naive_options.eager_subsumption = false;
  StatusOr<RewriteResult> naive = RewriteCq(query, program, naive_options);
  ASSERT_TRUE(naive.ok()) << naive.status();
  EXPECT_EQ(naive->pruned, 0);
  // Pruning trims the exploration, never the answers: the minimized,
  // canonically sorted unions are identical CQ for CQ.
  EXPECT_LT(eager->generated, naive->generated);
  ASSERT_EQ(eager->ucq.size(), naive->ucq.size());
  for (int i = 0; i < eager->ucq.size(); ++i) {
    EXPECT_EQ(eager->ucq.disjuncts()[static_cast<std::size_t>(i)],
              naive->ucq.disjuncts()[static_cast<std::size_t>(i)]);
  }
}

TEST(RewriterTest, NewCqRetiresSubsumedPredecessor) {
  Vocabulary vocab;
  // Reversed rule order: the specialized q(X) :- s(X, X) is generated
  // first, so the general q(X) :- s(X, Y) arrives second and retires it
  // from the worklist instead of pruning it on insert.
  TgdProgram program = MustProgram(
      "s(X, X) -> t(X).\n"
      "s(X, Y) -> t(X).\n",
      &vocab);
  ConjunctiveQuery query = MustQuery("q(X) :- t(X).", &vocab);
  StatusOr<RewriteResult> result = RewriteCq(query, program);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_GE(result->retired, 1);
  EXPECT_EQ(result->generated, 3);  // Retired CQs stay in `saturated`.
  EXPECT_EQ(result->ucq.size(), 2);
  EXPECT_TRUE(ContainsEquivalent(result->ucq,
                                 MustQuery("q(X) :- s(X, Y).", &vocab)));
}

// Pins the saturation's exploration on the six bench_rewriting
// workloads: CQs kept, steps attempted, candidates pruned and CQs retired
// are exact, so any change to what the saturation visits (worklist order,
// dedup, the subsumption gates, the cap) shows up here, not just in the
// final union.
TEST(RewriterTest, BenchWorkloadCountersArePinned) {
  struct Workload {
    const char* name;
    TgdProgram (*program)(Vocabulary*);
    const char* query;
    int generated;
    int steps;
    int pruned;
    int retired;
    int ucq;
  };
  const Workload workloads[] = {
      {"paper_example1", PaperExample1, "q(X, Y) :- r(X, Y).", 3, 3, 1, 0,
       3},
      {"paper_example3", PaperExample3, "q(X) :- t(X, Y, Z).", 1, 0, 0, 0,
       1},
      {"university_q2", UniversityOntology,
       "q(X0) :- person(X0), knows(X0, X1), person(X1).", 112, 264, 0, 0,
       100},
      {"university_q3", UniversityOntology,
       "q(X0) :- person(X0), knows(X0, X1), person(X1), knows(X1, X2), "
       "person(X2).",
       1540, 6694, 127, 0, 1000},
      {"chain_256",
       [](Vocabulary* vocab) { return ChainFamily(256, /*arity=*/1, vocab); },
       "q(X0) :- p256(X0).", 257, 256, 0, 0, 257},
      {"composition_deep",
       [](Vocabulary* vocab) { return CompositionFamily(3, vocab); },
       "q(X, Z) :- r3(X, Z).", 879, 7511, 0, 0, 26},
  };
  for (const Workload& workload : workloads) {
    Vocabulary vocab;
    TgdProgram program = workload.program(&vocab);
    RewriterOptions options;
    options.max_cqs = 300000;
    StatusOr<RewriteResult> result =
        RewriteCq(MustQuery(workload.query, &vocab), program, options);
    ASSERT_TRUE(result.ok()) << workload.name << ": " << result.status();
    EXPECT_EQ(result->generated, workload.generated) << workload.name;
    EXPECT_EQ(result->steps, workload.steps) << workload.name;
    EXPECT_EQ(result->pruned, workload.pruned) << workload.name;
    EXPECT_EQ(result->retired, workload.retired) << workload.name;
    EXPECT_EQ(result->ucq.size(), workload.ucq) << workload.name;
  }
}

}  // namespace
}  // namespace ontorew
