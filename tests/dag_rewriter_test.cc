#include "rewriting/dag_rewriter.h"

#include <algorithm>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "logic/canonical.h"
#include "logic/query.h"
#include "logic/vocabulary.h"
#include "rewriting/containment.h"
#include "rewriting/datalog.h"
#include "rewriting/rewriter.h"
#include "test_util.h"
#include "workload/generators.h"
#include "workload/paper_examples.h"
#include "workload/university.h"

// The DAG rewriter's contract: UnfoldDatalog(RewriteToDatalog(q, P)),
// minimized, is CQ-for-CQ equivalent to the flat RewriteUcq union — on
// the DAG path and on every fallback. Minimal UCQs are unique up to
// disjunct isomorphism and CanonicalCqKey is an isomorphism invariant, so
// sorted key multisets compare the two exactly. (The unfolding needs the
// re-minimization: per-group minimization is not globally minimal, and
// the DAG path never runs cross-disjunct subsumption.)

namespace ontorew {
namespace {

std::vector<std::string> SortedKeys(const UnionOfCqs& ucq) {
  std::vector<std::string> keys;
  keys.reserve(ucq.disjuncts().size());
  for (const ConjunctiveQuery& cq : ucq.disjuncts()) {
    keys.push_back(CanonicalCqKey(cq));
  }
  std::sort(keys.begin(), keys.end());
  return keys;
}

// Runs both paths and checks the equivalence property; returns the DAG
// result so callers can pin structural expectations on top.
DagRewriteResult CheckAgainstFlat(const ConjunctiveQuery& query,
                                  const TgdProgram& program) {
  StatusOr<DagRewriteResult> dag =
      RewriteToDatalog(UnionOfCqs(query), program);
  EXPECT_TRUE(dag.ok()) << dag.status();
  if (!dag.ok()) return DagRewriteResult{};
  EXPECT_TRUE(dag->program.Validate().ok())
      << dag->program.Validate().ToString();

  StatusOr<RewriteResult> flat = RewriteCq(query, program);
  EXPECT_TRUE(flat.ok()) << flat.status();
  StatusOr<UnionOfCqs> unfolded = UnfoldDatalog(dag->program);
  EXPECT_TRUE(unfolded.ok()) << unfolded.status();
  if (flat.ok() && unfolded.ok()) {
    StatusOr<UnionOfCqs> minimized = MinimizeUcq(*unfolded);
    EXPECT_TRUE(minimized.ok()) << minimized.status();
    if (minimized.ok()) {
      EXPECT_EQ(SortedKeys(*minimized), SortedKeys(flat->ucq));
    }
  }
  return *std::move(dag);
}

ConjunctiveQuery UniversityQ2(Vocabulary* vocab) {
  return MustQuery("q(X0) :- person(X0), knows(X0, X1), person(X1).", vocab);
}

ConjunctiveQuery UniversityQ3(Vocabulary* vocab) {
  return MustQuery(
      "q(X0) :- person(X0), knows(X0, X1), person(X1), knows(X1, X2), "
      "person(X2).",
      vocab);
}

// knows/2 has no rules, so its reach set {knows} is disjoint from
// person's: every person atom is its own group, every knows atom too.
TEST(DagRewriterTest, UniversityQ2SharesThePersonGroup) {
  Vocabulary vocab;
  TgdProgram program = UniversityOntology(&vocab);
  const DagRewriteResult dag = CheckAgainstFlat(UniversityQ2(&vocab), program);
  EXPECT_FALSE(dag.fallback);
  EXPECT_EQ(dag.groups, 3);
  // The second person slot is served from the memo.
  EXPECT_EQ(dag.memo_hits, 1);
  // person gets the one aux predicate; the rule-less knows group has a
  // single-disjunct rewriting (itself) and is inlined.
  EXPECT_EQ(dag.program.cte_count(), 1);
  EXPECT_EQ(dag.program.output.size(), 1u);
}

// Three person slots, one saturation: q3's program is linear in the
// person rewriting while its flat union is cubic.
TEST(DagRewriterTest, UniversityQ3IsLinearInThePersonRewriting) {
  Vocabulary vocab;
  TgdProgram program = UniversityOntology(&vocab);
  const DagRewriteResult dag = CheckAgainstFlat(UniversityQ3(&vocab), program);
  EXPECT_FALSE(dag.fallback);
  // The two knows atoms share X1 (and trivially intersect in reach), so
  // they form one group: 3 person groups + the knows pair.
  EXPECT_EQ(dag.groups, 4);
  EXPECT_EQ(dag.memo_hits, 2);
  EXPECT_EQ(dag.program.cte_count(), 1);

  StatusOr<RewriteResult> flat = RewriteCq(UniversityQ3(&vocab), program);
  ASSERT_TRUE(flat.ok()) << flat.status();
  const int person_disjuncts = dag.program.aux[0].rules.size();
  EXPECT_GE(person_disjuncts, 2);
  EXPECT_EQ(dag.implied_disjuncts, static_cast<std::int64_t>(
                                       person_disjuncts) *
                                       person_disjuncts * person_disjuncts);
  EXPECT_EQ(dag.implied_disjuncts, flat->ucq.size());
  // The whole point: the program is an order of magnitude smaller than
  // the flat union it unfolds to.
  EXPECT_LT(dag.program.total_rules(), flat->ucq.size() / 10);
}

// k independent copies of the same subgoal: one aux, k call sites, d^k
// implied disjuncts.
TEST(DagRewriterTest, ProductQueryCostsKTimesD) {
  Vocabulary vocab;
  TgdProgram program =
      MustProgram("s1(X) -> p(X). s2(X) -> p(X).", &vocab);
  ConjunctiveQuery query = MustQuery("q(X, Y) :- p(X), p(Y).", &vocab);
  const DagRewriteResult dag = CheckAgainstFlat(query, program);
  EXPECT_FALSE(dag.fallback);
  EXPECT_EQ(dag.groups, 2);
  EXPECT_EQ(dag.memo_hits, 1);
  EXPECT_EQ(dag.program.cte_count(), 1);
  ASSERT_EQ(dag.program.aux.size(), 1u);
  EXPECT_EQ(dag.program.aux[0].rules.size(), 3u);  // p, s1, s2
  EXPECT_EQ(dag.implied_disjuncts, 9);
}

// The benchmark's blow-up shape via the workload generators. The small
// instance is cross-checked against the flat union; the bench-sized one
// implies 9^6 disjuncts — unfolding it is the exponential the DAG path
// avoids, so only its structure is pinned (the flat side of the property
// holds by induction from the small instance: the shape is uniform in k
// and d).
TEST(DagRewriterTest, ProductFamilyStaysLinearInKAndD) {
  {
    Vocabulary vocab;
    TgdProgram program = ProductFamily(3, &vocab);
    const DagRewriteResult dag =
        CheckAgainstFlat(ProductQuery(3, &vocab), program);
    EXPECT_FALSE(dag.fallback);
    // The r-links chain through shared variables (and share reach), so
    // they merge into one group: 3 p-atoms + the r-chain.
    EXPECT_EQ(dag.groups, 4);
    EXPECT_EQ(dag.memo_hits, 2);  // The two repeated p-groups.
    EXPECT_EQ(dag.implied_disjuncts, 4 * 4 * 4);
  }
  Vocabulary vocab;
  TgdProgram program = ProductFamily(8, &vocab);
  StatusOr<DagRewriteResult> dag =
      RewriteToDatalog(UnionOfCqs(ProductQuery(6, &vocab)), program);
  ASSERT_TRUE(dag.ok()) << dag.status();
  ASSERT_TRUE(dag->program.Validate().ok());
  EXPECT_FALSE(dag->fallback);
  EXPECT_EQ(dag->implied_disjuncts, 531441);  // (8+1)^6.
  // One memoized aux holding the 9 p-rewritings; everything else inline.
  EXPECT_EQ(dag->program.cte_count(), 1);
  ASSERT_EQ(dag->program.aux.size(), 1u);
  EXPECT_EQ(dag->program.aux[0].rules.size(), 9u);
  EXPECT_LE(dag->program.total_rules(), 10);
}

// A single-atom query never splits; the rewriter must take the reference
// path (where FactorUcq's cross-disjunct sharing is strictly better) and
// still produce an equivalent program.
TEST(DagRewriterTest, SingleGroupFallsBackToFlatPath) {
  Vocabulary vocab;
  TgdProgram program = PaperExample1(&vocab);
  ConjunctiveQuery query = MustQuery("q(X, Y) :- r(X, Y).", &vocab);
  const DagRewriteResult dag = CheckAgainstFlat(query, program);
  EXPECT_TRUE(dag.fallback);
  EXPECT_EQ(dag.groups, 0);
}

// Gate G2: PaperExample3's R1 has a repeated head variable
// (r(y1,y2) -> t(y3,y1,y1)), so a disjunct that reaches it must fall
// back even when it decomposes.
TEST(DagRewriterTest, NonSimpleHeadTripsG2) {
  Vocabulary vocab;
  TgdProgram program = PaperExample3(&vocab);
  // p/1 has no rules: {t(X,Y,Z)} and {p(W)} are separate groups, so only
  // the G2 gate stands between this query and the DAG path.
  vocab.MustPredicate("p", 1);
  ConjunctiveQuery query = MustQuery("q(X, W) :- t(X, Y, Z), p(W).", &vocab);
  const DagRewriteResult dag = CheckAgainstFlat(query, program);
  EXPECT_TRUE(dag.fallback);
}

// Gate G3: inside the {s(X,Z), s(Y,Z)} group, factorizing the two atoms
// identifies X with Y and drops Z to one occurrence, which u absorbs —
// the surviving disjunct u(X) answers (X, X), a non-identity interface no
// aux head can express. The whole query must fall back, and the fallback
// must still cover that disjunct.
TEST(DagRewriterTest, InterfaceMergingFactorizationTripsG3) {
  Vocabulary vocab;
  TgdProgram program = MustProgram("u(A) -> s(A, B). m(C) -> p(C).", &vocab);
  ConjunctiveQuery query =
      MustQuery("q(X, Y, W) :- s(X, Z), s(Y, Z), p(W).", &vocab);
  const DagRewriteResult dag = CheckAgainstFlat(query, program);
  EXPECT_TRUE(dag.fallback);
}

// Saturation errors surface unchanged through the per-group path.
TEST(DagRewriterTest, GroupSaturationErrorsPropagate) {
  Vocabulary vocab;
  TgdProgram program = UniversityOntology(&vocab);
  RewriterOptions options;
  options.max_cqs = 1;
  StatusOr<DagRewriteResult> dag =
      RewriteToDatalog(UnionOfCqs(UniversityQ3(&vocab)), program, options);
  EXPECT_FALSE(dag.ok());
  EXPECT_EQ(dag.status().code(), StatusCode::kResourceExhausted)
      << dag.status();
}

// A multi-disjunct input mixes per-disjunct plans: the splitting disjunct
// takes the DAG path while the single-group one is rewritten whole, and
// the union still matches flat.
TEST(DagRewriterTest, MixedDisjunctPlansCompose) {
  Vocabulary vocab;
  TgdProgram program = UniversityOntology(&vocab);
  ConjunctiveQuery q2 = UniversityQ2(&vocab);
  ConjunctiveQuery single = MustQuery("q(X0) :- person(X0).", &vocab);
  UnionOfCqs query;
  query.Add(q2);
  query.Add(single);

  StatusOr<DagRewriteResult> dag = RewriteToDatalog(query, program);
  ASSERT_TRUE(dag.ok()) << dag.status();
  EXPECT_FALSE(dag->fallback);
  EXPECT_EQ(dag->groups, 4);  // 3 from q2 + 1 from the single disjunct.
  // q2's two person slots hit the memo; the whole-disjunct rewriting of
  // `single` is keyed separately (different answer freezing) and misses.
  EXPECT_EQ(dag->memo_hits, 1);

  StatusOr<RewriteResult> flat = RewriteUcq(query, program);
  ASSERT_TRUE(flat.ok()) << flat.status();
  StatusOr<UnionOfCqs> unfolded = UnfoldDatalog(dag->program);
  ASSERT_TRUE(unfolded.ok()) << unfolded.status();
  StatusOr<UnionOfCqs> minimized = MinimizeUcq(*unfolded);
  ASSERT_TRUE(minimized.ok()) << minimized.status();
  EXPECT_EQ(SortedKeys(*minimized), SortedKeys(flat->ucq));
}

}  // namespace
}  // namespace ontorew
