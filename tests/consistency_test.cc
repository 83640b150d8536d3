#include <string>
#include <vector>

#include "base/fault_point.h"
#include "db/facts_io.h"
#include "gtest/gtest.h"
#include "obda/consistency.h"
#include "rewriting/rewriter.h"
#include "test_util.h"

namespace ontorew {
namespace {

TEST(DenialParseTest, BasicAndErrors) {
  Vocabulary vocab;
  StatusOr<std::vector<DenialConstraint>> denials = ParseDenials(
      "# disjointness\n"
      "!- professor(X), student(X).\n"
      "!- teaches(X, Y), enrolled(X, Y).\n",
      &vocab);
  ASSERT_TRUE(denials.ok()) << denials.status();
  EXPECT_EQ(denials->size(), 2u);
  EXPECT_EQ((*denials)[0].body.size(), 2u);
  EXPECT_FALSE(ParseDenials("professor(X).\n", &vocab).ok());
}

TEST(DenialParseTest, CommentMarkersInsideQuotedConstantsAreData) {
  // Regression: like ParseFacts, denial parsing used to cut the line at
  // a '#'/'%' inside a quoted constant, leaving an unterminated string.
  Vocabulary vocab;
  StatusOr<std::vector<DenialConstraint>> denials = ParseDenials(
      "!- tag(X, \"#urgent\"), closed(X).  # open and urgent conflict\n"
      "!- grade(X, \"100%\"), failed(X).\n",
      &vocab);
  ASSERT_TRUE(denials.ok()) << denials.status();
  ASSERT_EQ(denials->size(), 2u);
  EXPECT_EQ((*denials)[0].body.size(), 2u);
  EXPECT_EQ((*denials)[1].body.size(), 2u);
}

TEST(DenialParseTest, ErrorsReportOriginalLineNumbers) {
  Vocabulary vocab;
  // A syntax error inside the body: reported against the source line,
  // not against the internally rewritten "_denial() :- ..." text.
  StatusOr<std::vector<DenialConstraint>> bad = ParseDenials(
      "!- a(X).\n"
      "\n"
      "!- b(X,.\n",
      &vocab);
  ASSERT_FALSE(bad.ok());
  EXPECT_NE(bad.status().message().find("denials line 3"), std::string::npos)
      << bad.status();

  // A line that is not a denial at all names its line too.
  StatusOr<std::vector<DenialConstraint>> not_denial = ParseDenials(
      "!- a(X).\n"
      "b(X).\n",
      &vocab);
  ASSERT_FALSE(not_denial.ok());
  EXPECT_NE(not_denial.status().message().find("denials line 2"),
            std::string::npos)
      << not_denial.status();
}

TEST(ConsistencyTest, DirectViolation) {
  Vocabulary vocab;
  TgdProgram program = MustProgram("a(X) -> b(X).", &vocab);
  StatusOr<std::vector<DenialConstraint>> denials =
      ParseDenials("!- b(X), c(X).\n", &vocab);
  ASSERT_TRUE(denials.ok());
  StatusOr<Database> db = ParseFacts("b(k).\nc(k).\n", &vocab);
  ASSERT_TRUE(db.ok());
  StatusOr<ConsistencyReport> report =
      CheckConsistency(program, *denials, *db, vocab);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_FALSE(report->consistent);
  ASSERT_EQ(report->witnesses.size(), 1u);
  EXPECT_NE(report->witnesses[0].find("b(k)"), std::string::npos);
}

TEST(ConsistencyTest, ViolationThroughTheOntology) {
  // The violation only appears after reasoning: a(k) implies b(k).
  Vocabulary vocab;
  TgdProgram program = MustProgram("a(X) -> b(X).", &vocab);
  StatusOr<std::vector<DenialConstraint>> denials =
      ParseDenials("!- b(X), c(X).\n", &vocab);
  ASSERT_TRUE(denials.ok());
  StatusOr<Database> db = ParseFacts("a(k).\nc(k).\n", &vocab);
  ASSERT_TRUE(db.ok());
  StatusOr<ConsistencyReport> report =
      CheckConsistency(program, *denials, *db, vocab);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_FALSE(report->consistent);
  EXPECT_EQ(report->violated, std::vector<int>{0});
  // The witness names the *raw* facts, not the derived ones.
  EXPECT_NE(report->witnesses[0].find("a(k)"), std::string::npos)
      << report->witnesses[0];
}

TEST(ConsistencyTest, ConsistentInstance) {
  Vocabulary vocab;
  TgdProgram program = MustProgram("a(X) -> b(X).", &vocab);
  StatusOr<std::vector<DenialConstraint>> denials =
      ParseDenials("!- b(X), c(X).\n", &vocab);
  ASSERT_TRUE(denials.ok());
  StatusOr<Database> db = ParseFacts("a(k).\nc(m).\n", &vocab);
  ASSERT_TRUE(db.ok());
  StatusOr<ConsistencyReport> report =
      CheckConsistency(program, *denials, *db, vocab);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->consistent);
  EXPECT_TRUE(report->violated.empty());
}

TEST(ConsistencyTest, MultipleDenialsReportedIndividually) {
  Vocabulary vocab;
  TgdProgram program = MustProgram("a(X) -> b(X).", &vocab);
  StatusOr<std::vector<DenialConstraint>> denials = ParseDenials(
      "!- b(X), c(X).\n"
      "!- d(X), e(X).\n",
      &vocab);
  ASSERT_TRUE(denials.ok());
  StatusOr<Database> db = ParseFacts("d(k).\ne(k).\n", &vocab);
  ASSERT_TRUE(db.ok());
  StatusOr<ConsistencyReport> report =
      CheckConsistency(program, *denials, *db, vocab);
  ASSERT_TRUE(report.ok());
  EXPECT_FALSE(report->consistent);
  EXPECT_EQ(report->violated, std::vector<int>{1});
}

TEST(ConsistencyTest, AbortedScanIsAnErrorNotConsistent) {
  // An evaluator fault mid-scan must surface as an error: reporting the
  // instance consistent would hide a violation the scan never reached.
  Vocabulary vocab;
  TgdProgram program = MustProgram("a(X) -> b(X).", &vocab);
  StatusOr<std::vector<DenialConstraint>> denials =
      ParseDenials("!- b(X), c(X).\n", &vocab);
  ASSERT_TRUE(denials.ok());
  StatusOr<Database> db = ParseFacts("a(k).\nc(k).\n", &vocab);
  ASSERT_TRUE(db.ok());
  ScopedFault fault("eval.scan");
  StatusOr<ConsistencyReport> report =
      CheckConsistency(program, *denials, *db, vocab);
  ASSERT_FALSE(report.ok()) << "consistent=" << report->consistent;
  EXPECT_EQ(report.status().code(), StatusCode::kInternal);
}

TEST(DerivationTest, ChainsReadable) {
  Vocabulary vocab;
  TgdProgram program = MustProgram(
      "a(X) -> b(X).\n"
      "b(X) -> c(X).\n",
      &vocab);
  StatusOr<RewriteResult> result =
      RewriteCq(MustQuery("q(X) :- c(X).", &vocab), program);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->saturated.size(), 3u);  // c, b, a.
  EXPECT_EQ(DescribeDerivation(*result, 0), "q0");
  EXPECT_EQ(DescribeDerivation(*result, 1), "q0 =R2=> q1");
  EXPECT_EQ(DescribeDerivation(*result, 2), "q0 =R2=> q1 =R1=> q2");
}

}  // namespace
}  // namespace ontorew
