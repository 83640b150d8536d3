#include <algorithm>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "backend/backend.h"
#include "backend/sqlite_backend.h"
#include "base/deadline.h"
#include "chase/chase.h"
#include "db/eval.h"
#include "gtest/gtest.h"
#include "logic/printer.h"
#include "rewriting/dag_rewriter.h"
#include "rewriting/datalog.h"
#include "rewriting/rewriter.h"
#include "workload/corpus.h"

// The completeness-audit corpus runner: every checked-in repro under
// tests/corpus/ (each a minimized differential failure, or a hand-written
// pin of an applicability condition) is replayed on all four evaluation
// legs — flat rewrite -> InMemory, flat rewrite -> SQLite, factor -> CTE
// SQL, DAG rewrite -> CTE SQL — plus the chase oracle, and every leg must
// return exactly the file's [expected] certain answers. Unlike the
// randomized differential harness, which checks agreement, this checks
// ground truth: a bug that breaks all legs the same way still fails here.

namespace ontorew {
namespace {

std::vector<std::filesystem::path> CorpusFiles() {
  std::vector<std::filesystem::path> files;
  for (const auto& entry :
       std::filesystem::directory_iterator(ONTOREW_CORPUS_DIR)) {
    if (entry.path().extension() == ".repro") files.push_back(entry.path());
  }
  std::sort(files.begin(), files.end());
  return files;
}

std::string ReadFile(const std::filesystem::path& path) {
  std::ifstream in(path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

// Replay budgets: corpus cases are minimized, so these are generous; a
// case that trips them is a termination regression, not a slow test.
RewriterOptions ReplayRewriterOptions() {
  RewriterOptions options;
  options.max_cqs = 20000;
  options.cancel = CancelScope(Deadline::AfterMillis(10000));
  return options;
}

void ExpectLeg(const char* leg, const StatusOr<std::vector<Tuple>>& got,
               const CorpusCase& c, const Vocabulary& vocab) {
  ASSERT_TRUE(got.ok()) << leg << " failed: " << got.status();
  EXPECT_EQ(*got, c.expected)
      << leg << " returned " << got->size() << " answers, expected "
      << c.expected.size() << " (query " << ToString(c.query, vocab) << ")";
}

TEST(CorpusTest, EveryReproReplaysGreenOnAllLegs) {
  const std::vector<std::filesystem::path> files = CorpusFiles();
  // An empty corpus means the directory path broke, not that all is well.
  ASSERT_FALSE(files.empty())
      << "no .repro files under " << ONTOREW_CORPUS_DIR;

  for (const std::filesystem::path& path : files) {
    SCOPED_TRACE(path.filename().string());
    Vocabulary vocab;
    StatusOr<CorpusCase> parsed = ParseCorpusCase(ReadFile(path), &vocab);
    ASSERT_TRUE(parsed.ok()) << parsed.status();
    const CorpusCase& c = *parsed;

    // Flat rewriting feeds the first three legs.
    StatusOr<RewriteResult> flat =
        RewriteCq(c.query, c.program, ReplayRewriterOptions());
    ASSERT_TRUE(flat.ok()) << "flat rewrite failed: " << flat.status();

    const auto facts = std::make_shared<const Database>(c.facts);
    InMemoryBackend memory;
    ASSERT_TRUE(memory.Load(c.program, facts).ok());
    ExpectLeg("flat/InMemory", memory.Execute(flat->ucq, {}), c, vocab);

    SqliteBackend sqlite(&vocab);
    ASSERT_TRUE(sqlite.Load(c.program, facts).ok());
    ExpectLeg("flat/SQLite", sqlite.Execute(flat->ucq, {}), c, vocab);

    StatusOr<DatalogProgram> factored = FactorUcq(flat->ucq);
    ASSERT_TRUE(factored.ok()) << "factoring failed: " << factored.status();
    ExpectLeg("factor/CTE", sqlite.ExecuteDatalog(*factored, {}), c, vocab);

    // The DAG leg saturates independently (same saturator, its own gate
    // logic), so it gets its own budget.
    StatusOr<DagRewriteResult> dag = RewriteToDatalog(
        UnionOfCqs(c.query), c.program, ReplayRewriterOptions());
    ASSERT_TRUE(dag.ok()) << "dag rewrite failed: " << dag.status();
    ExpectLeg("dag/CTE", sqlite.ExecuteDatalog(dag->program, {}), c, vocab);

    // The chase oracle validates the checked-in [expected] itself.
    ChaseOptions chase;
    chase.cancel = CancelScope(Deadline::AfterMillis(10000));
    ExpectLeg("chase",
              CertainAnswersViaChase(UnionOfCqs(c.query), c.program, c.facts,
                                     chase),
              c, vocab);
  }
}

// The corpus format round-trips: parse -> render -> parse is a fixpoint,
// so minimizer-emitted files and hand-written files stay interchangeable.
TEST(CorpusTest, FormatRoundTrips) {
  for (const std::filesystem::path& path : CorpusFiles()) {
    SCOPED_TRACE(path.filename().string());
    Vocabulary vocab;
    StatusOr<CorpusCase> first = ParseCorpusCase(ReadFile(path), &vocab);
    ASSERT_TRUE(first.ok()) << first.status();
    const std::string rendered =
        CorpusCaseToString(first->program, first->facts, first->query,
                           first->expected, vocab, {"round-trip"});
    Vocabulary fresh;
    StatusOr<CorpusCase> second = ParseCorpusCase(rendered, &fresh);
    ASSERT_TRUE(second.ok()) << second.status() << "\n" << rendered;
    EXPECT_EQ(second->program.size(), first->program.size());
    EXPECT_EQ(second->expected.size(), first->expected.size());
    EXPECT_EQ(second->query.arity(), first->query.arity());
  }
}

TEST(CorpusTest, ParserRejectsMalformedFiles) {
  Vocabulary vocab;
  // Missing sections.
  EXPECT_FALSE(ParseCorpusCase("", &vocab).ok());
  EXPECT_FALSE(
      ParseCorpusCase("[program]\np(X) -> r(X).\n", &vocab).ok());
  // Out-of-order sections.
  EXPECT_FALSE(ParseCorpusCase("[facts]\np(a).\n[program]\np(X) -> r(X).\n"
                               "[query]\nq(X) :- p(X).\n[expected]\n",
                               &vocab)
                   .ok());
  // Expected arity mismatch against the query.
  EXPECT_FALSE(ParseCorpusCase("[program]\np(X) -> r(X).\n[facts]\np(a).\n"
                               "[query]\nq(X) :- p(X).\n[expected]\n"
                               "q(a, b).\n",
                               &vocab)
                   .ok());
  // Variables in expected answers.
  EXPECT_FALSE(ParseCorpusCase("[program]\np(X) -> r(X).\n[facts]\np(a).\n"
                               "[query]\nq(X) :- p(X).\n[expected]\n"
                               "q(X).\n",
                               &vocab)
                   .ok());
}

}  // namespace
}  // namespace ontorew
