#include <algorithm>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "base/fault_point.h"
#include "base/trace.h"
#include "chase/chase.h"
#include "db/eval.h"
#include "db/facts_io.h"
#include "gtest/gtest.h"
#include "test_util.h"
#include "workload/paper_examples.h"
#include "workload/university.h"

namespace ontorew {
namespace {

Database SingleFact(Vocabulary* vocab, const char* pred,
                    const std::vector<const char*>& constants) {
  Database db;
  Tuple tuple;
  for (const char* c : constants) {
    tuple.push_back(Value::Constant(vocab->InternConstant(c)));
  }
  db.Insert(vocab->MustPredicate(pred, static_cast<int>(constants.size())),
            std::move(tuple));
  return db;
}

TEST(ChaseTest, SimplePropagation) {
  Vocabulary vocab;
  TgdProgram program = MustProgram("a(X) -> b(X).\nb(X) -> c(X).\n", &vocab);
  Database db = SingleFact(&vocab, "a", {"k"});
  ChaseResult result = RunChase(program, db);
  EXPECT_TRUE(result.terminated);
  EXPECT_EQ(result.db.TotalTuples(), 3);  // a(k), b(k), c(k).
}

TEST(ChaseTest, ExistentialIntroducesNull) {
  Vocabulary vocab;
  TgdProgram program = MustProgram("p(X) -> r(X, Y).", &vocab);
  Database db = SingleFact(&vocab, "p", {"k"});
  ChaseResult result = RunChase(program, db);
  ASSERT_TRUE(result.terminated);
  const Relation* r = result.db.Find(vocab.FindPredicate("r"));
  ASSERT_NE(r, nullptr);
  ASSERT_EQ(r->size(), 1);
  EXPECT_TRUE(r->tuples()[0][0].is_constant());
  EXPECT_TRUE(r->tuples()[0][1].is_null());
}

TEST(ChaseTest, RestrictedChaseReusesWitnesses) {
  Vocabulary vocab;
  // r(k, m) already satisfies the head for X = k: the restricted chase
  // must not invent a null.
  TgdProgram program = MustProgram("p(X) -> r(X, Y).", &vocab);
  Database db = SingleFact(&vocab, "p", {"k"});
  db.Insert(vocab.MustPredicate("r", 2),
            {Value::Constant(vocab.InternConstant("k")),
             Value::Constant(vocab.InternConstant("m"))});
  ChaseResult result = RunChase(program, db);
  ASSERT_TRUE(result.terminated);
  EXPECT_EQ(result.db.num_nulls(), 0);
  EXPECT_EQ(result.db.TotalTuples(), 2);
}

TEST(ChaseTest, ObliviousChaseAlwaysFires) {
  Vocabulary vocab;
  TgdProgram program = MustProgram("p(X) -> r(X, Y).", &vocab);
  Database db = SingleFact(&vocab, "p", {"k"});
  db.Insert(vocab.MustPredicate("r", 2),
            {Value::Constant(vocab.InternConstant("k")),
             Value::Constant(vocab.InternConstant("m"))});
  ChaseOptions options;
  options.variant = ChaseOptions::Variant::kOblivious;
  ChaseResult result = RunChase(program, db, options);
  ASSERT_TRUE(result.terminated);
  EXPECT_EQ(result.db.num_nulls(), 1);  // Fires despite the witness.
}

TEST(ChaseTest, MultiHeadSharedExistential) {
  Vocabulary vocab;
  TgdProgram program = MustProgram("p(X) -> r(X, Y), s(Y).", &vocab);
  Database db = SingleFact(&vocab, "p", {"k"});
  ChaseResult result = RunChase(program, db);
  ASSERT_TRUE(result.terminated);
  const Relation* r = result.db.Find(vocab.FindPredicate("r"));
  const Relation* s = result.db.Find(vocab.FindPredicate("s"));
  ASSERT_NE(r, nullptr);
  ASSERT_NE(s, nullptr);
  // The same null appears in both atoms.
  EXPECT_EQ(r->tuples()[0][1], s->tuples()[0][0]);
}

TEST(ChaseTest, RestrictedTerminatesOnUniversity) {
  Vocabulary vocab;
  TgdProgram ontology = UniversityOntology(&vocab);
  Rng rng(17);
  UniversityInstanceOptions options;
  options.num_students = 30;
  options.num_phd_students = 6;
  Database db = UniversityInstance(options, &rng, &vocab);
  ChaseResult result = RunChase(ontology, db);
  EXPECT_TRUE(result.terminated);
  EXPECT_GT(result.applications, 0);
  // The chase derives person facts for every professor.
  const Relation* person = result.db.Find(vocab.FindPredicate("person"));
  ASSERT_NE(person, nullptr);
  EXPECT_GE(person->size(), options.num_professors);
}

// The chase's own trace hooks: a traced CertainAnswersViaChase records a
// closed chase.run span with its rounds, one chase.round child per round
// and a chase.eval span for the final evaluation.
TEST(ChaseTest, TracedCertainAnswersRecordRunRoundAndEvalSpans) {
  Vocabulary vocab;
  TgdProgram ontology = UniversityOntology(&vocab);
  Rng rng(23);
  UniversityInstanceOptions instance;
  instance.num_students = 10;
  Database db = UniversityInstance(instance, &rng, &vocab);
  ConjunctiveQuery query = MustQuery("q(X) :- person(X).", &vocab);

  Trace trace;
  ChaseOptions options;
  options.trace = TraceContext(&trace);
  StatusOr<std::vector<Tuple>> answers =
      CertainAnswersViaChase(UnionOfCqs(query), ontology, db, options);
  ASSERT_TRUE(answers.ok()) << answers.status();
  EXPECT_FALSE(answers->empty());

  const std::vector<SpanRecord> spans = trace.Snapshot();
  const auto find = [&spans](std::string_view name) -> const SpanRecord* {
    for (const SpanRecord& span : spans) {
      if (span.name == name) return &span;
    }
    return nullptr;
  };
  const auto attr = [](const SpanRecord& span,
                       std::string_view key) -> std::optional<std::string> {
    for (const auto& [k, v] : span.attributes) {
      if (k == key) return v;
    }
    return std::nullopt;
  };
  for (const SpanRecord& span : spans) {
    EXPECT_GE(span.duration_ns, 0) << "span '" << span.name << "' left open";
  }
  const SpanRecord* run = find("chase.run");
  ASSERT_NE(run, nullptr) << trace.ToString();
  EXPECT_TRUE(attr(*run, "rounds").has_value());
  EXPECT_EQ(attr(*run, "terminated"), "true");
  const SpanRecord* round = find("chase.round");
  ASSERT_NE(round, nullptr);
  EXPECT_EQ(round->parent, run->id);
  const SpanRecord* eval = find("chase.eval");
  ASSERT_NE(eval, nullptr);
  EXPECT_TRUE(attr(*eval, "rows").has_value());
}

TEST(ChaseTest, Example2ChaseTerminatesPerInstance) {
  // Example 2 is not FO-rewritable, but that is a *uniform* (query-side)
  // phenomenon: per instance, the chase saturates — the values feeding
  // s[3] come only from the finite EDB of t, so r gains finitely many
  // fresh firsts. Certain answers remain instance-computable; no single
  // FO query computes them for all instances.
  Vocabulary vocab;
  TgdProgram program = PaperExample2(&vocab);
  Database db;
  db.Insert(vocab.FindPredicate("r"),
            {Value::Constant(vocab.InternConstant("a")),
             Value::Constant(vocab.InternConstant("a"))});
  db.Insert(vocab.FindPredicate("t"),
            {Value::Constant(vocab.InternConstant("a")),
             Value::Constant(vocab.InternConstant("a"))});
  ChaseResult result = RunChase(program, db);
  EXPECT_TRUE(result.terminated);
  EXPECT_GT(result.applications, 0);
}

TEST(ChaseTest, DivergesOnParentPattern) {
  // The classic non-terminating chase: person(X) -> parent(X, Y),
  // parent(X, Y) -> person(Y) — each null spawns another.
  Vocabulary vocab;
  TgdProgram program = MustProgram(
      "person(X) -> parent(X, Y).\n"
      "parent(X, Y) -> person(Y).\n",
      &vocab);
  Database db;
  db.Insert(vocab.FindPredicate("person"),
            {Value::Constant(vocab.InternConstant("eve"))});
  ChaseOptions options;
  options.max_rounds = 50;
  options.max_tuples = 10000;
  ChaseResult result = RunChase(program, db, options);
  EXPECT_FALSE(result.terminated);
  StatusOr<std::vector<Tuple>> cert = CertainAnswersViaChase(
      UnionOfCqs(MustQuery("q(X) :- person(X).", &vocab)), program, db,
      options);
  ASSERT_FALSE(cert.ok());
  EXPECT_EQ(cert.status().code(), StatusCode::kResourceExhausted);
}

TEST(ChaseTest, ResultSatisfiesAllTgds) {
  Vocabulary vocab;
  TgdProgram ontology = UniversityOntology(&vocab);
  Rng rng(23);
  UniversityInstanceOptions options;
  options.num_students = 10;
  Database db = UniversityInstance(options, &rng, &vocab);
  ChaseResult result = RunChase(ontology, db);
  ASSERT_TRUE(result.terminated);
  // Model check: every body homomorphism extends to a head homomorphism.
  for (const Tgd& tgd : ontology.tgds()) {
    const std::vector<VariableId> body = DistinctVariables(tgd.body());
    const std::vector<VariableId> head = DistinctVariables(tgd.head());
    Status status = ForEachMatch(
        tgd.body(), result.db, {}, CancelScope(), nullptr,
        [&](SlotView match) {
          std::vector<SlotBinding> frontier;
          for (std::size_t h = 0; h < head.size(); ++h) {
            auto it = std::find(body.begin(), body.end(), head[h]);
            if (it == body.end()) continue;
            frontier.push_back(
                {static_cast<int>(h),
                 match[static_cast<std::size_t>(it - body.begin())]});
          }
          bool satisfied = false;
          Status head_status = ForEachMatch(
              tgd.head(), result.db, frontier, CancelScope(), nullptr,
              [&satisfied](SlotView) {
                satisfied = true;
                return false;
              });
          EXPECT_TRUE(head_status.ok()) << head_status;
          EXPECT_TRUE(satisfied);
          return true;
        });
    EXPECT_TRUE(status.ok()) << status;
  }
}

TEST(ChaseTest, HeadCheckFaultSetsStatus) {
  // The restricted chase's head check is a scan like the trigger search:
  // a fault there stops the chase with a status instead of aborting the
  // process. The trigger search examines p(a) (hit 1); the head check
  // for X = a probes r(a, _) and examines r(a, z) (hit 2), which trips.
  Vocabulary vocab;
  TgdProgram program = MustProgram("p(X) -> r(X, Y).", &vocab);
  StatusOr<Database> db = ParseFacts("p(a).\nr(a, z).\n", &vocab);
  ASSERT_TRUE(db.ok()) << db.status();
  FaultPointConfig config;
  config.after = 1;
  ScopedFault fault("eval.scan", config);
  ChaseResult result = RunChase(program, *db);
  ASSERT_FALSE(result.status.ok());
  EXPECT_EQ(result.status.code(), StatusCode::kInternal);
  EXPECT_FALSE(result.terminated);
  EXPECT_EQ(result.applications, 0);
}

TEST(ChaseTest, CertainAnswersDropNullTuples) {
  Vocabulary vocab;
  TgdProgram program = MustProgram("p(X) -> r(X, Y).", &vocab);
  Database db = SingleFact(&vocab, "p", {"k"});
  StatusOr<std::vector<Tuple>> open_answers = CertainAnswersViaChase(
      UnionOfCqs(MustQuery("q(X, Y) :- r(X, Y).", &vocab)), program, db);
  ASSERT_TRUE(open_answers.ok()) << open_answers.status();
  EXPECT_TRUE(open_answers->empty());  // The witness is a null.
  StatusOr<std::vector<Tuple>> boolean = CertainAnswersViaChase(
      UnionOfCqs(MustQuery("q(X) :- r(X, Y).", &vocab)), program, db);
  ASSERT_TRUE(boolean.ok());
  EXPECT_EQ(boolean->size(), 1u);  // X = k is certain.
}

TEST(ChaseTest, EmptyInputTerminatesImmediately) {
  Vocabulary vocab;
  TgdProgram program = MustProgram("a(X) -> b(X).", &vocab);
  Database db;
  ChaseResult result = RunChase(program, db);
  EXPECT_TRUE(result.terminated);
  EXPECT_EQ(result.applications, 0);
}

}  // namespace
}  // namespace ontorew
