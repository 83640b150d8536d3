#include "backend/backend.h"

#include <sqlite3.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "backend/sqlite_backend.h"
#include "base/deadline.h"
#include "base/fault_point.h"
#include "base/rng.h"
#include "base/strings.h"
#include "base/trace.h"
#include "db/eval.h"
#include "gtest/gtest.h"
#include "rewriting/datalog.h"
#include "rewriting/rewriter.h"
#include "rewriting/sql.h"
#include "test_util.h"
#include "workload/generators.h"
#include "workload/university.h"

// Round-trip tests: the emitted SQL is *executed* on real SQLite and the
// decoded answers compared against the in-memory evaluator — asserting
// results, not strings. Every historical emission bug class (reserved
// words, quote escaping, boolean queries, repeated variables, 0-ary DDL)
// gets an executed regression here.

namespace ontorew {
namespace {

// Loads `db` into both backends and checks that they agree with the
// reference evaluator on `ucq`; returns the answers.
std::vector<Tuple> ExpectBackendsAgree(const TgdProgram& program,
                                       const Database& db,
                                       const UnionOfCqs& ucq,
                                       Vocabulary* vocab) {
  EvalOptions reference_options{.drop_tuples_with_nulls = true, .cancel = {}};
  std::vector<Tuple> reference = Evaluate(ucq, db, reference_options);

  InMemoryBackend memory;
  EXPECT_TRUE(memory.Load(program, SharedDb(db)).ok());
  SqliteBackend sqlite(vocab);
  Status load = sqlite.Load(program, SharedDb(db));
  EXPECT_TRUE(load.ok()) << load;

  BackendExecOptions exec;
  StatusOr<std::vector<Tuple>> from_memory = memory.Execute(ucq, exec);
  StatusOr<std::vector<Tuple>> from_sqlite = sqlite.Execute(ucq, exec);
  EXPECT_TRUE(from_memory.ok()) << from_memory.status();
  EXPECT_TRUE(from_sqlite.ok()) << from_sqlite.status();
  if (from_memory.ok() && from_sqlite.ok()) {
    EXPECT_EQ(*from_memory, reference);
    EXPECT_EQ(*from_sqlite, reference);
  }
  return reference;
}

TEST(BackendTest, SingleTableProjectionExecutes) {
  Vocabulary vocab;
  TgdProgram program = MustProgram("r(X, Y) -> s(X).", &vocab);
  Database db;
  PredicateId r = vocab.FindPredicate("r");
  auto c = [&](const char* name) {
    return Value::Constant(vocab.InternConstant(name));
  };
  db.Insert(r, {c("a"), c("b")});
  db.Insert(r, {c("b"), c("c")});

  UnionOfCqs q(MustQuery("q(X, Y) :- r(X, Y).", &vocab));
  std::vector<Tuple> answers = ExpectBackendsAgree(program, db, q, &vocab);
  EXPECT_EQ(answers.size(), 2u);
}

TEST(BackendTest, ReservedWordPredicatesExecute) {
  // Every one of these predicate names is a SQL keyword; executing the
  // DDL and the query on real SQLite is the only honest test that the
  // quoting sweep in SqlIdentifier is complete enough.
  Vocabulary vocab;
  for (const char* keyword :
       {"order", "select", "group", "distinct", "limit", "index", "primary",
        "between", "exists", "join", "union", "check", "default", "left",
        "natural", "transaction", "values", "offset", "cast"}) {
    TgdProgram program;
    PredicateId p = vocab.MustPredicate(keyword, 2);
    Database db;
    auto c = [&](const char* name) {
      return Value::Constant(vocab.InternConstant(name));
    };
    db.Insert(p, {c("a"), c("b")});
    db.Insert(p, {c("b"), c("b")});

    ConjunctiveQuery q(
        std::vector<Term>{Term::Var(vocab.InternVariable("X"))},
        {Atom(p, {Term::Var(vocab.InternVariable("X")),
                  Term::Const(vocab.InternConstant("b"))})});
    std::vector<Tuple> answers =
        ExpectBackendsAgree(program, db, UnionOfCqs(q), &vocab);
    EXPECT_EQ(answers.size(), 2u) << "predicate '" << keyword << "'";
  }
}

TEST(BackendTest, EmbeddedQuotesRoundTrip) {
  // Constants with interior single and double quotes survive insert,
  // comparison and decode.
  Vocabulary vocab;
  TgdProgram program;
  PredicateId r = vocab.MustPredicate("r", 2);
  ConstantId ohara = vocab.InternConstant("\"o'hara\"");
  ConstantId tall = vocab.InternConstant("\"5\" tall\"");
  ConstantId plain = vocab.InternConstant("plain");
  Database db;
  db.Insert(r, {Value::Constant(plain), Value::Constant(ohara)});
  db.Insert(r, {Value::Constant(ohara), Value::Constant(tall)});

  // q(X) :- r(X, "o'hara"): matches exactly the first tuple.
  ConjunctiveQuery q(std::vector<Term>{Term::Var(vocab.InternVariable("X"))},
                     {Atom(r, {Term::Var(vocab.InternVariable("X")),
                               Term::Const(ohara)})});
  std::vector<Tuple> answers =
      ExpectBackendsAgree(program, db, UnionOfCqs(q), &vocab);
  ASSERT_EQ(answers.size(), 1u);
  EXPECT_EQ(answers[0], Tuple{Value::Constant(plain)});

  // The decoded answer value round-trips through the interner: asking
  // for the tuple whose *answer* is the quoted constant works too.
  ConjunctiveQuery q2(std::vector<Term>{Term::Var(vocab.InternVariable("Y"))},
                      {Atom(r, {Term::Const(ohara),
                                Term::Var(vocab.InternVariable("Y"))})});
  std::vector<Tuple> answers2 =
      ExpectBackendsAgree(program, db, UnionOfCqs(q2), &vocab);
  ASSERT_EQ(answers2.size(), 1u);
  EXPECT_EQ(answers2[0], Tuple{Value::Constant(tall)});
}

TEST(BackendTest, BooleanQueryExecutes) {
  Vocabulary vocab;
  TgdProgram program = MustProgram("r(X, Y) -> s(X).", &vocab);
  Database db;
  PredicateId r = vocab.FindPredicate("r");
  db.Insert(r, {Value::Constant(vocab.InternConstant("a")),
                Value::Constant(vocab.InternConstant("b"))});

  // True: one empty tuple, not a tuple containing the literal 1.
  UnionOfCqs yes(MustQuery("q() :- r(X, Y).", &vocab));
  std::vector<Tuple> truthy = ExpectBackendsAgree(program, db, yes, &vocab);
  ASSERT_EQ(truthy.size(), 1u);
  EXPECT_TRUE(truthy[0].empty());

  // False: no rows at all (s holds no facts).
  UnionOfCqs no(MustQuery("q() :- s(X).", &vocab));
  EXPECT_TRUE(ExpectBackendsAgree(program, db, no, &vocab).empty());

  // A union of boolean disjuncts still collapses to a single empty tuple.
  UnionOfCqs both;
  both.Add(MustQuery("q() :- r(X, Y).", &vocab));
  both.Add(MustQuery("q() :- r(Y, X).", &vocab));
  EXPECT_EQ(ExpectBackendsAgree(program, db, both, &vocab).size(), 1u);
}

TEST(BackendTest, RepeatedVariableInOneAtomExecutes) {
  Vocabulary vocab;
  TgdProgram program;
  PredicateId r = vocab.MustPredicate("r", 3);
  auto c = [&](const char* name) {
    return Value::Constant(vocab.InternConstant(name));
  };
  Database db;
  db.Insert(r, {c("a"), c("a"), c("b")});
  db.Insert(r, {c("a"), c("b"), c("b")});
  db.Insert(r, {c("c"), c("c"), c("c")});

  // q(X, Z) :- r(X, X, Z): only the diagonal-in-the-first-two tuples.
  VariableId x = vocab.InternVariable("X");
  VariableId z = vocab.InternVariable("Z");
  ConjunctiveQuery q(std::vector<Term>{Term::Var(x), Term::Var(z)},
                     {Atom(r, {Term::Var(x), Term::Var(x), Term::Var(z)})});
  std::vector<Tuple> answers =
      ExpectBackendsAgree(program, db, UnionOfCqs(q), &vocab);
  ASSERT_EQ(answers.size(), 2u);
}

TEST(BackendTest, ZeroAryPredicateExecutes) {
  // CREATE TABLE p () is a SQL syntax error; the sentinel-column DDL from
  // TableToSql must make propositional predicates executable.
  Vocabulary vocab;
  TgdProgram program;
  PredicateId marked = vocab.MustPredicate("marked", 0);
  PredicateId unmarked = vocab.MustPredicate("unmarked", 0);
  Database db;
  db.Insert(marked, {});

  ConjunctiveQuery q_true(std::vector<Term>{}, {Atom(marked, {})});
  std::vector<Tuple> truthy =
      ExpectBackendsAgree(program, db, UnionOfCqs(q_true), &vocab);
  ASSERT_EQ(truthy.size(), 1u);
  EXPECT_TRUE(truthy[0].empty());

  ConjunctiveQuery q_false(std::vector<Term>{}, {Atom(unmarked, {})});
  EXPECT_TRUE(
      ExpectBackendsAgree(program, db, UnionOfCqs(q_false), &vocab).empty());
}

TEST(BackendTest, ConstantAnswerTermRoundTrips) {
  Vocabulary vocab;
  TgdProgram program;
  PredicateId r = vocab.MustPredicate("r", 1);
  ConstantId tag = vocab.InternConstant("tag");
  Database db;
  db.Insert(r, {Value::Constant(vocab.InternConstant("a"))});

  VariableId x = vocab.InternVariable("X");
  ConjunctiveQuery q(std::vector<Term>{Term::Const(tag), Term::Var(x)},
                     {Atom(r, {Term::Var(x)})});
  std::vector<Tuple> answers =
      ExpectBackendsAgree(program, db, UnionOfCqs(q), &vocab);
  ASSERT_EQ(answers.size(), 1u);
  EXPECT_EQ(answers[0][0], Value::Constant(tag));
}

TEST(BackendTest, NullsJoinByIdentityAndAreDroppedFromAnswers) {
  // A chase-produced database stores labeled nulls; the SQL encoding must
  // equate a null only with itself, and certain-answer execution must
  // drop tuples that still contain one.
  Vocabulary vocab;
  TgdProgram program;
  PredicateId r = vocab.MustPredicate("r", 2);
  PredicateId s = vocab.MustPredicate("s", 1);
  Database db;
  Value a = Value::Constant(vocab.InternConstant("a"));
  Value n0 = db.FreshNull();
  Value n1 = db.FreshNull();
  db.Insert(r, {a, n0});
  db.Insert(r, {n1, a});
  db.Insert(s, {n0});

  // q(X) :- r(X, Y), s(Y): Y must bind the same null in both atoms, so
  // only (a, n0) joins — and the answer `a` is null-free.
  UnionOfCqs q(MustQuery("q(X) :- r(X, Y), s(Y).", &vocab));
  std::vector<Tuple> certain =
      ExpectBackendsAgree(program, db, q, &vocab);
  ASSERT_EQ(certain.size(), 1u);
  EXPECT_EQ(certain[0], Tuple{a});

  // With drop_tuples_with_nulls off, the null answers come back — and
  // decode to the same null ids the in-memory path reports.
  UnionOfCqs all(MustQuery("q(X) :- r(X, Y).", &vocab));
  SqliteBackend sqlite(&vocab);
  ASSERT_TRUE(sqlite.Load(program, SharedDb(db)).ok());
  BackendExecOptions keep_nulls;
  keep_nulls.drop_tuples_with_nulls = false;
  StatusOr<std::vector<Tuple>> answers = sqlite.Execute(all, keep_nulls);
  ASSERT_TRUE(answers.ok()) << answers.status();
  EXPECT_EQ(*answers, (std::vector<Tuple>{{a}, {n1}}));
}

TEST(BackendTest, TextuallyEqualConstantsStayDistinct) {
  // `a` and `"a"` are distinct constants whose SQL text coincides. Cells
  // store constant ids, not text, so both load and come back as two
  // values, exactly as the in-memory evaluator answers.
  Vocabulary vocab;
  TgdProgram program;
  PredicateId r = vocab.MustPredicate("r", 1);
  const Value bare = Value::Constant(vocab.InternConstant("a"));
  const Value quoted = Value::Constant(vocab.InternConstant("\"a\""));
  Database db;
  db.Insert(r, {bare});
  db.Insert(r, {quoted});

  UnionOfCqs all(MustQuery("q(X) :- r(X).", &vocab));
  EXPECT_EQ(ExpectBackendsAgree(program, db, all, &vocab),
            (std::vector<Tuple>{{bare}, {quoted}}));

  // Selecting one of them by constant matches that one only.
  ConjunctiveQuery only_quoted(std::vector<Term>{},
                               {Atom(r, {Term::Const(quoted.id())})});
  EXPECT_EQ(
      ExpectBackendsAgree(program, db, UnionOfCqs(only_quoted), &vocab).size(),
      1u);
  PredicateId s = vocab.MustPredicate("s", 2);
  db.Insert(s, {bare, bare});
  UnionOfCqs join(MustQuery("q(X) :- r(X), s(X, Y).", &vocab));
  EXPECT_EQ(ExpectBackendsAgree(program, db, join, &vocab),
            std::vector<Tuple>{{bare}});
}

TEST(BackendTest, UnknownPredicateIsEmptyNotError) {
  // The in-memory evaluator treats a relation with no facts as empty;
  // SQLite must not answer "no such table" instead.
  Vocabulary vocab;
  TgdProgram program = MustProgram("r(X, Y) -> s(X).", &vocab);
  Database db;

  SqliteBackend sqlite(&vocab);
  ASSERT_TRUE(sqlite.Load(program, SharedDb(db)).ok());
  // `fresh` is not in the program or the data: interned after Load.
  UnionOfCqs q(MustQuery("q(X) :- fresh(X, Y).", &vocab));
  StatusOr<std::vector<Tuple>> answers = sqlite.Execute(q, {});
  ASSERT_TRUE(answers.ok()) << answers.status();
  EXPECT_TRUE(answers->empty());
}

TEST(BackendTest, ExecuteBeforeLoadFails) {
  Vocabulary vocab;
  UnionOfCqs q(MustQuery("q(X) :- r(X).", &vocab));
  SqliteBackend sqlite(&vocab);
  EXPECT_EQ(sqlite.Execute(q, {}).status().code(),
            StatusCode::kFailedPrecondition);
  InMemoryBackend memory;
  EXPECT_EQ(memory.Execute(q, {}).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(BackendTest, EmptyUcqIsRejectedNotEmptyAnswer) {
  // An empty union must keep failing with InvalidArgument (as UcqToSql
  // reports), not slip through the chunking loop as zero statements and
  // come back as an empty answer set.
  Vocabulary vocab;
  SqliteBackend sqlite(&vocab);
  ASSERT_TRUE(sqlite.Load(TgdProgram(), SharedDb(Database())).ok());
  EXPECT_EQ(sqlite.Execute(UnionOfCqs(), {}).status().code(),
            StatusCode::kInvalidArgument);
}

// Five single-atom disjuncts over distinct predicates: nothing to
// factor, so FactorUcq yields one output rule per disjunct. Every
// predicate holds a shared constant (exercising cross-chunk dedup) plus
// one of its own.
UnionOfCqs MakeUnsharedUnion(int disjuncts, Database* db, Vocabulary* vocab) {
  UnionOfCqs ucq;
  for (int i = 0; i < disjuncts; ++i) {
    const std::string name = "p" + std::to_string(i);
    PredicateId p = vocab->MustPredicate(name, 1);
    db->Insert(p, {Value::Constant(vocab->InternConstant("shared"))});
    db->Insert(p, {Value::Constant(
                      vocab->InternConstant("only" + std::to_string(i)))});
    ucq.Add(MustQuery("q(X) :- " + name + "(X).", vocab));
  }
  return ucq;
}

TEST(BackendTest, OversizedUnionChunksAcrossCompoundLimit) {
  // With SQLITE_LIMIT_COMPOUND_SELECT lowered to 2, a 5-disjunct union
  // cannot be prepared as one statement; Execute must chunk it and merge
  // (sort + dedup) the per-chunk answer sets.
  Vocabulary vocab;
  Database db;
  UnionOfCqs ucq = MakeUnsharedUnion(5, &db, &vocab);
  EvalOptions reference_options{.drop_tuples_with_nulls = true, .cancel = {}};
  std::vector<Tuple> reference = Evaluate(ucq, db, reference_options);
  ASSERT_EQ(reference.size(), 6u);  // "shared" deduped across chunks.

  SqliteBackend sqlite(&vocab);
  ASSERT_TRUE(sqlite.Load(TgdProgram(), SharedDb(db)).ok());
  ASSERT_TRUE(sqlite.SetCompoundSelectLimitForTest(2).ok());
  StatusOr<std::vector<Tuple>> answers = sqlite.Execute(ucq, {});
  ASSERT_TRUE(answers.ok()) << answers.status();
  EXPECT_EQ(*answers, reference);
}

TEST(BackendTest, WideDatalogProgramFallsBackWithoutDeadlock) {
  // A factored program whose output union is wider than
  // SQLITE_LIMIT_COMPOUND_SELECT cannot be emitted as one WITH-CTE
  // statement; ExecuteDatalog must fall back to the unfolded chunked
  // Execute path *after* releasing the connection mutex — a regression
  // here self-deadlocks (the fallback re-enters Execute, which locks the
  // same non-recursive mutex) instead of failing an assertion.
  Vocabulary vocab;
  Database db;
  UnionOfCqs ucq = MakeUnsharedUnion(5, &db, &vocab);
  StatusOr<DatalogProgram> factored = FactorUcq(ucq);
  ASSERT_TRUE(factored.ok()) << factored.status();
  EXPECT_EQ(factored->cte_count(), 0);  // No shareable structure.
  ASSERT_GT(factored->output.size(), 2u);

  EvalOptions reference_options{.drop_tuples_with_nulls = true, .cancel = {}};
  std::vector<Tuple> reference = Evaluate(ucq, db, reference_options);

  SqliteBackend sqlite(&vocab);
  ASSERT_TRUE(sqlite.Load(TgdProgram(), SharedDb(db)).ok());
  ASSERT_TRUE(sqlite.SetCompoundSelectLimitForTest(2).ok());
  StatusOr<std::vector<Tuple>> answers = sqlite.ExecuteDatalog(*factored, {});
  ASSERT_TRUE(answers.ok()) << answers.status();
  EXPECT_EQ(*answers, reference);
}

TEST(BackendTest, DeadlineMapsToProgressHandler) {
  // A cartesian product far too large to finish: the progress handler
  // must notice the deadline mid-statement and interrupt, returning
  // DeadlineExceeded promptly instead of scanning to completion.
  Vocabulary vocab;
  TgdProgram program;
  PredicateId r = vocab.MustPredicate("r", 2);
  Database db;
  for (int i = 0; i < 300; ++i) {
    db.Insert(r, {Value::Constant(vocab.InternConstant("x" +
                                                       std::to_string(i))),
                  Value::Constant(vocab.InternConstant("y" +
                                                       std::to_string(i)))});
  }
  SqliteBackend sqlite(&vocab);
  ASSERT_TRUE(sqlite.Load(program, SharedDb(db)).ok());

  UnionOfCqs q(MustQuery("q() :- r(A, B), r(C, D), r(E, F), r(G, H).",
                         &vocab));
  BackendExecOptions exec;
  exec.cancel = CancelScope(Deadline::AfterMillis(50));
  const auto start = Deadline::Clock::now();
  StatusOr<std::vector<Tuple>> answers = sqlite.Execute(q, exec);
  const auto elapsed = Deadline::Clock::now() - start;
  ASSERT_FALSE(answers.ok());
  EXPECT_EQ(answers.status().code(), StatusCode::kDeadlineExceeded)
      << answers.status();
  EXPECT_LT(elapsed, std::chrono::seconds(10));
}

TEST(BackendTest, CancelledTokenInterruptsExecution) {
  Vocabulary vocab;
  TgdProgram program;
  PredicateId r = vocab.MustPredicate("r", 1);
  Database db;
  db.Insert(r, {Value::Constant(vocab.InternConstant("a"))});
  SqliteBackend sqlite(&vocab);
  ASSERT_TRUE(sqlite.Load(program, SharedDb(db)).ok());

  auto token = std::make_shared<CancelToken>();
  token->Cancel();
  BackendExecOptions exec;
  exec.cancel = CancelScope(Deadline::Infinite(), token);
  UnionOfCqs q(MustQuery("q(X) :- r(X).", &vocab));
  EXPECT_EQ(sqlite.Execute(q, exec).status().code(), StatusCode::kCancelled);
}

TEST(BackendTest, InjectedBackendFaultSurfaces) {
  Vocabulary vocab;
  TgdProgram program;
  PredicateId r = vocab.MustPredicate("r", 1);
  Database db;
  db.Insert(r, {Value::Constant(vocab.InternConstant("a"))});
  SqliteBackend sqlite(&vocab);
  ASSERT_TRUE(sqlite.Load(program, SharedDb(db)).ok());

  ScopedFault fault("backend.exec", {});
  UnionOfCqs q(MustQuery("q(X) :- r(X).", &vocab));
  EXPECT_EQ(sqlite.Execute(q, {}).status().code(), StatusCode::kInternal);
}

TEST(BackendTest, ReloadReplacesAllData) {
  Vocabulary vocab;
  TgdProgram program = MustProgram("r(X, Y) -> s(X).", &vocab);
  PredicateId r = vocab.FindPredicate("r");
  auto c = [&](const char* name) {
    return Value::Constant(vocab.InternConstant(name));
  };
  Database first;
  first.Insert(r, {c("a"), c("b")});
  first.Insert(r, {c("c"), c("d")});
  Database second;
  second.Insert(r, {c("e"), c("f")});

  SqliteBackend sqlite(&vocab);
  ASSERT_TRUE(sqlite.Load(program, SharedDb(first)).ok());
  StatusOr<std::int64_t> stored = sqlite.StoredTuples();
  ASSERT_TRUE(stored.ok());
  EXPECT_EQ(*stored, 2);

  ASSERT_TRUE(sqlite.Load(program, SharedDb(second)).ok());
  stored = sqlite.StoredTuples();
  ASSERT_TRUE(stored.ok());
  EXPECT_EQ(*stored, 1);

  UnionOfCqs q(MustQuery("q(X) :- r(X, Y).", &vocab));
  StatusOr<std::vector<Tuple>> answers = sqlite.Execute(q, {});
  ASSERT_TRUE(answers.ok());
  EXPECT_EQ(*answers, std::vector<Tuple>{{c("e")}});
}

// The concurrent-load contract (backend.h): a Load racing Executes never
// shows an Execute a database being replaced underneath it. One writer
// alternates two databases while four readers execute; every answer must
// be one whole database's.
TEST(BackendTest, InMemoryLoadRacingExecuteAnswersOneWholeDatabase) {
  Vocabulary vocab;
  TgdProgram program = MustProgram("r(X, Y) -> s(X).", &vocab);
  PredicateId r = vocab.FindPredicate("r");
  auto c = [&](const std::string& name) {
    return Value::Constant(vocab.InternConstant(name));
  };
  Database first_db;
  Database second_db;
  for (int i = 0; i < 40; ++i) {
    first_db.Insert(r, {c(StrCat("a", i)), c("b")});
    second_db.Insert(r, {c(StrCat("x", i)), c(StrCat("y", i))});
    second_db.Insert(r, {c(StrCat("y", i)), c("z")});
  }
  const auto first = SharedDb(std::move(first_db));
  const auto second = SharedDb(std::move(second_db));
  StatusOr<RewriteResult> rewriting =
      RewriteCq(MustQuery("q(X) :- s(X).", &vocab), program);
  ASSERT_TRUE(rewriting.ok()) << rewriting.status();
  const UnionOfCqs& ucq = rewriting->ucq;

  BackendExecOptions exec;
  exec.num_threads = 2;
  std::vector<std::vector<Tuple>> expected;
  for (const auto& db : {first, second}) {
    InMemoryBackend reference;
    ASSERT_TRUE(reference.Load(program, db).ok());
    StatusOr<std::vector<Tuple>> answers = reference.Execute(ucq, exec);
    ASSERT_TRUE(answers.ok()) << answers.status();
    expected.push_back(*std::move(answers));
  }
  ASSERT_NE(expected[0], expected[1]);

  InMemoryBackend backend;
  ASSERT_TRUE(backend.Load(program, first).ok());
  std::atomic<bool> executing{true};
  std::atomic<int> failed_loads{0};
  std::thread writer([&] {
    for (int i = 0; executing.load(); ++i) {
      if (!backend.Load(program, i % 2 == 0 ? second : first).ok()) {
        ++failed_loads;
      }
    }
  });
  std::atomic<int> failed{0};
  std::atomic<int> mismatched{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&] {
      for (int i = 0; i < 100; ++i) {
        StatusOr<std::vector<Tuple>> answers = backend.Execute(ucq, exec);
        if (!answers.ok()) {
          ++failed;
        } else if (*answers != expected[0] && *answers != expected[1]) {
          ++mismatched;
        }
      }
    });
  }
  for (std::thread& reader : readers) reader.join();
  executing.store(false);
  writer.join();
  EXPECT_EQ(failed_loads.load(), 0);
  EXPECT_EQ(failed.load(), 0);
  EXPECT_EQ(mismatched.load(), 0);
}

TEST(BackendTest, UniversityRewritingAgreesAcrossBackends) {
  // The acceptance workload: every rewritten university query returns
  // identical certain-answer sets on both backends.
  Vocabulary vocab;
  TgdProgram ontology = UniversityOntology(&vocab);
  Rng rng(20240806);
  UniversityInstanceOptions options;
  options.num_professors = 5;
  options.num_lecturers = 5;
  options.num_students = 40;
  options.num_phd_students = 6;
  options.num_courses = 10;
  Database db = UniversityInstance(options, &rng, &vocab);

  for (const char* text :
       {"q(X) :- person(X).", "q(X) :- faculty(X).", "q(X) :- course(X).",
        "q(X, Y) :- teaches(X, Y).", "q(X) :- advises(X, Y), student(Y).",
        "q() :- phd(X)."}) {
    StatusOr<RewriteResult> rewriting =
        RewriteCq(MustQuery(text, &vocab), ontology);
    ASSERT_TRUE(rewriting.ok()) << text << ": " << rewriting.status();
    ExpectBackendsAgree(ontology, db, rewriting->ucq, &vocab);
  }
}

TEST(BackendTest, ReadPathRunsNoDdl) {
  // A predicate with no table is spelled as an empty inline relation, so
  // queries over fresh predicate names answer the empty set without
  // touching the schema: sqlite_master, read through a second
  // connection, and the schema cookie stay exactly as Load left them.
  const std::string path = ::testing::TempDir() + "backend_no_ddl.db";
  std::remove(path.c_str());
  Vocabulary vocab;
  TgdProgram program = MustProgram("r(X, Y) -> s(X).", &vocab);
  Database db;
  db.Insert(vocab.FindPredicate("r"),
            {Value::Constant(vocab.InternConstant("a")),
             Value::Constant(vocab.InternConstant("b"))});
  SqliteBackendOptions options;
  options.path = path;
  SqliteBackend sqlite(&vocab, options);
  ASSERT_TRUE(sqlite.Load(program, SharedDb(db)).ok());

  auto schema = [&path]() {
    sqlite3* conn = nullptr;
    EXPECT_EQ(sqlite3_open_v2(path.c_str(), &conn, SQLITE_OPEN_READONLY,
                              nullptr),
              SQLITE_OK);
    std::string dump;
    sqlite3_stmt* stmt = nullptr;
    EXPECT_EQ(sqlite3_prepare_v2(
                  conn,
                  "SELECT type, name, COALESCE(sql, '') FROM sqlite_master "
                  "ORDER BY type, name",
                  -1, &stmt, nullptr),
              SQLITE_OK);
    while (sqlite3_step(stmt) == SQLITE_ROW) {
      for (int j = 0; j < 3; ++j) {
        dump += reinterpret_cast<const char*>(sqlite3_column_text(stmt, j));
        dump += '|';
      }
      dump += '\n';
    }
    sqlite3_finalize(stmt);
    EXPECT_EQ(sqlite3_prepare_v2(conn, "PRAGMA schema_version", -1, &stmt,
                                 nullptr),
              SQLITE_OK);
    if (sqlite3_step(stmt) == SQLITE_ROW) {
      dump += "cookie=" + std::to_string(sqlite3_column_int64(stmt, 0));
    }
    sqlite3_finalize(stmt);
    sqlite3_close(conn);
    return dump;
  };
  const std::string before = schema();
  EXPECT_NE(before.find("table|r|"), std::string::npos) << before;

  for (int i = 0; i < 1000; ++i) {
    const std::string name = "fresh" + std::to_string(i);
    UnionOfCqs q(MustQuery("q(X) :- r(X, Y), " + name + "(Y).", &vocab));
    StatusOr<std::vector<Tuple>> answers = sqlite.Execute(q, {});
    ASSERT_TRUE(answers.ok()) << name << ": " << answers.status();
    EXPECT_TRUE(answers->empty()) << name;
  }
  // The program's own predicate `s` has no facts, hence no table either.
  StatusOr<std::vector<Tuple>> from_s =
      sqlite.Execute(UnionOfCqs(MustQuery("q(X) :- s(X).", &vocab)), {});
  ASSERT_TRUE(from_s.ok()) << from_s.status();
  EXPECT_TRUE(from_s->empty());
  EXPECT_EQ(schema(), before);
  std::remove(path.c_str());
}

// --- Prepared-statement cache -----------------------------------------------

TEST(BackendTest, CachedStatementSeesReloadedData) {
  Vocabulary vocab;
  TgdProgram program;
  PredicateId r = vocab.MustPredicate("r", 2);
  auto c = [&](const char* name) {
    return Value::Constant(vocab.InternConstant(name));
  };
  Database first;
  first.Insert(r, {c("a"), c("b")});
  Database second;
  second.Insert(r, {c("c"), c("d")});
  second.Insert(r, {c("e"), c("d")});

  SqliteBackend sqlite(&vocab);
  UnionOfCqs q(MustQuery("q(X) :- r(X, Y).", &vocab));
  ASSERT_TRUE(sqlite.Load(program, SharedDb(first)).ok());
  StatusOr<std::vector<Tuple>> before = sqlite.Execute(q, {});
  ASSERT_TRUE(before.ok()) << before.status();
  EXPECT_EQ(*before, std::vector<Tuple>{{c("a")}});
  EXPECT_EQ(sqlite.cached_statements(), 1u);

  ASSERT_TRUE(sqlite.Load(program, SharedDb(second)).ok());
  EXPECT_EQ(sqlite.cached_statements(), 0u);
  StatusOr<std::vector<Tuple>> after = sqlite.Execute(q, {});
  ASSERT_TRUE(after.ok()) << after.status();
  EXPECT_EQ(*after, (std::vector<Tuple>{{c("c")}, {c("e")}}));

  // A reload that drops r altogether: the same query now reads the empty
  // inline relation, not a stale statement over the dropped table.
  ASSERT_TRUE(sqlite.Load(program, SharedDb(Database())).ok());
  StatusOr<std::vector<Tuple>> empty = sqlite.Execute(q, {});
  ASSERT_TRUE(empty.ok()) << empty.status();
  EXPECT_TRUE(empty->empty());
}

// r holds `n` rows; q(A, C) :- r(A, B), r(C, D), r(E, F) steps through
// n^3 combinations for n^2 answers — long enough to cut short, short
// enough to finish.
struct SlowQueryFixture {
  Vocabulary vocab;
  TgdProgram program;
  Database db;
  UnionOfCqs query;

  explicit SlowQueryFixture(int n)
      : query(MustQuery("q(A, C) :- r(A, B), r(C, D), r(E, F).", &vocab)) {
    PredicateId r = vocab.FindPredicate("r");
    for (int i = 0; i < n; ++i) {
      db.Insert(r, {Value::Constant(
                        vocab.InternConstant("x" + std::to_string(i))),
                    Value::Constant(
                        vocab.InternConstant("y" + std::to_string(i)))});
    }
  }
};

TEST(BackendTest, StatementCutShortIsResetForTheNextRequest) {
  FaultQuiesce quiesce;
  SlowQueryFixture fx(120);
  SqliteBackend sqlite(&fx.vocab);
  ASSERT_TRUE(sqlite.Load(fx.program, SharedDb(fx.db)).ok());
  const std::size_t full = 120u * 120u;
  EvalStats reference_stats;
  StatusOr<std::vector<Tuple>> reference =
      sqlite.Execute(fx.query, {}, &reference_stats);
  ASSERT_TRUE(reference.ok()) << reference.status();
  ASSERT_EQ(reference->size(), full);

  auto expect_full_rerun = [&](const char* after) {
    EvalStats stats;
    StatusOr<std::vector<Tuple>> again = sqlite.Execute(fx.query, {}, &stats);
    ASSERT_TRUE(again.ok()) << after << ": " << again.status();
    EXPECT_EQ(*again, *reference) << after;
    EXPECT_EQ(stats.tuples_examined, reference_stats.tuples_examined)
        << after;
    EXPECT_EQ(sqlite.cached_statements(), 1u) << after;
  };

  // Deadline: the progress handler interrupts the scan mid-way.
  BackendExecOptions deadline;
  deadline.cancel = CancelScope(Deadline::AfterMillis(2));
  EXPECT_EQ(sqlite.Execute(fx.query, deadline).status().code(),
            StatusCode::kDeadlineExceeded);
  expect_full_rerun("deadline");

  // Cancel: the token trips while the statement runs.
  auto token = std::make_shared<CancelToken>();
  BackendExecOptions cancel;
  cancel.cancel = CancelScope(Deadline::Infinite(), token);
  std::thread canceller([token] {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    token->Cancel();
  });
  StatusOr<std::vector<Tuple>> cancelled = sqlite.Execute(fx.query, cancel);
  canceller.join();
  EXPECT_EQ(cancelled.status().code(), StatusCode::kCancelled);
  expect_full_rerun("cancel");

  // Busy: the scan reports contention before its first step.
  FaultRegistry::Global().Arm("backend.busy", {.probability = 1.0});
  EXPECT_EQ(sqlite.Execute(fx.query, {}).status().code(),
            StatusCode::kUnavailable);
  FaultRegistry::Global().Disarm("backend.busy");
  expect_full_rerun("busy");
}

TEST(BackendTest, IdenticalExecutionsReportEqualTuplesExamined) {
  // Full-scan steps are read with the reset flag: a cached statement
  // must not carry its counter from one request into the next.
  SlowQueryFixture fx(20);
  SqliteBackend sqlite(&fx.vocab);
  ASSERT_TRUE(sqlite.Load(fx.program, SharedDb(fx.db)).ok());
  EvalStats first;
  EvalStats second;
  ASSERT_TRUE(sqlite.Execute(fx.query, {}, &first).ok());
  ASSERT_TRUE(sqlite.Execute(fx.query, {}, &second).ok());
  EXPECT_GT(first.tuples_examined, 0);
  EXPECT_EQ(first.tuples_examined, second.tuples_examined);
  EXPECT_EQ(first.matches, second.matches);
}

TEST(BackendTest, StatementCacheStaysAtItsCapacity) {
  Vocabulary vocab;
  TgdProgram program;
  PredicateId r = vocab.MustPredicate("r", 2);
  Database db;
  db.Insert(r, {Value::Constant(vocab.InternConstant("a")),
                Value::Constant(vocab.InternConstant("c7"))});
  SqliteBackend sqlite(&vocab);
  ASSERT_TRUE(sqlite.Load(program, SharedDb(db)).ok());
  for (int i = 0; i < 5000; ++i) {
    UnionOfCqs q(
        MustQuery("q(X) :- r(X, c" + std::to_string(i) + ").", &vocab));
    StatusOr<std::vector<Tuple>> answers = sqlite.Execute(q, {});
    ASSERT_TRUE(answers.ok()) << answers.status();
    EXPECT_EQ(answers->size(), i == 7 ? 1u : 0u) << i;
    EXPECT_LE(sqlite.cached_statements(),
              SqliteBackend::kStatementCacheCapacity);
  }
  EXPECT_EQ(sqlite.cached_statements(),
            SqliteBackend::kStatementCacheCapacity);
}

TEST(BackendTest, UniversityJoinPlansBuildNoAutomaticIndex) {
  // Plan regression: with every relation keyed and indexed, and ANALYZE
  // run at Load, no arm of the join rewriting needs SQLite to build an
  // automatic index per request.
  Vocabulary vocab;
  TgdProgram ontology = UniversityOntology(&vocab);
  Rng rng(20);
  UniversityInstanceOptions instance;
  instance.num_students = 200;
  Database db = UniversityInstance(instance, &rng, &vocab);
  // Each student knows the next two, as in the serving benchmark.
  PredicateId knows = vocab.MustPredicate("knows", 2);
  auto student = [&vocab](int i) {
    return Value::Constant(
        vocab.InternConstant("stud" + std::to_string(i % 200)));
  };
  for (int i = 0; i < 200; ++i) {
    db.Insert(knows, {student(i), student(i + 1)});
    db.Insert(knows, {student(i), student(i + 2)});
  }
  StatusOr<RewriteResult> rewriting = RewriteCq(
      MustQuery("q(X0) :- person(X0), knows(X0, X1), person(X1).", &vocab),
      ontology);
  ASSERT_TRUE(rewriting.ok()) << rewriting.status();
  ASSERT_GT(rewriting->ucq.size(), 1);

  SqliteBackend sqlite(&vocab);
  ASSERT_TRUE(sqlite.Load(ontology, SharedDb(db)).ok());
  Trace trace;
  BackendExecOptions exec;
  exec.trace = TraceContext(&trace);
  StatusOr<std::vector<Tuple>> answers =
      sqlite.Execute(rewriting->ucq, exec);
  ASSERT_TRUE(answers.ok()) << answers.status();
  EXPECT_FALSE(answers->empty());

  int plan_rows = 0;
  for (const SpanRecord& span : trace.Snapshot()) {
    if (span.name != "scan") continue;
    for (const auto& [key, value] : span.attributes) {
      if (key != "plan") continue;
      ++plan_rows;
      EXPECT_EQ(value.find("AUTOMATIC"), std::string::npos) << value;
    }
  }
  EXPECT_GT(plan_rows, 0) << trace.ToString();
}

// --- Lock contention ---------------------------------------------------------

TEST(BackendTest, RealLockIsRetryableUnavailableUntilReleased) {
  // A second connection holds the file database's exclusive lock. The
  // backend neither waits nor retries: Execute and Load fail at once
  // with the retryable Unavailable, and both succeed once the lock is
  // gone.
  const std::string path = ::testing::TempDir() + "backend_lock.db";
  std::remove(path.c_str());
  Vocabulary vocab;
  TgdProgram program = MustProgram("r(X, Y) -> s(X).", &vocab);
  UnionOfCqs query(MustQuery("q(X, Y) :- r(X, Y).", &vocab));
  const Tuple ab = {Value::Constant(vocab.InternConstant("a")),
                    Value::Constant(vocab.InternConstant("b"))};
  Database db;
  db.Insert(vocab.FindPredicate("r"), ab);
  SqliteBackendOptions options;
  options.path = path;
  SqliteBackend sqlite(&vocab, options);
  ASSERT_TRUE(sqlite.Load(program, SharedDb(db)).ok());

  sqlite3* other = nullptr;
  ASSERT_EQ(sqlite3_open(path.c_str(), &other), SQLITE_OK);
  ASSERT_EQ(sqlite3_exec(other, "BEGIN EXCLUSIVE;", nullptr, nullptr,
                         nullptr),
            SQLITE_OK);
  const auto start = std::chrono::steady_clock::now();
  StatusOr<std::vector<Tuple>> locked = sqlite.Execute(query, {});
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_EQ(locked.status().code(), StatusCode::kUnavailable)
      << locked.status();
  EXPECT_TRUE(IsRetryableStatusCode(locked.status().code()));
  EXPECT_LT(elapsed, std::chrono::milliseconds(50));
  const Status reload = sqlite.Load(program, SharedDb(db));
  EXPECT_EQ(reload.code(), StatusCode::kUnavailable) << reload;

  ASSERT_EQ(sqlite3_exec(other, "COMMIT;", nullptr, nullptr, nullptr),
            SQLITE_OK);
  sqlite3_close(other);
  ASSERT_TRUE(sqlite.Load(program, SharedDb(db)).ok());
  StatusOr<std::vector<Tuple>> answers = sqlite.Execute(query, {});
  ASSERT_TRUE(answers.ok()) << answers.status();
  EXPECT_EQ(*answers, std::vector<Tuple>{ab});
  std::remove(path.c_str());
}

}  // namespace
}  // namespace ontorew
