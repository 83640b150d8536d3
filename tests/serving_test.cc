#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "backend/backend.h"
#include "backend/sqlite_backend.h"
#include "base/deadline.h"
#include "base/fault_point.h"
#include "base/rng.h"
#include "base/trace.h"
#include "chase/chase.h"
#include "db/eval.h"
#include "gtest/gtest.h"
#include "serving/answer_engine.h"
#include "serving/parallel_eval.h"
#include "test_util.h"
#include "workload/generators.h"
#include "workload/paper_examples.h"
#include "workload/university.h"

namespace ontorew {
namespace {

// --- Parallel evaluation: determinism --------------------------------------

// The parallel evaluator must return byte-identical sorted answers to the
// single-threaded one, for every thread count, on generator workloads.
TEST(ParallelEvalTest, DeterministicAcrossThreadCounts) {
  for (int seed = 1; seed <= 4; ++seed) {
    Rng rng(static_cast<std::uint64_t>(seed) * 104729);
    Vocabulary vocab;
    TgdProgram program = MustProgram(
        "r(X, Y) -> s(X).\n"
        "s(X) -> t(X, Y).\n"
        "t(X, Y), s(Y) -> r(X, Y).\n",
        &vocab);
    Database db = RandomDatabase(program, 30, 6, &rng, &vocab);
    UnionOfCqs ucq;
    for (int d = 0; d < 6; ++d) {
      ucq.Add(RandomCq(program, rng.UniformIn(1, 3), 1, &rng, &vocab));
    }

    ParallelEvalOptions single;
    single.num_threads = 1;
    StatusOr<std::vector<Tuple>> reference = ParallelEvaluate(ucq, db, single);
    ASSERT_TRUE(reference.ok()) << reference.status();
    EXPECT_EQ(*reference, Evaluate(ucq, db, single.eval));

    for (int threads : {2, 3, 8}) {
      ParallelEvalOptions multi;
      multi.num_threads = threads;
      StatusOr<std::vector<Tuple>> parallel = ParallelEvaluate(ucq, db, multi);
      ASSERT_TRUE(parallel.ok()) << parallel.status();
      EXPECT_EQ(*parallel, *reference)
          << "seed " << seed << ", " << threads << " threads";
    }
  }
}

TEST(ParallelEvalTest, StatsAreSummedAcrossWorkers) {
  Vocabulary vocab;
  Database db;
  PredicateId edge = vocab.MustPredicate("edge", 2);
  for (int i = 0; i < 10; ++i) {
    db.Insert(edge, {Value::Constant(vocab.InternConstant("a")),
                     Value::Constant(vocab.InternConstant(
                         std::string("b") + std::to_string(i)))});
  }
  UnionOfCqs ucq;
  ucq.Add(MustQuery("q(X) :- edge(X, Y).", &vocab));
  ucq.Add(MustQuery("q(Y) :- edge(X, Y).", &vocab));

  EvalStats sequential;
  ParallelEvalOptions single;
  single.num_threads = 1;
  ASSERT_TRUE(ParallelEvaluate(ucq, db, single, &sequential).ok());

  EvalStats parallel;
  ParallelEvalOptions multi;
  multi.num_threads = 4;
  ASSERT_TRUE(ParallelEvaluate(ucq, db, multi, &parallel).ok());

  EXPECT_EQ(parallel.tuples_examined, sequential.tuples_examined);
  EXPECT_EQ(parallel.matches, sequential.matches);
  EXPECT_GT(parallel.matches, 0);
}

// --- Parallel evaluation: failure & clamping --------------------------------

TEST(ParallelEvalTest, EffectiveThreadsClampsAbsurdRequests) {
  // Never more workers than disjuncts: 10'000 threads on a 12-disjunct
  // union is 12 workers, not a fork bomb.
  EXPECT_EQ(EffectiveThreads(10'000, 12), 12);
  EXPECT_EQ(EffectiveThreads(10'000, 1), 1);
  // And never past the hard pool ceiling, however many tasks there are.
  EXPECT_EQ(EffectiveThreads(10'000, 1'000'000), kMaxEvalThreads);
  // Sane requests pass through; degenerate inputs resolve to >= 1.
  EXPECT_EQ(EffectiveThreads(3, 12), 3);
  EXPECT_EQ(EffectiveThreads(1, 0), 1);
  EXPECT_GE(EffectiveThreads(0, 12), 1);   // Auto-pick.
  EXPECT_GE(EffectiveThreads(-7, 12), 1);  // Negative is auto-pick too.
}

TEST(ParallelEvalTest, WorkerEvalFailurePropagatesAsStatus) {
  // One disjunct of the union carries a schema bug (query arity disagrees
  // with the stored relation). The worker's failure must surface as the
  // call's error Status — with no partial answers from the healthy
  // disjuncts — for every thread count.
  Vocabulary vocab;
  Database db;
  PredicateId edge = vocab.MustPredicate("edge", 2);
  for (int i = 0; i < 600; ++i) {
    db.Insert(edge, {Value::Constant(vocab.InternConstant("a")),
                     Value::Constant(vocab.InternConstant(
                         std::string("b") + std::to_string(i)))});
  }
  UnionOfCqs ucq;
  ucq.Add(MustQuery("q(X) :- edge(X, Y).", &vocab));
  Atom unary_edge(edge, {Term::Var(vocab.InternVariable("Z"))});
  ucq.Add(ConjunctiveQuery(std::vector<Term>{unary_edge.term(0)},
                           {unary_edge}));
  ucq.Add(MustQuery("q(Y) :- edge(X, Y).", &vocab));

  for (int threads : {1, 2, 4}) {
    ParallelEvalOptions options;
    options.num_threads = threads;
    StatusOr<std::vector<Tuple>> result = ParallelEvaluate(ucq, db, options);
    ASSERT_FALSE(result.ok()) << threads << " threads";
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(result.status().message().find("arity mismatch"),
              std::string::npos);
  }
}

TEST(ParallelEvalTest, ExpiredDeadlineStopsEvaluation) {
  Vocabulary vocab;
  Database db;
  PredicateId edge = vocab.MustPredicate("edge", 2);
  for (int i = 0; i < 2000; ++i) {
    db.Insert(edge, {Value::Constant(vocab.InternConstant("a")),
                     Value::Constant(vocab.InternConstant(
                         std::string("b") + std::to_string(i)))});
  }
  UnionOfCqs ucq;
  ucq.Add(MustQuery("q(X, Y) :- edge(X, Y), edge(Y, Z).", &vocab));
  ucq.Add(MustQuery("q(X, X) :- edge(X, X).", &vocab));

  for (int threads : {1, 4}) {
    ParallelEvalOptions options;
    options.num_threads = threads;
    options.eval.cancel =
        CancelScope(Deadline::After(std::chrono::milliseconds(-1)));
    StatusOr<std::vector<Tuple>> result = ParallelEvaluate(ucq, db, options);
    ASSERT_FALSE(result.ok()) << threads << " threads";
    EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);
  }
}

// --- AnswerEngine: correctness ---------------------------------------------

TEST(AnswerEngineTest, AgreesWithDirectRewriteAndEvaluate) {
  Vocabulary vocab;
  TgdProgram ontology = UniversityOntology(&vocab);
  Rng rng(7);
  UniversityInstanceOptions instance;
  instance.num_students = 60;
  Database db = UniversityInstance(instance, &rng, &vocab);

  ConjunctiveQuery query = MustQuery(
      "q(S) :- enrolled(S, C), teaches(T, C), faculty(T).", &vocab);

  StatusOr<RewriteResult> rewriting = RewriteCq(query, ontology);
  ASSERT_TRUE(rewriting.ok());
  EvalOptions drop;
  drop.drop_tuples_with_nulls = true;
  std::vector<Tuple> expected = Evaluate(rewriting->ucq, db, drop);

  AnswerEngine engine(ontology, db);
  StatusOr<std::vector<Tuple>> answers = engine.CertainAnswers(query);
  ASSERT_TRUE(answers.ok()) << answers.status();
  EXPECT_EQ(*answers, expected);

  // And a second serve (warm cache, parallel eval) is identical.
  StatusOr<std::vector<Tuple>> again = engine.CertainAnswers(query);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(*again, expected);
}

TEST(AnswerEngineTest, AgreesWithChaseOnUniversityQueries) {
  Vocabulary vocab;
  TgdProgram ontology = UniversityOntology(&vocab);
  Rng rng(2024);
  UniversityInstanceOptions instance;
  instance.num_students = 40;
  Database db = UniversityInstance(instance, &rng, &vocab);
  AnswerEngine engine(ontology, db);

  for (const char* text :
       {"q(X) :- person(X).", "q(X) :- faculty(X).",
        "q(X) :- advises(Y, X), phd(X)."}) {
    ConjunctiveQuery query = MustQuery(text, &vocab);
    StatusOr<std::vector<Tuple>> served = engine.CertainAnswers(query);
    ASSERT_TRUE(served.ok()) << served.status();
    StatusOr<std::vector<Tuple>> certain =
        CertainAnswersViaChase(UnionOfCqs(query), ontology, db);
    ASSERT_TRUE(certain.ok());
    EXPECT_EQ(*served, *certain) << text;
  }
}

TEST(AnswerEngineTest, RewriteErrorsPropagateAndAreNotCached) {
  Vocabulary vocab;
  // PaperExample2 is not FO-rewritable for this query: the saturation
  // hits the cap.
  TgdProgram program = PaperExample2(&vocab);
  AnswerEngineOptions options;
  options.max_cqs = 500;
  AnswerEngine engine(program, Database(), options);
  ConjunctiveQuery query = MustQuery("q() :- r(\"a\", X).", &vocab);

  StatusOr<std::vector<Tuple>> result = engine.CertainAnswers(query);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
  // The failure was recorded as a miss, and nothing was cached.
  EXPECT_EQ(engine.cache_stats().misses, 1);
  EXPECT_EQ(engine.cache_stats().size, 0u);
}

// --- AnswerEngine: cache behaviour -----------------------------------------

TEST(AnswerEngineTest, CacheHitsOnRepeatedAndIsomorphicQueries) {
  Vocabulary vocab;
  TgdProgram ontology = UniversityOntology(&vocab);
  AnswerEngine engine(ontology, Database());

  ConjunctiveQuery query = MustQuery("q(X) :- faculty(X).", &vocab);
  ASSERT_TRUE(engine.CertainAnswers(query).ok());
  EXPECT_EQ(engine.cache_stats().misses, 1);
  EXPECT_EQ(engine.cache_stats().hits, 0);

  ASSERT_TRUE(engine.CertainAnswers(query).ok());
  EXPECT_EQ(engine.cache_stats().hits, 1);

  // A variable-renamed (isomorphic) variant hits the same entry.
  ConjunctiveQuery renamed = MustQuery("q(Z) :- faculty(Z).", &vocab);
  EXPECT_EQ(engine.CacheKey(UnionOfCqs(renamed)),
            engine.CacheKey(UnionOfCqs(query)));
  ASSERT_TRUE(engine.CertainAnswers(renamed).ok());
  EXPECT_EQ(engine.cache_stats().hits, 2);
  EXPECT_EQ(engine.cache_stats().misses, 1);
}

TEST(AnswerEngineTest, DistinctProgramsNeverShareACacheEntry) {
  Vocabulary vocab;
  TgdProgram ontology = UniversityOntology(&vocab);
  TgdProgram extended = ontology;
  extended.Add(MustTgd("visitor(X) -> person(X).", &vocab));
  AnswerEngineOptions options;
  options.shared_cache = std::make_shared<RewriteCache>(16);
  const UnionOfCqs query(MustQuery("q(X) :- person(X).", &vocab));

  AnswerEngine first(ontology, Database(), options);
  StatusOr<AnswerResult> original = first.Serve(query);
  ASSERT_TRUE(original.ok()) << original.status();
  EXPECT_FALSE(original->cache_hit);

  // The same program: same fingerprint and key, so the entry is shared.
  AnswerEngine twin(ontology, Database(), options);
  EXPECT_EQ(twin.program_fingerprint(), first.program_fingerprint());
  EXPECT_EQ(twin.CacheKey(query), first.CacheKey(query));
  StatusOr<AnswerResult> shared = twin.Serve(query);
  ASSERT_TRUE(shared.ok()) << shared.status();
  EXPECT_TRUE(shared->cache_hit);
  EXPECT_EQ(shared->rewriting, original->rewriting);

  // One TGD more: another fingerprint and key, so the first serve misses
  // and rewrites under its own program (the visitor disjunct).
  AnswerEngine grown(extended, Database(), options);
  EXPECT_NE(grown.program_fingerprint(), first.program_fingerprint());
  EXPECT_NE(grown.CacheKey(query), first.CacheKey(query));
  StatusOr<AnswerResult> own = grown.Serve(query);
  ASSERT_TRUE(own.ok()) << own.status();
  EXPECT_FALSE(own->cache_hit);
  EXPECT_EQ(own->rewriting->size(), original->rewriting->size() + 1);
  EXPECT_EQ(grown.cache_stats().misses, 2);
  EXPECT_EQ(grown.cache_stats().hits, 1);

  // The fingerprint sees adding, removing and reordering TGDs.
  ASSERT_GE(ontology.size(), 2);
  const std::uint64_t base = FingerprintProgram(ontology);
  EXPECT_NE(FingerprintProgram(extended), base);
  std::vector<Tgd> tgds = ontology.tgds();
  tgds.pop_back();
  EXPECT_NE(FingerprintProgram(TgdProgram(tgds)), base);
  tgds = ontology.tgds();
  std::swap(tgds[0], tgds[1]);
  EXPECT_NE(FingerprintProgram(TgdProgram(tgds)), base);
  EXPECT_EQ(FingerprintProgram(TgdProgram(ontology.tgds())), base);
}

TEST(AnswerEngineTest, LruEvictsLeastRecentlyUsed) {
  Vocabulary vocab;
  TgdProgram ontology = UniversityOntology(&vocab);
  AnswerEngineOptions options;
  options.shared_cache = std::make_shared<RewriteCache>(2);
  AnswerEngine engine(ontology, Database(), options);

  ConjunctiveQuery q1 = MustQuery("q(X) :- person(X).", &vocab);
  ConjunctiveQuery q2 = MustQuery("q(X) :- faculty(X).", &vocab);
  ConjunctiveQuery q3 = MustQuery("q(X) :- student(X).", &vocab);

  ASSERT_TRUE(engine.CertainAnswers(q1).ok());  // miss; cache = [q1]
  ASSERT_TRUE(engine.CertainAnswers(q2).ok());  // miss; cache = [q2, q1]
  ASSERT_TRUE(engine.CertainAnswers(q1).ok());  // hit;  cache = [q1, q2]
  ASSERT_TRUE(engine.CertainAnswers(q3).ok());  // miss; evicts LRU q2
  EXPECT_EQ(engine.cache_stats().evictions, 1);
  EXPECT_EQ(engine.cache_stats().size, 2u);

  ASSERT_TRUE(engine.CertainAnswers(q2).ok());  // miss again (was evicted)
  EXPECT_EQ(engine.cache_stats().misses, 4);    // ...evicting q1 in turn.
  ASSERT_TRUE(engine.CertainAnswers(q3).ok());  // q3 survived: hit.
  EXPECT_EQ(engine.cache_stats().hits, 2);
  EXPECT_EQ(engine.cache_stats().evictions, 2);
}

TEST(AnswerEngineTest, CachedRewritingServesEveryDatabase) {
  Vocabulary vocab;
  TgdProgram ontology = UniversityOntology(&vocab);
  // Instances of different sizes, so their person sets differ.
  Rng rng(5);
  Database first_db =
      UniversityInstance(UniversityInstanceOptions{}, &rng, &vocab);
  UniversityInstanceOptions smaller;
  smaller.num_students = 5;
  Database second_db = UniversityInstance(smaller, &rng, &vocab);
  const UnionOfCqs query(MustQuery("q(X) :- person(X).", &vocab));
  // Each database's answers, from engines with private caches.
  StatusOr<std::vector<Tuple>> first_expected =
      AnswerEngine(ontology, first_db).CertainAnswers(query);
  StatusOr<std::vector<Tuple>> second_expected =
      AnswerEngine(ontology, second_db).CertainAnswers(query);
  ASSERT_TRUE(first_expected.ok()) << first_expected.status();
  ASSERT_TRUE(second_expected.ok()) << second_expected.status();
  ASSERT_NE(*first_expected, *second_expected);

  AnswerEngineOptions options;
  options.shared_cache = std::make_shared<RewriteCache>(16);
  AnswerEngine first(ontology, std::move(first_db), options);
  AnswerEngine second(ontology, std::move(second_db), options);
  StatusOr<AnswerResult> a = first.Serve(query);
  ASSERT_TRUE(a.ok()) << a.status();
  EXPECT_FALSE(a->cache_hit);
  // Rewritings are data-independent: the second database is served by
  // the entry the first one's miss published.
  StatusOr<AnswerResult> b = second.Serve(query);
  ASSERT_TRUE(b.ok()) << b.status();
  EXPECT_TRUE(b->cache_hit);
  EXPECT_EQ(b->rewriting, a->rewriting);
  EXPECT_EQ(a->answers, *first_expected);
  EXPECT_EQ(b->answers, *second_expected);
}

// --- AnswerEngine: metrics --------------------------------------------------

TEST(AnswerEngineTest, MetricsSnapshotCountsHitsAndMisses) {
  Vocabulary vocab;
  TgdProgram ontology = UniversityOntology(&vocab);
  Rng rng(11);
  UniversityInstanceOptions instance;
  instance.num_students = 20;
  AnswerEngine engine(ontology, UniversityInstance(instance, &rng, &vocab));

  ConjunctiveQuery q1 = MustQuery("q(X) :- person(X).", &vocab);
  ConjunctiveQuery q2 = MustQuery("q(X) :- faculty(X).", &vocab);
  ASSERT_TRUE(engine.CertainAnswers(q1).ok());
  ASSERT_TRUE(engine.CertainAnswers(q1).ok());
  ASSERT_TRUE(engine.CertainAnswers(q2).ok());

  MetricsSnapshot snapshot = engine.metrics().Snapshot();
  EXPECT_EQ(snapshot.Counter("queries_served"), 3);
  EXPECT_EQ(snapshot.Counter("rewrite_cache_hit"), 1);
  EXPECT_EQ(snapshot.Counter("rewrite_cache_miss"), 2);
  EXPECT_GT(snapshot.Counter("eval_tuples_examined"), 0);
  EXPECT_GT(snapshot.Counter("eval_matches"), 0);
  // Only misses pay rewriting time; every serve pays evaluation time.
  EXPECT_GT(snapshot.TimerNs("rewrite_ns"), 0);
  EXPECT_GT(snapshot.TimerNs("backend_inmemory_exec_ns"), 0);
}

TEST(AnswerEngineTest, ServeReportsCacheHitAndRewriting) {
  Vocabulary vocab;
  TgdProgram ontology = UniversityOntology(&vocab);
  AnswerEngine engine(ontology, Database());
  UnionOfCqs query(MustQuery("q(X) :- faculty(X).", &vocab));

  StatusOr<AnswerResult> cold = engine.Serve(query);
  ASSERT_TRUE(cold.ok());
  EXPECT_FALSE(cold->cache_hit);
  ASSERT_NE(cold->rewriting, nullptr);
  EXPECT_GE(cold->rewriting->size(), 3);  // professor, lecturer, teaches...

  StatusOr<AnswerResult> warm = engine.Serve(query);
  ASSERT_TRUE(warm.ok());
  EXPECT_TRUE(warm->cache_hit);
  EXPECT_EQ(warm->rewriting, cold->rewriting);  // Same shared entry.
}

// --- AnswerEngine: deadlines, cancellation, faults -------------------------

// Acceptance: a 1ms deadline on the divergent PaperExample2 rewriting
// returns DeadlineExceeded well under 100ms — the saturation loop is
// interrupted mid-flight instead of running to its divergence cap.
TEST(AnswerEngineTest, DeadlinedServeOnDivergentWorkloadFailsFast) {
  Vocabulary vocab;
  TgdProgram program = PaperExample2(&vocab);
  AnswerEngineOptions options;
  // Make the deadline — not the CQ cap — the binding constraint.
  options.max_cqs = 50'000'000;
  AnswerEngine engine(program, Database(), options);
  ConjunctiveQuery query = MustQuery("q() :- r(\"a\", X).", &vocab);

  ServeOptions serve;
  serve.deadline = Deadline::AfterMillis(1);
  const auto start = std::chrono::steady_clock::now();
  StatusOr<AnswerResult> result = engine.Serve(UnionOfCqs(query), serve);
  const auto elapsed = std::chrono::steady_clock::now() - start;

  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_LT(elapsed, std::chrono::milliseconds(100));
  EXPECT_EQ(engine.metrics().Snapshot().Counter("deadline_exceeded"), 1);
  // The aborted rewriting was not cached.
  EXPECT_EQ(engine.cache_stats().size, 0u);
}

TEST(AnswerEngineTest, CancelledTokenAbortsServe) {
  Vocabulary vocab;
  TgdProgram ontology = UniversityOntology(&vocab);
  AnswerEngine engine(ontology, Database());
  UnionOfCqs query(MustQuery("q(X) :- person(X).", &vocab));

  auto token = std::make_shared<CancelToken>();
  token->Cancel();
  ServeOptions serve;
  serve.cancel = token;
  StatusOr<AnswerResult> result = engine.Serve(query, serve);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCancelled);

  // The same query without the token serves fine: nothing sticky leaked
  // into the engine.
  EXPECT_TRUE(engine.Serve(query).ok());
}

// Acceptance: a fault injected into a worker's tuple scan mid-evaluation
// yields an error Status carrying zero tuples — never a partial answer
// set from the disjuncts that happened to finish.
TEST(AnswerEngineTest, InjectedMidEvalWorkerFaultYieldsErrorNotPartialAnswers) {
  Vocabulary vocab;
  TgdProgram ontology = UniversityOntology(&vocab);
  Rng rng(13);
  UniversityInstanceOptions instance;
  instance.num_students = 40;
  AnswerEngineOptions options;
  options.num_threads = 4;
  AnswerEngine engine(ontology, UniversityInstance(instance, &rng, &vocab),
                      options);
  UnionOfCqs query(MustQuery("q(X) :- person(X).", &vocab));

  // Warm the rewrite cache so the fault hits evaluation, not rewriting.
  StatusOr<AnswerResult> healthy = engine.Serve(query);
  ASSERT_TRUE(healthy.ok());
  ASSERT_GT(healthy->answers.size(), 0u);
  ASSERT_GT(healthy->eval.tuples_examined, 1);

  {
    // Trip halfway through the scan volume a clean serve needs: some
    // workers are already done or deep into their disjuncts when the
    // failure lands.
    FaultPointConfig config;
    config.after = healthy->eval.tuples_examined / 2;
    ScopedFault fault("eval.scan", config);
    StatusOr<AnswerResult> result = engine.Serve(query, {});
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kInternal);
    EXPECT_NE(result.status().message().find("eval.scan"),
              std::string::npos);
    EXPECT_GE(FaultRegistry::Global().trips("eval.scan"), 1);
  }
  FaultRegistry::Global().Reset();

  // With the fault disarmed the same engine serves complete answers again.
  StatusOr<AnswerResult> recovered = engine.Serve(query);
  ASSERT_TRUE(recovered.ok());
  EXPECT_EQ(recovered->answers, healthy->answers);
}

// --- Pluggable execution backends ------------------------------------------

TEST(AnswerEngineTest, SqliteBackendServesIdenticalAnswers) {
  Vocabulary vocab;
  TgdProgram ontology = UniversityOntology(&vocab);
  Rng rng(31);
  UniversityInstanceOptions instance;
  instance.num_students = 50;
  Database db = UniversityInstance(instance, &rng, &vocab);

  AnswerEngine reference(ontology, db);
  AnswerEngineOptions options;
  options.backend = std::make_shared<SqliteBackend>(&vocab);
  AnswerEngine delegated(ontology, db, options);

  for (const char* text :
       {"q(X) :- person(X).", "q(X, Y) :- teaches(X, Y).",
        "q(S) :- enrolled(S, C), teaches(T, C), faculty(T).",
        "q() :- phd(X)."}) {
    ConjunctiveQuery query = MustQuery(text, &vocab);
    StatusOr<std::vector<Tuple>> in_memory =
        reference.CertainAnswers(query);
    StatusOr<std::vector<Tuple>> via_sqlite =
        delegated.CertainAnswers(query);
    ASSERT_TRUE(in_memory.ok()) << in_memory.status();
    ASSERT_TRUE(via_sqlite.ok()) << via_sqlite.status();
    EXPECT_EQ(*in_memory, *via_sqlite) << text;
  }

  // Per-backend metrics: every serve executed and the initial load
  // registered, with wall time attributed to the backend's timers.
  MetricsSnapshot snapshot = delegated.metrics().Snapshot();
  EXPECT_EQ(snapshot.Counter("backend_sqlite_exec"), 4);
  EXPECT_EQ(snapshot.Counter("backend_sqlite_load"), 1);
  EXPECT_GT(snapshot.TimerNs("backend_sqlite_exec_ns"), 0);
  EXPECT_GT(snapshot.TimerNs("backend_sqlite_load_ns"), 0);
  // The default in-memory backend's timer stays untouched on the
  // delegated engine.
  EXPECT_EQ(snapshot.TimerNs("backend_inmemory_exec_ns"), 0);
}

TEST(AnswerEngineTest, BackendHonoursServeDeadline) {
  // The request deadline must reach the backend's progress handler: a
  // huge cross join through SQLite comes back DeadlineExceeded, and the
  // engine's deadline_exceeded counter ticks.
  Vocabulary vocab;
  TgdProgram program = MustProgram("r(X, Y) -> s(X).", &vocab);
  PredicateId r = vocab.FindPredicate("r");
  Database db;
  // A complete digraph on 40 nodes: the chained join below enumerates
  // 40^5 result rows. A cross join of fresh variables would be collapsed
  // by the rewriter's minimization; a directed path is its own core.
  for (int i = 0; i < 40; ++i) {
    for (int j = 0; j < 40; ++j) {
      db.Insert(r, {Value::Constant(vocab.InternConstant(
                        "c" + std::to_string(i))),
                    Value::Constant(vocab.InternConstant(
                        "c" + std::to_string(j)))});
    }
  }
  AnswerEngineOptions options;
  options.backend = std::make_shared<SqliteBackend>(&vocab);
  AnswerEngine engine(program, db, options);

  ConjunctiveQuery query =
      MustQuery("q() :- r(A, B), r(B, C), r(C, D), r(D, E).", &vocab);
  ServeOptions serve;
  serve.deadline = Deadline::AfterMillis(50);
  StatusOr<AnswerResult> result = engine.Serve(UnionOfCqs(query), serve);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded)
      << result.status();
  EXPECT_EQ(engine.metrics().Snapshot().Counter("deadline_exceeded"), 1);
}

TEST(AnswerEngineTest, InMemoryBackendMatchesBuiltInPath) {
  // An engine without a configured backend evaluates through an
  // InMemoryBackend that shares the engine's Database instead of copying
  // it, and answers as an explicitly configured one does.
  Vocabulary vocab;
  TgdProgram ontology = UniversityOntology(&vocab);
  Rng rng(5);
  UniversityInstanceOptions instance;
  instance.num_students = 30;
  Database db = UniversityInstance(instance, &rng, &vocab);

  AnswerEngine engine(ontology, db);
  auto backend =
      std::dynamic_pointer_cast<InMemoryBackend>(engine.options().backend);
  ASSERT_NE(backend, nullptr);
  EXPECT_EQ(&backend->db(), &engine.db());

  AnswerEngineOptions options;
  options.backend = std::make_shared<InMemoryBackend>();
  AnswerEngine plugged(ontology, db, options);
  ConjunctiveQuery query = MustQuery("q(X) :- person(X).", &vocab);
  StatusOr<std::vector<Tuple>> a = plugged.CertainAnswers(query);
  StatusOr<std::vector<Tuple>> b = engine.CertainAnswers(query);
  ASSERT_TRUE(a.ok()) << a.status();
  ASSERT_TRUE(b.ok()) << b.status();
  EXPECT_EQ(*a, *b);
  EXPECT_EQ(engine.metrics().Snapshot().Counter("backend_inmemory_exec"), 1);
  EXPECT_EQ(engine.metrics().Snapshot().Counter("backend_inmemory_load"), 1);
}

// --- The CTE rewrite target --------------------------------------------------

// One ontology+data set where the q2 join shape saturates into a union
// with real shared structure (persons linked by a base `knows`).
struct CteFixture {
  Vocabulary vocab;
  TgdProgram ontology;
  Database db;
  ConjunctiveQuery q2;
  CteFixture() {
    ontology = UniversityOntology(&vocab);
    q2 = MustQuery("q(X) :- person(X), knows(X, Y), person(Y).", &vocab);
    Rng rng(23);
    UniversityInstanceOptions instance;
    instance.num_students = 20;
    db = UniversityInstance(instance, &rng, &vocab);
    const PredicateId knows = vocab.MustPredicate("knows", 2);
    const PredicateId person = vocab.MustPredicate("person", 1);
    auto c = [&](const char* name) {
      return Value::Constant(vocab.InternConstant(name));
    };
    db.Insert(person, {c("ada")});
    db.Insert(person, {c("bob")});
    db.Insert(knows, {c("ada"), c("bob")});
    db.Insert(knows, {c("bob"), c("cyd")});  // cyd is no person: no answer.
  }
};

TEST(AnswerEngineTest, CteTargetServesIdenticalAnswersOnSqlite) {
  CteFixture fx;
  AnswerEngineOptions options;
  options.backend = std::make_shared<SqliteBackend>(&fx.vocab);
  AnswerEngine engine(fx.ontology, fx.db, options);

  ServeOptions as_ucq;
  as_ucq.target = RewriteTarget::kUcq;
  StatusOr<AnswerResult> ucq = engine.Serve(UnionOfCqs(fx.q2), as_ucq);
  ASSERT_TRUE(ucq.ok()) << ucq.status();
  EXPECT_EQ(ucq->datalog, nullptr);

  ServeOptions as_cte;
  as_cte.target = RewriteTarget::kCte;
  StatusOr<AnswerResult> cte = engine.Serve(UnionOfCqs(fx.q2), as_cte);
  ASSERT_TRUE(cte.ok()) << cte.status();
  ASSERT_NE(cte->datalog, nullptr);
  EXPECT_GE(cte->datalog->cte_count(), 1);

  EXPECT_EQ(ucq->answers, cte->answers);
  EXPECT_FALSE(cte->answers.empty());  // ada knows bob, both persons.
  EXPECT_EQ(engine.metrics().Snapshot().Counter("rewrite_factored"), 1);
  EXPECT_GT(engine.metrics().Snapshot().TimerNs("factor_ns"), 0);
}

TEST(AnswerEngineTest, CteTargetWorksWithoutSqlBackend) {
  // The default in-memory backend cannot run the factored program
  // natively; it evaluates the unfolded union instead — same answers, and
  // the provenance still carries the factored program.
  CteFixture fx;
  AnswerEngine builtin(fx.ontology, fx.db);
  ServeOptions as_cte;
  as_cte.target = RewriteTarget::kCte;
  StatusOr<AnswerResult> cte = builtin.Serve(UnionOfCqs(fx.q2), as_cte);
  ASSERT_TRUE(cte.ok()) << cte.status();
  ASSERT_NE(cte->datalog, nullptr);
  StatusOr<std::vector<Tuple>> reference =
      builtin.CertainAnswers(fx.q2);
  ASSERT_TRUE(reference.ok());
  EXPECT_EQ(cte->answers, *reference);
}

TEST(AnswerEngineTest, TargetsNeverAliasInTheCache) {
  CteFixture fx;
  AnswerEngine engine(fx.ontology, fx.db);
  const UnionOfCqs query(fx.q2);
  // Different artifacts, different keys — a kCte entry (union + factored
  // program) must never be returned to a kUcq request, even though both
  // rewrite the same query under the same program.
  EXPECT_NE(engine.CacheKey(query, RewriteTarget::kUcq),
            engine.CacheKey(query, RewriteTarget::kCte));

  ServeOptions as_ucq, as_cte;
  as_ucq.target = RewriteTarget::kUcq;
  as_cte.target = RewriteTarget::kCte;
  ASSERT_TRUE(engine.Serve(query, as_ucq).ok());
  ASSERT_TRUE(engine.Serve(query, as_cte).ok());
  RewriteCacheStats stats = engine.cache_stats();
  EXPECT_EQ(stats.hits, 0);
  EXPECT_EQ(stats.misses, 2);
  EXPECT_EQ(stats.size, 2u);

  // Each target hits its own entry on repeat, with the right artifact.
  StatusOr<AnswerResult> again_ucq = engine.Serve(query, as_ucq);
  StatusOr<AnswerResult> again_cte = engine.Serve(query, as_cte);
  ASSERT_TRUE(again_ucq.ok());
  ASSERT_TRUE(again_cte.ok());
  EXPECT_TRUE(again_ucq->cache_hit);
  EXPECT_TRUE(again_cte->cache_hit);
  EXPECT_EQ(again_ucq->datalog, nullptr);
  ASSERT_NE(again_cte->datalog, nullptr);
  EXPECT_EQ(engine.cache_stats().hits, 2);
}

TEST(AnswerEngineTest, CteCacheEntriesHoldNoFlatUnion) {
  // Under kCte the DAG rewriter emits the factored program directly and
  // the cache entry holds ONLY that program — materializing the flat
  // union would cost exactly the exponential the DAG path avoids. The
  // result therefore exposes no flat rewriting, cold or warm.
  CteFixture fx;
  AnswerEngine engine(fx.ontology, fx.db);
  const UnionOfCqs query(fx.q2);

  ServeOptions as_cte;
  as_cte.target = RewriteTarget::kCte;
  StatusOr<AnswerResult> cold = engine.Serve(query, as_cte);
  ASSERT_TRUE(cold.ok()) << cold.status();
  EXPECT_EQ(cold->rewriting, nullptr);
  ASSERT_NE(cold->datalog, nullptr);

  StatusOr<AnswerResult> warm = engine.Serve(query, as_cte);
  ASSERT_TRUE(warm.ok()) << warm.status();
  EXPECT_TRUE(warm->cache_hit);
  EXPECT_EQ(warm->rewriting, nullptr);
  ASSERT_NE(warm->datalog, nullptr);
  EXPECT_EQ(warm->answers, cold->answers);

  // The flat target still exposes the union (and no program): the two
  // artifact shapes are per-entry, not a global mode.
  ServeOptions as_ucq;
  as_ucq.target = RewriteTarget::kUcq;
  StatusOr<AnswerResult> flat = engine.Serve(query, as_ucq);
  ASSERT_TRUE(flat.ok()) << flat.status();
  ASSERT_NE(flat->rewriting, nullptr);
  EXPECT_EQ(flat->datalog, nullptr);
  EXPECT_EQ(flat->answers, cold->answers);
}

// --- Request-scoped tracing --------------------------------------------------

const SpanRecord* FindSpan(const std::vector<SpanRecord>& spans,
                           std::string_view name) {
  for (const SpanRecord& span : spans) {
    if (span.name == name) return &span;
  }
  return nullptr;
}

bool SpanHasAttr(const SpanRecord& span, std::string_view key,
                 std::string_view value) {
  for (const auto& [k, v] : span.attributes) {
    if (k == key && v == value) return true;
  }
  return false;
}

bool SpanHasAttrKey(const SpanRecord& span, std::string_view key) {
  for (const auto& [k, v] : span.attributes) {
    if (k == key) return true;
  }
  return false;
}

// A finished request's trace has no open spans: the RAII TraceSpan must
// close every span on every exit path, including error unwinds.
void ExpectAllSpansClosed(const Trace& trace) {
  for (const SpanRecord& span : trace.Snapshot()) {
    EXPECT_GE(span.duration_ns, 0) << "span '" << span.name << "' left open";
  }
  EXPECT_EQ(trace.dropped(), 0u);
}

TEST(AnswerEngineTraceTest, ColdServeRecordsCompleteSpanTree) {
  Vocabulary vocab;
  TgdProgram ontology = UniversityOntology(&vocab);
  Rng rng(17);
  UniversityInstanceOptions instance;
  instance.num_students = 20;
  AnswerEngine engine(ontology, UniversityInstance(instance, &rng, &vocab));
  UnionOfCqs query(MustQuery("q(X) :- person(X).", &vocab));

  Trace trace;
  ServeOptions serve;
  serve.trace = &trace;
  StatusOr<AnswerResult> result = engine.Serve(query, serve);
  ASSERT_TRUE(result.ok()) << result.status();
  ExpectAllSpansClosed(trace);

  const std::vector<SpanRecord> spans = trace.Snapshot();
  const SpanRecord* serve_span = FindSpan(spans, "serve");
  ASSERT_NE(serve_span, nullptr);
  EXPECT_EQ(serve_span->parent, Trace::kNoParent);
  // Every pipeline stage of a cold serve is present, parented under the
  // request root.
  for (const char* stage :
       {"canonicalize", "rewrite-cache", "rewrite", "eval"}) {
    const SpanRecord* span = FindSpan(spans, stage);
    ASSERT_NE(span, nullptr) << stage << " missing:\n" << trace.ToString();
    EXPECT_EQ(span->parent, serve_span->id) << stage;
  }
  EXPECT_TRUE(SpanHasAttr(*FindSpan(spans, "rewrite-cache"), "cache", "miss"));
  // The saturation ran under the rewrite span and reported its counters;
  // each worker iteration is a child of the saturate span.
  const SpanRecord* saturate = FindSpan(spans, "saturate");
  ASSERT_NE(saturate, nullptr);
  EXPECT_EQ(saturate->parent, FindSpan(spans, "rewrite")->id);
  EXPECT_TRUE(SpanHasAttrKey(*saturate, "cqs_generated"));
  EXPECT_TRUE(SpanHasAttrKey(*saturate, "cqs_subsumed"));
  const SpanRecord* iteration = FindSpan(spans, "iteration");
  ASSERT_NE(iteration, nullptr);
  EXPECT_EQ(iteration->parent, saturate->id);
  const SpanRecord* minimize = FindSpan(spans, "minimize");
  ASSERT_NE(minimize, nullptr);
  EXPECT_TRUE(SpanHasAttrKey(*minimize, "disjuncts_in"));
  // Evaluation ran on the default in-memory backend: per-disjunct scan
  // spans.
  const SpanRecord* eval = FindSpan(spans, "eval");
  EXPECT_TRUE(SpanHasAttr(*eval, "backend", "inmemory"));
  EXPECT_TRUE(SpanHasAttrKey(*eval, "rows"));
  const SpanRecord* disjunct = FindSpan(spans, "disjunct");
  ASSERT_NE(disjunct, nullptr);
  EXPECT_EQ(disjunct->parent, eval->id);
}

TEST(AnswerEngineTraceTest, WarmServeTraceShowsCacheHitAndNoRewrite) {
  Vocabulary vocab;
  TgdProgram ontology = UniversityOntology(&vocab);
  AnswerEngine engine(ontology, Database());
  UnionOfCqs query(MustQuery("q(X) :- faculty(X).", &vocab));
  ASSERT_TRUE(engine.Serve(query).ok());  // Warm the cache untraced.

  Trace trace;
  ServeOptions serve;
  serve.trace = &trace;
  ASSERT_TRUE(engine.Serve(query, serve).ok());
  ExpectAllSpansClosed(trace);

  const std::vector<SpanRecord> spans = trace.Snapshot();
  const SpanRecord* cache = FindSpan(spans, "rewrite-cache");
  ASSERT_NE(cache, nullptr);
  EXPECT_TRUE(SpanHasAttr(*cache, "cache", "hit"));
  // A hit skips the whole rewriting stage.
  EXPECT_EQ(FindSpan(spans, "rewrite"), nullptr);
  EXPECT_EQ(FindSpan(spans, "saturate"), nullptr);
  EXPECT_NE(FindSpan(spans, "eval"), nullptr);
}

TEST(AnswerEngineTraceTest, DeadlineExpiryLeavesWellFormedAnnotatedTrace) {
  Vocabulary vocab;
  TgdProgram program = PaperExample2(&vocab);
  AnswerEngineOptions options;
  options.max_cqs = 50'000'000;
  AnswerEngine engine(program, Database(), options);
  UnionOfCqs query(MustQuery("q() :- r(\"a\", X).", &vocab));

  Trace trace;
  ServeOptions serve;
  serve.trace = &trace;
  serve.deadline = Deadline::AfterMillis(1);
  StatusOr<AnswerResult> result = engine.Serve(query, serve);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);

  // Even an aborted request leaves a complete trace: every span closed,
  // and the failing stage carries the error.
  ExpectAllSpansClosed(trace);
  const std::vector<SpanRecord> spans = trace.Snapshot();
  ASSERT_NE(FindSpan(spans, "serve"), nullptr);
  bool annotated = false;
  for (const SpanRecord& span : spans) {
    if (SpanHasAttr(span, "status", "DeadlineExceeded")) annotated = true;
  }
  EXPECT_TRUE(annotated) << trace.ToString();
  const SpanRecord* rewrite = FindSpan(spans, "rewrite");
  ASSERT_NE(rewrite, nullptr);
  EXPECT_TRUE(SpanHasAttr(*rewrite, "status", "DeadlineExceeded"));
}

TEST(AnswerEngineTraceTest, RewriteStepFaultAnnotatesRewriteSpan) {
  Vocabulary vocab;
  TgdProgram ontology = UniversityOntology(&vocab);
  AnswerEngine engine(ontology, Database());
  UnionOfCqs query(MustQuery("q(X) :- person(X).", &vocab));

  Trace trace;
  ServeOptions serve;
  serve.trace = &trace;
  {
    ScopedFault fault("rewrite.step", FaultPointConfig{});
    StatusOr<AnswerResult> result = engine.Serve(query, serve);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kInternal);
  }
  FaultRegistry::Global().Reset();

  ExpectAllSpansClosed(trace);
  const std::vector<SpanRecord> spans = trace.Snapshot();
  const SpanRecord* rewrite = FindSpan(spans, "rewrite");
  ASSERT_NE(rewrite, nullptr);
  EXPECT_TRUE(SpanHasAttr(*rewrite, "status", "Internal"));
  bool names_fault = false;
  for (const auto& [key, value] : rewrite->attributes) {
    if (key == "error" && value.find("rewrite.step") != std::string::npos) {
      names_fault = true;
    }
  }
  EXPECT_TRUE(names_fault) << trace.ToString();
}

// Shared divergent two-group setup for the cte-path abort tests below:
// the r-group saturates forever (PaperExample2's s/r loop) while the
// p-group is trivial, so the DAG path gets past decomposition and dies
// inside a group rewrite — partial progress the trace must report.
struct DivergentCteFixture {
  Vocabulary vocab;
  TgdProgram program;
  UnionOfCqs query;
  AnswerEngineOptions options;
  DivergentCteFixture() {
    program = MustProgram(
        "t(Y1, Y2), r(Y3, Y4) -> s(Y1, Y3, Y2).\n"
        "s(Y1, Y1, Y2) -> r(Y2, Y3).\n"
        "m(Y1) -> p(Y1).\n",
        &vocab);
    // Var-disjoint atoms whose reach sets ({r,s,t} vs {p,m}) are also
    // disjoint: two groups, the divergent one first.
    query = UnionOfCqs(MustQuery("q() :- r(\"a\", X), p(Z).", &vocab));
    options.max_cqs = 50'000'000;
  }
};

TEST(AnswerEngineTraceTest, CteDeadlineExpiryLeavesPartialDagTrace) {
  // The deadline "expires" at a fixed saturation step inside the first
  // (divergent) group: rewrite.step armed to return DeadlineExceeded
  // after N hits. N is half the hits a probe makes before a small
  // max_cqs cap aborts that same group, so it always lands inside it.
  DivergentCteFixture fx;
  ServeOptions as_cte;
  as_cte.target = RewriteTarget::kCte;
  std::int64_t group_hits = 0;
  {
    AnswerEngineOptions capped = fx.options;
    capped.max_cqs = 200;
    AnswerEngine probe(fx.program, Database(), capped);
    FaultPointConfig count_only;
    count_only.probability = 0.0;
    ScopedFault counting("rewrite.step", count_only);
    StatusOr<AnswerResult> result = probe.Serve(fx.query, as_cte);
    ASSERT_FALSE(result.ok());
    ASSERT_EQ(result.status().code(), StatusCode::kResourceExhausted);
    group_hits = FaultRegistry::Global().hits("rewrite.step");
  }
  FaultRegistry::Global().Reset();
  ASSERT_GT(group_hits, 2);

  AnswerEngine engine(fx.program, Database(), fx.options);
  Trace trace;
  ServeOptions serve = as_cte;
  serve.trace = &trace;
  {
    FaultPointConfig expiry;
    expiry.after = group_hits / 2;
    expiry.code = StatusCode::kDeadlineExceeded;
    ScopedFault fault("rewrite.step", expiry);
    StatusOr<AnswerResult> result = engine.Serve(fx.query, serve);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);
  }
  FaultRegistry::Global().Reset();

  // The abort unwinds through the DAG rewriter: every span closed, the
  // rewrite span carries the status, and the trace shows how far the
  // factorization got — decomposition done, a group rewrite cut short,
  // and no completed dag factor stage.
  ExpectAllSpansClosed(trace);
  const std::vector<SpanRecord> spans = trace.Snapshot();
  const SpanRecord* rewrite = FindSpan(spans, "rewrite");
  ASSERT_NE(rewrite, nullptr);
  EXPECT_TRUE(SpanHasAttr(*rewrite, "status", "DeadlineExceeded"));
  const SpanRecord* decompose = FindSpan(spans, "decompose");
  ASSERT_NE(decompose, nullptr);
  EXPECT_TRUE(SpanHasAttr(*decompose, "groups", "2")) << trace.ToString();
  const SpanRecord* group = FindSpan(spans, "group");
  ASSERT_NE(group, nullptr);
  EXPECT_TRUE(SpanHasAttr(*group, "status", "DeadlineExceeded"));
  EXPECT_EQ(FindSpan(spans, "factor"), nullptr) << trace.ToString();
}

TEST(AnswerEngineExplainTest, CteTargetHonoursDeadline) {
  DivergentCteFixture fx;
  AnswerEngine engine(fx.program, Database(), fx.options);
  ServeOptions serve;
  serve.target = RewriteTarget::kCte;
  serve.deadline = Deadline::AfterMillis(1);
  StatusOr<ExplainResult> aborted = engine.Explain(fx.query, fx.vocab, serve);
  ASSERT_FALSE(aborted.ok());
  EXPECT_EQ(aborted.status().code(), StatusCode::kDeadlineExceeded);
}

TEST(AnswerEngineTraceTest, CteRewriteStepFaultMidFactorReportsPartialStage) {
  // Arm rewrite.step to trip HALFWAY through the DAG rewrite — after the
  // first group's saturation is done, inside a later one. The hit count
  // is measured first with a never-tripping probe (probability 0 counts
  // hits without failing), on a separate engine so the probe run's
  // success does not warm the cache the faulted run reads.
  CteFixture fx;
  ServeOptions as_cte;
  as_cte.target = RewriteTarget::kCte;
  std::int64_t total_hits = 0;
  {
    AnswerEngine probe(fx.ontology, fx.db);
    FaultPointConfig count_only;
    count_only.probability = 0.0;
    ScopedFault counting("rewrite.step", count_only);
    ASSERT_TRUE(probe.Serve(UnionOfCqs(fx.q2), as_cte).ok());
    total_hits = FaultRegistry::Global().hits("rewrite.step");
  }
  FaultRegistry::Global().Reset();
  ASSERT_GT(total_hits, 2);

  AnswerEngine engine(fx.ontology, fx.db);
  Trace trace;
  ServeOptions serve = as_cte;
  serve.trace = &trace;
  {
    FaultPointConfig midway;
    midway.after = total_hits / 2;
    ScopedFault fault("rewrite.step", midway);
    StatusOr<AnswerResult> result = engine.Serve(UnionOfCqs(fx.q2), serve);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kInternal);
    EXPECT_NE(result.status().message().find("rewrite.step"),
              std::string::npos);
    EXPECT_EQ(FaultRegistry::Global().trips("rewrite.step"), 1);
  }
  FaultRegistry::Global().Reset();

  // Partial stage on record: decomposition completed, at least one group
  // span exists, exactly one carries the injected error, the enclosing
  // rewrite span is annotated, and the dag factor stage never ran.
  ExpectAllSpansClosed(trace);
  const std::vector<SpanRecord> spans = trace.Snapshot();
  const SpanRecord* rewrite = FindSpan(spans, "rewrite");
  ASSERT_NE(rewrite, nullptr);
  EXPECT_TRUE(SpanHasAttr(*rewrite, "status", "Internal"));
  const SpanRecord* decompose = FindSpan(spans, "decompose");
  ASSERT_NE(decompose, nullptr);
  EXPECT_TRUE(SpanHasAttrKey(*decompose, "groups"));
  int groups_seen = 0, groups_failed = 0;
  for (const SpanRecord& span : spans) {
    if (span.name != "group") continue;
    ++groups_seen;
    if (SpanHasAttr(span, "status", "Internal")) ++groups_failed;
  }
  EXPECT_GE(groups_seen, 1) << trace.ToString();
  EXPECT_EQ(groups_failed, 1) << trace.ToString();
  EXPECT_EQ(FindSpan(spans, "factor"), nullptr) << trace.ToString();
}

TEST(AnswerEngineTraceTest, EvalScanFaultAnnotatesEvalSpan) {
  Vocabulary vocab;
  TgdProgram ontology = UniversityOntology(&vocab);
  Rng rng(19);
  UniversityInstanceOptions instance;
  instance.num_students = 20;
  AnswerEngine engine(ontology, UniversityInstance(instance, &rng, &vocab));
  UnionOfCqs query(MustQuery("q(X) :- person(X).", &vocab));
  ASSERT_TRUE(engine.Serve(query).ok());  // Warm the rewrite cache.

  Trace trace;
  ServeOptions serve;
  serve.trace = &trace;
  {
    ScopedFault fault("eval.scan", FaultPointConfig{});
    StatusOr<AnswerResult> result = engine.Serve(query, serve);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kInternal);
  }
  FaultRegistry::Global().Reset();

  ExpectAllSpansClosed(trace);
  const std::vector<SpanRecord> spans = trace.Snapshot();
  const SpanRecord* eval = FindSpan(spans, "eval");
  ASSERT_NE(eval, nullptr);
  EXPECT_TRUE(SpanHasAttr(*eval, "status", "Internal")) << trace.ToString();
  // The fault hit evaluation, not rewriting: the cache span says hit and
  // no rewrite span exists.
  EXPECT_TRUE(SpanHasAttr(*FindSpan(spans, "rewrite-cache"), "cache", "hit"));
  EXPECT_EQ(FindSpan(spans, "rewrite"), nullptr);
}

TEST(AnswerEngineTraceTest, SqliteBackendTraceCarriesSqlAndQueryPlan) {
  Vocabulary vocab;
  TgdProgram ontology = UniversityOntology(&vocab);
  Rng rng(29);
  UniversityInstanceOptions instance;
  instance.num_students = 20;
  AnswerEngineOptions options;
  options.backend = std::make_shared<SqliteBackend>(&vocab);
  AnswerEngine engine(ontology, UniversityInstance(instance, &rng, &vocab),
                      options);
  UnionOfCqs query(MustQuery("q(X) :- person(X).", &vocab));

  Trace trace;
  ServeOptions serve;
  serve.trace = &trace;
  StatusOr<AnswerResult> result = engine.Serve(query, serve);
  ASSERT_TRUE(result.ok()) << result.status();
  ExpectAllSpansClosed(trace);

  const std::vector<SpanRecord> spans = trace.Snapshot();
  const SpanRecord* eval = FindSpan(spans, "eval");
  ASSERT_NE(eval, nullptr);
  EXPECT_TRUE(SpanHasAttr(*eval, "backend", "sqlite"));
  const SpanRecord* emit = FindSpan(spans, "emit");
  ASSERT_NE(emit, nullptr);
  EXPECT_EQ(emit->parent, eval->id);
  EXPECT_TRUE(SpanHasAttrKey(*emit, "sql_bytes"));
  // The scan span records SQLite's own EXPLAIN QUERY PLAN lines.
  const SpanRecord* scan = FindSpan(spans, "scan");
  ASSERT_NE(scan, nullptr);
  EXPECT_EQ(scan->parent, eval->id);
  EXPECT_TRUE(SpanHasAttrKey(*scan, "plan")) << trace.ToString();
  EXPECT_TRUE(SpanHasAttrKey(*scan, "rows"));
  EXPECT_EQ(std::to_string(result->answers.size()),
            [&] {
              for (const auto& [k, v] : scan->attributes) {
                if (k == "rows") return v;
              }
              return std::string();
            }());
}

TEST(AnswerEngineTraceTest, UntracedServeRecordsNothing) {
  Vocabulary vocab;
  TgdProgram ontology = UniversityOntology(&vocab);
  AnswerEngine engine(ontology, Database());
  UnionOfCqs query(MustQuery("q(X) :- person(X).", &vocab));
  // No ServeOptions::trace: the default path must not touch any Trace
  // (the disabled hook is one pointer test — this is the overhead
  // contract the bench job holds).
  StatusOr<AnswerResult> result = engine.Serve(query);
  ASSERT_TRUE(result.ok());
}

// --- Explain: the dry-run pipeline -------------------------------------------

TEST(AnswerEngineExplainTest, ReturnsRewritingAndSqlWithoutExecuting) {
  Vocabulary vocab;
  TgdProgram ontology = UniversityOntology(&vocab);
  Rng rng(37);
  UniversityInstanceOptions instance;
  instance.num_students = 20;
  AnswerEngineOptions options;
  options.backend = std::make_shared<SqliteBackend>(&vocab);
  AnswerEngine engine(ontology, UniversityInstance(instance, &rng, &vocab),
                      options);
  UnionOfCqs query(MustQuery("q(X) :- faculty(X).", &vocab));

  StatusOr<ExplainResult> explained = engine.Explain(query, vocab);
  ASSERT_TRUE(explained.ok()) << explained.status();
  ASSERT_NE(explained->rewriting, nullptr);
  EXPECT_GE(explained->rewriting->size(), 3);
  EXPECT_NE(explained->sql.find("SELECT"), std::string::npos);
  EXPECT_FALSE(explained->cache_hit);

  // Nothing executed: no serve, no backend query, no eval metrics.
  MetricsSnapshot snapshot = engine.metrics().Snapshot();
  EXPECT_EQ(snapshot.Counter("queries_served"), 0);
  EXPECT_EQ(snapshot.Counter("backend_sqlite_exec"), 0);
  EXPECT_EQ(snapshot.TimerNs("backend_inmemory_exec_ns"), 0);

  // Explain owns its trace: explain-rooted, rewrite recorded, no eval.
  ASSERT_NE(explained->trace, nullptr);
  ExpectAllSpansClosed(*explained->trace);
  const std::vector<SpanRecord> spans = explained->trace->Snapshot();
  const SpanRecord* root = FindSpan(spans, "explain");
  ASSERT_NE(root, nullptr);
  EXPECT_EQ(root->parent, Trace::kNoParent);
  EXPECT_NE(FindSpan(spans, "rewrite"), nullptr);
  EXPECT_NE(FindSpan(spans, "emit"), nullptr);
  EXPECT_EQ(FindSpan(spans, "eval"), nullptr);
  EXPECT_EQ(FindSpan(spans, "scan"), nullptr);

  // Explain shares the rewrite cache with Serve: the second dry run is a
  // hit, and a subsequent real serve reuses the entry.
  StatusOr<ExplainResult> again = engine.Explain(query, vocab);
  ASSERT_TRUE(again.ok());
  EXPECT_TRUE(again->cache_hit);
  StatusOr<AnswerResult> served = engine.Serve(query);
  ASSERT_TRUE(served.ok());
  EXPECT_TRUE(served->cache_hit);
}

TEST(AnswerEngineExplainTest, CteTargetReportsFactoredSql) {
  CteFixture fx;
  AnswerEngineOptions options;
  options.backend = std::make_shared<SqliteBackend>(&fx.vocab);
  AnswerEngine engine(fx.ontology, fx.db, options);
  const UnionOfCqs query(fx.q2);

  ServeOptions as_cte;
  as_cte.target = RewriteTarget::kCte;
  StatusOr<ExplainResult> explained = engine.Explain(query, fx.vocab, as_cte);
  ASSERT_TRUE(explained.ok()) << explained.status();
  EXPECT_EQ(explained->target, RewriteTarget::kCte);
  ASSERT_NE(explained->datalog, nullptr);
  EXPECT_GE(explained->datalog->cte_count(), 1);
  // The SQL shown is what a SQL backend would actually run for this
  // target: the WITH-CTE statement, not the flat union.
  EXPECT_EQ(explained->sql.rfind("WITH ", 0), 0u) << explained->sql;
  EXPECT_NE(explained->sql.find("orw_cte_0"), std::string::npos);

  const std::vector<SpanRecord> spans = explained->trace->Snapshot();
  const SpanRecord* factor = FindSpan(spans, "factor");
  ASSERT_NE(factor, nullptr);
  EXPECT_TRUE(SpanHasAttrKey(*factor, "cte_count"));
  const SpanRecord* emit = FindSpan(spans, "emit");
  ASSERT_NE(emit, nullptr);
  EXPECT_TRUE(SpanHasAttr(*emit, "target", "cte"));
  EXPECT_TRUE(SpanHasAttrKey(*emit, "cte_count"));

  // Explain and Serve share the target-qualified entry: the serve that
  // follows is a hit and executes exactly the factored program shown.
  StatusOr<AnswerResult> served = engine.Serve(query, as_cte);
  ASSERT_TRUE(served.ok()) << served.status();
  EXPECT_TRUE(served->cache_hit);
  ASSERT_NE(served->datalog, nullptr);
  EXPECT_EQ(served->datalog.get(), explained->datalog.get());

  // The default-target explanation still shows the flat union.
  StatusOr<ExplainResult> flat = engine.Explain(query, fx.vocab);
  ASSERT_TRUE(flat.ok());
  EXPECT_EQ(flat->target, RewriteTarget::kUcq);
  EXPECT_EQ(flat->datalog, nullptr);
  EXPECT_EQ(flat->sql.rfind("SELECT", 0), 0u);
}

TEST(AnswerEngineExplainTest, WorksWithoutBackendAndHonoursDeadline) {
  Vocabulary vocab;
  TgdProgram ontology = UniversityOntology(&vocab);
  AnswerEngine engine(ontology, Database());
  UnionOfCqs query(MustQuery("q(X) :- person(X).", &vocab));

  // No backend configured: the SQL is still emitted (Explain shows what
  // WOULD ship, whichever backend ends up executing it).
  StatusOr<ExplainResult> explained = engine.Explain(query, vocab);
  ASSERT_TRUE(explained.ok()) << explained.status();
  EXPECT_NE(explained->sql.find("SELECT"), std::string::npos);

  // A dead deadline aborts the dry run like it aborts a serve.
  Vocabulary vocab2;
  TgdProgram divergent = PaperExample2(&vocab2);
  AnswerEngineOptions options;
  options.max_cqs = 50'000'000;
  AnswerEngine slow(divergent, Database(), options);
  ServeOptions serve;
  serve.deadline = Deadline::AfterMillis(1);
  StatusOr<ExplainResult> aborted = slow.Explain(
      UnionOfCqs(MustQuery("q() :- r(\"a\", X).", &vocab2)), vocab2, serve);
  ASSERT_FALSE(aborted.ok());
  EXPECT_EQ(aborted.status().code(), StatusCode::kDeadlineExceeded);
}

// --- Concurrent serves sharing one cache ------------------------------------

// Regression stress for the rewrite-cache insert path: threads serve the
// same query through two engines whose programs differ by one inert TGD
// (no "visitor" facts exist, so answers agree), sharing a one-entry
// cache, so every insert of one program's entry evicts the other's. Every
// serve must succeed with its engine's answers, and every serve is a hit
// or a miss. Run under TSan in CI.
TEST(AnswerEngineTest, ConcurrentServesShareOneCacheAcrossPrograms) {
  Vocabulary vocab;
  TgdProgram ontology = UniversityOntology(&vocab);
  TgdProgram extended = ontology;
  extended.Add(MustTgd("visitor(X) -> person(X).", &vocab));
  Rng rng(41);
  UniversityInstanceOptions instance;
  instance.num_students = 10;
  const Database db = UniversityInstance(instance, &rng, &vocab);
  const UnionOfCqs query(MustQuery("q(X) :- person(X).", &vocab));

  // Reference answers from engines with private caches, so the shared
  // cache counts only the stressed serves.
  std::vector<std::vector<Tuple>> expected;
  for (const TgdProgram* program : {&ontology, &extended}) {
    StatusOr<std::vector<Tuple>> answers =
        AnswerEngine(*program, db).CertainAnswers(query);
    ASSERT_TRUE(answers.ok()) << answers.status();
    expected.push_back(*std::move(answers));
  }

  AnswerEngineOptions options;
  options.shared_cache = std::make_shared<RewriteCache>(1);
  AnswerEngine base(ontology, db, options);
  AnswerEngine grown(extended, db, options);
  AnswerEngine* const engines[] = {&base, &grown};
  ASSERT_NE(base.program_fingerprint(), grown.program_fingerprint());

  constexpr int kThreads = 8;
  constexpr int kServesPerThread = 25;
  std::atomic<int> failures{0};
  std::atomic<int> wrong_answers{0};
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      for (int i = 0; i < kServesPerThread; ++i) {
        const int which = (t + i) % 2;
        ServeOptions serve;
        Trace trace;
        // Half the serves traced: the span hooks race the cache too.
        if (t % 2 == 0) serve.trace = &trace;
        StatusOr<AnswerResult> result = engines[which]->Serve(query, serve);
        if (!result.ok()) {
          ++failures;
        } else if (result->answers != expected[which]) {
          ++wrong_answers;
        }
      }
    });
  }
  for (std::thread& worker : workers) worker.join();

  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(wrong_answers.load(), 0);
  const RewriteCacheStats stats = options.shared_cache->stats();
  EXPECT_EQ(stats.hits + stats.misses,
            static_cast<std::int64_t>(kThreads * kServesPerThread));
  EXPECT_LE(stats.size, 1u);
}

TEST(AnswerEngineTest, RequestsByStatusCountersSplitOutcomes) {
  FaultQuiesce quiesce;
  Vocabulary vocab;
  TgdProgram ontology = UniversityOntology(&vocab);
  Rng rng(11);
  UniversityInstanceOptions instance;
  instance.num_students = 10;
  AnswerEngine engine(ontology, UniversityInstance(instance, &rng, &vocab),
                      {});
  UnionOfCqs query(MustQuery("q(X) :- person(X).", &vocab));

  // Two OKs (miss then hit), one DeadlineExceeded, one injected Internal:
  // each lands in its own requests_by_status_<Code> bucket, so operators
  // can tell "healthy", "clients out of budget" and "we are broken"
  // apart without log-diving.
  ASSERT_TRUE(engine.Serve(query).ok());
  ASSERT_TRUE(engine.Serve(query).ok());

  ServeOptions expired;
  expired.deadline = Deadline::AfterMillis(-1);
  StatusOr<AnswerResult> late = engine.Serve(query, expired);
  ASSERT_FALSE(late.ok());
  ASSERT_EQ(late.status().code(), StatusCode::kDeadlineExceeded);

  {
    FaultPointConfig config;
    config.probability = 1.0;
    ScopedFault fault("eval.scan", config);
    StatusOr<AnswerResult> broken = engine.Serve(query);
    ASSERT_FALSE(broken.ok());
    ASSERT_EQ(broken.status().code(), StatusCode::kInternal);
  }

  const MetricsSnapshot snapshot = engine.metrics().Snapshot();
  EXPECT_EQ(snapshot.Counter("requests_by_status_OK"), 2);
  EXPECT_EQ(snapshot.Counter("requests_by_status_DeadlineExceeded"), 1);
  EXPECT_EQ(snapshot.Counter("requests_by_status_Internal"), 1);
  EXPECT_EQ(snapshot.Counter("queries_served"), 4);
}

}  // namespace
}  // namespace ontorew
