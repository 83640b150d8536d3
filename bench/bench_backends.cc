// Backend comparison (DESIGN.md "Backends"): the same rewritten UCQs
// executed by the two Backend implementations — InMemoryBackend (the
// engine's default evaluator behind the Backend interface) and
// SqliteBackend (facts loaded into an in-memory SQLite database, the
// rewriting run as plain SQL). Two costs matter operationally:
//
//  - load time: InMemory keeps a pointer to the shared Database; SQLite
//    creates tables and bulk-inserts every fact inside one transaction.
//    Paid once per engine, amortized over all queries.
//  - per-query latency: hash-join evaluator vs SQLite's planner over
//    the emitted SELECT ... UNION ... text.
//
// Answers are cross-checked between the backends every iteration — a
// disagreement is a correctness bug, not a benchmark artifact, and
// aborts the run.

#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "backend/backend.h"
#include "backend/sqlite_backend.h"
#include "base/logging.h"
#include "base/rng.h"
#include "base/strings.h"
#include "logic/parser.h"
#include "rewriting/datalog.h"
#include "rewriting/rewriter.h"
#include "workload/generators.h"
#include "workload/university.h"

namespace ontorew {
namespace {

struct Scenario {
  Vocabulary vocab;
  TgdProgram ontology;
  Database db;
  // One narrow join and one wide union (person unfolds into a disjunct
  // per raw predicate) — the two shapes backends see in practice.
  UnionOfCqs join_ucq;
  UnionOfCqs wide_ucq;
};

Scenario MakeScenario(int scale) {
  Scenario scenario;
  scenario.ontology = UniversityOntology(&scenario.vocab);
  Rng rng(77);
  UniversityInstanceOptions options;
  options.num_professors = 2 * scale;
  options.num_lecturers = 3 * scale;
  options.num_students = 40 * scale;
  options.num_phd_students = 4 * scale;
  options.num_courses = 5 * scale;
  scenario.db = UniversityInstance(options, &rng, &scenario.vocab);
  StatusOr<ConjunctiveQuery> join = ParseQuery(
      "q(S) :- enrolled(S, C), teaches(T, C), faculty(T).", &scenario.vocab);
  OREW_CHECK(join.ok());
  StatusOr<RewriteResult> join_rewriting =
      RewriteCq(*join, scenario.ontology);
  OREW_CHECK(join_rewriting.ok());
  scenario.join_ucq = std::move(join_rewriting->ucq);
  StatusOr<ConjunctiveQuery> wide =
      ParseQuery("q(X) :- person(X).", &scenario.vocab);
  OREW_CHECK(wide.ok());
  StatusOr<RewriteResult> wide_rewriting =
      RewriteCq(*wide, scenario.ontology);
  OREW_CHECK(wide_rewriting.ok());
  scenario.wide_ucq = std::move(wide_rewriting->ucq);
  return scenario;
}

std::unique_ptr<Backend> MakeBackend(int which, Vocabulary* vocab) {
  if (which == 0) return std::make_unique<InMemoryBackend>();
  return std::make_unique<SqliteBackend>(vocab);
}

// Load cost: program schema + every fact into a fresh backend. The
// database is shared, as the engine shares its own, so the in-memory
// backend's load copies nothing.
void BM_BackendLoad(benchmark::State& state) {
  Scenario scenario = MakeScenario(static_cast<int>(state.range(1)));
  const auto db = std::make_shared<const Database>(scenario.db);
  for (auto _ : state) {
    std::unique_ptr<Backend> backend =
        MakeBackend(static_cast<int>(state.range(0)), &scenario.vocab);
    Status status = backend->Load(scenario.ontology, db);
    OREW_CHECK(status.ok()) << status;
    benchmark::DoNotOptimize(backend);
  }
  state.counters["db_tuples"] = scenario.db.TotalTuples();
  state.SetLabel(state.range(0) == 0 ? "inmemory" : "sqlite");
}
BENCHMARK(BM_BackendLoad)->ArgsProduct({{0, 1}, {1, 16, 64}});

// Per-query latency on a loaded backend, answers cross-checked against
// the other backend once up front.
void RunExecBenchmark(benchmark::State& state, const UnionOfCqs& ucq,
                      Scenario& scenario) {
  std::unique_ptr<Backend> backend =
      MakeBackend(static_cast<int>(state.range(0)), &scenario.vocab);
  std::unique_ptr<Backend> other =
      MakeBackend(1 - static_cast<int>(state.range(0)), &scenario.vocab);
  const auto db = std::make_shared<const Database>(scenario.db);
  OREW_CHECK(backend->Load(scenario.ontology, db).ok());
  OREW_CHECK(other->Load(scenario.ontology, db).ok());
  BackendExecOptions exec;
  StatusOr<std::vector<Tuple>> reference = other->Execute(ucq, exec);
  OREW_CHECK(reference.ok()) << reference.status();
  std::size_t answers = 0;
  for (auto _ : state) {
    StatusOr<std::vector<Tuple>> result = backend->Execute(ucq, exec);
    OREW_CHECK(result.ok()) << result.status();
    OREW_CHECK(*result == *reference) << "backends disagree";
    answers = result->size();
    benchmark::DoNotOptimize(result);
  }
  state.counters["db_tuples"] = scenario.db.TotalTuples();
  state.counters["answers"] = static_cast<double>(answers);
  state.counters["ucq_disjuncts"] = ucq.size();
  state.SetLabel(state.range(0) == 0 ? "inmemory" : "sqlite");
}

void BM_BackendExecJoin(benchmark::State& state) {
  Scenario scenario = MakeScenario(static_cast<int>(state.range(1)));
  RunExecBenchmark(state, scenario.join_ucq, scenario);
}
BENCHMARK(BM_BackendExecJoin)->ArgsProduct({{0, 1}, {1, 16, 64}});

void BM_BackendExecWideUnion(benchmark::State& state) {
  Scenario scenario = MakeScenario(static_cast<int>(state.range(1)));
  RunExecBenchmark(state, scenario.wide_ucq, scenario);
}
BENCHMARK(BM_BackendExecWideUnion)->ArgsProduct({{0, 1}, {1, 16, 64}});

// The deep university join (university_q3): 1000 disjuncts flat, a
// handful of CTEs factored. SQLite executes both forms of the same
// rewriting — the flat UNION through Execute (chunked past the compound
// SELECT limit) and the Datalog factoring through ExecuteDatalog — so
// the pair isolates what the CTE compiler buys at execution time on an
// identical loaded instance. Answers are cross-checked every iteration.
struct Q3Scenario {
  Vocabulary vocab;
  TgdProgram ontology;
  Database db;
  UnionOfCqs ucq;
  DatalogProgram datalog;
};

Q3Scenario MakeQ3Scenario(int scale) {
  Q3Scenario scenario;
  scenario.ontology = UniversityOntology(&scenario.vocab);
  Rng rng(77);
  UniversityInstanceOptions options;
  options.num_professors = 2 * scale;
  options.num_lecturers = 3 * scale;
  options.num_students = 40 * scale;
  options.num_phd_students = 4 * scale;
  options.num_courses = 5 * scale;
  scenario.db = UniversityInstance(options, &rng, &scenario.vocab);
  // The instance stores only raw predicates; knows is query-side. A ring
  // of acquaintance among the students (each knows the next two) gives
  // q3's two-hop chains real answers.
  StatusOr<PredicateId> knows =
      scenario.vocab.InternPredicate("knows", 2);
  OREW_CHECK(knows.ok());
  for (int i = 0; i < options.num_students; ++i) {
    const Value a = Value::Constant(
        scenario.vocab.InternConstant(StrCat("stud", i)));
    for (int hop = 1; hop <= 2; ++hop) {
      const Value b = Value::Constant(scenario.vocab.InternConstant(
          StrCat("stud", (i + hop) % options.num_students)));
      scenario.db.Insert(*knows, {a, b});
    }
  }
  StatusOr<ConjunctiveQuery> q3 = ParseQuery(
      "q(X0) :- person(X0), knows(X0, X1), person(X1), knows(X1, X2), "
      "person(X2).",
      &scenario.vocab);
  OREW_CHECK(q3.ok());
  RewriterOptions rewrite;
  rewrite.max_cqs = 300000;
  StatusOr<RewriteResult> rewriting =
      RewriteCq(*q3, scenario.ontology, rewrite);
  OREW_CHECK(rewriting.ok()) << rewriting.status();
  scenario.ucq = std::move(rewriting->ucq);
  StatusOr<DatalogProgram> factored = FactorUcq(scenario.ucq);
  OREW_CHECK(factored.ok()) << factored.status();
  scenario.datalog = *std::move(factored);
  return scenario;
}

// Shared driver for the flat-vs-CTE execution pairs: range(0) = 0
// executes the flat union, 1 the factored CTE form; answers are
// cross-checked every iteration.
void RunUnionVsCteBenchmark(benchmark::State& state, Vocabulary* vocab,
                            const TgdProgram& ontology, const Database& db,
                            const UnionOfCqs& ucq,
                            const DatalogProgram& datalog) {
  SqliteBackend backend(vocab);
  OREW_CHECK(
      backend.Load(ontology, std::make_shared<const Database>(db)).ok());
  BackendExecOptions exec;
  const bool cte = state.range(0) == 1;
  StatusOr<std::vector<Tuple>> reference = backend.Execute(ucq, exec);
  OREW_CHECK(reference.ok()) << reference.status();
  std::size_t answers = 0;
  for (auto _ : state) {
    StatusOr<std::vector<Tuple>> result =
        cte ? backend.ExecuteDatalog(datalog, exec)
            : backend.Execute(ucq, exec);
    OREW_CHECK(result.ok()) << result.status();
    OREW_CHECK(*result == *reference) << "union and CTE forms disagree";
    answers = result->size();
    benchmark::DoNotOptimize(result);
  }
  state.counters["db_tuples"] = db.TotalTuples();
  state.counters["answers"] = static_cast<double>(answers);
  state.counters["ucq_disjuncts"] = ucq.size();
  state.counters["cte_count"] = datalog.cte_count();
  state.SetLabel(cte ? "sqlite-cte" : "sqlite-union");
}

void BM_BackendExecQ3UnionVsCte(benchmark::State& state) {
  Q3Scenario scenario = MakeQ3Scenario(static_cast<int>(state.range(1)));
  RunUnionVsCteBenchmark(state, &scenario.vocab, scenario.ontology,
                         scenario.db, scenario.ucq, scenario.datalog);
}
BENCHMARK(BM_BackendExecQ3UnionVsCte)->ArgsProduct({{0, 1}, {1, 16}});

// The deep composition family (composition_deep in BENCH_rewrite.json):
// 26 join-heavy disjuncts over a random instance scaled by
// tuples/predicate. Its disjuncts share sub-joins only *partially*, so
// the current whole-subgoal-set factoring finds nothing (cte_count=0)
// and the CTE form degenerates to the chunk-executed union — the pair
// pins that degenerate path at union parity and becomes the measurement
// the moment partial-join factoring lands (ROADMAP item 3).
void BM_BackendExecCompositionUnionVsCte(benchmark::State& state) {
  Vocabulary vocab;
  TgdProgram ontology = CompositionFamily(3, &vocab);
  Rng rng(77);
  Database db = RandomDatabase(ontology,
                               /*tuples_per_predicate=*/
                               static_cast<int>(state.range(1)),
                               /*domain_size=*/
                               static_cast<int>(state.range(1)) / 2 + 4, &rng,
                               &vocab);
  StatusOr<ConjunctiveQuery> query =
      ParseQuery("q(X, Z) :- r3(X, Z).", &vocab);
  OREW_CHECK(query.ok());
  RewriterOptions rewrite;
  rewrite.max_cqs = 300000;
  StatusOr<RewriteResult> rewriting = RewriteCq(*query, ontology, rewrite);
  OREW_CHECK(rewriting.ok()) << rewriting.status();
  StatusOr<DatalogProgram> factored = FactorUcq(rewriting->ucq);
  OREW_CHECK(factored.ok()) << factored.status();
  RunUnionVsCteBenchmark(state, &vocab, ontology, db, rewriting->ucq,
                         *factored);
}
BENCHMARK(BM_BackendExecCompositionUnionVsCte)
    ->ArgsProduct({{0, 1}, {64, 256}});

}  // namespace
}  // namespace ontorew

BENCHMARK_MAIN();
