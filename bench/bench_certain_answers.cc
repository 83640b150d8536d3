// Experiment C3 (DESIGN.md): the paper's headline property — with an
// FO-rewritable ontology, certain-answer computation has AC0 data
// complexity: rewrite once (independent of the data), then evaluate a
// plain UCQ. The comparator materializes with the chase and evaluates.
//
// Sweep: university instances from ~10^2 to ~10^5 tuples. Expected shape:
// rewriting time is flat in |D|; rewriting evaluation and chase evaluation
// both grow with |D| but the chase additionally pays the materialization
// (several times |D| extra tuples), so end-to-end rewriting wins and the
// gap widens with |D|.

// The serving-layer benchmarks (BM_Engine*) add the production story: a
// warm rewrite cache makes the repeated-query path skip saturation
// entirely, and the UCQ's disjuncts evaluate across worker threads with
// answers byte-identical to the single-threaded path.

#include <benchmark/benchmark.h>

#include "base/logging.h"
#include "base/rng.h"
#include "chase/chase.h"
#include "db/eval.h"
#include "logic/parser.h"
#include "rewriting/rewriter.h"
#include "serving/answer_engine.h"
#include "serving/parallel_eval.h"
#include "workload/university.h"

namespace ontorew {
namespace {

struct Scenario {
  Vocabulary vocab;
  TgdProgram ontology;
  Database db;
  ConjunctiveQuery query;
  // A query whose saturation is expensive (the 5-atom shape explores
  // ~100 CQs before minimization) while its evaluation stays cheap — the
  // shape where the serving layer's rewrite cache pays off most.
  ConjunctiveQuery expensive_query;
  // A query whose rewriting is a wide union (one disjunct per raw
  // predicate person unfolds into) — the shape parallel evaluation fans
  // out.
  ConjunctiveQuery wide_query;
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
  StatusOr<ConjunctiveQuery> query = ParseQuery(
      "q(S) :- enrolled(S, C), teaches(T, C), faculty(T).", &scenario.vocab);
  OREW_CHECK(query.ok());
  scenario.query = *std::move(query);
  StatusOr<ConjunctiveQuery> expensive = ParseQuery(
      "q(S) :- enrolled(S, C), teaches(T, C), faculty(T), person(S), "
      "course(C).",
      &scenario.vocab);
  OREW_CHECK(expensive.ok());
  scenario.expensive_query = *std::move(expensive);
  StatusOr<ConjunctiveQuery> wide =
      ParseQuery("q(X) :- person(X).", &scenario.vocab);
  OREW_CHECK(wide.ok());
  scenario.wide_query = *std::move(wide);
  return scenario;
}

// The query-independent, data-independent step.
void BM_RewriteOnce(benchmark::State& state) {
  Scenario scenario = MakeScenario(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    StatusOr<RewriteResult> result =
        RewriteCq(scenario.query, scenario.ontology);
    OREW_CHECK(result.ok());
    benchmark::DoNotOptimize(result);
  }
  state.counters["db_tuples"] = scenario.db.TotalTuples();
}
BENCHMARK(BM_RewriteOnce)->RangeMultiplier(4)->Range(1, 256);

// Rewriting route: evaluate the (precomputed) UCQ over the raw data.
void BM_AnswerViaRewriting(benchmark::State& state) {
  Scenario scenario = MakeScenario(static_cast<int>(state.range(0)));
  StatusOr<RewriteResult> rewriting =
      RewriteCq(scenario.query, scenario.ontology);
  OREW_CHECK(rewriting.ok());
  EvalOptions drop;
  drop.drop_tuples_with_nulls = true;
  std::size_t answers = 0;
  for (auto _ : state) {
    std::vector<Tuple> result = Evaluate(rewriting->ucq, scenario.db, drop);
    answers = result.size();
    benchmark::DoNotOptimize(result);
  }
  state.counters["db_tuples"] = scenario.db.TotalTuples();
  state.counters["answers"] = static_cast<double>(answers);
  state.counters["ucq_disjuncts"] = rewriting->ucq.size();
}
BENCHMARK(BM_AnswerViaRewriting)->RangeMultiplier(4)->Range(1, 256);

// Materialization route: chase the instance, then evaluate the original
// query. (The chase is re-run per iteration — it IS the cost being
// measured.)
void BM_AnswerViaChase(benchmark::State& state) {
  Scenario scenario = MakeScenario(static_cast<int>(state.range(0)));
  std::size_t answers = 0;
  int chase_tuples = 0;
  for (auto _ : state) {
    StatusOr<std::vector<Tuple>> result = CertainAnswersViaChase(
        UnionOfCqs(scenario.query), scenario.ontology, scenario.db);
    OREW_CHECK(result.ok()) << result.status();
    answers = result->size();
    benchmark::DoNotOptimize(result);
  }
  ChaseResult chase = RunChase(scenario.ontology, scenario.db);
  chase_tuples = chase.db.TotalTuples();
  state.counters["db_tuples"] = scenario.db.TotalTuples();
  state.counters["chase_tuples"] = chase_tuples;
  state.counters["answers"] = static_cast<double>(answers);
}
BENCHMARK(BM_AnswerViaChase)->RangeMultiplier(4)->Range(1, 64);

// Serving route, cold cache: every query pays the full rewriting
// saturation plus evaluation. Baseline for the warm-cache comparison.
void BM_EngineColdCache(benchmark::State& state) {
  Scenario scenario = MakeScenario(static_cast<int>(state.range(0)));
  // A zero-capacity cache never stores: every Serve pays the full
  // saturation.
  AnswerEngineOptions cold_options;
  cold_options.shared_cache = std::make_shared<RewriteCache>(0);
  AnswerEngine engine(scenario.ontology, scenario.db, cold_options);
  UnionOfCqs query(scenario.expensive_query);
  for (auto _ : state) {
    StatusOr<AnswerResult> result = engine.Serve(query);
    OREW_CHECK(result.ok()) << result.status();
    OREW_CHECK(!result->cache_hit);
    benchmark::DoNotOptimize(result);
  }
  state.counters["db_tuples"] = scenario.db.TotalTuples();
}
BENCHMARK(BM_EngineColdCache)->RangeMultiplier(4)->Range(1, 64);

// Serving route, warm cache: the repeated-query hot path. The rewriting
// is fetched from the LRU cache, so each serve is evaluation-only — this
// is the >= 10x win over BM_EngineColdCache at small |D| where rewriting
// dominates.
void BM_EngineWarmCache(benchmark::State& state) {
  Scenario scenario = MakeScenario(static_cast<int>(state.range(0)));
  AnswerEngine engine(scenario.ontology, scenario.db);
  UnionOfCqs query(scenario.expensive_query);
  {
    StatusOr<AnswerResult> warmup = engine.Serve(query);  // Prime the cache.
    OREW_CHECK(warmup.ok()) << warmup.status();
  }
  for (auto _ : state) {
    StatusOr<AnswerResult> result = engine.Serve(query);
    OREW_CHECK(result.ok());
    OREW_CHECK(result->cache_hit);
    benchmark::DoNotOptimize(result);
  }
  MetricsSnapshot metrics = engine.metrics().Snapshot();
  state.counters["db_tuples"] = scenario.db.TotalTuples();
  state.counters["cache_hits"] =
      static_cast<double>(metrics.Counter("rewrite_cache_hit"));
  state.counters["cache_misses"] =
      static_cast<double>(metrics.Counter("rewrite_cache_miss"));
}
BENCHMARK(BM_EngineWarmCache)->RangeMultiplier(4)->Range(1, 64);

// Parallel UCQ evaluation across thread counts, answers checked
// byte-identical to the single-threaded evaluator every iteration.
void BM_ParallelUcqEval(benchmark::State& state) {
  Scenario scenario = MakeScenario(static_cast<int>(state.range(0)));
  StatusOr<RewriteResult> rewriting =
      RewriteCq(scenario.wide_query, scenario.ontology);
  OREW_CHECK(rewriting.ok());
  EvalOptions drop;
  drop.drop_tuples_with_nulls = true;
  const std::vector<Tuple> reference =
      Evaluate(rewriting->ucq, scenario.db, drop);
  ParallelEvalOptions options;
  options.num_threads = static_cast<int>(state.range(1));
  options.eval = drop;
  for (auto _ : state) {
    StatusOr<std::vector<Tuple>> result =
        ParallelEvaluate(rewriting->ucq, scenario.db, options);
    OREW_CHECK(result.ok()) << result.status();
    OREW_CHECK(*result == reference) << "parallel evaluation diverged";
    benchmark::DoNotOptimize(result);
  }
  state.counters["db_tuples"] = scenario.db.TotalTuples();
  state.counters["threads"] = static_cast<double>(options.num_threads);
  state.counters["ucq_disjuncts"] = rewriting->ucq.size();
}
BENCHMARK(BM_ParallelUcqEval)
    ->ArgsProduct({{16, 64, 256}, {1, 2, 4, 8}});

}  // namespace
}  // namespace ontorew

BENCHMARK_MAIN();
