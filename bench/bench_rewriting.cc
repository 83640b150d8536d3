// Experiment C4 (DESIGN.md): cost and size of UCQ rewriting across the
// FO-rewritable classes (the operational side of the paper's [10]).
// Reported counters: disjuncts in the final UCQ and CQs generated during
// saturation. Expected shape: linear growth along hierarchy depth for
// DL-Lite-style ontologies; growth with query size for composition
// ontologies; constant-ish for the fixed paper examples.
//
// Two modes:
//   bench_rewriting [benchmark flags]   google-benchmark microbenchmarks
//   bench_rewriting --json [--out=F] [--trace]
//                                       machine-readable perf harness —
//     runs each named workload once per pass, reports best-of-3
//     wall time split into saturate_ms / factor_ms / emit_ms phases,
//     steps/sec, saturation counters and the compiled-SQL size under
//     both rewrite targets (flat UNION vs factored WITH-CTE), plus two
//     end-to-end SQLite rows for university_q3 (one per target; the cte
//     row runs the DAG-native RewriteToDatalog) and a product_6x8
//     blow-up row (DAG milliseconds where the flat union is infeasible),
//     as "ontorew-bench-rewrite/1" JSON (see README "Benchmarking" and
//     the checked-in baseline BENCH_rewrite.json guarded by the CI
//     bench-smoke step via bench/check_bench.py, including its
//     --dag-blowup gate).

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "backend/backend.h"
#include "backend/sqlite_backend.h"
#include "base/logging.h"
#include "base/rng.h"
#include "base/strings.h"
#include "base/trace.h"
#include "logic/parser.h"
#include "logic/vocabulary.h"
#include "rewriting/cte_sql.h"
#include "rewriting/dag_rewriter.h"
#include "rewriting/datalog.h"
#include "rewriting/rewriter.h"
#include "rewriting/sql.h"
#include "workload/generators.h"
#include "workload/paper_examples.h"
#include "workload/university.h"

namespace ontorew {
namespace {

ConjunctiveQuery MustQuery(const char* text, Vocabulary* vocab) {
  StatusOr<ConjunctiveQuery> query = ParseQuery(text, vocab);
  OREW_CHECK(query.ok()) << query.status();
  return *std::move(query);
}

// Rewriting q(X) :- p_n(X) against a chain of depth n: the UCQ has n + 1
// disjuncts; time should grow polynomially with n.
void BM_RewriteChainDepth(benchmark::State& state) {
  Vocabulary vocab;
  int n = static_cast<int>(state.range(0));
  TgdProgram program = ChainFamily(n, /*arity=*/1, &vocab);
  ConjunctiveQuery query =
      MustQuery((std::string("q(X0) :- p") + std::to_string(n) + "(X0).")
                    .c_str(),
                &vocab);
  int disjuncts = 0;
  for (auto _ : state) {
    StatusOr<RewriteResult> result = RewriteCq(query, program);
    OREW_CHECK(result.ok()) << result.status();
    disjuncts = result->ucq.size();
    benchmark::DoNotOptimize(result);
  }
  state.counters["disjuncts"] = disjuncts;
  state.SetComplexityN(n);
}
BENCHMARK(BM_RewriteChainDepth)
    ->RangeMultiplier(2)
    ->Range(4, 256)
    ->Complexity();

// Rewriting over the university ontology with increasing query size.
void BM_RewriteUniversityQuerySize(benchmark::State& state) {
  Vocabulary vocab;
  TgdProgram ontology = UniversityOntology(&vocab);
  std::string body = "person(X0)";
  for (int i = 1; i < state.range(0); ++i) {
    body += ", person(X" + std::to_string(i) + ")";
    body += ", knows(X" + std::to_string(i - 1) + ", X" +
            std::to_string(i) + ")";
  }
  ConjunctiveQuery query =
      MustQuery(("q(X0) :- " + body + ".").c_str(), &vocab);
  // The UCQ rewriting is exponential in the number of ontology atoms in
  // the query (each person-atom multiplies the union by its 10
  // unfoldings): give the saturation room.
  RewriterOptions options;
  options.max_cqs = 300000;
  int disjuncts = 0, generated = 0;
  for (auto _ : state) {
    StatusOr<RewriteResult> result = RewriteCq(query, ontology, options);
    OREW_CHECK(result.ok()) << result.status();
    disjuncts = result->ucq.size();
    generated = result->generated;
    benchmark::DoNotOptimize(result);
  }
  state.counters["disjuncts"] = disjuncts;
  state.counters["generated"] = generated;
}
BENCHMARK(BM_RewriteUniversityQuerySize)->DenseRange(1, 3, 1);

// The paper's Example 1 and Example 3 rewritings (fixed size).
void BM_RewritePaperExample1(benchmark::State& state) {
  Vocabulary vocab;
  TgdProgram program = PaperExample1(&vocab);
  ConjunctiveQuery query = MustQuery("q(X, Y) :- r(X, Y).", &vocab);
  for (auto _ : state) {
    StatusOr<RewriteResult> result = RewriteCq(query, program);
    OREW_CHECK(result.ok());
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_RewritePaperExample1);

void BM_RewritePaperExample3(benchmark::State& state) {
  Vocabulary vocab;
  TgdProgram program = PaperExample3(&vocab);
  ConjunctiveQuery query = MustQuery("q(X) :- t(X, Y, Z).", &vocab);
  for (auto _ : state) {
    StatusOr<RewriteResult> result = RewriteCq(query, program);
    OREW_CHECK(result.ok());
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_RewritePaperExample3);

// Divergence detection cost on Example 2 (bounded by max_cqs).
void BM_RewriteExample2DivergenceCap(benchmark::State& state) {
  Vocabulary vocab;
  TgdProgram program = PaperExample2(&vocab);
  ConjunctiveQuery query = MustQuery("q() :- r(\"a\", X).", &vocab);
  RewriterOptions options;
  options.max_cqs = static_cast<int>(state.range(0));
  for (auto _ : state) {
    StatusOr<RewriteResult> result = RewriteCq(query, program, options);
    OREW_CHECK(!result.ok());  // Always hits the cap.
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_RewriteExample2DivergenceCap)->Arg(100)->Arg(400)->Arg(1600);

// --- JSON perf harness ------------------------------------------------------

// A named workload: the program/query pair plus the saturation options it
// needs. The vocabulary lives in the struct so the ids in program/query
// stay valid.
struct JsonWorkload {
  std::string name;
  Vocabulary vocab;
  TgdProgram program;
  ConjunctiveQuery query;
  RewriterOptions options;
};

std::vector<JsonWorkload> BuildJsonWorkloads() {
  std::vector<JsonWorkload> workloads(6);

  workloads[0].name = "paper_example1";
  workloads[0].program = PaperExample1(&workloads[0].vocab);
  workloads[0].query = MustQuery("q(X, Y) :- r(X, Y).", &workloads[0].vocab);

  workloads[1].name = "paper_example3";
  workloads[1].program = PaperExample3(&workloads[1].vocab);
  workloads[1].query = MustQuery("q(X) :- t(X, Y, Z).", &workloads[1].vocab);

  workloads[2].name = "university_q2";
  workloads[2].program = UniversityOntology(&workloads[2].vocab);
  workloads[2].query = MustQuery(
      "q(X0) :- person(X0), knows(X0, X1), person(X1).", &workloads[2].vocab);

  workloads[3].name = "university_q3";
  workloads[3].program = UniversityOntology(&workloads[3].vocab);
  workloads[3].query = MustQuery(
      "q(X0) :- person(X0), knows(X0, X1), person(X1), knows(X1, X2), "
      "person(X2).",
      &workloads[3].vocab);
  workloads[3].options.max_cqs = 300000;

  workloads[4].name = "chain_256";
  workloads[4].program = ChainFamily(256, /*arity=*/1, &workloads[4].vocab);
  workloads[4].query = MustQuery("q(X0) :- p256(X0).", &workloads[4].vocab);

  // Deep recursion: composition chains unfold into a tree of join CQs.
  // The saturation is doubly exponential in the depth (n = 4 is already
  // out of reach), so depth 3 is the deep end of the measurable range.
  workloads[5].name = "composition_deep";
  workloads[5].program = CompositionFamily(3, &workloads[5].vocab);
  workloads[5].query = MustQuery("q(X, Z) :- r3(X, Z).", &workloads[5].vocab);
  workloads[5].options.max_cqs = 300000;

  return workloads;
}

// Size of the compiled SQL under both rewrite targets: the flat UNION
// (rewriting/sql.h) and the Datalog-factored WITH-CTE form
// (rewriting/cte_sql.h). The byte counts are deterministic for a given
// UCQ, so they ride along in every row and feed the check_bench.py
// --max-cte-sql-ratio gate (university_q3 must compress; chain_256 has
// nothing shared and is expected not to).
struct SqlSizes {
  std::size_t ucq_bytes = 0;
  std::size_t cte_bytes = 0;
  int cte_count = 0;
  // Phase timings behind the sizes: factoring the union into Datalog and
  // rendering both SQL strings. Together with the saturation wall time
  // they give each row its saturate/factor/emit split.
  double factor_ms = 0.0;
  double emit_ms = 0.0;
};

double MsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

SqlSizes MeasureSqlSizes(const UnionOfCqs& ucq, const Vocabulary& vocab) {
  SqlSizes sizes;
  const auto emit_union_start = std::chrono::steady_clock::now();
  StatusOr<std::string> union_sql = UcqToSql(ucq, vocab);
  const double emit_union_ms = MsSince(emit_union_start);
  OREW_CHECK(union_sql.ok()) << union_sql.status();
  sizes.ucq_bytes = union_sql->size();
  const auto factor_start = std::chrono::steady_clock::now();
  StatusOr<DatalogProgram> factored = FactorUcq(ucq);
  sizes.factor_ms = MsSince(factor_start);
  OREW_CHECK(factored.ok()) << factored.status();
  sizes.cte_count = factored->cte_count();
  const auto emit_cte_start = std::chrono::steady_clock::now();
  StatusOr<std::string> cte_sql = DatalogToCteSql(*factored, vocab);
  sizes.emit_ms = emit_union_ms + MsSince(emit_cte_start);
  OREW_CHECK(cte_sql.ok()) << cte_sql.status();
  sizes.cte_bytes = cte_sql->size();
  return sizes;
}

// End-to-end rows for the deep university join (the CTE compiler's
// headline workload): rewrite + compile + execute against a populated
// in-memory SQLite instance, once per rewrite target. The ucq row pays
// the full flat saturation and ships a ~1000-arm UNION; the cte row runs
// the DAG-native RewriteToDatalog — per-group saturation, never the flat
// union — and ships a handful of CTEs joined three ways, so its
// saturate_ms phase drops along with the SQL. Answers are cross-checked
// between the two targets.
void AppendE2eRows(std::string* json, bool* first) {
  Vocabulary vocab;
  TgdProgram ontology = UniversityOntology(&vocab);
  StatusOr<ConjunctiveQuery> query = ParseQuery(
      "q(X0) :- person(X0), knows(X0, X1), person(X1), knows(X1, X2), "
      "person(X2).",
      &vocab);
  OREW_CHECK(query.ok()) << query.status();
  RewriterOptions options;
  options.max_cqs = 300000;
  Rng rng(77);
  UniversityInstanceOptions instance;
  instance.num_professors = 10;
  instance.num_lecturers = 15;
  instance.num_students = 200;
  instance.num_phd_students = 20;
  instance.num_courses = 25;
  Database db = UniversityInstance(instance, &rng, &vocab);
  // The instance stores only raw predicates; knows is query-side. A ring
  // of acquaintance among the students (each knows the next two) gives
  // q3's two-hop chains real answers, so both executions do real work.
  const PredicateId knows = vocab.MustPredicate("knows", 2);
  for (int i = 0; i < instance.num_students; ++i) {
    const Value a = Value::Constant(vocab.InternConstant(StrCat("stud", i)));
    for (int hop = 1; hop <= 2; ++hop) {
      const Value b = Value::Constant(vocab.InternConstant(
          StrCat("stud", (i + hop) % instance.num_students)));
      db.Insert(knows, {a, b});
    }
  }
  SqliteBackend backend(&vocab);
  Status loaded =
      backend.Load(ontology, std::make_shared<const Database>(db));
  OREW_CHECK(loaded.ok()) << loaded;

  std::vector<Tuple> answers[2];
  for (int which = 0; which < 2; ++which) {
    const bool cte = which == 1;
    const char* name = cte ? "university_q3_e2e_cte" : "university_q3_e2e_ucq";
    double best_ms = 0.0, best_saturate_ms = 0.0, best_factor_ms = 0.0;
    std::size_t ucq_sql_bytes = 0, cte_sql_bytes = 0;
    int cte_count = 0;
    long long disjuncts = 0;
    constexpr int kRuns = 3;
    for (int run = 0; run < kRuns; ++run) {
      const auto start = std::chrono::steady_clock::now();
      double saturate_ms = 0.0, factor_ms = 0.0;
      StatusOr<std::vector<Tuple>> result =
          [&]() -> StatusOr<std::vector<Tuple>> {
        if (!cte) {
          StatusOr<RewriteResult> rewriting =
              RewriteCq(*query, ontology, options);
          saturate_ms = MsSince(start);
          if (!rewriting.ok()) return rewriting.status();
          if (run == 0) {
            const SqlSizes sizes = MeasureSqlSizes(rewriting->ucq, vocab);
            ucq_sql_bytes = sizes.ucq_bytes;
            cte_sql_bytes = sizes.cte_bytes;
            cte_count = sizes.cte_count;
            disjuncts = rewriting->ucq.size();
          }
          return backend.Execute(rewriting->ucq, {});
        }
        StatusOr<DagRewriteResult> dag =
            RewriteToDatalog(UnionOfCqs(*query), ontology, options);
        if (!dag.ok()) return dag.status();
        saturate_ms = static_cast<double>(dag->saturate_ns) / 1e6;
        factor_ms = static_cast<double>(dag->factor_ns) / 1e6;
        if (run == 0) {
          OREW_CHECK(!dag->fallback)
              << "university_q3 must take the DAG path, not the fallback";
          StatusOr<std::string> sql = DatalogToCteSql(dag->program, vocab);
          if (!sql.ok()) return sql.status();
          // No flat union exists on this path (that is the point), so
          // the row reports ucq_sql_bytes 0 and the IMPLIED disjunct
          // count the program stands for.
          cte_sql_bytes = sql->size();
          cte_count = dag->program.cte_count();
          disjuncts = dag->implied_disjuncts;
        }
        return backend.ExecuteDatalog(dag->program, {});
      }();
      const double ms = MsSince(start);
      OREW_CHECK(result.ok()) << name << ": " << result.status();
      if (run == 0 || ms < best_ms) {
        best_ms = ms;
        best_saturate_ms = saturate_ms;
        best_factor_ms = factor_ms;
      }
      if (run == 0) answers[which] = *std::move(result);
    }
    char line[768];
    std::snprintf(
        line, sizeof(line),
        "    {\"name\": \"%s\", \"threads\": 1, \"threads_used\": 1, "
        "\"wall_ms\": %.3f, \"saturate_ms\": %.3f, \"factor_ms\": %.3f, "
        "\"disjuncts\": %lld, \"answers\": %zu, "
        "\"ucq_sql_bytes\": %zu, \"cte_sql_bytes\": %zu, \"cte_count\": %d}",
        name, best_ms, best_saturate_ms, best_factor_ms, disjuncts,
        answers[which].size(), ucq_sql_bytes, cte_sql_bytes, cte_count);
    if (!*first) *json += ",\n";
    *first = false;
    *json += line;
    std::fprintf(stderr, "%-24s threads=1  %8.3f ms  %zu answers\n", name,
                 best_ms, answers[which].size());
  }
  OREW_CHECK(answers[0] == answers[1])
      << "e2e rewrite targets disagree on university_q3";
}

// The cross-product blow-up row: ProductQuery(6) over ProductFamily(8)
// implies (8+1)^6 = 531441 flat disjuncts — far past any materialization
// budget — while the DAG rewriting memoizes the single shared p-group
// and emits ~k + d rules in milliseconds. The row records the DAG wall
// time (best of 3) plus a single capped flat probe: flat_outcome says
// how the flat saturation died (or "ok" with its time, should it ever
// manage), and the check_bench.py --dag-blowup gate holds the DAG side
// to a hard ceiling while requiring the flat side stayed infeasible.
void AppendDagBlowupRow(std::string* json, bool* first) {
  Vocabulary vocab;
  TgdProgram program = ProductFamily(8, &vocab);
  const UnionOfCqs query(ProductQuery(6, &vocab));

  RewriterOptions dag_options;
  dag_options.max_cqs = 300000;
  double best_ms = 0.0, best_saturate_ms = 0.0, best_factor_ms = 0.0;
  long long disjuncts = 0;
  int cte_count = 0;
  std::size_t cte_sql_bytes = 0;
  constexpr int kRuns = 3;
  for (int run = 0; run < kRuns; ++run) {
    const auto start = std::chrono::steady_clock::now();
    StatusOr<DagRewriteResult> dag =
        RewriteToDatalog(query, program, dag_options);
    const double ms = MsSince(start);
    OREW_CHECK(dag.ok()) << dag.status();
    OREW_CHECK(!dag->fallback) << "product_6x8 must take the DAG path";
    if (run == 0 || ms < best_ms) {
      best_ms = ms;
      best_saturate_ms = static_cast<double>(dag->saturate_ns) / 1e6;
      best_factor_ms = static_cast<double>(dag->factor_ns) / 1e6;
    }
    if (run == 0) {
      disjuncts = dag->implied_disjuncts;
      cte_count = dag->program.cte_count();
      StatusOr<std::string> sql = DatalogToCteSql(dag->program, vocab);
      OREW_CHECK(sql.ok()) << sql.status();
      cte_sql_bytes = sql->size();
    }
  }

  // One capped probe of the flat path, so the row documents WHY the DAG
  // side matters. 2 s is orders of magnitude more than the DAG needs.
  RewriterOptions flat_options;
  flat_options.max_cqs = 300000;
  flat_options.cancel = CancelScope(Deadline::AfterMillis(2000));
  const auto flat_start = std::chrono::steady_clock::now();
  StatusOr<RewriteResult> flat = RewriteCq(query.disjuncts()[0], program,
                                           flat_options);
  const double flat_ms = MsSince(flat_start);
  const char* flat_outcome = "ok";
  if (!flat.ok()) {
    flat_outcome = flat.status().code() == StatusCode::kResourceExhausted
                       ? "max_cqs"
                       : "deadline";
  }

  char line[768];
  std::snprintf(
      line, sizeof(line),
      "    {\"name\": \"product_6x8\", \"threads\": 1, \"threads_used\": 1, "
      "\"wall_ms\": %.3f, \"saturate_ms\": %.3f, \"factor_ms\": %.3f, "
      "\"disjuncts\": %lld, \"ucq_sql_bytes\": 0, \"cte_sql_bytes\": %zu, "
      "\"cte_count\": %d, \"flat_ms\": %.3f, \"flat_outcome\": \"%s\"}",
      best_ms, best_saturate_ms, best_factor_ms, disjuncts, cte_sql_bytes,
      cte_count, flat_ms, flat_outcome);
  if (!*first) *json += ",\n";
  *first = false;
  *json += line;
  std::fprintf(stderr,
               "%-24s threads=1  %8.3f ms  (flat: %s after %.0f ms)\n",
               "product_6x8", best_ms, flat_outcome, flat_ms);
}

// With `traced` set, every rewrite carries a live Trace (one fresh Trace
// per run, like a traced request would): the reported numbers then
// measure the enabled-tracing overhead. The CI bench-smoke step runs the
// harness untraced against the checked-in baseline (the "disabled
// tracing is free" contract) and traced with a looser ratio.
int RunJsonHarness(const std::string& out_path, bool traced) {
  // hw_threads records the host next to its timings. The saturation is
  // single-threaded, so every row reports threads 1; the key stays so the
  // schema (and the baseline's row keys) stay unchanged.
  const unsigned hw = std::thread::hardware_concurrency();
  std::string json = "{\n  \"schema\": \"ontorew-bench-rewrite/1\",\n"
                     "  \"hw_threads\": " +
                     std::to_string(hw == 0 ? 1 : hw) +
                     ",\n  \"results\": [\n";
  bool first = true;
  for (JsonWorkload& workload : BuildJsonWorkloads()) {
    RewriterOptions options = workload.options;
    double best_ms = 0.0;
    RewriteResult measured;
    constexpr int kRuns = 3;
    for (int run = 0; run < kRuns; ++run) {
      Trace trace;
      if (traced) options.trace = TraceContext(&trace);
      const auto start = std::chrono::steady_clock::now();
      StatusOr<RewriteResult> result =
          RewriteCq(workload.query, workload.program, options);
      const auto stop = std::chrono::steady_clock::now();
      OREW_CHECK(result.ok()) << workload.name << ": " << result.status();
      OREW_CHECK(!traced || trace.size() > 0);
      const double ms =
          std::chrono::duration<double, std::milli>(stop - start).count();
      if (run == 0 || ms < best_ms) {
        best_ms = ms;
        measured = *std::move(result);
      }
    }
    const double steps_per_sec =
        best_ms > 0.0 ? measured.steps / (best_ms / 1000.0) : 0.0;
    const SqlSizes sizes = MeasureSqlSizes(measured.ucq, workload.vocab);
    // These rows time RewriteCq alone, so the whole wall is the
    // saturate phase; factoring and emission are measured on the side
    // by MeasureSqlSizes and reported as their own phases.
    char line[768];
    std::snprintf(
        line, sizeof(line),
        "    {\"name\": \"%s\", \"threads\": 1, \"threads_used\": 1, "
        "\"wall_ms\": %.3f, \"saturate_ms\": %.3f, \"factor_ms\": %.3f, "
        "\"emit_ms\": %.3f, "
        "\"steps\": %d, \"steps_per_sec\": %.1f, \"generated\": %d, "
        "\"pruned\": %d, \"disjuncts\": %d, "
        "\"ucq_sql_bytes\": %zu, \"cte_sql_bytes\": %zu, "
        "\"cte_count\": %d}",
        workload.name.c_str(), best_ms, best_ms, sizes.factor_ms,
        sizes.emit_ms, measured.steps, steps_per_sec, measured.generated,
        measured.pruned, measured.ucq.size(), sizes.ucq_bytes,
        sizes.cte_bytes, sizes.cte_count);
    if (!first) json += ",\n";
    first = false;
    json += line;
    std::fprintf(stderr, "%-20s threads=1  %8.3f ms  %d disjuncts\n",
                 workload.name.c_str(), best_ms, measured.ucq.size());
  }
  AppendE2eRows(&json, &first);
  AppendDagBlowupRow(&json, &first);
  json += "\n  ]\n}\n";
  if (out_path.empty()) {
    std::fputs(json.c_str(), stdout);
    return 0;
  }
  std::FILE* f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", out_path.c_str());
    return 1;
  }
  std::fputs(json.c_str(), f);
  std::fclose(f);
  std::fprintf(stderr, "wrote %s\n", out_path.c_str());
  return 0;
}

}  // namespace
}  // namespace ontorew

int main(int argc, char** argv) {
  bool json = false;
  bool traced = false;
  std::string out_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json") {
      json = true;
    } else if (arg == "--trace") {
      traced = true;
    } else if (arg.rfind("--out=", 0) == 0) {
      out_path = arg.substr(6);
    }
  }
  if (json) return ontorew::RunJsonHarness(out_path, traced);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
