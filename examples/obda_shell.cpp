// obda_shell: the full OBDA workflow as a command-line tool.
//
//   $ ./build/examples/obda_shell ONTOLOGY.tgd FACTS.facts QUERY
//         [TIMEOUT_MS] [BACKEND]
//
// Loads a TGD ontology and a ground-fact file, reports the ontology's
// classification and chase-termination guarantee, analyzes the query's
// safety, rewrites it, evaluates the rewriting, and (when the chase is
// guaranteed to terminate) cross-checks the answers against the chase.
// The optional TIMEOUT_MS bounds each serve end-to-end: a divergent
// saturation comes back as a DeadlineExceeded error instead of hanging
// the shell. BACKEND picks where the rewriting executes: "memory"
// (default, the in-memory evaluator) or "sqlite" (an in-memory SQLite
// database loaded with the facts; the rewriting runs as plain SQL).
//
//   $ ./build/examples/obda_shell data/university.tgd /dev/null
//         "q(X) :- person(X)." 500 sqlite
//
// Environment switches:
//   TRACE=1     record a request-scoped trace of the cold serve and print
//               the span tree (stage timings, per-iteration CQ counts,
//               cache verdicts, SQL plans on the sqlite backend);
//   TRACE=json  same, but emit Chrome trace_event JSON (load the output
//               in chrome://tracing or Perfetto);
//   EXPLAIN=1   dry run: print the rewriting, the SQL the engine would
//               ship, and the trace of the rewrite pipeline WITHOUT
//               evaluating anything, then exit.

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>

#include "backend/sqlite_backend.h"
#include "base/deadline.h"
#include "base/logging.h"
#include "base/trace.h"
#include "chase/chase.h"
#include "chase/termination.h"
#include "classes/classifier.h"
#include "core/query_analysis.h"
#include "db/eval.h"
#include "db/facts_io.h"
#include "logic/parser.h"
#include "logic/printer.h"
#include "rewriting/rewriter.h"
#include "serving/answer_engine.h"

namespace {

ontorew::StatusOr<std::string> ReadFile(const char* path) {
  std::ifstream file(path);
  if (!file) {
    return ontorew::NotFoundError(std::string("cannot open ") + path);
  }
  std::ostringstream buffer;
  buffer << file.rdbuf();
  return buffer.str();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace ontorew;
  if (argc < 4 || argc > 6) {
    std::fprintf(stderr,
                 "usage: %s ONTOLOGY.tgd FACTS.facts \"q(X) :- ...\" "
                 "[TIMEOUT_MS] [memory|sqlite]\n",
                 argv[0]);
    return 1;
  }
  long timeout_ms = 0;  // 0 = no deadline.
  if (argc >= 5) {
    timeout_ms = std::strtol(argv[4], nullptr, 10);
    if (timeout_ms <= 0) {
      std::fprintf(stderr, "TIMEOUT_MS must be a positive integer\n");
      return 1;
    }
  }
  std::string backend_name = "memory";
  if (argc == 6) {
    backend_name = argv[5];
    if (backend_name != "memory" && backend_name != "sqlite") {
      std::fprintf(stderr, "BACKEND must be \"memory\" or \"sqlite\"\n");
      return 1;
    }
  }

  Vocabulary vocab;
  StatusOr<std::string> ontology_text = ReadFile(argv[1]);
  OREW_CHECK(ontology_text.ok()) << ontology_text.status();
  StatusOr<TgdProgram> ontology = ParseProgram(*ontology_text, &vocab);
  if (!ontology.ok()) {
    std::fprintf(stderr, "ontology: %s\n",
                 ontology.status().ToString().c_str());
    return 1;
  }

  StatusOr<std::string> facts_text = ReadFile(argv[2]);
  OREW_CHECK(facts_text.ok()) << facts_text.status();
  StatusOr<Database> db = ParseFacts(*facts_text, &vocab);
  if (!db.ok()) {
    std::fprintf(stderr, "facts: %s\n", db.status().ToString().c_str());
    return 1;
  }

  StatusOr<ConjunctiveQuery> query = ParseQuery(argv[3], &vocab);
  if (!query.ok()) {
    std::fprintf(stderr, "query: %s\n", query.status().ToString().c_str());
    return 1;
  }

  std::printf("ontology: %d TGDs; data: %d facts\n\n", ontology->size(),
              db->TotalTuples());
  ClassificationReport report = Classify(*ontology, vocab);
  std::printf("classification:\n%s", report.ToTable().c_str());
  std::printf("  chase guarantee    : %s\n\n",
              std::string(ToString(CheckChaseGuarantee(*ontology))).c_str());

  if (ontology->IsSingleHead()) {
    StatusOr<QuerySafetyReport> safety =
        AnalyzeQuerySafety(*query, *ontology, vocab);
    if (safety.ok()) {
      std::printf("query safety: %s (%d reachable P-nodes)\n",
                  safety->is_safe ? "safe" : "UNSAFE — rewriting may diverge",
                  safety->num_nodes);
      if (!safety->is_safe) {
        std::printf("  dangerous cycle: %s\n", safety->witness.c_str());
      }
    }
  }

  // Serve through the caching engine: the first query pays the rewriting
  // (cache miss), the repeat is evaluation-only (cache hit) — the paper's
  // "rewrite once, then plain query evaluation" serving story.
  AnswerEngineOptions engine_options;
  if (backend_name == "sqlite") {
    engine_options.backend = std::make_shared<SqliteBackend>(&vocab);
    std::printf("execution backend: sqlite (in-memory database)\n");
  }
  AnswerEngine engine(*std::move(ontology), *std::move(db), engine_options);
  ServeOptions per_request;
  if (timeout_ms > 0) {
    per_request.deadline = Deadline::AfterMillis(timeout_ms);
  }

  const char* explain_env = std::getenv("EXPLAIN");
  if (explain_env != nullptr && std::string(explain_env) == "1") {
    StatusOr<ExplainResult> explained =
        engine.Explain(UnionOfCqs(*query), vocab, per_request);
    if (!explained.ok()) {
      std::fprintf(stderr, "explain failed: %s\n",
                   explained.status().ToString().c_str());
      return 1;
    }
    std::printf("\nrewriting (%d disjuncts, cache %s):\n%s\n",
                explained->rewriting->size(),
                explained->cache_hit ? "hit" : "miss",
                ToString(*explained->rewriting, vocab).c_str());
    std::printf("\nemitted SQL:\n%s\n", explained->sql.c_str());
    std::printf("\ntrace (nothing was executed):\n%s",
                explained->trace->ToString().c_str());
    return 0;
  }

  const char* trace_env = std::getenv("TRACE");
  const std::string trace_mode = trace_env != nullptr ? trace_env : "";
  Trace trace;
  if (trace_mode == "1" || trace_mode == "json") {
    per_request.trace = &trace;
  }

  StatusOr<AnswerResult> served = engine.Serve(UnionOfCqs(*query), per_request);
  if (!served.ok()) {
    std::fprintf(stderr, "serving failed: %s\n",
                 served.status().ToString().c_str());
    return 1;
  }
  std::printf("\nrewriting (%d disjuncts, program fingerprint %016llx):\n%s\n",
              served->rewriting->size(),
              static_cast<unsigned long long>(engine.program_fingerprint()),
              ToString(*served->rewriting, vocab).c_str());

  const std::vector<Tuple>& answers = served->answers;
  std::printf("\ncertain answers (%zu):\n", answers.size());
  for (const Tuple& tuple : answers) {
    std::printf("  %s\n", ToString(tuple, vocab).c_str());
  }

  if (trace_mode == "json") {
    std::printf("\ntrace (chrome trace_event JSON):\n%s",
                trace.ToJson().c_str());
  } else if (trace_mode == "1") {
    std::printf("\ntrace:\n%s", trace.ToString().c_str());
  }

  StatusOr<AnswerResult> warm = engine.Serve(UnionOfCqs(*query));
  OREW_CHECK(warm.ok() && warm->cache_hit && warm->answers == answers);
  std::printf("\nserving metrics (cold + warm serve):\n%s",
              engine.metrics().Snapshot().ToString().c_str());

  if (ChaseGuaranteedTerminating(engine.program())) {
    StatusOr<std::vector<Tuple>> cert = CertainAnswersViaChase(
        UnionOfCqs(*query), engine.program(), engine.db());
    OREW_CHECK(cert.ok()) << cert.status();
    if (answers == *cert) {
      std::printf("\n(cross-check: chase agrees)\n");
    } else {
      std::printf("\nWARNING: chase disagrees — %zu answers via chase\n",
                  cert->size());
      return 2;
    }
  }
  return 0;
}
