#ifndef ONTOREW_SERVING_ANSWER_ENGINE_H_
#define ONTOREW_SERVING_ANSWER_ENGINE_H_

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "backend/backend.h"
#include "base/deadline.h"
#include "base/metrics.h"
#include "base/status.h"
#include "base/strings.h"
#include "base/trace.h"
#include "db/database.h"
#include "db/eval.h"
#include "logic/program.h"
#include "logic/query.h"
#include "logic/vocabulary.h"
#include "rewriting/datalog.h"
#include "rewriting/rewriter.h"
#include "serving/rewrite_cache.h"

// The serving layer: an AnswerEngine owns an ontology (TGD program) and a
// database, both fixed at construction, and answers certain-answer
// queries end-to-end. The paper's FO-rewritability result makes the
// rewriting *data-independent*: it can be computed once per (program,
// query-isomorphism-class) and reused for every subsequent evaluation,
// over any database. The engine therefore keeps an LRU cache of
// rewritings keyed by (program fingerprint, canonical query key), hands
// the cached rewriting to its Backend for evaluation — an InMemoryBackend
// sharing the engine's Database unless the caller configures another —
// and records per-stage counters/timers in a MetricsRegistry, through
// handles registered at construction.
//
// One way to serve a rewriting: every request evaluates the complete,
// minimized rewriting. A cache miss saturates under the request's own
// deadline and token and publishes its result; no engine or request
// option alters the rewriting (max_cqs only bounds it), so the cache key
// (fingerprint, target, canonical query) names exactly one artifact that
// every tenant sharing the cache may trust.
//
// Deadlines (see DESIGN.md "Serving layer"): Serve takes a per-request
// ServeOptions with an absolute deadline and an optional cancellation
// token, both threaded through the rewrite saturation and every tuple
// scan. A timed-out request returns DeadlineExceeded — never a
// silently-partial answer set. The engine keeps no admission state:
// deciding which requests run is the server's job (server/server.h).
//
//   AnswerEngine engine(std::move(ontology), std::move(db));
//   ServeOptions per_request;
//   per_request.deadline = Deadline::AfterMillis(50);
//   auto result = engine.Serve(query, per_request);
//   std::printf("%lld cache hits\n",
//               static_cast<long long>(engine.cache_stats().hits));
//
// Metric names (see DESIGN.md "Serving layer"):
//   counters  queries_served, rewrite_cache_hit, rewrite_cache_miss,
//             rewrite_cache_eviction, rewrite_pruned_total,
//             eval_tuples_examined, eval_matches, deadline_exceeded,
//             rewrite_factored, rewrite_dag, rewrite_dag_fallback,
//             backend_<name>_exec, backend_<name>_load,
//             requests_by_status_<CodeName> (one per final Serve status)
//   timers    rewrite_ns (saturation), factor_ns, backend_<name>_exec_ns
//             (the eval span), backend_<name>_load_ns
// A counter or timer shows in the registry's snapshot once it has been
// recorded to.

namespace ontorew {

struct AnswerEngineOptions {
  // Optional externally-owned rewrite cache, shared across engines. Cache
  // keys embed each engine's program fingerprint, so tenants hosting the
  // same ontology share rewritings while distinct programs never collide
  // (see RewriteCache). Null: the engine creates a private cache of
  // kPrivateCacheCapacity entries.
  std::shared_ptr<RewriteCache> shared_cache;
  // Worker threads for UCQ evaluation (BackendExecOptions::num_threads).
  int num_threads = 0;
  // Divergence cap of every saturation (RewriterOptions::max_cqs). The
  // only rewriting knob: the rest of RewriterOptions changes the
  // rewriting itself, which the cache key does not record, so every
  // engine rewrites with their defaults — a complete, minimized union.
  // A rewrite that hits the cap is an error, never cached.
  int max_cqs = 20000;

  // --- Execution backend ---------------------------------------------------
  // Where the rewriting runs. Null (the default) installs an
  // InMemoryBackend that shares the engine's Database (no copy). The
  // backend (e.g. a SqliteBackend sharing the caller's Vocabulary) is
  // Load()ed once, with the engine's program and data, at construction,
  // and every Serve evaluates through it — the paper's "delegate to a
  // plain SQL engine" architecture. Per-backend metrics: counters
  // backend_<name>_exec / backend_<name>_load, timers
  // backend_<name>_exec_ns / backend_<name>_load_ns. A failed Load is
  // every Serve's error.
  std::shared_ptr<Backend> backend;
};

// Entries of the private rewrite cache an engine creates when
// AnswerEngineOptions::shared_cache is null.
inline constexpr std::size_t kPrivateCacheCapacity = 128;

// Per-request controls for Serve.
struct ServeOptions {
  // Absolute wall-clock budget for the whole request: rewrite and
  // evaluation.
  Deadline deadline = Deadline::Infinite();
  // Optional caller-held token: Cancel() aborts the request at the next
  // cooperative check.
  std::shared_ptr<const CancelToken> cancel;
  // Optional request-scoped trace (see base/trace.h). When non-null,
  // Serve records a "serve" root span with children for every executed
  // stage — canonicalize, rewrite-cache (cache=hit|miss), rewrite (with
  // per-iteration saturate/minimize spans), eval (backend=<name>,
  // per-disjunct or SQL plan spans) — well-formed (no
  // open spans) on every exit path, including errors. Null (the default)
  // costs one pointer test per hook.
  Trace* trace = nullptr;
  // What the rewriting is compiled to. kUcq evaluates the flat union;
  // kCte compiles straight to a nonrecursive Datalog program
  // (rewriting/dag_rewriter.h) — per-group memoized saturation that never
  // materializes the flat union — and, on a SQL backend, executes it as
  // one WITH-CTE statement instead of the flat UNION. Both targets answer
  // identically; kCte is exponentially cheaper on queries with
  // independently-rewritable subgoals (and no worse elsewhere, where it
  // falls back to flat rewriting plus FactorUcq). Factored programs are
  // cached under target-qualified keys holding the program alone, so the
  // two targets never alias in the (possibly shared) cache.
  RewriteTarget target = RewriteTarget::kUcq;
};

// One served query, with provenance for tools and benches.
struct AnswerResult {
  std::vector<Tuple> answers;  // Sorted, deduplicated.
  bool cache_hit = false;
  // The flat rewriting that was evaluated (shared with the cache; remains
  // valid after eviction). Null under RewriteTarget::kCte, whose cache
  // entries never hold the flat union — the request ran `datalog` instead
  // (Backend::ExecuteDatalog: SQLite runs it natively, the in-memory
  // backend unfolds it without caching the unfolding).
  std::shared_ptr<const UnionOfCqs> rewriting;
  // Under RewriteTarget::kCte: the factored Datalog program the request
  // ran. Null under kUcq.
  std::shared_ptr<const DatalogProgram> datalog;
  EvalStats eval;
};

// What Explain returns: the full rewrite pipeline's outputs without any
// evaluation — the rewriting the engine would run, the SQL it would ship
// to a SQL backend, and the span tree of the stages that actually
// executed (canonicalize, rewrite-cache, rewrite or cache hit, emit).
struct ExplainResult {
  // The flat rewriting under kUcq; null under kCte (see AnswerResult).
  std::shared_ptr<const UnionOfCqs> rewriting;
  // Under RewriteTarget::kCte: the factored program behind `sql`.
  std::shared_ptr<const DatalogProgram> datalog;
  // The SQL the engine would ship: UcqToSql of the rewriting under kUcq,
  // DatalogToCteSql of the factored program under kCte — rendered against
  // the caller's vocabulary.
  std::string sql;
  // The target the explanation was computed for.
  RewriteTarget target = RewriteTarget::kUcq;
  bool cache_hit = false;
  // Always populated: Explain owns its trace (ServeOptions::trace is
  // ignored here) so the caller gets the tree without pre-wiring one.
  std::shared_ptr<Trace> trace;
};

class AnswerEngine {
 public:
  AnswerEngine(TgdProgram program, Database db,
               AnswerEngineOptions options = {});

  // The program and data the engine was built with; neither changes.
  const TgdProgram& program() const { return program_; }
  const Database& db() const { return *db_; }
  const AnswerEngineOptions& options() const { return options_; }

  // Structural fingerprint of the owned program. Cache keys embed it, so
  // engines with different programs never share an entry, and engines
  // with the same program share every entry.
  std::uint64_t program_fingerprint() const { return fingerprint_; }

  // The cache key for `query` under the engine's program: fingerprint,
  // the rewrite target's name, then the canonical key of each disjunct
  // (sorted — disjunct order and variable names do not matter). Exposed
  // for tests.
  std::string CacheKey(const UnionOfCqs& query,
                       RewriteTarget target = RewriteTarget::kUcq) const;

  // End-to-end: rewrite (or fetch from cache), evaluate on the backend,
  // return the sorted certain answers with provenance. Errors:
  // DeadlineExceeded/Cancelled when the request's scope trips at any
  // stage, plus the rewriter's (never cached) and the backend's. An
  // error never carries partial answers.
  StatusOr<AnswerResult> Serve(const UnionOfCqs& query,
                               const ServeOptions& serve = {});

  // Dry run: rewrites `query` (through the cache) and renders the SQL the
  // engine would delegate, WITHOUT executing anything — no backend or
  // database is touched. `vocab` names the
  // predicates/constants in the emitted SQL (the engine stores ids only).
  // The returned trace always covers the executed stages; honours
  // serve.deadline/serve.cancel but ignores serve.trace (see
  // ExplainResult::trace). Errors: the rewriter's, as for Serve, plus
  // InvalidArgument from SQL emission.
  StatusOr<ExplainResult> Explain(const UnionOfCqs& query,
                                  const Vocabulary& vocab,
                                  const ServeOptions& serve = {});

  // Convenience wrappers returning just the answers.
  StatusOr<std::vector<Tuple>> CertainAnswers(const UnionOfCqs& query,
                                              const ServeOptions& serve = {});
  StatusOr<std::vector<Tuple>> CertainAnswers(const ConjunctiveQuery& query,
                                              const ServeOptions& serve = {});

  MetricsRegistry& metrics() { return metrics_; }
  RewriteCacheStats cache_stats() const;

 private:
  // Rewrite under the engine's program, reporting whether the cache
  // served it (directly, not via racy counter deltas) and recording
  // canonicalize / rewrite-cache / rewrite (and, under kCte, factor)
  // spans under `trace`. A miss saturates under the request's `scope`
  // and publishes the complete, minimized result to the cache.
  StatusOr<std::shared_ptr<const CachedRewriting>> RewriteInternal(
      const UnionOfCqs& query, const CancelScope& scope,
      const TraceContext& trace, bool* cache_hit, RewriteTarget target);

  // Set once by the constructor and never written again, so concurrent
  // Serves read them without a lock.
  const TgdProgram program_;
  // Shared with the default InMemoryBackend, which evaluates over it.
  const std::shared_ptr<const Database> db_;
  const AnswerEngineOptions options_;  // options_.backend is never null.
  const std::uint64_t fingerprint_;
  // The rewrite cache: options_.shared_cache when set (cross-tenant
  // sharing), else a private instance. RewriteCache is internally
  // thread-safe.
  const std::shared_ptr<RewriteCache> cache_;
  // Outcome of the backend's one Load, returned by every Serve when not
  // OK. Set in the constructor body, after the metric handles exist.
  Status backend_status_;

  // Metric handles, registered once (names: see the top of this file).
  MetricsRegistry metrics_;
  Counter& served_ = metrics_.RegisterCounter("queries_served");
  Counter& cache_hit_ = metrics_.RegisterCounter("rewrite_cache_hit");
  Counter& cache_miss_ = metrics_.RegisterCounter("rewrite_cache_miss");
  Counter& evictions_ = metrics_.RegisterCounter("rewrite_cache_eviction");
  Counter& pruned_ = metrics_.RegisterCounter("rewrite_pruned_total");
  Counter& factored_ = metrics_.RegisterCounter("rewrite_factored");
  Counter& dag_ = metrics_.RegisterCounter("rewrite_dag");
  Counter& dag_fallback_ = metrics_.RegisterCounter("rewrite_dag_fallback");
  Counter& examined_ = metrics_.RegisterCounter("eval_tuples_examined");
  Counter& matches_ = metrics_.RegisterCounter("eval_matches");
  Counter& deadline_ = metrics_.RegisterCounter("deadline_exceeded");
  // "backend_<name>", the prefix of the backend's metric names.
  const std::string backend_ = StrCat("backend_", options_.backend->name());
  Counter& backend_exec_ = metrics_.RegisterCounter(backend_ + "_exec");
  Counter& backend_load_ = metrics_.RegisterCounter(backend_ + "_load");
  Timer& rewrite_ns_ = metrics_.RegisterTimer("rewrite_ns");
  Timer& factor_ns_ = metrics_.RegisterTimer("factor_ns");
  Timer& backend_exec_ns_ = metrics_.RegisterTimer(backend_ + "_exec_ns");
  Timer& backend_load_ns_ = metrics_.RegisterTimer(backend_ + "_load_ns");
  // requests_by_status_<CodeName>, indexed by StatusCode.
  std::array<Counter*, static_cast<std::size_t>(StatusCode::kUnavailable) + 1>
      requests_by_status_;
};

// Structural 64-bit fingerprint of a program: sensitive to every
// predicate, term and rule boundary, insensitive to nothing (adding,
// removing or reordering TGDs all change it).
std::uint64_t FingerprintProgram(const TgdProgram& program);

}  // namespace ontorew

#endif  // ONTOREW_SERVING_ANSWER_ENGINE_H_
