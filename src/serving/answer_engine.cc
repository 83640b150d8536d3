#include "serving/answer_engine.h"

#include <algorithm>

#include "base/fault_point.h"
#include "base/strings.h"
#include "logic/canonical.h"
#include "rewriting/cte_sql.h"
#include "rewriting/dag_rewriter.h"
#include "rewriting/sql.h"

namespace ontorew {
namespace {

// FNV-1a, 64-bit.
constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;

void Mix(std::uint64_t* hash, std::uint64_t value) {
  for (int byte = 0; byte < 8; ++byte) {
    *hash ^= (value >> (8 * byte)) & 0xff;
    *hash *= kFnvPrime;
  }
}

void MixAtoms(std::uint64_t* hash, const std::vector<Atom>& atoms) {
  Mix(hash, atoms.size());
  for (const Atom& atom : atoms) {
    Mix(hash, static_cast<std::uint64_t>(atom.predicate()));
    Mix(hash, static_cast<std::uint64_t>(atom.arity()));
    for (Term t : atom.terms()) {
      Mix(hash, t.is_constant() ? 1u : 2u);
      Mix(hash, static_cast<std::uint64_t>(t.id()));
    }
  }
}

// The cache key for `query` under the program with `fingerprint`. The
// target name keeps kUcq and kCte entries (different artifacts: flat
// union vs factored program) from aliasing in a shared cache.
std::string CacheKeyFor(const UnionOfCqs& query, std::uint64_t fingerprint,
                        RewriteTarget target) {
  std::vector<std::string> keys;
  keys.reserve(query.disjuncts().size());
  for (const ConjunctiveQuery& cq : query.disjuncts()) {
    keys.push_back(CanonicalCqKey(CanonicalizeCq(cq)));
  }
  // Sorted: a UCQ is a set of disjuncts, so order must not split entries.
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  return StrCat(fingerprint, "|", RewriteTargetName(target), "|",
                StrJoin(keys, "|"));
}

// Aliases the UCQ member of a cache entry: the returned pointer shares
// the entry's lifetime, so it stays valid after cache eviction. Null for
// kCte entries, which hold only the factored program.
std::shared_ptr<const UnionOfCqs> UcqOf(
    const std::shared_ptr<const CachedRewriting>& cached) {
  if (!cached->ucq.has_value()) return nullptr;
  return std::shared_ptr<const UnionOfCqs>(cached, &*cached->ucq);
}

std::shared_ptr<const DatalogProgram> DatalogOf(
    const std::shared_ptr<const CachedRewriting>& cached) {
  if (!cached->datalog.has_value()) return nullptr;
  return std::shared_ptr<const DatalogProgram>(cached, &*cached->datalog);
}

// `options` with the default InMemoryBackend installed when none is set.
AnswerEngineOptions WithBackend(AnswerEngineOptions options) {
  if (options.backend == nullptr) {
    options.backend = std::make_shared<InMemoryBackend>();
  }
  return options;
}

}  // namespace

std::uint64_t FingerprintProgram(const TgdProgram& program) {
  std::uint64_t hash = kFnvOffset;
  Mix(&hash, static_cast<std::uint64_t>(program.size()));
  for (const Tgd& tgd : program.tgds()) {
    MixAtoms(&hash, tgd.body());
    MixAtoms(&hash, tgd.head());
  }
  return hash;
}

AnswerEngine::AnswerEngine(TgdProgram program, Database db,
                           AnswerEngineOptions options)
    : program_(std::move(program)),
      db_(std::make_shared<const Database>(std::move(db))),
      options_(WithBackend(std::move(options))),
      fingerprint_(FingerprintProgram(program_)),
      cache_(options_.shared_cache != nullptr
                 ? options_.shared_cache
                 : std::make_shared<RewriteCache>(kPrivateCacheCapacity)) {
  for (std::size_t c = 0; c < requests_by_status_.size(); ++c) {
    requests_by_status_[c] = &metrics_.RegisterCounter(StrCat(
        "requests_by_status_", StatusCodeName(static_cast<StatusCode>(c))));
  }
  {
    TraceSpan load_span(TraceContext(), "load", &backend_load_ns_);
    backend_status_ = options_.backend->Load(program_, db_);
  }
  if (backend_status_.ok()) backend_load_.Increment();
}

std::string AnswerEngine::CacheKey(const UnionOfCqs& query,
                                   RewriteTarget target) const {
  return CacheKeyFor(query, fingerprint_, target);
}

StatusOr<std::shared_ptr<const CachedRewriting>> AnswerEngine::RewriteInternal(
    const UnionOfCqs& query, const CancelScope& scope,
    const TraceContext& trace, bool* cache_hit, RewriteTarget target) {
  if (cache_hit != nullptr) *cache_hit = false;

  std::string key;
  {
    TraceSpan canonicalize_span(trace, "canonicalize");
    key = CacheKeyFor(query, fingerprint_, target);
  }

  {
    TraceSpan cache_span(trace, "rewrite-cache");
    if (std::shared_ptr<const CachedRewriting> hit = cache_->Lookup(key)) {
      cache_hit_.Increment();
      cache_span.Attr("cache", "hit");
      if (cache_hit != nullptr) *cache_hit = true;
      return hit;
    } else {
      cache_miss_.Increment();
      cache_span.Attr("cache", "miss");
    }
  }

  // Rewrite outside any lock: concurrent misses on the same key duplicate
  // work instead of serializing every caller behind one saturation.
  auto entry = std::make_shared<CachedRewriting>();
  {
    // Times kUcq saturation; kCte reports its own phases (below).
    TraceSpan rewrite_span(
        trace, "rewrite",
        target == RewriteTarget::kUcq ? &rewrite_ns_ : nullptr);
    RewriterOptions rewriter;
    rewriter.max_cqs = options_.max_cqs;
    rewriter.cancel = scope;
    rewriter.trace = rewrite_span.context();
    if (target == RewriteTarget::kCte) {
      // DAG-native compilation: the saturator emits the factored Datalog
      // program directly (per-group memoized saturation + a "factor"
      // assembly span inside), never materializing the flat union — the
      // entry caches the program alone. Data-independent like the flat
      // rewriting, so it is computed once per cache entry.
      StatusOr<DagRewriteResult> dag =
          RewriteToDatalog(query, program_, rewriter);
      if (!dag.ok()) {
        rewrite_span.AnnotateStatus(dag.status());
        return dag.status();
      }
      rewrite_ns_.AddNs(dag->saturate_ns);
      factor_ns_.AddNs(dag->factor_ns);
      pruned_.Increment(dag->pruned);
      factored_.Increment();
      (dag->fallback ? dag_fallback_ : dag_).Increment();
      rewrite_span.Attr("mode", dag->fallback ? "flat-fallback" : "dag");
      rewrite_span.Attr("groups", static_cast<std::int64_t>(dag->groups));
      rewrite_span.Attr("memo_hits",
                        static_cast<std::int64_t>(dag->memo_hits));
      rewrite_span.Attr("disjuncts", dag->implied_disjuncts);
      entry->datalog = std::move(dag->program);
    } else {
      StatusOr<RewriteResult> rewritten =
          RewriteUcq(query, program_, rewriter);
      if (!rewritten.ok()) {
        rewrite_span.AnnotateStatus(rewritten.status());
        return rewritten.status();
      }
      RewriteResult result = std::move(rewritten).value();
      pruned_.Increment(result.pruned);
      rewrite_span.Attr(
          "disjuncts",
          static_cast<std::int64_t>(result.ucq.disjuncts().size()));
      entry->ucq = std::move(result.ucq);
    }
  }

  std::int64_t evictions = 0;
  std::shared_ptr<const CachedRewriting> rewriting =
      cache_->Insert(key, std::move(entry), &evictions);
  if (evictions > 0) evictions_.Increment(evictions);
  return rewriting;
}

StatusOr<AnswerResult> AnswerEngine::Serve(const UnionOfCqs& query,
                                           const ServeOptions& serve) {
  served_.Increment();
  const CancelScope scope(serve.deadline, serve.cancel);
  TraceSpan serve_span(TraceContext(serve.trace), "serve");
  // One requests_by_status_<Code> tick per Serve, on every exit path —
  // the counter split tests (and dashboards) key on.
  const auto record_status = [this](StatusCode code) {
    requests_by_status_[static_cast<std::size_t>(code)]->Increment();
  };
  const auto fail = [&](const Status& status) -> StatusOr<AnswerResult> {
    serve_span.AnnotateStatus(status);
    record_status(status.code());
    if (status.code() == StatusCode::kDeadlineExceeded) deadline_.Increment();
    return status;
  };

  // Fast-fail a request that arrived already out of budget, and give
  // tests a hook that holds a request in flight once the server has
  // admitted it.
  Status status = scope.Check("serve");
  if (status.ok()) status = CheckFaultPoint("serve.admit");
  if (!status.ok()) return fail(status);

  AnswerResult result;
  StatusOr<std::shared_ptr<const CachedRewriting>> rewriting =
      RewriteInternal(query, scope, serve_span.context(), &result.cache_hit,
                      serve.target);
  if (!rewriting.ok()) return fail(rewriting.status());
  const std::shared_ptr<const CachedRewriting> cached = *std::move(rewriting);
  result.rewriting = UcqOf(cached);
  result.datalog = DatalogOf(cached);

  {
    TraceSpan eval_span(serve_span.context(), "eval", &backend_exec_ns_);
    if (!backend_status_.ok()) {
      eval_span.AnnotateStatus(backend_status_);
      return fail(backend_status_);
    }
    Backend& backend = *options_.backend;
    eval_span.Attr("backend", backend.name());
    // drop_tuples_with_nulls keeps its default: answers containing
    // labeled nulls are not certain.
    BackendExecOptions exec;
    exec.cancel = scope;
    exec.num_threads = options_.num_threads;
    exec.trace = eval_span.context();
    // Under kCte the factored program goes to the backend natively (a SQL
    // backend runs it as one WITH-CTE statement; others unfold); under
    // kUcq the flat union runs as is.
    StatusOr<std::vector<Tuple>> answers =
        result.datalog != nullptr
            ? backend.ExecuteDatalog(*result.datalog, exec, &result.eval)
            : backend.Execute(*result.rewriting, exec, &result.eval);
    if (!answers.ok()) {
      eval_span.AnnotateStatus(answers.status());
      return fail(answers.status());
    }
    result.answers = std::move(answers).value();
    backend_exec_.Increment();
    eval_span.Attr("rows", static_cast<std::int64_t>(result.answers.size()));
  }
  examined_.Increment(result.eval.tuples_examined);
  matches_.Increment(result.eval.matches);
  record_status(StatusCode::kOk);
  return result;
}

StatusOr<ExplainResult> AnswerEngine::Explain(const UnionOfCqs& query,
                                              const Vocabulary& vocab,
                                              const ServeOptions& serve) {
  ExplainResult explain;
  explain.trace = std::make_shared<Trace>();
  const CancelScope scope(serve.deadline, serve.cancel);
  TraceSpan root(TraceContext(explain.trace.get()), "explain");

  explain.target = serve.target;
  StatusOr<std::shared_ptr<const CachedRewriting>> rewriting = RewriteInternal(
      query, scope, root.context(), &explain.cache_hit, explain.target);
  if (!rewriting.ok()) {
    root.AnnotateStatus(rewriting.status());
    return rewriting.status();
  }
  const std::shared_ptr<const CachedRewriting> cached = *std::move(rewriting);
  explain.rewriting = UcqOf(cached);
  explain.datalog = DatalogOf(cached);

  {
    TraceSpan emit_span(root.context(), "emit");
    StatusOr<std::string> sql =
        explain.datalog != nullptr
            ? DatalogToCteSql(*explain.datalog, vocab)
            : UcqToSql(*explain.rewriting, vocab);
    if (!sql.ok()) {
      emit_span.AnnotateStatus(sql.status());
      root.AnnotateStatus(sql.status());
      return sql.status();
    }
    explain.sql = std::move(sql).value();
    emit_span.Attr("target", RewriteTargetName(explain.target));
    emit_span.Attr("sql_bytes",
                   static_cast<std::int64_t>(explain.sql.size()));
    if (explain.rewriting != nullptr) {
      emit_span.Attr("disjuncts", static_cast<std::int64_t>(
                                      explain.rewriting->disjuncts().size()));
    }
    if (explain.datalog != nullptr) {
      emit_span.Attr("cte_count", static_cast<std::int64_t>(
                                      explain.datalog->cte_count()));
    }
  }
  return explain;
}

StatusOr<std::vector<Tuple>> AnswerEngine::CertainAnswers(
    const UnionOfCqs& query, const ServeOptions& serve) {
  OREW_ASSIGN_OR_RETURN(AnswerResult result, Serve(query, serve));
  return std::move(result.answers);
}

StatusOr<std::vector<Tuple>> AnswerEngine::CertainAnswers(
    const ConjunctiveQuery& query, const ServeOptions& serve) {
  return CertainAnswers(UnionOfCqs(query), serve);
}

RewriteCacheStats AnswerEngine::cache_stats() const {
  return cache_->stats();
}

}  // namespace ontorew
