#ifndef ONTOREW_SERVING_PARALLEL_EVAL_H_
#define ONTOREW_SERVING_PARALLEL_EVAL_H_

#include <cstddef>
#include <vector>

#include "base/deadline.h"
#include "base/status.h"
#include "base/trace.h"
#include "db/database.h"
#include "db/eval.h"
#include "logic/query.h"

// Parallel UCQ evaluation: the disjuncts of a union are independent CQs,
// so they fan out across a small pool of worker threads, each with its own
// EvalStats and flat RowBuffer of distinct answer rows; the other
// workers' rows are re-inserted into worker 0's buffer, whose rows are
// then sorted once. The result is a set union, so it is byte-identical to
// single-threaded evaluation regardless of thread count or scheduling —
// the determinism the serving layer's tests assert.
//
// Failure is all-or-nothing: the first worker whose evaluation errors
// (arity mismatch, deadline, injected fault) trips a pool-local token
// that short-circuits its siblings, and the call returns that error
// Status — never a partial answer set.

namespace ontorew {

// Hard ceiling on the worker pool, whatever the caller requests: beyond
// this, extra threads only add scheduling overhead (disjunct counts in
// real rewritings are far smaller).
inline constexpr int kMaxEvalThreads = 64;

struct ParallelEvalOptions {
  // Worker threads. <= 0 picks min(hardware_concurrency, 8); 1 evaluates
  // inline (no threads spawned). Explicit requests are clamped to
  // kMaxEvalThreads and to the number of disjuncts — asking for 10'000
  // threads on a 12-disjunct union spawns 12 workers, not 10'000.
  int num_threads = 0;
  EvalOptions eval;  // Includes the cancel scope the workers honour.
  // Request-scoped tracing (see base/trace.h). Inert by default; when
  // enabled, every disjunct scan records a "disjunct" span (attributes
  // disjunct, tuples_examined, rows) under the context's parent — workers
  // record concurrently, the Trace serializes.
  TraceContext trace;
};

// Resolved thread count for `requested` over `num_tasks` independent
// tasks (see ParallelEvalOptions). Always in [1, kMaxEvalThreads].
int EffectiveThreads(int requested, std::size_t num_tasks);

// Evaluates every disjunct of `ucq` over `db` and returns the union of
// their answers, sorted and deduplicated. Per-worker stats are summed
// into *stats (may be nullptr) even on failure — the scan work was done.
// Errors: the first worker failure (InvalidArgument on arity mismatch,
// an injected "eval.scan" fault), or DeadlineExceeded/Cancelled when
// options.eval.cancel trips.
StatusOr<std::vector<Tuple>> ParallelEvaluate(
    const UnionOfCqs& ucq, const Database& db,
    const ParallelEvalOptions& options = {}, EvalStats* stats = nullptr);

}  // namespace ontorew

#endif  // ONTOREW_SERVING_PARALLEL_EVAL_H_
