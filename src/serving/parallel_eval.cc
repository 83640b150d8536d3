#include "serving/parallel_eval.h"

#include <algorithm>
#include <atomic>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>

namespace ontorew {

int EffectiveThreads(int requested, std::size_t num_tasks) {
  if (num_tasks == 0) return 1;
  int resolved = requested;
  if (resolved <= 0) {
    unsigned hw = std::thread::hardware_concurrency();
    if (hw == 0) hw = 1;
    resolved = static_cast<int>(std::min(hw, 8u));
  }
  // One thread per task is the most that can ever be useful, and
  // kMaxEvalThreads bounds absurd explicit requests (num_threads=10'000
  // must not fork-bomb the process).
  resolved = std::min(resolved, kMaxEvalThreads);
  if (num_tasks < static_cast<std::size_t>(resolved)) {
    resolved = static_cast<int>(num_tasks);
  }
  return std::max(resolved, 1);
}

StatusOr<std::vector<Tuple>> ParallelEvaluate(const UnionOfCqs& ucq,
                                              const Database& db,
                                              const ParallelEvalOptions& options,
                                              EvalStats* stats) {
  const std::vector<ConjunctiveQuery>& disjuncts = ucq.disjuncts();
  const int threads =
      EffectiveThreads(options.num_threads, disjuncts.size());

  if (threads <= 1 && !options.trace.enabled()) {
    return TryEvaluate(ucq, db, options.eval, stats);
  }

  // Workers pull disjunct indices from a shared counter (cheap dynamic
  // load balancing: rewritings are skewed, a few disjuncts dominate) and
  // insert answer rows into private flat buffers — no shared mutable state
  // until the deterministic merge below. A pool-local token, chained under
  // the caller's, short-circuits the siblings of the first failing worker:
  // their in-flight scans stop at the next stride check and no further
  // disjuncts are claimed. A traced single-thread call runs the same
  // per-disjunct body, on the calling thread alone, for its spans.
  auto trip = std::make_shared<CancelToken>(options.eval.cancel.token());
  EvalOptions worker_eval = options.eval;
  worker_eval.cancel = options.eval.cancel.WithToken(trip);

  std::atomic<std::size_t> next{0};
  const int arity = disjuncts.empty() ? 0 : disjuncts[0].arity();
  std::vector<RowBuffer> partial(static_cast<std::size_t>(threads),
                                 RowBuffer(arity));
  std::vector<EvalStats> worker_stats(static_cast<std::size_t>(threads));
  // The failure that tripped the pool: the one with the smallest disjunct
  // index, so the reported error is deterministic even when several
  // workers fail concurrently.
  std::mutex error_mutex;
  Status first_error;
  std::size_t first_error_index = disjuncts.size();
  const auto work = [&](int w) {
    RowBuffer& mine = partial[static_cast<std::size_t>(w)];
    EvalStats& my_stats = worker_stats[static_cast<std::size_t>(w)];
    for (std::size_t i = next.fetch_add(1); i < disjuncts.size();
         i = next.fetch_add(1)) {
      if (trip->cancelled()) break;
      TraceSpan span(options.trace, "disjunct");
      span.Attr("disjunct", static_cast<std::int64_t>(i));
      const long long examined_before = my_stats.tuples_examined;
      const std::size_t rows_before = mine.size();
      Status status =
          EvaluateInto(disjuncts[i], db, worker_eval, &my_stats, &mine);
      span.Attr("tuples_examined",
                static_cast<std::int64_t>(my_stats.tuples_examined -
                                          examined_before));
      if (!status.ok()) {
        span.AnnotateStatus(status);
        // A Cancelled status caused by the pool-local trip (not by
        // the caller's own token) is collateral from another worker's
        // failure — don't let it shadow the root cause.
        const bool secondary =
            status.code() == StatusCode::kCancelled &&
            !options.eval.cancel.cancelled();
        if (!secondary) {
          std::lock_guard<std::mutex> lock(error_mutex);
          if (i < first_error_index) {
            first_error_index = i;
            first_error = std::move(status);
          }
        }
        trip->Cancel();
        break;
      }
      span.Attr("rows", static_cast<std::int64_t>(mine.size() - rows_before));
    }
  };
  {
    std::vector<std::jthread> pool;
    for (int w = 1; w < threads; ++w) pool.emplace_back(work, w);
    work(0);  // The calling thread is worker 0.
  }  // jthreads join here.

  if (stats != nullptr) {
    for (const EvalStats& s : worker_stats) {
      stats->tuples_examined += s.tuples_examined;
      stats->matches += s.matches;
    }
  }

  if (!first_error.ok()) return first_error;
  // The caller's own scope may have tripped after every claimed disjunct
  // finished — still an error, never a silently partial union.
  OREW_RETURN_IF_ERROR(options.eval.cancel.Check("parallel eval"));

  RowBuffer& merged = partial[0];
  for (std::size_t w = 1; w < partial.size(); ++w) {
    merged.Append(std::move(partial[w]));
  }
  return merged.SortedUnique();
}

}  // namespace ontorew
