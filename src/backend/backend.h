#ifndef ONTOREW_BACKEND_BACKEND_H_
#define ONTOREW_BACKEND_BACKEND_H_

#include <memory>
#include <mutex>
#include <string_view>
#include <vector>

#include "base/deadline.h"
#include "base/status.h"
#include "base/trace.h"
#include "db/database.h"
#include "db/eval.h"
#include "logic/program.h"
#include "logic/query.h"
#include "rewriting/datalog.h"

// Execution backends: where a (rewritten) UCQ actually runs. The paper's
// punchline is that FO-rewritability lets certain-answer computation be
// delegated to a plain SQL engine; a Backend is that delegation point.
// The serving layer (AnswerEngine) computes the rewriting and hands it to
// a Backend, which holds the extensional data and returns answer tuples
// as Value rows. Every engine evaluates through one: an InMemoryBackend
// sharing the engine's data unless the caller configures another.
//
// Contract (asserted by tests/differential_test.cc against the chase
// oracle): for the same loaded database, every backend returns the *same*
// sorted, deduplicated answer set for every valid UCQ —
//  * a predicate without stored facts is an empty relation, not an error;
//  * labeled nulls join only with themselves (Value identity), and
//    answer tuples containing nulls are dropped when
//    drop_tuples_with_nulls is set (certain-answer semantics);
//  * a 0-ary (boolean) UCQ answers with one empty tuple or none;
//  * cancellation is cooperative: a tripped deadline/token returns
//    DeadlineExceeded/Cancelled, never a partial answer set;
//  * Load may run concurrently with Execute: each Execute answers over
//    one whole loaded database, the old one or the new one.

namespace ontorew {

struct BackendExecOptions {
  // Drop answer tuples containing labeled nulls (certain-answer
  // semantics when the loaded data came from a chase).
  bool drop_tuples_with_nulls = true;
  // Deadline/cancellation for the execution; inert by default. SQLite
  // maps this onto sqlite3_progress_handler, the in-memory evaluator
  // onto its strided scan checks.
  CancelScope cancel;
  // Worker threads for backends that fan disjuncts out (in-memory);
  // single-connection backends ignore it.
  int num_threads = 0;
  // Request-scoped tracing (see base/trace.h). Inert by default. The
  // in-memory backend forwards it to the parallel evaluator (per-disjunct
  // "disjunct" spans); SQLite records "emit" (UCQ -> SQL) and "scan"
  // spans, attaching the EXPLAIN QUERY PLAN rows to the scan span.
  TraceContext trace;
};

class Backend {
 public:
  virtual ~Backend() = default;

  // Stable short name, used in metric names ("inmemory", "sqlite").
  virtual std::string_view name() const = 0;

  // Replaces all stored facts with `db`'s contents; `program` is the
  // ontology they are served under. A predicate with no facts reads as an
  // empty relation. Must be called before Execute. `db` is immutable and
  // shared: a backend may keep the pointer instead of copying the facts.
  virtual Status Load(const TgdProgram& program,
                      std::shared_ptr<const Database> db) = 0;

  // Executes a UCQ over the loaded facts and returns the sorted,
  // deduplicated answer tuples. Accumulates scan counters into *stats
  // (may be nullptr; backends fill what they can observe).
  virtual StatusOr<std::vector<Tuple>> Execute(
      const UnionOfCqs& ucq, const BackendExecOptions& options,
      EvalStats* stats = nullptr) = 0;

  // Executes a factored nonrecursive Datalog rewriting (the target=cte
  // path). Same answer contract as Execute — the program is only a
  // compressed spelling of a UCQ. The base implementation unfolds the
  // program (rewriting/datalog.h) and delegates to Execute; backends
  // with native support (SQLite's WITH-CTE emission) override it and
  // never materialize the flat union.
  virtual StatusOr<std::vector<Tuple>> ExecuteDatalog(
      const DatalogProgram& program, const BackendExecOptions& options,
      EvalStats* stats = nullptr);
};

// The reference backend: the loaded Database, shared with the loader and
// never copied, evaluated with the index-nested-loop evaluator, disjuncts
// fanned across the parallel_eval worker pool.
class InMemoryBackend : public Backend {
 public:
  std::string_view name() const override { return "inmemory"; }
  Status Load(const TgdProgram& program,
              std::shared_ptr<const Database> db) override;
  StatusOr<std::vector<Tuple>> Execute(const UnionOfCqs& ucq,
                                       const BackendExecOptions& options,
                                       EvalStats* stats = nullptr) override;

  // The loaded database (after the first Load). Not safe to hold across
  // a concurrent Load; Execute pins its own.
  const Database& db() const { return *Pin(); }

 private:
  std::shared_ptr<const Database> Pin() const;

  mutable std::mutex mutex_;  // Guards db_ (the pointer, not the pointee).
  std::shared_ptr<const Database> db_;  // Null until the first Load.
};

}  // namespace ontorew

#endif  // ONTOREW_BACKEND_BACKEND_H_
