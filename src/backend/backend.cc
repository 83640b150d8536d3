#include "backend/backend.h"

#include "serving/parallel_eval.h"

namespace ontorew {

StatusOr<std::vector<Tuple>> Backend::ExecuteDatalog(
    const DatalogProgram& program, const BackendExecOptions& options,
    EvalStats* stats) {
  OREW_ASSIGN_OR_RETURN(UnionOfCqs unfolded, UnfoldDatalog(program));
  return Execute(unfolded, options, stats);
}

Status InMemoryBackend::Load(const TgdProgram& /*program*/,
                             std::shared_ptr<const Database> db) {
  // The evaluator treats a missing relation as empty, so the program's
  // signature needs no materialization here — only the facts matter.
  std::lock_guard<std::mutex> lock(mutex_);
  db_ = std::move(db);
  return Status::Ok();
}

std::shared_ptr<const Database> InMemoryBackend::Pin() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return db_;
}

StatusOr<std::vector<Tuple>> InMemoryBackend::Execute(
    const UnionOfCqs& ucq, const BackendExecOptions& options,
    EvalStats* stats) {
  // Pinned for the whole evaluation: a concurrent Load swaps the pointer
  // without touching the database this request reads.
  const std::shared_ptr<const Database> db = Pin();
  if (db == nullptr) {
    return FailedPreconditionError("InMemoryBackend: Execute before Load");
  }
  ParallelEvalOptions eval;
  eval.num_threads = options.num_threads;
  eval.eval.drop_tuples_with_nulls = options.drop_tuples_with_nulls;
  eval.eval.cancel = options.cancel;
  eval.trace = options.trace;
  return ParallelEvaluate(ucq, *db, eval, stats);
}

}  // namespace ontorew
