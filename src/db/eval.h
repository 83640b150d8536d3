#ifndef ONTOREW_DB_EVAL_H_
#define ONTOREW_DB_EVAL_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "base/deadline.h"
#include "base/status.h"
#include "db/database.h"
#include "db/value.h"
#include "logic/atom.h"
#include "logic/query.h"

// Conjunctive-query evaluation over a Database. This is the query
// processor the FO rewriting is handed to (the paper's AC0 / "plain SQL"
// stage), and the homomorphism finder the chase uses to locate triggers
// and check trigger heads.
//
// Every call compiles the body it is given into a plan, then runs it:
//  * Compiling fixes the atom order greedily (most bound positions
//    first, ties to the smaller relation, then to the earlier atom),
//    gives every variable a dense slot, resolves each step's Relation
//    once, and tags each column as a constant, a slot bound by an earlier
//    step, a slot bound here, or a repeat of a slot bound earlier in the
//    same atom. An atom whose arity disagrees with its stored relation is
//    reported here, as InvalidArgument. Compiling costs O(atoms^2) and is
//    never cached: a plan holds Relation pointers of one Database.
//  * Running is an index-nested-loop join over a flat array of slots.
//    Each step probes the index of its constant or earlier-bound column
//    with the shortest posting list (never a repeat column) and checks
//    the other columns per tuple. Answers are inserted as rows into a
//    flat RowBuffer, which keeps each distinct row once, and sorted once
//    per UCQ.
//
// Evaluation is cooperatively cancellable and all-or-nothing: the cancel
// scope is checked every kCancelCheckStride examined tuples, every
// examined tuple passes the "eval.scan" fault point, and an interrupted
// call returns its Status, never partial answers. Evaluate is the
// OREW_CHECKing form of TryEvaluate, for callers that pass no deadline
// and treat failure as a programming error.

namespace ontorew {

struct EvalOptions {
  // Drop answer tuples containing labeled nulls (certain-answer semantics
  // when evaluating over a chase result).
  bool drop_tuples_with_nulls = false;
  // Deadline/cancellation for the scan loops; inert by default.
  CancelScope cancel;
};

// Execution counters, for plan-quality tests and benchmarks.
struct EvalStats {
  // Tuples fetched from relations (after index lookup, before the
  // consistency check).
  long long tuples_examined = 0;
  // Complete homomorphisms found.
  long long matches = 0;
};

// The values of one match of `atoms`: slot i holds the value of
// DistinctVariables(atoms)[i], the i-th distinct variable in order of
// first occurrence.
using SlotView = std::span<const Value>;

// A variable bound before the first step: its slot (numbered as above)
// and its value.
struct SlotBinding {
  int slot;
  Value value;
};

// Enumerates every homomorphism from `atoms` into `db` that extends
// `initial`. The callback returns false to stop enumeration early (which
// is not an error). Constants in atoms must match constants in tuples;
// variables bind consistently across occurrences. Counters accumulate
// into *stats (may be nullptr), also on failure. Returns non-OK when
// enumeration was aborted: an arity mismatch between a query atom and its
// stored relation or an out-of-range initial slot (InvalidArgument — a
// bug upstream, not an empty result), a tripped deadline/token in
// `cancel`, or an armed "eval.scan" fault.
Status ForEachMatch(const std::vector<Atom>& atoms, const Database& db,
                    std::span<const SlotBinding> initial,
                    const CancelScope& cancel, EvalStats* stats,
                    const std::function<bool(SlotView)>& callback);

// Distinct answer rows of one width, stored back to back in insertion
// order. An open-addressing table of row indices (linear probing, at most
// half full) finds an equal row on insert, so memory grows with distinct
// rows, not with matches.
class RowBuffer {
 public:
  explicit RowBuffer(int width) : width_(width) {}

  int width() const { return width_; }
  // The number of distinct rows.
  std::size_t size() const { return rows_; }

  // Inserts `row`, which holds width() cells, unless an equal row is
  // already here. Returns whether it was new.
  bool AddRow(const Value* row);
  // Inserts every row of `other`, which must have the same width, and
  // empties it.
  void Append(RowBuffer&& other);

  // The rows in ascending (std::set<Tuple>) order.
  std::vector<Tuple> SortedUnique() const;

 private:
  std::size_t HashRow(const Value* row) const;
  // Doubles the table (16 slots at first) and re-inserts every row.
  void Grow();

  int width_;
  std::size_t rows_ = 0;
  std::vector<Value> values_;
  // Row index + 1 per slot; 0 marks an empty slot. The size is 0 or a
  // power of two.
  std::vector<std::uint32_t> table_;
};

// Inserts the answers of `cq` over `db` into *rows, whose width must be
// cq.arity(), with options.drop_tuples_with_nulls applied per row. On error
// *rows may hold some of the answers: callers discard it.
Status EvaluateInto(const ConjunctiveQuery& cq, const Database& db,
                    const EvalOptions& options, EvalStats* stats,
                    RowBuffer* rows);

// All answer tuples, deduplicated and sorted (deterministic output).
// Errors: InvalidArgument on an arity mismatch (atom vs relation, or
// between the disjuncts of a union) or an answer variable missing from
// the body, DeadlineExceeded/Cancelled when options.cancel trips mid-scan
// (no partial answers are returned), or an injected "eval.scan" fault.
StatusOr<std::vector<Tuple>> TryEvaluate(const ConjunctiveQuery& cq,
                                         const Database& db,
                                         const EvalOptions& options = {},
                                         EvalStats* stats = nullptr);
StatusOr<std::vector<Tuple>> TryEvaluate(const UnionOfCqs& ucq,
                                         const Database& db,
                                         const EvalOptions& options = {},
                                         EvalStats* stats = nullptr);

// TryEvaluate that OREW_CHECKs on any evaluation error. Only safe for
// callers that pass no deadline/cancel scope.
std::vector<Tuple> Evaluate(const ConjunctiveQuery& cq, const Database& db,
                            const EvalOptions& options = {},
                            EvalStats* stats = nullptr);
std::vector<Tuple> Evaluate(const UnionOfCqs& ucq, const Database& db,
                            const EvalOptions& options = {},
                            EvalStats* stats = nullptr);

}  // namespace ontorew

#endif  // ONTOREW_DB_EVAL_H_
