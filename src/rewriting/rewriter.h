#ifndef ONTOREW_REWRITING_REWRITER_H_
#define ONTOREW_REWRITING_REWRITER_H_

#include <string>
#include <vector>

#include "base/deadline.h"
#include "base/status.h"
#include "base/trace.h"
#include "logic/program.h"
#include "logic/query.h"

// UCQ rewriting for single-head TGDs — the operational counterpart of
// FO-rewritability (paper, Definition 1): compute a UCQ q' with
// cert(q, P, D) = ans(q', D) for every database D, by backward resolution
// of query atoms against TGD heads (in the style of PerfectRef/XRewrite,
// and of the algorithm the paper's [10] gives for SWR TGDs).
//
// One *rewriting step* picks a CQ g, a body atom a of g and a TGD
// R : body -> α, unifies a with (a renamed-apart copy of) α, and — when
// the unification is *applicable* — replaces a by body·θ. Applicability
// requires every existential head variable y of R to absorb unbound
// query terms: the image of y under the unifier is not a constant, not
// an answer variable, not identified with another head variable, and
// occurs in g exactly at the positions of a that unify with y's head
// positions (for a simple head that is "occurs exactly once in g"; a
// head repeating y, like g2(X, X, X), identifies the atom's terms at
// those positions and requires the merged variable to occur nowhere
// else). A *factorization step* unifies two body atoms of g with the
// same predicate, producing a subsumed specialization that can enable
// further rewriting steps — e.g. resolution against a constant-head rule
// whose body atoms must collapse onto one null-valued atom first.
//
// The saturation terminates exactly when the program is FO-rewritable for
// the given query shape (e.g. always on SWR sets — Theorem 1); on
// non-FO-rewritable inputs such as PaperExample2 with q() :- r("a", X) it
// would produce an unbounded chain, so a cap bounds the work and reports
// ResourceExhausted.
//
// Throughput (DESIGN.md §9 "Saturation core"): rules are indexed by head
// predicate so an atom only meets unifiable rules; generated CQs are
// minimized to cores and deduplicated up to homomorphic equivalence
// through a renaming-invariant 64-bit hash with a two-way containment
// fallback (the costly canonical-labeling search runs only on the final
// union); and with eager_subsumption (default) a signature
// index drops new CQs an existing CQ subsumes and retires worklist
// entries a new CQ subsumes — the Gottlob–Orsi–Pieris pruning that keeps
// the intermediate union small. Factorization-generated CQs are exempt
// (they are subsumed by construction and exist only to unlock rewriting
// steps). The saturation is one sequential FIFO worklist on the calling
// thread, seeded with the input disjuncts in order; callers get their
// concurrency from running independent rewritings side by side (the
// server's workers), not from inside one. Everything it produces —
// `saturated`, `derivations`, the counters and the final union — is
// deterministic, and the union is minimized and sorted canonically.

namespace ontorew {

struct RewriterOptions {
  // Divergence cap: maximum number of distinct (up to equivalence) CQs
  // explored.
  // Enforced on every insertion, so a single CQ with many successors
  // cannot overshoot the cap within one saturation iteration.
  int max_cqs = 20000;
  // Wall-clock/cooperative cancellation for the saturation: checked once
  // per worklist iteration and inside the final minimization's
  // containment sweep (where the "rewrite.step" fault point also fires).
  // A tripped deadline returns DeadlineExceeded, a tripped token
  // Cancelled — on non-FO-rewritable inputs this bounds the *time*
  // spent, not just the CQ count.
  CancelScope cancel;
  // Final containment-based minimization of the produced union.
  bool minimize = true;
  // Generate factorization (atom-unification) specializations.
  bool factorize = true;
  // Minimize each intermediate CQ before deduplication. Disabling this is
  // only useful for ablation studies: recursive-but-harmless programs
  // (e.g. PaperExample1) then accumulate homomorphically redundant atoms
  // and (without eager subsumption) the saturation diverges to the cap.
  bool reduce_intermediate = true;
  // Eager subsumption pruning during saturation (see header comment).
  // Disabling reproduces the naive explore-everything saturation; the
  // equivalence property test pins both modes to the same answers.
  bool eager_subsumption = true;
  // Request-scoped tracing (see base/trace.h). Inert by default; when
  // enabled, RewriteUcq records a "saturate" span (attributes
  // cqs_generated, cqs_subsumed, cqs_retired, steps) with one
  // "iteration" child per worklist expansion (attributes cq, steps,
  // cqs_total, pruned_total — capped by the Trace's max_spans) and a
  // "minimize" span for the final containment sweep.
  TraceContext trace;
};

// How one saturated CQ came to be (derivation provenance).
struct CqDerivation {
  // Index of the CQ this one was derived from; -1 for input disjuncts.
  int parent = -1;
  // Rule applied (index into program.tgds()); -1 for factorization steps
  // and input disjuncts.
  int rule_index = -1;
  bool factorization = false;
};

struct RewriteResult {
  UnionOfCqs ucq;
  // CQs kept during saturation — one representative per homomorphic
  // equivalence class (before minimization).
  int generated = 0;
  // Rewriting + factorization steps attempted.
  int steps = 0;
  // Candidate CQs dropped because an already-kept CQ subsumes them
  // (eager_subsumption only; equivalence-class duplicates are not
  // counted).
  int pruned = 0;
  // Kept CQs later retired because a newer CQ subsumes them; retired CQs
  // stay in `saturated` for provenance but are excluded from `ucq`.
  int retired = 0;
  // All saturated CQs with their derivations (aligned; ucq above is the
  // minimized union of the non-retired ones), in insertion order: the
  // input disjuncts first, then each CQ's successors in worklist order.
  std::vector<ConjunctiveQuery> saturated;
  std::vector<CqDerivation> derivations;
};

// "q0 =R2=> q3 =factorize=> q5": the derivation chain of saturated CQ
// `index`, for diagnostics. `index` refers to `result.saturated` /
// `result.derivations` — NOT to `result.ucq`, whose minimization reorders
// and drops CQs. An out-of-range index returns an explanatory string
// instead of reading out of bounds.
std::string DescribeDerivation(const RewriteResult& result, int index);

// Rewrites `query` against `program`. Errors: FailedPrecondition for
// multi-head programs, ResourceExhausted when the cap is hit,
// DeadlineExceeded/Cancelled when options.cancel trips mid-saturation,
// or an injected "rewrite.step" fault.
StatusOr<RewriteResult> RewriteUcq(const UnionOfCqs& query,
                                   const TgdProgram& program,
                                   const RewriterOptions& options = {});

// Convenience single-CQ entry point.
StatusOr<RewriteResult> RewriteCq(const ConjunctiveQuery& query,
                                  const TgdProgram& program,
                                  const RewriterOptions& options = {});

}  // namespace ontorew

#endif  // ONTOREW_REWRITING_REWRITER_H_
