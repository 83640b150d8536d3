#ifndef ONTOREW_REWRITING_DAG_REWRITER_H_
#define ONTOREW_REWRITING_DAG_REWRITER_H_

#include <cstdint>

#include "base/status.h"
#include "logic/program.h"
#include "logic/query.h"
#include "rewriting/datalog.h"
#include "rewriting/rewriter.h"

// DAG-native factored rewriting: emit the nonrecursive Datalog program
// straight from the piece-rewrite structure of the query, never
// materializing the flat UCQ. This is the saturation-side half of the
// UCQ-blowup fix (the emission-side half is FactorUcq + the CTE SQL
// emitter): a query whose k independent subgoal groups each have d
// rewritings costs O(k*d) saturation work and program size here, against
// the O(d^k) disjuncts the flat path generates, dedups and minimizes
// before FactorUcq can compress them. The construction follows the
// nonrecursive-Datalog rewriting results of Gottlob & Schwentick
// (arXiv:1106.3767) and the shared-subquery optimization of Gottlob,
// Orsi & Pieris (arXiv:1405.2848).
//
// How it works, per input disjunct:
//
//  1. Decompose the body into GROUPS: the finest partition in which two
//     atoms end up together when they share a variable AND their
//     predicates' backward-reachable rule spaces intersect (iterated to a
//     fixpoint at group granularity). Variable-sharing atoms with
//     intersecting reach sets must stay together — a factorization step
//     across them could drop a shared variable's occurrence count to one
//     and unlock an absorption no per-group rewriting can see. Either
//     separation (no shared variable, or disjoint reach) is safe: derived
//     atoms of reach-disjoint groups never unify, and factorizations
//     across variable-disjoint groups only produce substitution instances
//     of the cross product (occurrence counts add, so they never enable
//     new absorptions).
//
//  2. Rewrite each group as its own subquery whose answer tuple is the
//     group's INTERFACE — the variables that are answer variables or
//     occur in another group, in first-occurrence order. Freezing the
//     interface as answer variables mirrors the full-CQ occurrence
//     counts: a variable visible outside the group is never absorbable
//     inside it.
//
//  3. Memoize the per-group rewriting on the canonical form of the
//     subquery (CanonicalCqKey): the three person(X) slots of
//     university_q3 saturate ONCE and share one aux predicate. This is
//     the memoization invariant the property tests pin: the memo key
//     determines the rewriting exactly, because RewriteUcq's output is
//     canonical and deterministic for a canonical input.
//
//  4. Emit: a group whose rewriting has one disjunct is inlined into the
//     output rule (existentials freshened); a group with d >= 2 disjuncts
//     becomes an aux predicate with d rules, called once per use site.
//
// Two gates route hard cases to the flat reference path (RewriteUcq +
// FactorUcq), which is always correct:
//
//  G2 (simple heads): every rule whose head predicate is backward-
//     reachable from the disjunct must have a head with no constants and
//     no repeated variables. Simple heads guarantee rewriting steps never
//     specialize query-side terms, so per-group derivations compose.
//  G3 (identity interfaces): every disjunct of every group rewriting must
//     answer with the identity tuple of distinct variables. A
//     factorization inside a group may identify two interface variables
//     (and survive minimization when it unlocked an absorption); such a
//     disjunct cannot be an aux rule head or an inline substitution, so
//     the whole query falls back.
//
// UnfoldDatalog(result.program), minimized, is CQ-for-CQ equivalent to
// the flat RewriteUcq union — a property test and the fourth
// differential-harness leg check exactly that.

namespace ontorew {

struct DagRewriteResult {
  DatalogProgram program;
  // True when the whole query took the reference path (flat RewriteUcq +
  // FactorUcq): a gate tripped, or no disjunct decomposed into more than
  // one group (where the DAG path would just be the flat path with extra
  // steps, and FactorUcq's cross-disjunct sharing is strictly better).
  bool fallback = false;
  // Subgoal groups across all input disjuncts (0 on the fallback path).
  int groups = 0;
  // Group rewritings served from the canonical-subquery memo.
  int memo_hits = 0;
  // How many flat disjuncts the program unfolds to (the product of group
  // rewriting sizes, summed over output rules; saturated at INT64_MAX).
  // The flat path would have had to materialize this many CQs.
  std::int64_t implied_disjuncts = 0;
  // Saturation totals summed over every RewriteUcq call made.
  int generated = 0;
  int steps = 0;
  int pruned = 0;
  // Phase split: time inside RewriteUcq calls vs. time decomposing,
  // assembling and validating the program (or running FactorUcq on the
  // fallback path). Feeds the rewrite_ns / factor_ns serving metrics and
  // the saturate_ms / factor_ms bench columns.
  std::int64_t saturate_ns = 0;
  std::int64_t factor_ns = 0;
};

// Rewrites `query` over `program` directly into nonrecursive Datalog.
// Requires a single-head program (normalize first), like RewriteUcq.
// Errors propagate from the underlying saturations (cancellation,
// max_cqs, fault injection); gate trips are not errors — they return the
// fallback-path program with result.fallback set.
//
// `options` drives the per-group saturations (and the whole-query one on
// the fallback path); its cancel scope and trace context apply to the
// entire DAG rewrite. max_cqs bounds each group's saturation
// individually, not their sum — per-group saturations are sub-problems
// of the flat one, so the effective budget only tightens.
StatusOr<DagRewriteResult> RewriteToDatalog(
    const UnionOfCqs& query, const TgdProgram& program,
    const RewriterOptions& options = {});

}  // namespace ontorew

#endif  // ONTOREW_REWRITING_DAG_REWRITER_H_
