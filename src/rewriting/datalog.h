#ifndef ONTOREW_REWRITING_DATALOG_H_
#define ONTOREW_REWRITING_DATALOG_H_

#include <string>
#include <string_view>
#include <vector>

#include "base/deadline.h"
#include "base/status.h"
#include "logic/atom.h"
#include "logic/query.h"
#include "logic/vocabulary.h"

// Factoring of a saturated UCQ into an equivalent NONRECURSIVE Datalog
// program. Gottlob & Schwentick (arXiv:1106.3767) show polynomial-size
// nonrecursive Datalog rewritings exist where the flat UCQ blows up
// exponentially; Gottlob, Orsi & Pieris (arXiv:1405.2848) give the
// optimization recipe this pass implements: shared subgoal sets that
// recur across disjuncts are pulled out into intermediate ("aux")
// predicates, so ten unfoldings of person(X) crossed over three join
// slots become ONE ten-rule aux used three times instead of a
// 10*10*10-arm union.
//
//   q(X0) :- person(X0), knows(X0,X1), person(X1)   [100 disjuncts]
//   =>
//   orw0(V0) :- professor(V0).   ... (10 rules) ...
//   q(X0)    :- orw0(X0), knows(X0,X1), orw0(X1)    [1 output rule]
//
// The factored program is what the CTE emitter (rewriting/cte_sql.h)
// renders as WITH-SQL; semantically it is just a compressed spelling of
// the input union — UnfoldDatalog inverts the factoring exactly, and the
// property tests check unfold(factor(U)) is CQ-for-CQ equivalent to U.

namespace ontorew {

// Aux predicates live in a reserved virtual id range so ordinary Atom
// machinery (canonicalization, hashing, unification-free containment on
// ids) works unchanged, without interning synthetic names into the
// shared Vocabulary (which is not thread-safe and is owned per-tenant).
// No real vocabulary ever reaches 2^30 predicates.
inline constexpr PredicateId kDatalogAuxBase = PredicateId{1} << 30;
// Reserved id used internally by the factoring's grouping key; never
// appears in an emitted program.
inline constexpr PredicateId kDatalogPlaceholder = kDatalogAuxBase - 1;

constexpr bool IsAuxPredicate(PredicateId p) { return p >= kDatalogAuxBase; }
constexpr PredicateId AuxPredicate(int index) {
  return kDatalogAuxBase + index;
}
constexpr int AuxIndex(PredicateId p) {
  return static_cast<int>(p - kDatalogAuxBase);
}

// One rule `head :- body`. For aux rules the head terms are the
// variables 0..arity-1 in order; for output rules the head terms are the
// query's answer terms (variables or constants, like a CQ's answer
// tuple). Bodies mix base-vocabulary atoms and aux atoms.
struct DatalogRule {
  std::vector<Term> head;
  std::vector<Atom> body;

  int arity() const { return static_cast<int>(head.size()); }
};

// An intermediate predicate: the union of its rules defines it.
struct DatalogAux {
  int arity = 0;
  std::vector<DatalogRule> rules;
};

// A nonrecursive Datalog program with a single output predicate. The aux
// list is in dependency (topological) order by construction: the body of
// aux[k] only references aux[j] with j < k, and output rules may
// reference any aux. Validate() re-checks this stratification.
struct DatalogProgram {
  int arity = 0;  // Answer arity of the output predicate.
  std::vector<DatalogAux> aux;
  std::vector<DatalogRule> output;

  // Factoring statistic (for trace spans and bench rows).
  int input_disjuncts = 0;

  int cte_count() const { return static_cast<int>(aux.size()); }
  int total_rules() const;

  // Checks arities, stratification (nonrecursion), head-variable safety
  // and aux-reference ranges.
  Status Validate() const;
};

// Factors `ucq` into an equivalent nonrecursive Datalog program. Always
// succeeds on a valid UCQ; when nothing is shared the result has no aux
// predicates and one output rule per input disjunct (the CTE emission
// then degenerates to the plain UNION). Errors on an invalid UCQ or when
// `cancel` trips (checked between factoring rounds).
StatusOr<DatalogProgram> FactorUcq(const UnionOfCqs& ucq,
                                   const CancelScope& cancel = {});

// Expands every aux atom away, recovering a flat UCQ equivalent to the
// program (and, for programs produced by FactorUcq, CQ-for-CQ equivalent
// to the original input union). Inverse of the factoring; also the
// reference semantics backends without native Datalog support evaluate.
StatusOr<UnionOfCqs> UnfoldDatalog(const DatalogProgram& program);

// Human-readable listing (aux predicates print as orw0, orw1, ...);
// debugging and test-failure output.
std::string DatalogToString(const DatalogProgram& program,
                            const Vocabulary& vocab);

// Which destination format a rewriting is compiled to. kUcq is the
// paper's flat union (rewriting/sql.h); kCte factors through
// nonrecursive Datalog and emits WITH-CTE SQL (rewriting/cte_sql.h).
// Chosen per request (ServeOptions::target, the wire protocol's
// `target=` option); kUcq by default.
enum class RewriteTarget { kUcq, kCte };

// Stable lowercase name ("ucq" | "cte") — wire option values and cache
// key qualifiers.
std::string_view RewriteTargetName(RewriteTarget target);

}  // namespace ontorew

#endif  // ONTOREW_REWRITING_DATALOG_H_
