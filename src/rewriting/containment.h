#ifndef ONTOREW_REWRITING_CONTAINMENT_H_
#define ONTOREW_REWRITING_CONTAINMENT_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "base/deadline.h"
#include "base/status.h"
#include "logic/query.h"
#include "logic/vocabulary.h"

// Conjunctive-query containment via homomorphisms (Chandra–Merkurio:
// NP-complete in general, fine at rewriting sizes). Used to minimize the
// UCQs produced by the rewriting engine, and — since the saturation core
// prunes eagerly — on the rewriting hot path itself. The homomorphism
// search orders the atoms of the general CQ most-constrained-first and
// draws candidate targets from per-predicate buckets of the specific CQ,
// which keeps the backtracking shallow even on chain-shaped queries with
// many same-predicate atoms.

namespace ontorew {

// Precomputed matching state for the *specific* (right-hand) side of
// CqSubsumes: body-atom indices bucketed by predicate. Building it is
// O(body); reusing it across the many subsumption probes the saturation
// runs against the same CQ removes the dominant per-call setup cost.
struct CqMatchContext {
  std::unordered_map<PredicateId, std::vector<std::size_t>> buckets;
};

CqMatchContext BuildMatchContext(const ConjunctiveQuery& cq);

// True iff there is a homomorphism from `general` into `specific` that
// maps general's answer terms positionally onto specific's. Then every
// answer of `specific` is an answer of `general` on every database
// (ans(specific) ⊆ ans(general)), i.e. `specific` is redundant next to
// `general` inside a union.
bool CqSubsumes(const ConjunctiveQuery& general,
                const ConjunctiveQuery& specific);

// Same, with the specific side's context precomputed by the caller (it
// must have been built from this exact `specific`).
bool CqSubsumes(const ConjunctiveQuery& general,
                const ConjunctiveQuery& specific,
                const CqMatchContext& specific_context);

// Containment in both directions.
bool CqEquivalent(const ConjunctiveQuery& a, const ConjunctiveQuery& b);

// Removes redundant body atoms (retraction to a core-like minimal
// equivalent CQ). Single forward pass: an atom that cannot be dropped at
// the moment it is visited can never become droppable after later drops
// (retraction homomorphisms compose), so no restart is needed.
ConjunctiveQuery MinimizeCq(const ConjunctiveQuery& cq);

// --- Subsumption pre-filter signatures --------------------------------------

// A renaming-invariant fingerprint of a CQ used to skip hopeless
// homomorphism checks: every atom of a subsumer must map onto an atom of
// the subsumed CQ with the same predicate and arity, so the subsumer's
// (predicate, arity) set must be a subset of the subsumed CQ's. The set
// is approximated by a 64-bit Bloom mask; a multiset hash distinguishes
// CQs for exact-signature grouping.
struct CqSignature {
  // Bloom mask over the (predicate, arity) pairs occurring in the body.
  std::uint64_t predicate_mask = 0;
  // Order-insensitive hash of the (predicate, arity) multiset.
  std::uint64_t multiset_hash = 0;
  int body_atoms = 0;
  // Sorted distinct body predicates — the exact set the mask
  // approximates. CQ bodies are small, so subset tests on it are a
  // handful of int compares; the exact test prunes the Bloom mask's
  // false positives, each of which would cost a homomorphism search.
  std::vector<PredicateId> predicates;
};

CqSignature ComputeCqSignature(const ConjunctiveQuery& cq);

// Necessary condition for CqSubsumes(general, specific): general's
// predicate set is a subset of specific's. Mask test first (one AND +
// compare), exact subset test after.
inline bool SignatureMaySubsume(const CqSignature& general,
                                const CqSignature& specific) {
  if ((general.predicate_mask & ~specific.predicate_mask) != 0) return false;
  return std::includes(specific.predicates.begin(),
                       specific.predicates.end(),
                       general.predicates.begin(),
                       general.predicates.end());
}

// --- UCQ minimization --------------------------------------------------------

struct MinimizeUcqOptions {
  // Minimize each disjunct before the subsumption sweep. Callers whose
  // disjuncts are already cores (the rewriter with reduce_intermediate)
  // skip this phase.
  bool minimize_disjuncts = true;
  // Cooperative cancellation, checked once per disjunct in each phase
  // (and the "rewrite.step" fault point fires there, so injected faults
  // cover the minimization stage too).
  CancelScope cancel;
};

// Minimizes each disjunct, then removes disjuncts subsumed by another. The
// surviving set is the subsumption-minimal one and does not depend on the
// order in which the pairs are checked: a disjunct dies iff some other
// disjunct strictly subsumes it, or an equivalent disjunct with a smaller
// index exists. Errors: DeadlineExceeded/Cancelled when options.cancel
// trips, or an injected "rewrite.step" fault — never a partial union.
StatusOr<UnionOfCqs> MinimizeUcq(const UnionOfCqs& ucq,
                                 const MinimizeUcqOptions& options = {});

}  // namespace ontorew

#endif  // ONTOREW_REWRITING_CONTAINMENT_H_
