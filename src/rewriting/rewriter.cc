#include "rewriting/rewriter.h"

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "base/fault_point.h"
#include "base/status.h"
#include "base/strings.h"
#include "logic/canonical.h"
#include "logic/substitution.h"
#include "logic/unification.h"
#include "rewriting/containment.h"

namespace ontorew {
namespace {

// Rule variables are renamed into an id space disjoint from canonical CQ
// variables (which are small, starting at 0).
constexpr VariableId kRuleVarBase = 1 << 20;

struct PreparedRule {
  Atom head;
  std::vector<Atom> body;
  std::vector<VariableId> head_variables;
  std::vector<VariableId> existential_head;
};

PreparedRule PrepareRule(const Tgd& tgd) {
  std::unordered_map<VariableId, VariableId> rename;
  auto rename_atom = [&rename](const Atom& atom) {
    std::vector<Term> terms;
    terms.reserve(atom.terms().size());
    for (Term t : atom.terms()) {
      if (t.is_constant()) {
        terms.push_back(t);
        continue;
      }
      auto [it, inserted] = rename.emplace(
          t.id(), kRuleVarBase + static_cast<VariableId>(rename.size()));
      terms.push_back(Term::Var(it->second));
    }
    return Atom(atom.predicate(), std::move(terms));
  };
  PreparedRule rule;
  rule.head = rename_atom(tgd.head().front());
  for (const Atom& beta : tgd.body()) rule.body.push_back(rename_atom(beta));
  for (VariableId v : tgd.HeadVariables()) {
    rule.head_variables.push_back(rename.at(v));
  }
  for (VariableId v : tgd.ExistentialHeadVariables()) {
    rule.existential_head.push_back(rename.at(v));
  }
  return rule;
}

// Head-predicate index over the prepared rules: an atom only ever unifies
// with rules whose head carries its predicate, so the saturation's inner
// loop visits exactly those instead of the whole program.
class RuleIndex {
 public:
  explicit RuleIndex(const std::vector<PreparedRule>& rules) {
    for (int i = 0; i < static_cast<int>(rules.size()); ++i) {
      by_head_[rules[static_cast<std::size_t>(i)].head.predicate()]
          .push_back(i);
    }
  }

  // Rule ids (ascending) whose head predicate is `head`, or null.
  const std::vector<int>* Lookup(PredicateId head) const {
    auto it = by_head_.find(head);
    return it == by_head_.end() ? nullptr : &it->second;
  }

 private:
  std::unordered_map<PredicateId, std::vector<int>> by_head_;
};

// Body-atom indices grouped by predicate, buckets in first-occurrence
// order (deterministic). Reused by the factorization loop, which only
// ever pairs same-predicate atoms.
struct PredicateBucket {
  PredicateId predicate;
  std::vector<std::size_t> atoms;
};

std::vector<PredicateBucket> BucketByPredicate(const ConjunctiveQuery& cq) {
  std::vector<PredicateBucket> buckets;
  std::unordered_map<PredicateId, std::size_t> position;
  for (std::size_t i = 0; i < cq.body().size(); ++i) {
    const PredicateId predicate = cq.body()[i].predicate();
    auto [it, inserted] = position.emplace(predicate, buckets.size());
    if (inserted) buckets.push_back(PredicateBucket{predicate, {}});
    buckets[it->second].atoms.push_back(i);
  }
  return buckets;
}

int CountResolvedOccurrences(const Atom& atom, const Substitution& subst,
                             Term value) {
  int count = 0;
  for (Term t : atom.terms()) {
    if (subst.Resolve(t) == value) ++count;
  }
  return count;
}

// The rewriting-step applicability test: every existential head variable
// of the rule must absorb query terms that are unbound outside the atom
// being rewritten. A head may repeat an existential variable (e.g.
// g2(X, X, X)): the chase then emits ONE fresh null at all of X's
// positions, so the step applies exactly when the query terms unified
// into X occur *only at X's head positions* — the unification itself
// identifies them (within-atom variable identification), and the
// resolved value must appear nowhere else in g. The old test demanded
// "occurs exactly once in g", which silently rejected every repeated
// existential head and made the saturation incomplete (ROADMAP seed
// 7275: a factorized g2(t, t, t) could never resolve against
// g0(V) -> g2(X, X, X), losing the certain answer through the
// constant-head rule).
bool IsApplicable(const ConjunctiveQuery& g, const PreparedRule& rule,
                  const Substitution& subst) {
  for (VariableId y : rule.existential_head) {
    Term ty = subst.Resolve(Term::Var(y));
    // A null never equals a constant in any certain answer.
    if (ty.is_constant()) return false;
    // Nor another head term's image: distinct existentials are distinct
    // nulls, and a frontier variable's image is database-valued.
    for (VariableId h : rule.head_variables) {
      if (h == y) continue;
      if (subst.Resolve(Term::Var(h)) == ty) return false;
    }
    // Every occurrence of y's image must lie at a head position of y.
    // Unification already guarantees the atom being rewritten carries ty
    // at exactly those positions, so counting over the whole (resolved)
    // body reduces to: ty occurs nowhere else.
    int head_positions = 0;
    for (Term t : rule.head.terms()) {
      if (t.is_variable() && subst.Resolve(t) == ty) ++head_positions;
    }
    int occurrences = 0;
    for (const Atom& atom : g.body()) {
      occurrences += CountResolvedOccurrences(atom, subst, ty);
    }
    if (occurrences != head_positions) return false;
    for (Term answer : g.answer_terms()) {
      if (answer.is_variable() && subst.Resolve(answer) == ty) return false;
    }
  }
  return true;
}

std::vector<Term> ApplyToAnswer(const std::vector<Term>& answer_terms,
                                const Substitution& subst) {
  std::vector<Term> result;
  result.reserve(answer_terms.size());
  for (Term t : answer_terms) {
    result.push_back(t.is_constant() ? t : subst.Resolve(t));
  }
  return result;
}

// Renames a CQ's variables densely: answer variables first (positionally),
// then body variables by first occurrence. Unlike CanonicalizeCq this does
// not reorder atoms or search — it is NOT renaming-invariant, it only
// guarantees the result's variable ids are small. Stored CQs must live in
// the small-id space because rule variables are renamed into the disjoint
// space above kRuleVarBase before unification; a stored CQ carrying
// leftover rule-space ids would capture rule variables during the next
// rewriting step.
ConjunctiveQuery RenameCqDense(const ConjunctiveQuery& cq) {
  std::unordered_map<VariableId, VariableId> rename;
  auto rename_term = [&rename](Term t) {
    if (t.is_constant()) return t;
    auto [it, inserted] =
        rename.emplace(t.id(), static_cast<VariableId>(rename.size()));
    return Term::Var(it->second);
  };
  std::vector<Term> answer_terms;
  answer_terms.reserve(cq.answer_terms().size());
  for (Term t : cq.answer_terms()) answer_terms.push_back(rename_term(t));
  std::vector<Atom> body;
  body.reserve(cq.body().size());
  for (const Atom& atom : cq.body()) {
    std::vector<Term> terms;
    terms.reserve(atom.terms().size());
    for (Term t : atom.terms()) terms.push_back(rename_term(t));
    body.emplace_back(atom.predicate(), std::move(terms));
  }
  return ConjunctiveQuery(std::move(answer_terms), std::move(body));
}

// Deterministic structural order on canonical forms: the final union is
// sorted with this so the output UCQ does not depend on which member of
// an equivalence class the saturation happened to keep.
bool StructuralLess(const ConjunctiveQuery& a, const ConjunctiveQuery& b) {
  if (a.body().size() != b.body().size()) {
    return a.body().size() < b.body().size();
  }
  if (a.answer_terms() != b.answer_terms()) {
    return a.answer_terms() < b.answer_terms();
  }
  return a.body() < b.body();
}

// A generated CQ prepared for insertion: stored representative (a core
// under reduce_intermediate, a canonical form in the ablation mode),
// dedup hash, subsumption signature, provenance.
struct Candidate {
  ConjunctiveQuery cq;
  std::uint64_t hash = 0;
  CqSignature signature;
  CqMatchContext context;
  CqDerivation derivation;
  // Factorization-generated: subsumed by its parent by construction, kept
  // only to unlock further rewriting steps. Exempt from eager pruning in
  // both directions (never dropped for being subsumed, never used to
  // retire others); the final minimization removes it from the union.
  bool aux = false;
};

// A stored CQ, immutable once inserted. Its id is its index in the store.
struct StoredCq {
  ConjunctiveQuery cq;
  CqMatchContext context;
  CqSignature signature;
  CqDerivation derivation;
};

// The saturation core (DESIGN.md §9 "Saturation core"): one FIFO
// worklist over a CQ store indexed by id, one dedup index keyed by the
// renaming-invariant hash, and one dense row per CQ carrying just the
// fields the subsumption sweeps gate on. The final union is canonicalized
// and sorted by the caller, so the output does not depend on the
// exploration order.
class Saturator {
 public:
  Saturator(const std::vector<PreparedRule>& rules,
            const RewriterOptions& options)
      : rules_(rules), rule_index_(rules), options_(options) {}

  // `trace` is the "saturate" span's context: per-iteration spans nest
  // under it.
  Status Run(const UnionOfCqs& query, const TraceContext& trace) {
    trace_ = trace;
    for (const ConjunctiveQuery& cq : query.disjuncts()) {
      OREW_RETURN_IF_ERROR(Insert(MakeCandidate(cq, CqDerivation{}, false)));
    }
    while (!worklist_.empty()) {
      const int id = worklist_.front();
      worklist_.pop_front();
      if (rows_[static_cast<std::size_t>(id)].retired) continue;
      OREW_RETURN_IF_ERROR(Expand(id));
    }
    return Status::Ok();
  }

  // Copies the saturation outcome into `result` (everything except ucq).
  void Export(RewriteResult* result) {
    result->generated = static_cast<int>(cqs_.size());
    result->steps = static_cast<int>(steps_);
    result->pruned = static_cast<int>(pruned_);
    result->retired = retired_;
    result->saturated.clear();
    result->derivations.clear();
    result->saturated.reserve(cqs_.size());
    result->derivations.reserve(cqs_.size());
    for (const StoredCq& entry : cqs_) {
      result->saturated.push_back(entry.cq);
      result->derivations.push_back(entry.derivation);
    }
  }

  // The non-retired CQs in insertion order (the union the final
  // minimization starts from).
  std::vector<ConjunctiveQuery> LiveCqs() const {
    std::vector<ConjunctiveQuery> live;
    live.reserve(cqs_.size());
    for (std::size_t id = 0; id < cqs_.size(); ++id) {
      if (!rows_[id].retired) live.push_back(cqs_[id].cq);
    }
    return live;
  }

 private:
  // The gate fields of one stored CQ, kept in a flat vector parallel to
  // the store so the subsumption sweeps scan cache-dense rows and touch a
  // StoredCq only for survivors.
  struct SigRef {
    std::uint64_t predicate_mask;
    int body_atoms;
    bool aux;
    // Set once a newer CQ strictly subsumes this one: it is skipped by
    // the worklist and the sweeps, and excluded from the final union.
    bool retired;
  };

  Candidate MakeCandidate(const ConjunctiveQuery& cq, CqDerivation derivation,
                          bool aux) const {
    // Minimize before deduplication: backward application of a recursive
    // rule re-derives atoms that are homomorphically redundant (e.g. the
    // r -> s -> v -> r loop of PaperExample1 re-adds q(Y) and a fresh
    // t(Z) on every pass). Raw saturation would therefore diverge even on
    // FO-rewritable inputs; saturating equivalence-class representatives
    // (as PerfectRef/Rapid do) restores termination and preserves the
    // union's semantics.
    Candidate candidate;
    if (options_.reduce_intermediate) {
      // Hot path: store the core itself and dedup by renaming-invariant
      // hash + two-way containment. The expensive canonical-labeling
      // search is deferred to the (much smaller) final union — for
      // hom-equivalent cores it yields the same form no matter which
      // representative survived, so output determinism is unaffected.
      candidate.cq = RenameCqDense(MinimizeCq(cq));
      candidate.hash = InvariantCqHash(candidate.cq);
    } else {
      // Ablation mode: stored CQs are not cores, so equivalence-based
      // dedup would silently merge distinct non-minimal CQs and change
      // what "no intermediate reduction" explores. Keep exact
      // canonical-form dedup here.
      candidate.cq = CanonicalizeCq(cq);
      candidate.hash = CanonicalCqHash(candidate.cq);
    }
    candidate.signature = ComputeCqSignature(candidate.cq);
    candidate.context = BuildMatchContext(candidate.cq);
    candidate.derivation = derivation;
    candidate.aux = aux;
    return candidate;
  }

  // True iff a stored CQ already represents `candidate`. On a hash hit
  // the hot path confirms with a two-way containment check (hom-equivalent
  // cores are the same CQ up to renaming) and the ablation path compares
  // canonical forms structurally. Either way a hash collision degrades to
  // an extra check, never to a wrong merge.
  bool IsDuplicate(const Candidate& candidate) const {
    auto it = by_hash_.find(candidate.hash);
    if (it == by_hash_.end()) return false;
    for (int id : it->second) {
      const StoredCq& entry = cqs_[static_cast<std::size_t>(id)];
      if (options_.reduce_intermediate) {
        if (CqSubsumes(entry.cq, candidate.cq, candidate.context) &&
            CqSubsumes(candidate.cq, entry.cq, entry.context)) {
          return true;
        }
      } else if (entry.cq == candidate.cq) {
        return true;
      }
    }
    return false;
  }

  // The row gates in front of CqSubsumes(general, specific) in both eager
  // sweeps (SignatureMaySubsume's exact predicate-set test follows for
  // the rows that pass): neither side retired or factorization-generated,
  // then body size and predicate mask. Body-size gate: a subsumer with
  // more atoms than the subsumed CQ would have to fold atoms together —
  // possible but rare, and missing such a prune only defers the cleanup
  // to the final minimization. Skipping those checks is the cheap 80% win.
  static bool RowMaySubsume(const SigRef& general, const SigRef& specific) {
    if (general.aux || general.retired || specific.aux || specific.retired) {
      return false;
    }
    if (general.body_atoms > specific.body_atoms) return false;
    return (general.predicate_mask & ~specific.predicate_mask) == 0;
  }

  // Dedup, eager-subsumption prune, cap, insert and enqueue, retire.
  Status Insert(Candidate candidate) {
    if (IsDuplicate(candidate)) return Status::Ok();
    const bool eager = options_.eager_subsumption && !candidate.aux;
    const SigRef row{candidate.signature.predicate_mask,
                     candidate.signature.body_atoms, candidate.aux, false};
    if (eager) {
      for (std::size_t id = 0; id < cqs_.size(); ++id) {
        if (!RowMaySubsume(rows_[id], row)) continue;
        const StoredCq& general = cqs_[id];
        if (SignatureMaySubsume(general.signature, candidate.signature) &&
            CqSubsumes(general.cq, candidate.cq, candidate.context)) {
          ++pruned_;
          return Status::Ok();
        }
      }
    }

    if (static_cast<int>(cqs_.size()) >= options_.max_cqs) {
      return ResourceExhaustedError(
          StrCat("rewriting exceeded the cap of ", options_.max_cqs,
                 " conjunctive queries — the program is probably not "
                 "FO-rewritable for this query"));
    }
    const int inserted_id = static_cast<int>(cqs_.size());
    cqs_.push_back(StoredCq{std::move(candidate.cq),
                            std::move(candidate.context),
                            std::move(candidate.signature),
                            candidate.derivation});
    rows_.push_back(row);
    by_hash_[candidate.hash].push_back(inserted_id);
    worklist_.push_back(inserted_id);

    // Retire the live CQs the new one strictly subsumes. Strictness keeps
    // an equivalent pair both alive (the final minimization picks one).
    if (eager) {
      const StoredCq& inserted = cqs_.back();
      for (int id = 0; id < inserted_id; ++id) {
        SigRef& victim_row = rows_[static_cast<std::size_t>(id)];
        if (!RowMaySubsume(row, victim_row)) continue;
        const StoredCq& victim = cqs_[static_cast<std::size_t>(id)];
        if (SignatureMaySubsume(inserted.signature, victim.signature) &&
            CqSubsumes(inserted.cq, victim.cq, victim.context) &&
            !CqSubsumes(victim.cq, inserted.cq, inserted.context)) {
          victim_row.retired = true;
          ++retired_;
        }
      }
    }
    return Status::Ok();
  }

  // One saturation iteration: all rewriting + factorization successors of
  // CQ `id`. Records an "iteration" span when tracing; the untraced path
  // is one pointer test.
  Status Expand(int id) {
    if (!trace_.enabled()) return ExpandImpl(id);
    TraceSpan span(trace_, "iteration");
    span.Attr("cq", static_cast<std::int64_t>(id));
    const long steps_before = steps_;
    Status status = ExpandImpl(id);
    span.Attr("steps", static_cast<std::int64_t>(steps_ - steps_before));
    span.Attr("pruned_total", static_cast<std::int64_t>(pruned_));
    span.Attr("cqs_total", static_cast<std::int64_t>(cqs_.size()));
    span.AnnotateStatus(status);
    return status;
  }

  Status ExpandImpl(int id) {
    // The saturation diverges on non-FO-rewritable inputs, so every
    // iteration is bounded three ways: by distinct-CQ count (the cap in
    // Insert), by wall clock / caller cancellation, and by the armed-test
    // fault point.
    OREW_RETURN_IF_ERROR(options_.cancel.Check("rewrite saturation"));
    OREW_RETURN_IF_ERROR(CheckFaultPoint("rewrite.step"));

    // `g` stays valid while Insert appends: growing a deque at the back
    // never moves its elements.
    const ConjunctiveQuery& g = cqs_[static_cast<std::size_t>(id)].cq;
    // Rewriting steps, against head-predicate-indexed rules only.
    for (std::size_t a = 0; a < g.body().size(); ++a) {
      const std::vector<int>* rule_ids =
          rule_index_.Lookup(g.body()[a].predicate());
      if (rule_ids == nullptr) continue;
      for (int rule_id : *rule_ids) {
        const PreparedRule& rule = rules_[static_cast<std::size_t>(rule_id)];
        Substitution subst;
        if (!UnifyAtoms(g.body()[a], rule.head, &subst)) continue;
        if (!IsApplicable(g, rule, subst)) continue;
        ++steps_;
        std::vector<Atom> new_body;
        new_body.reserve(g.body().size() - 1 + rule.body.size());
        for (std::size_t i = 0; i < g.body().size(); ++i) {
          if (i != a) new_body.push_back(subst.Apply(g.body()[i]));
        }
        for (const Atom& beta : rule.body) {
          new_body.push_back(subst.Apply(beta));
        }
        OREW_RETURN_IF_ERROR(Insert(MakeCandidate(
            ConjunctiveQuery(ApplyToAnswer(g.answer_terms(), subst),
                             std::move(new_body)),
            CqDerivation{id, rule_id, false}, false)));
      }
    }

    // Factorization steps: unify two same-predicate atoms, drawn from the
    // per-CQ predicate buckets. The result is a subsumed specialization,
    // generated only because it can unlock rewriting steps (it makes
    // shared variables occur once).
    if (!options_.factorize) return Status::Ok();
    for (const PredicateBucket& bucket : BucketByPredicate(g)) {
      for (std::size_t bi = 0; bi < bucket.atoms.size(); ++bi) {
        for (std::size_t bj = bi + 1; bj < bucket.atoms.size(); ++bj) {
          const std::size_t i = bucket.atoms[bi];
          const std::size_t j = bucket.atoms[bj];
          Substitution subst;
          if (!UnifyAtoms(g.body()[i], g.body()[j], &subst)) continue;
          ++steps_;
          std::vector<Atom> new_body;
          new_body.reserve(g.body().size() - 1);
          for (std::size_t l = 0; l < g.body().size(); ++l) {
            if (l != j) new_body.push_back(subst.Apply(g.body()[l]));
          }
          OREW_RETURN_IF_ERROR(Insert(MakeCandidate(
              ConjunctiveQuery(ApplyToAnswer(g.answer_terms(), subst),
                               std::move(new_body)),
              CqDerivation{id, -1, true}, true)));
        }
      }
    }
    return Status::Ok();
  }

  const std::vector<PreparedRule>& rules_;
  RuleIndex rule_index_;
  const RewriterOptions& options_;
  TraceContext trace_;

  std::deque<StoredCq> cqs_;  // Indexed by CQ id; stable references.
  std::vector<SigRef> rows_;  // Parallel to cqs_.
  // Invariant hash -> ids of the stored CQs carrying it.
  std::unordered_map<std::uint64_t, std::vector<int>> by_hash_;
  std::deque<int> worklist_;  // FIFO of CQ ids still to expand.
  long steps_ = 0;
  long pruned_ = 0;
  int retired_ = 0;
};

}  // namespace

StatusOr<RewriteResult> RewriteUcq(const UnionOfCqs& query,
                                   const TgdProgram& program,
                                   const RewriterOptions& options) {
  if (!program.IsSingleHead()) {
    return FailedPreconditionError(
        "the rewriting engine covers single-head TGDs; normalize multi-head "
        "TGDs first");
  }
  OREW_RETURN_IF_ERROR(query.Validate());

  std::vector<PreparedRule> rules;
  rules.reserve(program.tgds().size());
  for (const Tgd& tgd : program.tgds()) rules.push_back(PrepareRule(tgd));

  Saturator saturator(rules, options);
  RewriteResult result;
  {
    TraceSpan saturate(options.trace, "saturate");
    Status run = saturator.Run(query, saturate.context());
    saturator.Export(&result);
    saturate.Attr("cqs_generated", static_cast<std::int64_t>(result.generated));
    saturate.Attr("cqs_subsumed", static_cast<std::int64_t>(result.pruned));
    saturate.Attr("cqs_retired", static_cast<std::int64_t>(result.retired));
    saturate.Attr("steps", static_cast<std::int64_t>(result.steps));
    saturate.AnnotateStatus(run);
    OREW_RETURN_IF_ERROR(run);
  }

  UnionOfCqs full(saturator.LiveCqs());

  if (options.minimize) {
    TraceSpan minimize_span(options.trace, "minimize");
    minimize_span.Attr("disjuncts_in",
                       static_cast<std::int64_t>(full.disjuncts().size()));
    MinimizeUcqOptions minimize;
    // With reduce_intermediate every stored CQ is already a core; only
    // the ablation path needs the per-disjunct pass.
    minimize.minimize_disjuncts = !options.reduce_intermediate;
    minimize.cancel = options.cancel;
    StatusOr<UnionOfCqs> minimized = MinimizeUcq(full, minimize);
    if (!minimized.ok()) {
      minimize_span.AnnotateStatus(minimized.status());
      return minimized.status();
    }
    full = std::move(minimized).value();
    minimize_span.Attr("disjuncts_out",
                       static_cast<std::int64_t>(full.disjuncts().size()));
  }

  // Deterministic output: the saturation stores cores, not canonical
  // forms, and which member of an equivalence class survived depends on
  // exploration order. Canonicalize the final survivors — hom-equivalent
  // cores are isomorphic, so they canonicalize identically — and sort
  // structurally; the union then depends only on the query and program.
  // Deferring the canonical-labeling search to this point (typically an
  // order of magnitude fewer CQs than the saturation generated) is a
  // large part of the rewriting speedup.
  std::vector<ConjunctiveQuery> canonical;
  canonical.reserve(full.disjuncts().size());
  for (const ConjunctiveQuery& cq : full.disjuncts()) {
    canonical.push_back(CanonicalizeCq(cq));
  }
  std::sort(canonical.begin(), canonical.end(), StructuralLess);
  result.ucq = UnionOfCqs(std::move(canonical));
  return result;
}

std::string DescribeDerivation(const RewriteResult& result, int index) {
  // Indices refer to `saturated`/`derivations`, NOT to `ucq`:
  // minimization reorders and drops CQs, so a caller iterating the
  // minimized union can easily hand us an index that is meaningless
  // here. Report that instead of reading out of bounds.
  if (index < 0 ||
      index >= static_cast<int>(result.derivations.size())) {
    return StrCat("q", index, " (out of range: ", result.derivations.size(),
                  " saturated CQs; indices refer to RewriteResult::saturated,"
                  " not to the minimized ucq)");
  }
  // Walk parents back to an input disjunct, then print forward.
  std::vector<int> chain;
  for (int i = index; i >= 0;
       i = result.derivations[static_cast<std::size_t>(i)].parent) {
    chain.push_back(i);
  }
  std::string description;
  for (auto it = chain.rbegin(); it != chain.rend(); ++it) {
    const CqDerivation& d =
        result.derivations[static_cast<std::size_t>(*it)];
    if (it != chain.rbegin()) {
      description += d.factorization
                         ? " =factorize=> "
                         : StrCat(" =R", d.rule_index + 1, "=> ");
    }
    description += StrCat("q", *it);
  }
  return description;
}

StatusOr<RewriteResult> RewriteCq(const ConjunctiveQuery& query,
                                  const TgdProgram& program,
                                  const RewriterOptions& options) {
  return RewriteUcq(UnionOfCqs(query), program, options);
}

}  // namespace ontorew
