#include "rewriting/containment.h"

#include <algorithm>
#include <cstddef>
#include <unordered_map>
#include <vector>

#include "base/fault_point.h"
#include "logic/atom.h"
#include "logic/term.h"

namespace ontorew {
namespace {

// Backtracking search for a homomorphism general -> specific.
//
// Throughput upgrades over the naive nested-loop search:
//  - candidate targets come from per-predicate buckets of `specific`
//    (prebuilt by the caller via CqMatchContext, so repeated probes
//    against the same CQ pay the bucketing once);
//  - the atoms of `general` are matched most-constrained-first: a greedy
//    static order that at each step picks the atom with the most
//    already-bound variable positions (ties: the smaller target bucket);
//  - general's variables are interned into dense slots up front, so the
//    inner matching loop runs on flat arrays — no hashing, no node
//    allocation — and backtracking is a trail of slot indices.
class HomomorphismFinder {
 public:
  HomomorphismFinder(const ConjunctiveQuery& general,
                     const ConjunctiveQuery& specific,
                     const CqMatchContext& context)
      : general_(general), specific_(specific), context_(context) {}

  bool Find() {
    const std::vector<Term>& g_answers = general_.answer_terms();
    const std::vector<Term>& s_answers = specific_.answer_terms();
    if (g_answers.size() != s_answers.size()) return false;

    // Intern variables (answers first, then body by first occurrence) and
    // pre-encode each atom as predicate bucket + per-position slots. An
    // atom whose predicate has no bucket in `specific` has no possible
    // target: fail before any search.
    for (Term t : g_answers) {
      if (t.is_variable()) InternSlot(t.id());
    }
    const std::vector<Atom>& body = general_.body();
    encoded_.reserve(body.size());
    for (const Atom& atom : body) {
      auto it = context_.buckets.find(atom.predicate());
      if (it == context_.buckets.end()) return false;
      EncodedAtom encoded;
      encoded.atom = &atom;
      encoded.bucket = &it->second;
      encoded.slots.reserve(atom.terms().size());
      for (Term t : atom.terms()) {
        encoded.slots.push_back(t.is_variable() ? InternSlot(t.id()) : -1);
      }
      encoded_.push_back(std::move(encoded));
    }
    binding_.assign(var_ids_.size(), Term());
    bound_.assign(var_ids_.size(), 0);

    // Seed with the answer-term constraints.
    for (std::size_t i = 0; i < g_answers.size(); ++i) {
      Term g = g_answers[i];
      Term s = s_answers[i];
      if (g.is_constant()) {
        if (g != s) return false;
        continue;
      }
      const int slot = InternSlot(g.id());
      if (bound_[static_cast<std::size_t>(slot)]) {
        if (binding_[static_cast<std::size_t>(slot)] != s) return false;
      } else {
        bound_[static_cast<std::size_t>(slot)] = 1;
        binding_[static_cast<std::size_t>(slot)] = s;
      }
    }
    ComputeAtomOrder();
    return MatchAtom(0);
  }

 private:
  struct EncodedAtom {
    const Atom* atom = nullptr;
    const std::vector<std::size_t>* bucket = nullptr;
    // Per term position: dense variable slot, or -1 for a constant.
    std::vector<int> slots;
  };

  // Dense slot of variable `v` (general_'s variable count is tiny, so a
  // linear scan beats a hash table).
  int InternSlot(VariableId v) {
    for (std::size_t i = 0; i < var_ids_.size(); ++i) {
      if (var_ids_[i] == v) return static_cast<int>(i);
    }
    var_ids_.push_back(v);
    return static_cast<int>(var_ids_.size()) - 1;
  }

  // Greedy most-constrained-first order over general_'s atoms. "Bound"
  // slots are those fixed by the answer seeding or occurring in atoms
  // placed earlier in the order.
  void ComputeAtomOrder() {
    const std::size_t n = encoded_.size();
    std::vector<char> simulated_bound(bound_);
    std::vector<char> placed(n, 0);
    order_.reserve(n);
    for (std::size_t step = 0; step < n; ++step) {
      int best = -1;
      int best_bound = -1;
      std::size_t best_bucket = 0;
      for (std::size_t i = 0; i < n; ++i) {
        if (placed[i]) continue;
        int bound_positions = 0;
        for (int slot : encoded_[i].slots) {
          if (slot < 0 || simulated_bound[static_cast<std::size_t>(slot)]) {
            ++bound_positions;
          }
        }
        const std::size_t bucket = encoded_[i].bucket->size();
        if (best < 0 || bound_positions > best_bound ||
            (bound_positions == best_bound && bucket < best_bucket)) {
          best = static_cast<int>(i);
          best_bound = bound_positions;
          best_bucket = bucket;
        }
      }
      placed[static_cast<std::size_t>(best)] = 1;
      order_.push_back(static_cast<std::size_t>(best));
      for (int slot : encoded_[static_cast<std::size_t>(best)].slots) {
        if (slot >= 0) simulated_bound[static_cast<std::size_t>(slot)] = 1;
      }
    }
  }

  bool MatchAtom(std::size_t index) {
    if (index == order_.size()) return true;
    const EncodedAtom& e = encoded_[order_[index]];
    const Atom& g = *e.atom;
    for (std::size_t target : *e.bucket) {
      const Atom& s = specific_.body()[target];
      if (s.arity() != g.arity()) continue;
      const std::size_t trail_mark = trail_.size();
      bool ok = true;
      for (int i = 0; i < g.arity() && ok; ++i) {
        const int slot = e.slots[static_cast<std::size_t>(i)];
        const Term st = s.term(i);
        if (slot < 0) {
          ok = (g.term(i) == st);
        } else if (bound_[static_cast<std::size_t>(slot)]) {
          ok = (binding_[static_cast<std::size_t>(slot)] == st);
        } else {
          bound_[static_cast<std::size_t>(slot)] = 1;
          binding_[static_cast<std::size_t>(slot)] = st;
          trail_.push_back(slot);
        }
      }
      if (ok && MatchAtom(index + 1)) return true;
      while (trail_.size() > trail_mark) {
        bound_[static_cast<std::size_t>(trail_.back())] = 0;
        trail_.pop_back();
      }
    }
    return false;
  }

  const ConjunctiveQuery& general_;
  const ConjunctiveQuery& specific_;
  const CqMatchContext& context_;
  std::vector<VariableId> var_ids_;
  std::vector<EncodedAtom> encoded_;
  std::vector<std::size_t> order_;
  std::vector<Term> binding_;
  std::vector<char> bound_;
  std::vector<int> trail_;
};

std::uint64_t MixSignature(std::uint64_t h, std::uint64_t v) {
  v *= 0x9e3779b97f4a7c15ULL;
  v ^= v >> 29;
  return h + v;  // Commutative: multiset semantics.
}

}  // namespace

CqMatchContext BuildMatchContext(const ConjunctiveQuery& cq) {
  CqMatchContext context;
  for (std::size_t i = 0; i < cq.body().size(); ++i) {
    context.buckets[cq.body()[i].predicate()].push_back(i);
  }
  return context;
}

bool CqSubsumes(const ConjunctiveQuery& general,
                const ConjunctiveQuery& specific) {
  return HomomorphismFinder(general, specific, BuildMatchContext(specific))
      .Find();
}

bool CqSubsumes(const ConjunctiveQuery& general,
                const ConjunctiveQuery& specific,
                const CqMatchContext& specific_context) {
  return HomomorphismFinder(general, specific, specific_context).Find();
}

bool CqEquivalent(const ConjunctiveQuery& a, const ConjunctiveQuery& b) {
  return CqSubsumes(a, b) && CqSubsumes(b, a);
}

ConjunctiveQuery MinimizeCq(const ConjunctiveQuery& cq) {
  ConjunctiveQuery current = cq;
  // Single forward pass. If atom e cannot be dropped from the current
  // query Q, it can never be dropped from a later retract Q' ⊆ Q: a
  // retraction Q' -> Q'\{e} composes with the chain of earlier drop
  // retractions Q -> Q' into a homomorphism Q -> Q\{e}, i.e. e would
  // have been droppable already. So no restart after a drop — the pass
  // stays at the same index (the next atom shifted into it) and the
  // result is identical to the restart-scanning version at O(n) fewer
  // homomorphism rounds.
  std::size_t drop = 0;
  while (current.body().size() > 1 && drop < current.body().size()) {
    std::vector<Atom> smaller_body;
    smaller_body.reserve(current.body().size() - 1);
    for (std::size_t i = 0; i < current.body().size(); ++i) {
      if (i != drop) smaller_body.push_back(current.body()[i]);
    }
    ConjunctiveQuery candidate(current.answer_terms(),
                               std::move(smaller_body));
    // Dropping an atom relaxes the query; it stays equivalent iff
    // ans(candidate) ⊆ ans(current), i.e. current maps into candidate.
    if (candidate.Validate().ok() &&  // Else: lost an answer variable.
        CqSubsumes(current, candidate)) {
      current = std::move(candidate);
    } else {
      ++drop;
    }
  }
  return current;
}

CqSignature ComputeCqSignature(const ConjunctiveQuery& cq) {
  CqSignature signature;
  signature.body_atoms = static_cast<int>(cq.body().size());
  signature.predicates.reserve(cq.body().size());
  for (const Atom& atom : cq.body()) {
    const std::uint64_t token =
        (static_cast<std::uint64_t>(atom.predicate()) << 8) |
        (static_cast<std::uint64_t>(atom.arity()) & 0xff);
    std::uint64_t bit = token * 0x9e3779b97f4a7c15ULL;
    bit ^= bit >> 29;
    signature.predicate_mask |= 1ULL << (bit & 63);
    signature.multiset_hash = MixSignature(signature.multiset_hash, token);
    signature.predicates.push_back(atom.predicate());
  }
  std::sort(signature.predicates.begin(), signature.predicates.end());
  signature.predicates.erase(
      std::unique(signature.predicates.begin(), signature.predicates.end()),
      signature.predicates.end());
  return signature;
}

StatusOr<UnionOfCqs> MinimizeUcq(const UnionOfCqs& ucq,
                                 const MinimizeUcqOptions& options) {
  const std::size_t n = ucq.disjuncts().size();
  auto check = [&options] {
    OREW_RETURN_IF_ERROR(options.cancel.Check("ucq minimization"));
    return CheckFaultPoint("rewrite.step");
  };

  // Phase a: per-disjunct minimization (optional).
  std::vector<ConjunctiveQuery> minimized;
  std::vector<CqSignature> signatures;
  std::vector<CqMatchContext> contexts;
  minimized.reserve(n);
  signatures.reserve(n);
  contexts.reserve(n);
  for (const ConjunctiveQuery& cq : ucq.disjuncts()) {
    OREW_RETURN_IF_ERROR(check());
    minimized.push_back(options.minimize_disjuncts ? MinimizeCq(cq) : cq);
    signatures.push_back(ComputeCqSignature(minimized.back()));
    contexts.push_back(BuildMatchContext(minimized.back()));
  }

  // Phase b: pairwise subsumption verdicts. A disjunct is dead iff another
  // disjunct strictly subsumes it, or an equivalent disjunct with a
  // smaller index exists — so every verdict reads only the minimized
  // disjuncts, never another verdict. (Plain "some i subsumes j" would
  // erase *both* members of an equivalent pair.)
  std::vector<char> dead(n, 0);
  for (std::size_t j = 0; j < n; ++j) {
    OREW_RETURN_IF_ERROR(check());
    for (std::size_t i = 0; i < n; ++i) {
      if (i == j) continue;
      if (!SignatureMaySubsume(signatures[i], signatures[j])) continue;
      if (!CqSubsumes(minimized[i], minimized[j], contexts[j])) continue;
      if (!CqSubsumes(minimized[j], minimized[i], contexts[i]) || i < j) {
        dead[j] = 1;
        break;
      }
    }
  }

  UnionOfCqs result;
  for (std::size_t i = 0; i < n; ++i) {
    if (!dead[i]) result.Add(std::move(minimized[i]));
  }
  return result;
}

}  // namespace ontorew
