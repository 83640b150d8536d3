#include "rewriting/datalog.h"

#include <algorithm>
#include <cstddef>
#include <map>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "base/strings.h"
#include "logic/canonical.h"

namespace ontorew {
namespace {

// Unfolding a factored program recovers exactly the input union, so for
// FactorUcq output this cap can never bite (the rewriter's max_cqs is far
// smaller); it guards hand-built programs whose expansion multiplies out.
constexpr std::size_t kMaxUnfoldedDisjuncts = 1u << 20;

// Factoring proceeds in rounds (factor, then factor the factored program
// again — nested sharing needs several passes); each round strictly
// shrinks the top-level union, so this cap is a backstop.
constexpr int kMaxFactorRounds = 32;

std::string AuxDisplayName(int index) { return StrCat("orw", index); }

// The largest variable id used anywhere in `program`, or -1.
VariableId MaxVariableId(const DatalogProgram& program) {
  VariableId max_id = -1;
  auto scan_terms = [&max_id](const std::vector<Term>& terms) {
    for (const Term& t : terms) {
      if (t.is_variable() && t.id() > max_id) max_id = t.id();
    }
  };
  auto scan_rule = [&](const DatalogRule& rule) {
    scan_terms(rule.head);
    for (const Atom& atom : rule.body) scan_terms(atom.terms());
  };
  for (const DatalogAux& aux : program.aux) {
    for (const DatalogRule& rule : aux.rules) scan_rule(rule);
  }
  for (const DatalogRule& rule : program.output) scan_rule(rule);
  return max_id;
}

// ---------------------------------------------------------------------------
// Factoring.

// A candidate factoring site: one region (connected set of body atoms
// closed under variables that occur nowhere outside it) of one disjunct,
// keyed by the canonical form of the REST of the disjunct with the region
// replaced by a placeholder atom over the region's interface variables.
// Two sites with equal keys have isomorphic contexts, so replacing both
// regions by one aux predicate that unions their region bodies unfolds
// back to exactly the two original disjuncts — no cross terms.
struct FactorSite {
  int disjunct = 0;
  std::vector<int> region;            // Body atom indices, sorted.
  std::vector<VariableId> interface;  // Head of the extracted rule.
  std::string context_key;
};

// Grows regions of `cq`: each seed atom absorbs, one atom at a time, any
// atom that is the unique remaining outside occurrence of one of the
// region's existential variables. This pulls a subgoal's private helper
// atoms (e.g. `teaches(X,C), course(C)` from unfolding person(X)) into
// one region while refusing to cross hub variables shared by several
// context atoms. Regions that cover the whole body are useless for
// factoring (the "shared part" would be the entire disjunct) and are
// dropped; duplicates from different seeds are deduplicated.
std::vector<std::vector<int>> GrowRegions(const ConjunctiveQuery& cq) {
  const std::vector<Atom>& body = cq.body();
  const int n = static_cast<int>(body.size());
  std::unordered_map<VariableId, std::vector<int>> occurrences;
  for (int i = 0; i < n; ++i) {
    for (const Term& t : body[i].terms()) {
      if (!t.is_variable()) continue;
      std::vector<int>& occ = occurrences[t.id()];
      if (occ.empty() || occ.back() != i) occ.push_back(i);
    }
  }
  std::unordered_set<VariableId> answer_vars;
  for (VariableId v : cq.AnswerVariables()) answer_vars.insert(v);

  std::vector<std::vector<int>> regions;
  std::unordered_set<std::string> seen;
  for (int seed = 0; seed < n; ++seed) {
    std::vector<bool> in_region(n, false);
    in_region[seed] = true;
    int size = 1;
    bool grew = true;
    while (grew) {
      grew = false;
      for (int i = 0; i < n && !grew; ++i) {
        if (!in_region[i]) continue;
        for (const Term& t : body[i].terms()) {
          if (!t.is_variable() || answer_vars.count(t.id()) != 0) continue;
          int missing = -1;
          int missing_count = 0;
          for (int j : occurrences[t.id()]) {
            if (!in_region[j]) {
              missing = j;
              ++missing_count;
            }
          }
          if (missing_count == 1) {
            in_region[missing] = true;
            ++size;
            grew = true;
            break;
          }
        }
      }
    }
    if (size >= n) continue;  // Whole body: nothing left to share against.
    std::vector<int> region;
    region.reserve(size);
    for (int i = 0; i < n; ++i) {
      if (in_region[i]) region.push_back(i);
    }
    std::string key = StrJoin(region, ",");
    if (seen.insert(std::move(key)).second) regions.push_back(std::move(region));
  }
  return regions;
}

// Interface variables of a region: region variables that are answer
// variables or occur in some atom outside the region, in first-occurrence
// order over the region's atoms. These become the head of the extracted
// aux rule and the arguments of the replacing aux atom, so the order only
// has to be a deterministic function of the disjunct — the grouping key
// carries it positionally through the placeholder atom.
std::vector<VariableId> RegionInterface(const ConjunctiveQuery& cq,
                                        const std::vector<int>& region) {
  std::unordered_set<int> region_set(region.begin(), region.end());
  std::unordered_set<VariableId> outside;
  for (VariableId v : cq.AnswerVariables()) outside.insert(v);
  for (std::size_t i = 0; i < cq.body().size(); ++i) {
    if (region_set.count(static_cast<int>(i)) != 0) continue;
    for (const Term& t : cq.body()[i].terms()) {
      if (t.is_variable()) outside.insert(t.id());
    }
  }
  std::vector<VariableId> interface;
  std::unordered_set<VariableId> taken;
  for (int i : region) {
    for (const Term& t : cq.body()[i].terms()) {
      if (!t.is_variable() || outside.count(t.id()) == 0) continue;
      if (taken.insert(t.id()).second) interface.push_back(t.id());
    }
  }
  return interface;
}

// The disjunct with `region` replaced by `replacement` (appended after
// the surviving context atoms, preserving their order).
ConjunctiveQuery ReplaceRegion(const ConjunctiveQuery& cq,
                               const std::vector<int>& region,
                               Atom replacement) {
  std::unordered_set<int> region_set(region.begin(), region.end());
  std::vector<Atom> body;
  body.reserve(cq.body().size() - region.size() + 1);
  for (std::size_t i = 0; i < cq.body().size(); ++i) {
    if (region_set.count(static_cast<int>(i)) == 0) body.push_back(cq.body()[i]);
  }
  body.push_back(std::move(replacement));
  return ConjunctiveQuery(cq.answer_terms(), std::move(body));
}

// The extracted rule of a site, as a canonical CQ whose answer tuple is
// the interface (head variables become 0..arity-1).
ConjunctiveQuery SiteRule(const ConjunctiveQuery& cq, const FactorSite& site) {
  std::vector<Term> head;
  head.reserve(site.interface.size());
  for (VariableId v : site.interface) head.push_back(Term::Var(v));
  std::vector<Atom> body;
  body.reserve(site.region.size());
  for (int i : site.region) body.push_back(cq.body()[i]);
  return CanonicalizeCq(ConjunctiveQuery(std::move(head), std::move(body)));
}

// Deduplicates isomorphic disjuncts in place (stable, first wins).
void DedupeDisjuncts(std::vector<ConjunctiveQuery>* disjuncts) {
  std::unordered_set<std::string> seen;
  std::vector<ConjunctiveQuery> kept;
  kept.reserve(disjuncts->size());
  for (ConjunctiveQuery& cq : *disjuncts) {
    if (seen.insert(CanonicalCqKey(cq)).second) kept.push_back(std::move(cq));
  }
  *disjuncts = std::move(kept);
}

}  // namespace

int DatalogProgram::total_rules() const {
  int total = static_cast<int>(output.size());
  for (const DatalogAux& a : aux) total += static_cast<int>(a.rules.size());
  return total;
}

Status DatalogProgram::Validate() const {
  if (output.empty()) {
    return InvalidArgumentError("datalog program has no output rules");
  }
  auto check_rule = [this](const DatalogRule& rule, int max_aux,
                           bool head_is_aux) -> Status {
    if (rule.body.empty()) {
      return InvalidArgumentError("datalog rule has an empty body");
    }
    std::unordered_set<VariableId> body_vars;
    for (const Atom& atom : rule.body) {
      if (IsAuxPredicate(atom.predicate())) {
        const int index = AuxIndex(atom.predicate());
        if (index < 0 || index >= max_aux) {
          return InvalidArgumentError(
              StrCat("aux reference ", index, " breaks stratification (max ",
                     max_aux, ")"));
        }
        if (atom.arity() != aux[static_cast<std::size_t>(index)].arity) {
          return InvalidArgumentError(
              StrCat("aux atom arity mismatch for orw", index));
        }
      }
      for (const Term& t : atom.terms()) {
        if (t.is_variable()) body_vars.insert(t.id());
      }
    }
    std::unordered_set<VariableId> head_vars;
    for (const Term& t : rule.head) {
      if (t.is_constant()) {
        if (head_is_aux) {
          return InvalidArgumentError("aux rule head contains a constant");
        }
        continue;
      }
      if (head_is_aux && !head_vars.insert(t.id()).second) {
        return InvalidArgumentError("aux rule head repeats a variable");
      }
      if (body_vars.count(t.id()) == 0) {
        return InvalidArgumentError("unsafe datalog rule: head variable "
                                    "missing from body");
      }
    }
    return Status::Ok();
  };
  for (std::size_t k = 0; k < aux.size(); ++k) {
    if (aux[k].rules.empty()) {
      return InvalidArgumentError(StrCat("aux predicate orw", k, " has no "
                                         "rules"));
    }
    for (const DatalogRule& rule : aux[k].rules) {
      if (rule.arity() != aux[k].arity) {
        return InvalidArgumentError(StrCat("rule arity mismatch in orw", k));
      }
      OREW_RETURN_IF_ERROR(
          check_rule(rule, static_cast<int>(k), /*head_is_aux=*/true));
    }
  }
  for (const DatalogRule& rule : output) {
    if (rule.arity() != arity) {
      return InvalidArgumentError("output rule arity mismatch");
    }
    OREW_RETURN_IF_ERROR(check_rule(rule, static_cast<int>(aux.size()),
                                    /*head_is_aux=*/false));
  }
  return Status::Ok();
}

StatusOr<DatalogProgram> FactorUcq(const UnionOfCqs& ucq,
                                   const CancelScope& cancel) {
  OREW_RETURN_IF_ERROR(ucq.Validate());

  DatalogProgram program;
  program.arity = ucq.arity();
  program.input_disjuncts = ucq.size();

  std::vector<ConjunctiveQuery> work = ucq.disjuncts();
  DedupeDisjuncts(&work);

  // Global aux registry: the signature (sorted canonical rule keys +
  // arity) of an aux predicate's rule set maps to its index, so the same
  // alternative-set created from different slots or rounds — person(X)'s
  // ten unfoldings appearing in three join positions — is ONE aux.
  std::map<std::string, int> aux_by_signature;

  for (int round = 0; round < kMaxFactorRounds; ++round) {
    OREW_RETURN_IF_ERROR(cancel.Check("datalog factoring"));

    // Collect factoring sites across all disjuncts and group by context.
    std::map<std::string, std::vector<FactorSite>> groups;
    for (std::size_t d = 0; d < work.size(); ++d) {
      for (std::vector<int>& region : GrowRegions(work[d])) {
        FactorSite site;
        site.disjunct = static_cast<int>(d);
        site.interface = RegionInterface(work[d], region);
        site.region = std::move(region);
        std::vector<Term> placeholder_terms;
        placeholder_terms.reserve(site.interface.size());
        for (VariableId v : site.interface) {
          placeholder_terms.push_back(Term::Var(v));
        }
        const ConjunctiveQuery context = ReplaceRegion(
            work[d], site.region,
            Atom(kDatalogPlaceholder, std::move(placeholder_terms)));
        site.context_key = CanonicalCqKey(context);
        groups[site.context_key].push_back(std::move(site));
      }
    }

    // Largest groups first; each disjunct is rewritten at most once per
    // round, so an early big merge can starve a later overlapping one —
    // the next round sees it again.
    std::vector<const std::vector<FactorSite>*> ordered;
    for (const auto& [key, sites] : groups) {
      if (sites.size() >= 2) ordered.push_back(&sites);
    }
    std::stable_sort(ordered.begin(), ordered.end(),
                     [](const std::vector<FactorSite>* a,
                        const std::vector<FactorSite>* b) {
                       return a->size() > b->size();
                     });

    std::vector<bool> consumed(work.size(), false);
    std::vector<ConjunctiveQuery> merged;
    for (const std::vector<FactorSite>* sites : ordered) {
      std::vector<const FactorSite*> members;
      std::unordered_set<int> member_disjuncts;
      for (const FactorSite& site : *sites) {
        if (consumed[static_cast<std::size_t>(site.disjunct)]) continue;
        if (!member_disjuncts.insert(site.disjunct).second) continue;
        members.push_back(&site);
      }
      if (members.size() < 2) continue;

      // The alternative set this aux unions, canonicalized and deduped.
      std::map<std::string, ConjunctiveQuery> rules;
      for (const FactorSite* site : members) {
        ConjunctiveQuery rule =
            SiteRule(work[static_cast<std::size_t>(site->disjunct)], *site);
        std::string key = CanonicalCqKey(rule);
        rules.emplace(std::move(key), std::move(rule));
      }
      // A single distinct alternative means the members were isomorphic
      // wholesale, which dedup already handles — no sharing to extract.
      if (rules.size() < 2) continue;

      std::string signature =
          StrCat(members.front()->interface.size(), "#");
      for (const auto& [key, rule] : rules) {
        signature += key;
        signature += '|';
      }
      int aux_index;
      auto it = aux_by_signature.find(signature);
      if (it != aux_by_signature.end()) {
        aux_index = it->second;
      } else {
        aux_index = static_cast<int>(program.aux.size());
        DatalogAux aux;
        aux.arity = static_cast<int>(members.front()->interface.size());
        for (const auto& [key, rule] : rules) {
          aux.rules.push_back(DatalogRule{rule.answer_terms(), rule.body()});
        }
        program.aux.push_back(std::move(aux));
        aux_by_signature.emplace(std::move(signature), aux_index);
      }

      // All members share one canonical context, so ONE rewritten
      // disjunct — built from the first member — replaces them all.
      const FactorSite* first = members.front();
      std::vector<Term> call_terms;
      call_terms.reserve(first->interface.size());
      for (VariableId v : first->interface) call_terms.push_back(Term::Var(v));
      merged.push_back(ReplaceRegion(
          work[static_cast<std::size_t>(first->disjunct)], first->region,
          Atom(AuxPredicate(aux_index), std::move(call_terms))));
      for (const FactorSite* site : members) {
        consumed[static_cast<std::size_t>(site->disjunct)] = true;
      }
    }

    if (merged.empty()) break;
    std::vector<ConjunctiveQuery> next;
    next.reserve(work.size());
    for (std::size_t d = 0; d < work.size(); ++d) {
      if (!consumed[d]) next.push_back(std::move(work[d]));
    }
    for (ConjunctiveQuery& cq : merged) next.push_back(std::move(cq));
    DedupeDisjuncts(&next);
    work = std::move(next);
  }

  program.output.reserve(work.size());
  for (ConjunctiveQuery& cq : work) {
    program.output.push_back(
        DatalogRule{cq.answer_terms(), cq.body()});
  }
  // Drop aux predicates no surviving rule references (a merge in a later
  // round can swallow every use of an earlier aux), renumbering atoms.
  std::vector<bool> used(program.aux.size(), false);
  auto mark = [&used](const std::vector<Atom>& body) {
    for (const Atom& atom : body) {
      if (IsAuxPredicate(atom.predicate())) {
        used[static_cast<std::size_t>(AuxIndex(atom.predicate()))] = true;
      }
    }
  };
  for (const DatalogRule& rule : program.output) mark(rule.body);
  for (std::size_t k = program.aux.size(); k-- > 0;) {
    if (!used[k]) continue;
    for (const DatalogRule& rule : program.aux[k].rules) mark(rule.body);
  }
  std::vector<int> remap(program.aux.size(), -1);
  std::vector<DatalogAux> kept;
  const bool dropped_any =
      static_cast<std::size_t>(std::count(used.begin(), used.end(), true)) !=
      program.aux.size();
  for (std::size_t k = 0; k < program.aux.size(); ++k) {
    if (!used[k]) continue;
    remap[k] = static_cast<int>(kept.size());
    kept.push_back(std::move(program.aux[k]));
  }
  program.aux = std::move(kept);
  if (dropped_any) {
    auto renumber = [&remap](std::vector<Atom>* body) {
      for (Atom& atom : *body) {
        if (!IsAuxPredicate(atom.predicate())) continue;
        Atom renamed(
            AuxPredicate(
                remap[static_cast<std::size_t>(AuxIndex(atom.predicate()))]),
            atom.terms());
        atom = std::move(renamed);
      }
    };
    for (DatalogAux& aux : program.aux) {
      for (DatalogRule& rule : aux.rules) renumber(&rule.body);
    }
    for (DatalogRule& rule : program.output) renumber(&rule.body);
  }

  OREW_RETURN_IF_ERROR(program.Validate());
  return program;
}

StatusOr<UnionOfCqs> UnfoldDatalog(const DatalogProgram& program) {
  OREW_RETURN_IF_ERROR(program.Validate());
  VariableId fresh = MaxVariableId(program) + 1;

  UnionOfCqs out;
  for (const DatalogRule& out_rule : program.output) {
    struct Frame {
      std::vector<Atom> body;
      std::size_t next = 0;  // First index that may still hold an aux atom.
    };
    std::vector<Frame> stack;
    stack.push_back(Frame{out_rule.body, 0});
    while (!stack.empty()) {
      Frame frame = std::move(stack.back());
      stack.pop_back();
      std::size_t i = frame.next;
      while (i < frame.body.size() &&
             !IsAuxPredicate(frame.body[i].predicate())) {
        ++i;
      }
      if (i == frame.body.size()) {
        if (out.disjuncts().size() >= kMaxUnfoldedDisjuncts) {
          return ResourceExhaustedError(
              StrCat("unfolding exceeds ", kMaxUnfoldedDisjuncts,
                     " disjuncts"));
        }
        out.Add(ConjunctiveQuery(out_rule.head, std::move(frame.body)));
        continue;
      }
      const Atom call = frame.body[i];
      const DatalogAux& aux =
          program.aux[static_cast<std::size_t>(AuxIndex(call.predicate()))];
      for (const DatalogRule& rule : aux.rules) {
        std::unordered_map<VariableId, Term> rename;
        for (int j = 0; j < rule.arity(); ++j) {
          rename.emplace(rule.head[static_cast<std::size_t>(j)].id(),
                         call.term(j));
        }
        std::vector<Atom> expansion;
        expansion.reserve(rule.body.size());
        for (const Atom& atom : rule.body) {
          std::vector<Term> terms;
          terms.reserve(atom.terms().size());
          for (const Term& t : atom.terms()) {
            if (t.is_constant()) {
              terms.push_back(t);
              continue;
            }
            auto [it, inserted] = rename.emplace(t.id(), Term::Var(fresh));
            if (inserted) ++fresh;
            terms.push_back(it->second);
          }
          expansion.emplace_back(atom.predicate(), std::move(terms));
        }
        Frame next;
        next.body.reserve(frame.body.size() - 1 + expansion.size());
        next.body.insert(next.body.end(), frame.body.begin(),
                         frame.body.begin() + static_cast<std::ptrdiff_t>(i));
        next.body.insert(next.body.end(), expansion.begin(), expansion.end());
        next.body.insert(next.body.end(),
                         frame.body.begin() + static_cast<std::ptrdiff_t>(i) + 1,
                         frame.body.end());
        // The splice may itself contain aux atoms (nested factoring), but
        // only lower-indexed ones — rescanning from i terminates.
        next.next = i;
        stack.push_back(std::move(next));
      }
    }
  }
  OREW_RETURN_IF_ERROR(out.Validate());
  return out;
}

std::string DatalogToString(const DatalogProgram& program,
                            const Vocabulary& vocab) {
  auto term_text = [&vocab](const Term& t) -> std::string {
    if (t.is_constant()) return std::string(vocab.ConstantName(t.id()));
    return std::string(vocab.VariableName(t.id()));
  };
  auto atom_text = [&](const Atom& atom) {
    std::string text = IsAuxPredicate(atom.predicate())
                           ? AuxDisplayName(AuxIndex(atom.predicate()))
                           : std::string(vocab.PredicateName(atom.predicate()));
    text += '(';
    for (int j = 0; j < atom.arity(); ++j) {
      if (j > 0) text += ", ";
      text += term_text(atom.term(j));
    }
    text += ')';
    return text;
  };
  auto rule_text = [&](std::string_view head_name, const DatalogRule& rule) {
    std::string text(head_name);
    text += '(';
    for (std::size_t j = 0; j < rule.head.size(); ++j) {
      if (j > 0) text += ", ";
      text += term_text(rule.head[j]);
    }
    text += ") :- ";
    for (std::size_t j = 0; j < rule.body.size(); ++j) {
      if (j > 0) text += ", ";
      text += atom_text(rule.body[j]);
    }
    text += ".\n";
    return text;
  };
  std::string text;
  for (std::size_t k = 0; k < program.aux.size(); ++k) {
    for (const DatalogRule& rule : program.aux[k].rules) {
      text += rule_text(AuxDisplayName(static_cast<int>(k)), rule);
    }
  }
  for (const DatalogRule& rule : program.output) {
    text += rule_text("q", rule);
  }
  return text;
}

std::string_view RewriteTargetName(RewriteTarget target) {
  switch (target) {
    case RewriteTarget::kUcq:
      return "ucq";
    case RewriteTarget::kCte:
      return "cte";
  }
  return "ucq";
}

}  // namespace ontorew
