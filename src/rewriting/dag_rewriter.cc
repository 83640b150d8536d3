#include "rewriting/dag_rewriter.h"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <limits>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "base/strings.h"
#include "base/trace.h"
#include "logic/canonical.h"

namespace ontorew {
namespace {

using Clock = std::chrono::steady_clock;

std::int64_t NsSince(Clock::time_point start) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              start)
      .count();
}

// Multiplies saturating at INT64_MAX: the implied flat size of the
// product workload overflows a 32-bit count by design.
std::int64_t SatMul(std::int64_t a, std::int64_t b) {
  if (a != 0 && b > std::numeric_limits<std::int64_t>::max() / a) {
    return std::numeric_limits<std::int64_t>::max();
  }
  return a * b;
}

std::int64_t SatAdd(std::int64_t a, std::int64_t b) {
  if (b > std::numeric_limits<std::int64_t>::max() - a) {
    return std::numeric_limits<std::int64_t>::max();
  }
  return a + b;
}

// Backward-reachable predicate spaces: Reach(p) is p plus, transitively,
// the body predicates of every rule whose head predicate is reachable —
// exactly the predicates a rewriting step can introduce for an atom over
// p. Memoized per predicate; the walks are trivial next to a saturation.
class ReachIndex {
 public:
  explicit ReachIndex(const TgdProgram& program) : program_(program) {
    const auto& tgds = program.tgds();
    for (std::size_t i = 0; i < tgds.size(); ++i) {
      rules_by_head_[tgds[i].head()[0].predicate()].push_back(
          static_cast<int>(i));
    }
  }

  const std::unordered_set<PredicateId>& Reach(PredicateId p) {
    auto it = memo_.find(p);
    if (it != memo_.end()) return it->second;
    std::unordered_set<PredicateId> reach{p};
    std::vector<PredicateId> frontier{p};
    while (!frontier.empty()) {
      const PredicateId cur = frontier.back();
      frontier.pop_back();
      auto rules = rules_by_head_.find(cur);
      if (rules == rules_by_head_.end()) continue;
      for (int rule : rules->second) {
        for (const Atom& beta :
             program_.tgds()[static_cast<std::size_t>(rule)].body()) {
          if (reach.insert(beta.predicate()).second) {
            frontier.push_back(beta.predicate());
          }
        }
      }
    }
    return memo_.emplace(p, std::move(reach)).first->second;
  }

  // Gate G2: every rule whose head predicate lies in `reach` must have a
  // simple head (no constants, no repeated variables) — only then do
  // rewriting steps leave query-side terms untouched, which is what lets
  // per-group derivations compose into the full CQ's.
  bool AllReachableHeadsSimple(const std::unordered_set<PredicateId>& reach) {
    for (PredicateId p : reach) {
      auto rules = rules_by_head_.find(p);
      if (rules == rules_by_head_.end()) continue;
      for (int rule : rules->second) {
        const Atom& head =
            program_.tgds()[static_cast<std::size_t>(rule)].head()[0];
        if (head.HasConstant() || head.HasRepeatedVariable()) return false;
      }
    }
    return true;
  }

 private:
  const TgdProgram& program_;
  std::unordered_map<PredicateId, std::vector<int>> rules_by_head_;
  std::unordered_map<PredicateId, std::unordered_set<PredicateId>> memo_;
};

bool SetsIntersect(const std::unordered_set<PredicateId>& a,
                   const std::unordered_set<PredicateId>& b) {
  const auto& small = a.size() <= b.size() ? a : b;
  const auto& large = a.size() <= b.size() ? b : a;
  for (PredicateId p : small) {
    if (large.count(p) != 0) return true;
  }
  return false;
}

bool VarSetsIntersect(const std::unordered_set<VariableId>& a,
                      const std::unordered_set<VariableId>& b) {
  const auto& small = a.size() <= b.size() ? a : b;
  const auto& large = a.size() <= b.size() ? b : a;
  for (VariableId v : small) {
    if (large.count(v) != 0) return true;
  }
  return false;
}

// One independent subgoal group of a disjunct.
struct Group {
  std::vector<int> atoms;  // Indices into the disjunct body, ascending.
  // Interface variables — answer variables and variables shared with
  // other groups — in first-occurrence order over the group's atoms.
  std::vector<VariableId> interface;
};

// The finest partition in which atoms sharing a variable AND overlapping
// in reach space stay together, iterated at group granularity: merging
// two groups unions their variables and reach sets, which can connect
// them to a third. Quadratic in the body size, which is single digits.
std::vector<Group> DecomposeDisjunct(const ConjunctiveQuery& cq,
                                     ReachIndex* reach_index) {
  const auto& body = cq.body();
  const int n = static_cast<int>(body.size());
  std::vector<int> parent(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) parent[static_cast<std::size_t>(i)] = i;
  auto find = [&parent](int x) {
    while (parent[static_cast<std::size_t>(x)] != x) {
      x = parent[static_cast<std::size_t>(x)] =
          parent[static_cast<std::size_t>(parent[static_cast<std::size_t>(
              x)])];
    }
    return x;
  };

  std::vector<std::unordered_set<VariableId>> vars(
      static_cast<std::size_t>(n));
  std::vector<std::unordered_set<PredicateId>> reach(
      static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    const Atom& atom = body[static_cast<std::size_t>(i)];
    for (Term t : atom.terms()) {
      if (t.is_variable()) vars[static_cast<std::size_t>(i)].insert(t.id());
    }
    reach[static_cast<std::size_t>(i)] = reach_index->Reach(atom.predicate());
  }

  bool changed = true;
  while (changed) {
    changed = false;
    for (int i = 0; i < n; ++i) {
      const int ri = find(i);
      for (int j = i + 1; j < n; ++j) {
        const int rj = find(j);
        if (ri == rj) continue;
        if (!VarSetsIntersect(vars[static_cast<std::size_t>(ri)],
                              vars[static_cast<std::size_t>(rj)])) {
          continue;
        }
        if (!SetsIntersect(reach[static_cast<std::size_t>(ri)],
                           reach[static_cast<std::size_t>(rj)])) {
          continue;
        }
        // Merge rj into ri, folding the aggregate sets.
        parent[static_cast<std::size_t>(rj)] = ri;
        auto& vi = vars[static_cast<std::size_t>(ri)];
        for (VariableId v : vars[static_cast<std::size_t>(rj)]) vi.insert(v);
        auto& pi = reach[static_cast<std::size_t>(ri)];
        for (PredicateId p : reach[static_cast<std::size_t>(rj)]) {
          pi.insert(p);
        }
        changed = true;
      }
    }
  }

  // Groups ordered by their first atom; atoms ascending within a group.
  std::unordered_map<int, int> group_of_root;
  std::vector<Group> groups;
  std::vector<int> group_of_atom(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    const int root = find(i);
    auto it = group_of_root.find(root);
    if (it == group_of_root.end()) {
      it = group_of_root.emplace(root, static_cast<int>(groups.size())).first;
      groups.emplace_back();
    }
    groups[static_cast<std::size_t>(it->second)].atoms.push_back(i);
    group_of_atom[static_cast<std::size_t>(i)] = it->second;
  }

  // Interface: a variable is interface iff it is an answer variable or
  // occurs in an atom of another group. First-occurrence order over the
  // group's own atoms makes the subquery deterministic.
  for (Group& group : groups) {
    std::unordered_set<VariableId> seen;
    for (int a : group.atoms) {
      for (Term t : body[static_cast<std::size_t>(a)].terms()) {
        if (!t.is_variable() || !seen.insert(t.id()).second) continue;
        bool interface = cq.IsAnswerVariable(t.id());
        if (!interface) {
          for (int other = 0; other < n && !interface; ++other) {
            if (group_of_atom[static_cast<std::size_t>(other)] ==
                group_of_atom[static_cast<std::size_t>(group.atoms[0])]) {
              continue;
            }
            interface =
                body[static_cast<std::size_t>(other)].ContainsVariable(
                    t.id());
          }
        }
        if (interface) group.interface.push_back(t.id());
      }
    }
  }
  return groups;
}

// Gate G3: an aux rule head (and an inline substitution) needs the
// disjunct to answer with the identity tuple Var(0)..Var(arity-1) —
// canonicalization produces exactly that when the answer terms are
// pairwise-distinct variables, so anything else means a factorization
// identified interface variables (or bound one to a constant).
bool IdentityAnswer(const ConjunctiveQuery& cq) {
  for (int i = 0; i < cq.arity(); ++i) {
    const Term t = cq.answer_terms()[static_cast<std::size_t>(i)];
    if (!t.is_variable() || t.id() != i) return false;
  }
  return true;
}

std::int32_t MaxVariableIdOf(const ConjunctiveQuery& cq) {
  std::int32_t max_id = -1;
  auto consider = [&max_id](Term t) {
    if (t.is_variable() && t.id() > max_id) max_id = t.id();
  };
  for (Term t : cq.answer_terms()) consider(t);
  for (const Atom& atom : cq.body()) {
    for (Term t : atom.terms()) consider(t);
  }
  return max_id;
}

// A memoized group (or whole-disjunct) rewriting. The UCQ holds
// RewriteUcq's canonical, minimized disjuncts; the aux index is assigned
// on first multi-disjunct use so every later use site shares it.
struct MemoEntry {
  UnionOfCqs ucq;
  int aux_index = -1;
};

// The reference path: flat RewriteUcq, then FactorUcq — always correct,
// taken when a gate trips or when no disjunct decomposes (there the DAG
// path would be the flat path with extra bookkeeping, and FactorUcq's
// cross-disjunct sharing is strictly better).
StatusOr<DagRewriteResult> FallbackPath(const UnionOfCqs& query,
                                        const TgdProgram& program,
                                        const RewriterOptions& options,
                                        const char* reason) {
  DagRewriteResult result;
  result.fallback = true;
  const auto saturate_start = Clock::now();
  StatusOr<RewriteResult> flat = RewriteUcq(query, program, options);
  result.saturate_ns = NsSince(saturate_start);
  if (!flat.ok()) return flat.status();
  result.generated = flat->generated;
  result.steps = flat->steps;
  result.pruned = flat->pruned;
  result.implied_disjuncts = flat->ucq.size();

  TraceSpan factor_span(options.trace, "factor");
  factor_span.Attr("mode", "flat-fallback");
  factor_span.Attr("gate", reason);
  const auto factor_start = Clock::now();
  StatusOr<DatalogProgram> factored =
      FactorUcq(flat->ucq, options.cancel);
  result.factor_ns = NsSince(factor_start);
  if (!factored.ok()) {
    factor_span.AnnotateStatus(factored.status());
    return factored.status();
  }
  factor_span.Attr("cte_count",
                   static_cast<std::int64_t>(factored->cte_count()));
  factor_span.Attr("rules",
                   static_cast<std::int64_t>(factored->total_rules()));
  factor_span.Attr("disjuncts",
                   static_cast<std::int64_t>(factored->input_disjuncts));
  result.program = std::move(factored).value();
  return result;
}

}  // namespace

StatusOr<DagRewriteResult> RewriteToDatalog(const UnionOfCqs& query,
                                            const TgdProgram& program,
                                            const RewriterOptions& options) {
  if (!program.IsSingleHead()) {
    return FailedPreconditionError(
        "the rewriting engine covers single-head TGDs; normalize multi-head "
        "TGDs first");
  }
  OREW_RETURN_IF_ERROR(query.Validate());
  const TraceContext& trace = options.trace;
  const auto total_start = Clock::now();

  // Phase 1 — decompose every disjunct and check gate G2 on the ones
  // that split. The gates route to the reference path, never to an
  // error: correctness is FallbackPath's job, this path's job is speed.
  ReachIndex reach_index(program);
  std::vector<std::vector<Group>> plans;
  plans.reserve(query.disjuncts().size());
  bool any_multi = false;
  const char* gate = nullptr;
  {
    TraceSpan decompose_span(trace, "decompose");
    int total_groups = 0;
    for (const ConjunctiveQuery& cq : query.disjuncts()) {
      plans.push_back(DecomposeDisjunct(cq, &reach_index));
      const std::vector<Group>& groups = plans.back();
      total_groups += static_cast<int>(groups.size());
      if (groups.size() < 2) continue;
      std::unordered_set<PredicateId> disjunct_reach;
      for (const Atom& atom : cq.body()) {
        const auto& reach = reach_index.Reach(atom.predicate());
        disjunct_reach.insert(reach.begin(), reach.end());
      }
      if (!reach_index.AllReachableHeadsSimple(disjunct_reach)) {
        gate = "non-simple-head";
        break;
      }
      any_multi = true;
    }
    decompose_span.Attr("groups", static_cast<std::int64_t>(total_groups));
    if (gate != nullptr) decompose_span.Attr("gate", gate);
  }
  if (gate != nullptr) return FallbackPath(query, program, options, gate);
  if (!any_multi) return FallbackPath(query, program, options, "no-split");

  // Phase 2 — rewrite groups (memoized on the canonical subquery) and
  // assemble the program. A single-group disjunct is rewritten whole and
  // its disjuncts become output rules verbatim — no interface machinery,
  // so gate G3 never applies to it.
  DagRewriteResult result;
  DatalogProgram prog;
  prog.arity = query.arity();
  std::unordered_map<std::string, MemoEntry> memo;

  // Runs RewriteUcq for a memo miss; pointers into `memo` are stable.
  auto memoized_rewrite =
      [&](const std::string& key,
          const ConjunctiveQuery& subquery) -> StatusOr<MemoEntry*> {
    auto it = memo.find(key);
    if (it != memo.end()) {
      ++result.memo_hits;
      return &it->second;
    }
    TraceSpan group_span(trace, "group");
    group_span.Attr("atoms",
                    static_cast<std::int64_t>(subquery.body().size()));
    RewriterOptions rewriter = options;
    rewriter.trace = group_span.context();
    const auto start = Clock::now();
    StatusOr<RewriteResult> rewritten =
        RewriteUcq(UnionOfCqs(subquery), program, rewriter);
    result.saturate_ns += NsSince(start);
    if (!rewritten.ok()) {
      group_span.AnnotateStatus(rewritten.status());
      return rewritten.status();
    }
    result.generated += rewritten->generated;
    result.steps += rewritten->steps;
    result.pruned += rewritten->pruned;
    group_span.Attr("disjuncts",
                    static_cast<std::int64_t>(rewritten->ucq.size()));
    auto inserted =
        memo.emplace(key, MemoEntry{std::move(rewritten->ucq), -1});
    return &inserted.first->second;
  };

  for (std::size_t d = 0; d < query.disjuncts().size(); ++d) {
    OREW_RETURN_IF_ERROR(options.cancel.Check("dag rewrite"));
    const ConjunctiveQuery& cq = query.disjuncts()[d];
    const std::vector<Group>& groups = plans[d];

    if (groups.size() < 2) {
      // Whole-disjunct rewriting: every result disjunct is an output rule
      // (heads may repeat variables or hold constants — output rules
      // allow both, unlike aux heads).
      const ConjunctiveQuery canonical = CanonicalizeCq(cq);
      OREW_ASSIGN_OR_RETURN(
          MemoEntry * entry,
          memoized_rewrite(StrCat("D|", CanonicalCqKey(canonical)),
                           canonical));
      for (const ConjunctiveQuery& out : entry->ucq.disjuncts()) {
        prog.output.push_back(DatalogRule{out.answer_terms(), out.body()});
      }
      result.implied_disjuncts =
          SatAdd(result.implied_disjuncts, entry->ucq.size());
      result.groups += static_cast<int>(groups.size());
      continue;
    }

    std::vector<Atom> out_body;
    std::int32_t next_fresh = MaxVariableIdOf(cq) + 1;
    std::int64_t implied = 1;
    for (const Group& group : groups) {
      // The group as a subquery: answer = interface, body = group atoms.
      // Canonicalized before rewriting so the memo key and the rewriting
      // are call-site independent; canonical answer position j
      // corresponds to interface[j] (canonicalization preserves answer
      // order).
      std::vector<Term> answer;
      answer.reserve(group.interface.size());
      for (VariableId v : group.interface) answer.push_back(Term::Var(v));
      std::vector<Atom> body;
      body.reserve(group.atoms.size());
      for (int a : group.atoms) {
        body.push_back(cq.body()[static_cast<std::size_t>(a)]);
      }
      const ConjunctiveQuery canonical = CanonicalizeCq(
          ConjunctiveQuery(std::move(answer), std::move(body)));
      OREW_ASSIGN_OR_RETURN(
          MemoEntry * entry,
          memoized_rewrite(StrCat("G|", CanonicalCqKey(canonical)),
                           canonical));

      for (const ConjunctiveQuery& out : entry->ucq.disjuncts()) {
        if (!IdentityAnswer(out)) {
          // Gate G3. The groups rewritten so far are wasted work; rare
          // enough (it takes a surviving interface-merging factorization)
          // that simplicity wins over salvage.
          return FallbackPath(query, program, options,
                              "non-identity-interface");
        }
      }

      const int arity = canonical.arity();
      implied = SatMul(implied, entry->ucq.size());
      if (entry->ucq.size() == 1) {
        // Inline the only disjunct: answer variable j becomes the call
        // site's interface[j], everything else becomes a fresh variable.
        const ConjunctiveQuery& only = entry->ucq.disjuncts()[0];
        std::unordered_map<VariableId, Term> rename;
        for (int j = 0; j < arity; ++j) {
          rename.emplace(j, Term::Var(group.interface[
                                static_cast<std::size_t>(j)]));
        }
        for (const Atom& atom : only.body()) {
          std::vector<Term> terms;
          terms.reserve(atom.terms().size());
          for (Term t : atom.terms()) {
            if (!t.is_variable()) {
              terms.push_back(t);
              continue;
            }
            auto rename_it = rename.find(t.id());
            if (rename_it == rename.end()) {
              rename_it =
                  rename.emplace(t.id(), Term::Var(next_fresh++)).first;
            }
            terms.push_back(rename_it->second);
          }
          out_body.emplace_back(atom.predicate(), std::move(terms));
        }
      } else {
        if (entry->aux_index < 0) {
          entry->aux_index = static_cast<int>(prog.aux.size());
          DatalogAux aux;
          aux.arity = arity;
          aux.rules.reserve(entry->ucq.disjuncts().size());
          for (const ConjunctiveQuery& out : entry->ucq.disjuncts()) {
            aux.rules.push_back(DatalogRule{out.answer_terms(), out.body()});
          }
          prog.aux.push_back(std::move(aux));
        }
        std::vector<Term> args;
        args.reserve(group.interface.size());
        for (VariableId v : group.interface) args.push_back(Term::Var(v));
        out_body.emplace_back(AuxPredicate(entry->aux_index),
                              std::move(args));
      }
    }
    prog.output.push_back(DatalogRule{cq.answer_terms(), std::move(out_body)});
    result.implied_disjuncts = SatAdd(result.implied_disjuncts, implied);
    result.groups += static_cast<int>(groups.size());
  }

  prog.input_disjuncts = static_cast<int>(
      std::min<std::int64_t>(result.implied_disjuncts,
                             std::numeric_limits<int>::max()));

  {
    TraceSpan factor_span(trace, "factor");
    factor_span.Attr("mode", "dag");
    factor_span.Attr("groups", static_cast<std::int64_t>(result.groups));
    factor_span.Attr("memo_hits",
                     static_cast<std::int64_t>(result.memo_hits));
    factor_span.Attr("cte_count", static_cast<std::int64_t>(prog.cte_count()));
    factor_span.Attr("rules", static_cast<std::int64_t>(prog.total_rules()));
    factor_span.Attr("disjuncts",
                     static_cast<std::int64_t>(prog.input_disjuncts));
    const Status valid = prog.Validate();
    if (!valid.ok()) {
      // Belt and braces: the gates above are supposed to make this
      // unreachable, and the reference path is always available.
      factor_span.AnnotateStatus(valid);
      return FallbackPath(query, program, options, "validate-failed");
    }
  }
  result.program = std::move(prog);
  result.factor_ns = NsSince(total_start) - result.saturate_ns;
  if (result.factor_ns < 0) result.factor_ns = 0;
  return result;
}

}  // namespace ontorew
