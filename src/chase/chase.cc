#include "chase/chase.h"

#include <algorithm>
#include <cstdint>
#include <unordered_set>
#include <utility>
#include <vector>

#include "base/fault_point.h"
#include "base/strings.h"
#include "db/eval.h"

namespace ontorew {
namespace {

// A TGD laid out over slots (see SlotView): triggers are matches of the
// body, and the head is instantiated through the head's own slots.
struct RuleSlots {
  explicit RuleSlots(const Tgd& tgd) {
    const std::vector<VariableId> body = DistinctVariables(tgd.body());
    const std::vector<VariableId> head = DistinctVariables(tgd.head());
    const auto slot_of = [](const std::vector<VariableId>& vars,
                            VariableId v) {
      auto it = std::find(vars.begin(), vars.end(), v);
      return it == vars.end() ? -1 : static_cast<int>(it - vars.begin());
    };
    body_slots = body.size();
    head_slots = head.size();
    for (std::size_t h = 0; h < head.size(); ++h) {
      const int b = slot_of(body, head[h]);
      if (b < 0) {
        existentials.push_back(static_cast<int>(h));
      } else {
        frontier.push_back({static_cast<int>(h), b});
      }
    }
    for (const Atom& atom : tgd.head()) {
      for (Term t : atom.terms()) {
        head_term_slots.push_back(t.is_constant() ? -1
                                                  : slot_of(head, t.id()));
      }
    }
  }

  std::size_t body_slots = 0;
  std::size_t head_slots = 0;
  // Each frontier variable as (head slot, body slot).
  std::vector<std::pair<int, int>> frontier;
  std::vector<int> existentials;  // Head slots of existential variables.
  // The head slot of every head term (-1 for constants), atom after atom.
  std::vector<int> head_term_slots;
};

// Instantiates the head of `tgd` under the body match `trigger`,
// inventing one fresh null per existential head variable, and inserts
// the atoms into `db`. Returns true if any tuple was new. `*head` is
// reusable scratch for the head's slots.
bool ApplyTrigger(const Tgd& tgd, const RuleSlots& rule, SlotView trigger,
                  std::vector<Value>* head, Database* db) {
  head->resize(rule.head_slots);
  for (const auto& [head_slot, body_slot] : rule.frontier) {
    (*head)[static_cast<std::size_t>(head_slot)] =
        trigger[static_cast<std::size_t>(body_slot)];
  }
  for (int h : rule.existentials) {
    (*head)[static_cast<std::size_t>(h)] = db->FreshNull();
  }
  bool inserted = false;
  const int* slot = rule.head_term_slots.data();
  for (const Atom& atom : tgd.head()) {
    Tuple tuple;
    tuple.reserve(atom.terms().size());
    for (Term t : atom.terms()) {
      const int s = *slot++;
      tuple.push_back(s < 0 ? Value::Constant(t.id())
                            : (*head)[static_cast<std::size_t>(s)]);
    }
    if (db->Insert(atom.predicate(), std::move(tuple))) inserted = true;
  }
  return inserted;
}

// Whether the head of `tgd` is satisfied in `db` under the frontier part
// of `trigger` (restricted-chase applicability test), or the error that
// aborted the check. `*frontier` is reusable scratch.
StatusOr<bool> HeadSatisfied(const Tgd& tgd, const RuleSlots& rule,
                             SlotView trigger, const Database& db,
                             const CancelScope& cancel,
                             std::vector<SlotBinding>* frontier) {
  frontier->clear();
  for (const auto& [head_slot, body_slot] : rule.frontier) {
    frontier->push_back(
        {head_slot, trigger[static_cast<std::size_t>(body_slot)]});
  }
  bool satisfied = false;
  OREW_RETURN_IF_ERROR(ForEachMatch(tgd.head(), db, *frontier, cancel,
                                    nullptr, [&satisfied](SlotView) {
                                      satisfied = true;
                                      return false;  // One match suffices.
                                    }));
  return satisfied;
}

}  // namespace

ChaseResult RunChase(const TgdProgram& program, const Database& input,
                     const ChaseOptions& options) {
  ChaseResult result;
  result.db = input;

  // Oblivious-chase trigger log, per rule: a trigger is identified by its
  // whole body match.
  std::vector<std::unordered_set<Tuple, TupleHash>> fired(
      static_cast<std::size_t>(program.size()));
  std::vector<RuleSlots> rules;
  rules.reserve(static_cast<std::size_t>(program.size()));
  for (const Tgd& tgd : program.tgds()) rules.emplace_back(tgd);
  std::vector<Value> triggers;        // One rule's triggers, row by row.
  std::vector<SlotBinding> frontier;  // Scratch for HeadSatisfied.
  std::vector<Value> head;            // Scratch for ApplyTrigger.
  bool capped = false;

  for (int round = 0; round < options.max_rounds; ++round) {
    TraceSpan round_span(options.trace, "chase.round");
    round_span.Attr("round", static_cast<std::int64_t>(round));
    const int applications_before = result.applications;
    bool changed = false;
    for (int r = 0; r < program.size() && !capped; ++r) {
      const Tgd& tgd = program.tgd(r);
      const RuleSlots& rule = rules[static_cast<std::size_t>(r)];
      // Materialize this rule's triggers on the current instance before
      // applying any of them (breadth-first rounds), as rows of body
      // slots. The trigger search itself scans the growing instance, so
      // it runs under the cancel scope too.
      triggers.clear();
      std::size_t num_triggers = 0;
      result.status = ForEachMatch(tgd.body(), result.db, {}, options.cancel,
                                   nullptr, [&](SlotView match) {
                                     triggers.insert(triggers.end(),
                                                     match.begin(),
                                                     match.end());
                                     ++num_triggers;
                                     return true;
                                   });
      if (!result.status.ok()) {
        round_span.AnnotateStatus(result.status);
        return result;
      }
      for (std::size_t i = 0; i < num_triggers; ++i) {
        const SlotView trigger(triggers.data() + i * rule.body_slots,
                               rule.body_slots);
        result.status = options.cancel.Check("chase step");
        if (result.status.ok()) result.status = CheckFaultPoint("chase.step");
        if (!result.status.ok()) {
          round_span.AnnotateStatus(result.status);
          return result;
        }
        if (options.variant == ChaseOptions::Variant::kOblivious) {
          if (!fired[static_cast<std::size_t>(r)]
                   .emplace(trigger.begin(), trigger.end())
                   .second) {
            continue;
          }
        } else {
          StatusOr<bool> satisfied = HeadSatisfied(
              tgd, rule, trigger, result.db, options.cancel, &frontier);
          if (!satisfied.ok()) {
            result.status = satisfied.status();
            round_span.AnnotateStatus(result.status);
            return result;
          }
          if (*satisfied) continue;
        }
        ++result.applications;
        if (ApplyTrigger(tgd, rule, trigger, &head, &result.db)) {
          changed = true;
        }
        if (result.db.TotalTuples() > options.max_tuples) {
          capped = true;
          break;
        }
      }
    }
    round_span.Attr("applications", static_cast<std::int64_t>(
                                        result.applications -
                                        applications_before));
    round_span.Attr("tuples",
                    static_cast<std::int64_t>(result.db.TotalTuples()));
    result.rounds = round + 1;
    if (!changed) {
      result.terminated = !capped;
      return result;
    }
    if (capped) break;
  }
  result.terminated = false;
  return result;
}

StatusOr<std::vector<Tuple>> CertainAnswersViaChase(
    const UnionOfCqs& query, const TgdProgram& program, const Database& input,
    const ChaseOptions& options) {
  TraceSpan run_span(options.trace, "chase.run");
  ChaseOptions run_options = options;
  run_options.trace = run_span.context();  // Rounds nest under chase.run.
  ChaseResult chase = RunChase(program, input, run_options);
  run_span.Attr("rounds", static_cast<std::int64_t>(chase.rounds));
  run_span.Attr("applications",
                static_cast<std::int64_t>(chase.applications));
  run_span.Attr("tuples", static_cast<std::int64_t>(chase.db.TotalTuples()));
  run_span.Attr("terminated", chase.terminated ? "true" : "false");
  run_span.AnnotateStatus(chase.status);
  run_span.End();
  if (!chase.status.ok()) return chase.status;  // Interrupted, not capped.
  if (!chase.terminated) {
    return ResourceExhaustedError(
        StrCat("chase did not reach a fixpoint within ", chase.rounds,
               " rounds / ", chase.db.TotalTuples(), " tuples"));
  }
  TraceSpan eval_span(options.trace, "chase.eval");
  EvalOptions eval_options;
  eval_options.drop_tuples_with_nulls = true;
  eval_options.cancel = options.cancel;
  StatusOr<std::vector<Tuple>> answers =
      TryEvaluate(query, chase.db, eval_options);
  if (answers.ok()) {
    eval_span.Attr("rows", static_cast<std::int64_t>(answers.value().size()));
  } else {
    eval_span.AnnotateStatus(answers.status());
  }
  return answers;
}

}  // namespace ontorew
