#include "db/eval.h"

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory_resource>
#include <numeric>
#include <vector>

#include "base/fault_point.h"
#include "base/logging.h"
#include "base/strings.h"

namespace ontorew {
namespace {

// How a step checks one column of the tuples it visits.
enum class ColumnTag : std::uint8_t {
  kConstant,  // Must equal `constant`; may be the probe column.
  kBound,     // Must equal slot `slot`, bound before this step; may be
              // the probe column.
  kBind,      // Binds slot `slot` (its first occurrence).
  kRepeat,    // Must equal slot `slot`, bound at an earlier column of this
              // same atom — so never the probe column.
};

struct Column {
  ColumnTag tag = ColumnTag::kConstant;
  int slot = -1;
  Value constant;
};

// The value a constant or slot column stands for under `slots`.
Value Resolve(const Column& column, const Value* slots) {
  return column.tag == ColumnTag::kConstant ? column.constant
                                            : slots[column.slot];
}

struct Step {
  const Relation* relation = nullptr;  // nullptr: no tuples.
  std::size_t first_column = 0;        // Into Plan::columns.
  int arity = 0;
};

// A compiled CQ body: steps in execution order over dense variable slots.
// Its storage comes from the caller's PlanMemory.
struct Plan {
  explicit Plan(std::pmr::memory_resource* memory)
      : variables(memory), steps(memory), columns(memory) {}

  std::pmr::vector<VariableId> variables;  // Slot -> variable.
  std::pmr::vector<Step> steps;
  std::pmr::vector<Column> columns;  // Every step's columns, back to back.

  // The slot of `v`, or -1 when it does not occur in the body.
  int SlotOf(VariableId v) const {
    auto it = std::find(variables.begin(), variables.end(), v);
    return it == variables.end() ? -1
                                 : static_cast<int>(it - variables.begin());
  }
};

// Stack storage for one call's plan, slots and compile scratch, so that
// compiling per execution costs no heap allocation for ordinary bodies;
// larger ones spill to the heap.
class PlanMemory : public std::pmr::monotonic_buffer_resource {
 public:
  PlanMemory() : monotonic_buffer_resource(buffer_, sizeof(buffer_)) {}

 private:
  alignas(std::max_align_t) std::byte buffer_[2048];
};

// Compiles `atoms` against `db`, with the slots in `initial` bound before
// the first step. The atom order is greedy: the atom with the most bound
// positions (constants and bound variables, counted per position) goes
// next, ties to the smaller relation, then to the earlier atom.
StatusOr<Plan> CompilePlan(const std::vector<Atom>& atoms, const Database& db,
                           std::span<const SlotBinding> initial,
                           PlanMemory* memory) {
  Plan plan(memory);
  const std::size_t n = atoms.size();
  std::size_t num_terms = 0;
  for (const Atom& atom : atoms) num_terms += atom.terms().size();
  plan.variables.reserve(num_terms);
  std::pmr::vector<const Relation*> relations(memory);
  relations.reserve(n);
  // The slot of every term (-1 for constants), atom after atom.
  std::pmr::vector<int> term_slots(memory);
  term_slots.reserve(num_terms);
  std::pmr::vector<std::size_t> first_term(memory);
  first_term.reserve(n + 1);
  for (const Atom& atom : atoms) {
    first_term.push_back(term_slots.size());
    for (Term t : atom.terms()) {
      int slot = -1;
      if (t.is_variable()) {
        slot = plan.SlotOf(t.id());
        if (slot < 0) {
          slot = static_cast<int>(plan.variables.size());
          plan.variables.push_back(t.id());
        }
      }
      term_slots.push_back(slot);
    }
    // A missing relation means no tuples (the predicate is simply empty
    // in this instance). An arity mismatch, by contrast, is a vocabulary
    // bug upstream — silently returning zero matches would mask it.
    const Relation* relation =
        relations.emplace_back(db.Find(atom.predicate()));
    if (relation != nullptr && relation->arity() != atom.arity()) {
      return InvalidArgumentError(
          StrCat("arity mismatch for predicate #", atom.predicate(),
                 ": relation has arity ", relation->arity(),
                 " but the query atom has arity ", atom.arity()));
    }
  }
  first_term.push_back(term_slots.size());
  const auto slots_of = [&](std::size_t i) {
    return std::span<const int>(term_slots.data() + first_term[i],
                                first_term[i + 1] - first_term[i]);
  };
  const std::size_t num_slots = plan.variables.size();

  // One state per slot, then one "used" flag per atom.
  enum State : std::uint8_t { kFree, kBoundBefore, kBoundHere };
  std::pmr::vector<std::uint8_t> flags(num_slots + n, kFree, memory);
  std::uint8_t* state = flags.data();
  std::uint8_t* used = flags.data() + num_slots;
  for (const SlotBinding& binding : initial) {
    if (binding.slot < 0 || binding.slot >= static_cast<int>(num_slots)) {
      return InvalidArgumentError(StrCat("initial slot ", binding.slot,
                                         " out of range: the atoms have ",
                                         num_slots, " variables"));
    }
    state[binding.slot] = kBoundBefore;
  }

  plan.steps.reserve(n);
  plan.columns.reserve(num_terms);
  for (std::size_t step = 0; step < n; ++step) {
    std::size_t best = n;
    int best_bound = -1;
    long best_size = 0;
    for (std::size_t i = 0; i < n; ++i) {
      if (used[i]) continue;
      int bound = 0;
      for (int slot : slots_of(i)) {
        if (slot < 0 || state[slot] == kBoundBefore) ++bound;
      }
      const long size = relations[i] == nullptr ? 0 : relations[i]->size();
      if (best == n || bound > best_bound ||
          (bound == best_bound && size < best_size)) {
        best = i;
        best_bound = bound;
        best_size = size;
      }
    }
    used[best] = 1;

    const Atom& atom = atoms[best];
    plan.steps.push_back(
        Step{relations[best], plan.columns.size(), atom.arity()});
    for (int c = 0; c < atom.arity(); ++c) {
      const int slot = slots_of(best)[static_cast<std::size_t>(c)];
      if (slot < 0) {
        plan.columns.push_back(Column{ColumnTag::kConstant, -1,
                                      Value::Constant(atom.term(c).id())});
        continue;
      }
      std::uint8_t& s = state[slot];
      ColumnTag tag = ColumnTag::kBind;
      if (s == kBoundBefore) {
        tag = ColumnTag::kBound;
      } else if (s == kBoundHere) {
        tag = ColumnTag::kRepeat;
      } else {
        s = kBoundHere;
      }
      plan.columns.push_back(Column{tag, slot, Value()});
    }
    for (int slot : slots_of(best)) {
      if (slot >= 0) state[slot] = kBoundBefore;
    }
  }
  return plan;
}

// Runs a plan over a slot array, calling `emit(slots)` on every complete
// match; emit returns false to stop.
template <typename Emit>
class Runner {
 public:
  Runner(const Plan& plan, Value* slots, const CancelScope& cancel,
         Emit& emit)
      : plan_(plan), slots_(slots), cancel_(cancel), emit_(emit) {}

  // OK when enumeration ran to completion (or emit stopped it — that is
  // the caller's choice, not an error); non-OK when the cancel scope or a
  // fault aborted it. Counters go to *stats either way.
  Status Run(EvalStats* stats) {
    Descend(0);
    if (stats != nullptr) {
      stats->tuples_examined += examined_;
      stats->matches += matches_;
    }
    return std::move(status_);
  }

 private:
  // Per-tuple interruption check: the "eval.scan" fault point fires on
  // every examined tuple; the cancel scope (a clock read) is only
  // consulted every kCancelCheckStride tuples.
  bool Interrupted() {
    Status fault = CheckFaultPoint("eval.scan");
    if (!fault.ok()) {
      status_ = std::move(fault);
      return true;
    }
    if (!cancel_.active()) return false;
    if (++since_check_ < kCancelCheckStride) return false;
    since_check_ = 0;
    Status check = cancel_.Check("eval scan");
    if (!check.ok()) {
      status_ = std::move(check);
      return true;
    }
    return false;
  }

  bool Descend(std::size_t depth) {
    if (depth == plan_.steps.size()) {
      ++matches_;
      return emit_(static_cast<const Value*>(slots_));
    }
    const Step& step = plan_.steps[depth];
    if (step.relation == nullptr) return true;
    const Column* columns = plan_.columns.data() + step.first_column;

    // Probe the constant or earlier-bound column with the smallest
    // posting list; scan when there is none.
    const std::vector<int>* postings = nullptr;
    for (int c = 0; c < step.arity; ++c) {
      const Column& column = columns[c];
      if (column.tag != ColumnTag::kConstant &&
          column.tag != ColumnTag::kBound) {
        continue;
      }
      const std::vector<int>& candidate =
          step.relation->TuplesWith(c, Resolve(column, slots_));
      if (postings == nullptr || candidate.size() < postings->size()) {
        postings = &candidate;
      }
    }
    const std::vector<Tuple>& tuples = step.relation->tuples();
    if (postings == nullptr) {
      for (const Tuple& tuple : tuples) {
        if (!Visit(depth, step, columns, tuple)) return false;
      }
    } else {
      for (int index : *postings) {
        if (!Visit(depth, step, columns,
                   tuples[static_cast<std::size_t>(index)])) {
          return false;
        }
      }
    }
    return true;
  }

  // Checks one tuple against the step's columns, binds its new slots and
  // descends. False stops the whole enumeration.
  bool Visit(std::size_t depth, const Step& step, const Column* columns,
             const Tuple& tuple) {
    ++examined_;
    if (Interrupted()) return false;
    for (int c = 0; c < step.arity; ++c) {
      const Column& column = columns[c];
      const Value cell = tuple[static_cast<std::size_t>(c)];
      switch (column.tag) {
        case ColumnTag::kConstant:
          if (cell != column.constant) return true;
          break;
        case ColumnTag::kBound:
        case ColumnTag::kRepeat:
          if (cell != slots_[static_cast<std::size_t>(column.slot)]) {
            return true;
          }
          break;
        case ColumnTag::kBind:
          slots_[static_cast<std::size_t>(column.slot)] = cell;
          break;
      }
    }
    return Descend(depth + 1);
  }

  const Plan& plan_;
  Value* slots_;
  const CancelScope& cancel_;
  Emit& emit_;
  int since_check_ = 0;
  long long examined_ = 0;
  long long matches_ = 0;
  Status status_;  // Non-OK once enumeration was aborted.
};

template <typename Emit>
Status RunPlan(const Plan& plan, Value* slots, const CancelScope& cancel,
               EvalStats* stats, Emit emit) {
  return Runner<Emit>(plan, slots, cancel, emit).Run(stats);
}

}  // namespace

Status ForEachMatch(const std::vector<Atom>& atoms, const Database& db,
                    std::span<const SlotBinding> initial,
                    const CancelScope& cancel, EvalStats* stats,
                    const std::function<bool(SlotView)>& callback) {
  PlanMemory memory;
  OREW_ASSIGN_OR_RETURN(Plan plan, CompilePlan(atoms, db, initial, &memory));
  std::pmr::vector<Value> slots(plan.variables.size(), &memory);
  for (const SlotBinding& binding : initial) {
    slots[static_cast<std::size_t>(binding.slot)] = binding.value;
  }
  return RunPlan(plan, slots.data(), cancel, stats,
                 [&callback, size = slots.size()](const Value* values) {
                   return callback(SlotView(values, size));
                 });
}

std::size_t RowBuffer::HashRow(const Value* row) const {
  std::uint64_t h = 0x9e3779b97f4a7c15ULL;
  for (int c = 0; c < width_; ++c) {
    h = (h ^ row[c].Hash()) * 0xbf58476d1ce4e5b9ULL;
  }
  return static_cast<std::size_t>(h ^ (h >> 31));
}

bool RowBuffer::AddRow(const Value* row) {
  if (2 * (rows_ + 1) > table_.size()) Grow();
  const std::size_t width = static_cast<std::size_t>(width_);
  const std::size_t mask = table_.size() - 1;
  for (std::size_t i = HashRow(row) & mask;; i = (i + 1) & mask) {
    const std::uint32_t entry = table_[i];
    if (entry == 0) {
      values_.insert(values_.end(), row, row + width);
      table_[i] = static_cast<std::uint32_t>(++rows_);
      return true;
    }
    if (std::equal(row, row + width, values_.data() + (entry - 1) * width)) {
      return false;
    }
  }
}

void RowBuffer::Grow() {
  OREW_CHECK(rows_ < UINT32_MAX / 2) << "RowBuffer overflow";
  const std::size_t width = static_cast<std::size_t>(width_);
  table_.assign(table_.empty() ? 16 : 2 * table_.size(), 0);
  const std::size_t mask = table_.size() - 1;
  for (std::size_t r = 0; r < rows_; ++r) {
    std::size_t i = HashRow(values_.data() + r * width) & mask;
    while (table_[i] != 0) i = (i + 1) & mask;
    table_[i] = static_cast<std::uint32_t>(r + 1);
  }
}

void RowBuffer::Append(RowBuffer&& other) {
  OREW_CHECK(other.width_ == width_);
  const std::size_t width = static_cast<std::size_t>(width_);
  for (std::size_t r = 0; r < other.rows_; ++r) {
    AddRow(other.values_.data() + r * width);
  }
  other.values_.clear();
  other.table_.clear();
  other.rows_ = 0;
}

std::vector<Tuple> RowBuffer::SortedUnique() const {
  const std::size_t width = static_cast<std::size_t>(width_);
  const auto row = [this, width](std::size_t i) {
    return values_.begin() + static_cast<std::ptrdiff_t>(i * width);
  };
  std::vector<std::size_t> order(rows_);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return std::lexicographical_compare(row(a), row(a + 1), row(b),
                                        row(b + 1));
  });
  std::vector<Tuple> result;
  result.reserve(order.size());
  for (std::size_t i : order) result.emplace_back(row(i), row(i + 1));
  return result;
}

Status EvaluateInto(const ConjunctiveQuery& cq, const Database& db,
                    const EvalOptions& options, EvalStats* stats,
                    RowBuffer* rows) {
  if (cq.arity() != rows->width()) {
    return InvalidArgumentError(StrCat("answer arity ", cq.arity(),
                                       " differs from the union's arity ",
                                       rows->width()));
  }
  PlanMemory memory;
  OREW_ASSIGN_OR_RETURN(Plan plan, CompilePlan(cq.body(), db, {}, &memory));
  // Answer terms as columns: constants, or the slots that hold them.
  std::pmr::vector<Column> answer(&memory);
  answer.reserve(cq.answer_terms().size());
  for (Term t : cq.answer_terms()) {
    if (t.is_constant()) {
      answer.push_back(
          Column{ColumnTag::kConstant, -1, Value::Constant(t.id())});
      continue;
    }
    const int slot = plan.SlotOf(t.id());
    if (slot < 0) {
      return InvalidArgumentError(StrCat(
          "answer variable ", t.id(), " does not occur in the body"));
    }
    answer.push_back(Column{ColumnTag::kBound, slot, Value()});
  }
  const bool drop_nulls = options.drop_tuples_with_nulls;
  std::pmr::vector<Value> slots(plan.variables.size(), &memory);
  std::pmr::vector<Value> row(answer.size(), &memory);
  return RunPlan(plan, slots.data(), options.cancel, stats,
                 [&](const Value* values) {
                   for (std::size_t c = 0; c < answer.size(); ++c) {
                     row[c] = Resolve(answer[c], values);
                     if (drop_nulls && row[c].is_null()) return true;
                   }
                   rows->AddRow(row.data());
                   return true;
                 });
}

StatusOr<std::vector<Tuple>> TryEvaluate(const ConjunctiveQuery& cq,
                                         const Database& db,
                                         const EvalOptions& options,
                                         EvalStats* stats) {
  RowBuffer rows(cq.arity());
  OREW_RETURN_IF_ERROR(EvaluateInto(cq, db, options, stats, &rows));
  return rows.SortedUnique();
}

StatusOr<std::vector<Tuple>> TryEvaluate(const UnionOfCqs& ucq,
                                         const Database& db,
                                         const EvalOptions& options,
                                         EvalStats* stats) {
  RowBuffer rows(ucq.disjuncts().empty() ? 0 : ucq.disjuncts()[0].arity());
  for (const ConjunctiveQuery& cq : ucq.disjuncts()) {
    OREW_RETURN_IF_ERROR(EvaluateInto(cq, db, options, stats, &rows));
  }
  return rows.SortedUnique();
}

std::vector<Tuple> Evaluate(const ConjunctiveQuery& cq, const Database& db,
                            const EvalOptions& options, EvalStats* stats) {
  StatusOr<std::vector<Tuple>> result = TryEvaluate(cq, db, options, stats);
  OREW_CHECK(result.ok()) << result.status();
  return *std::move(result);
}

std::vector<Tuple> Evaluate(const UnionOfCqs& ucq, const Database& db,
                            const EvalOptions& options, EvalStats* stats) {
  StatusOr<std::vector<Tuple>> result = TryEvaluate(ucq, db, options, stats);
  OREW_CHECK(result.ok()) << result.status();
  return *std::move(result);
}

}  // namespace ontorew
