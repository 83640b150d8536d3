#include "obda/consistency.h"

#include <algorithm>
#include <string>
#include <vector>

#include "base/strings.h"
#include "db/eval.h"
#include "logic/parser.h"
#include "logic/printer.h"
#include "rewriting/rewriter.h"

namespace ontorew {

StatusOr<std::vector<DenialConstraint>> ParseDenials(std::string_view text,
                                                     Vocabulary* vocab) {
  // Reuse the query parser: each "!- body." line parses as an internal
  // boolean query "_denial() :- body.". Parsing line-by-line (rather than
  // batching the transformed text through ParseFile) keeps the original
  // line number for error messages, like ParseFacts does.
  std::vector<DenialConstraint> denials;
  std::size_t line_start = 0;
  int line_number = 0;
  while (line_start <= text.size()) {
    std::size_t line_end = text.find('\n', line_start);
    if (line_end == std::string_view::npos) line_end = text.size();
    std::string_view line = text.substr(line_start, line_end - line_start);
    line_start = line_end + 1;
    ++line_number;

    // Quote-aware: '#'/'%' inside a quoted constant is data.
    line = StripLineComment(line);
    std::size_t first = line.find_first_not_of(" \t\r");
    if (first == std::string_view::npos) continue;
    line = line.substr(first);
    if (line.rfind("!-", 0) != 0) {
      return InvalidArgumentError(StrCat("denials line ", line_number,
                                         ": denial lines start with '!-': '",
                                         line, "'"));
    }
    StatusOr<ConjunctiveQuery> query =
        ParseQuery(StrCat("_denial() :- ", line.substr(2)), vocab);
    if (!query.ok()) {
      return InvalidArgumentError(StrCat("denials line ", line_number, ": ",
                                         query.status().message()));
    }
    denials.push_back(DenialConstraint{std::move(query).value().body()});
  }
  return denials;
}

StatusOr<ConsistencyReport> CheckConsistency(
    const TgdProgram& program, const std::vector<DenialConstraint>& denials,
    const Database& db, const Vocabulary& vocab) {
  ConsistencyReport report;
  for (std::size_t i = 0; i < denials.size(); ++i) {
    const DenialConstraint& denial = denials[i];
    // The denial fires iff the boolean CQ over its body is certain.
    ConjunctiveQuery boolean(std::vector<Term>{}, denial.body);
    OREW_RETURN_IF_ERROR(boolean.Validate());
    OREW_ASSIGN_OR_RETURN(RewriteResult rewriting,
                          RewriteCq(boolean, program));
    // Find one witnessing disjunct + match for the report.
    bool violated = false;
    std::string witness;
    for (const ConjunctiveQuery& disjunct : rewriting.ucq.disjuncts()) {
      const std::vector<VariableId> variables =
          DistinctVariables(disjunct.body());
      OREW_RETURN_IF_ERROR(ForEachMatch(
          disjunct.body(), db, {}, CancelScope(), nullptr,
          [&](SlotView match) {
            violated = true;
            const auto value = [&](Term t) {
              if (t.is_constant()) return Value::Constant(t.id());
              const auto slot = std::find(variables.begin(), variables.end(),
                                          t.id()) -
                                variables.begin();
              return match[static_cast<std::size_t>(slot)];
            };
            std::vector<std::string> facts;
            for (const Atom& atom : disjunct.body()) {
              std::string fact =
                  StrCat(vocab.PredicateName(atom.predicate()), "(");
              fact += StrJoin(atom.terms(), ", ",
                              [&](std::ostream& os, Term t) {
                                os << ToString(value(t), vocab);
                              });
              fact += ")";
              facts.push_back(std::move(fact));
            }
            witness = StrJoin(facts, ", ");
            return false;  // One witness is enough.
          }));
      if (violated) break;
    }
    if (violated) {
      report.consistent = false;
      report.violated.push_back(static_cast<int>(i));
      report.witnesses.push_back(std::move(witness));
    }
  }
  return report;
}

}  // namespace ontorew
