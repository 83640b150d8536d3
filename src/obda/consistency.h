#ifndef ONTOREW_OBDA_CONSISTENCY_H_
#define ONTOREW_OBDA_CONSISTENCY_H_

#include <string>
#include <string_view>
#include <vector>

#include "base/status.h"
#include "db/database.h"
#include "logic/program.h"
#include "logic/query.h"
#include "logic/vocabulary.h"

// Denial constraints and consistency checking. Real OBDA deployments pair
// the positive TGDs with *negative* constraints (disjointness,
// functionality-style denials):
//
//   !- professor(X), student(X).      # nobody is both
//
// A denial fires iff its body is certainly entailed, i.e. iff the boolean
// CQ over its body has a certain answer. When the positive part is
// FO-rewritable this too reduces to evaluating an FO query over the raw
// data: rewrite the denial's body as a boolean query against the TGDs and
// evaluate the UCQ over D (the DL-Lite consistency-checking recipe).

namespace ontorew {

struct DenialConstraint {
  std::vector<Atom> body;
};

// Parses lines of the form "!- atom, atom, ... ." ('#'/'%' comments).
StatusOr<std::vector<DenialConstraint>> ParseDenials(std::string_view text,
                                                     Vocabulary* vocab);

struct ConsistencyReport {
  bool consistent = true;
  // Indices of the violated denials, with one witnessing fact listing per
  // violation ("professor(ada), student(ada)").
  std::vector<int> violated;
  std::vector<std::string> witnesses;
};

// Checks (program, db) against the denials via rewriting + evaluation.
// Errors propagate from the rewriting engine (multi-head programs,
// divergence cap — i.e. when the positive part is not FO-rewritable for
// the denial's shape) and from the evaluator (an arity mismatch, an
// armed "eval.scan" fault): an aborted scan is an error, never a
// "consistent" report.
StatusOr<ConsistencyReport> CheckConsistency(
    const TgdProgram& program, const std::vector<DenialConstraint>& denials,
    const Database& db, const Vocabulary& vocab);

}  // namespace ontorew

#endif  // ONTOREW_OBDA_CONSISTENCY_H_
