#ifndef ONTOREW_REWRITING_CTE_SQL_H_
#define ONTOREW_REWRITING_CTE_SQL_H_

#include <string>

#include "base/status.h"
#include "logic/vocabulary.h"
#include "rewriting/datalog.h"
#include "rewriting/sql.h"

// Rendering of a factored nonrecursive Datalog program (rewriting/
// datalog.h) as a single WITH-CTE SQL query: each aux predicate becomes
// one common table expression whose body is the UNION of its rules'
// SELECTs, and the output rules become the top-level union. Where the
// flat UCQ emitter (rewriting/sql.h) prints `university_q3` as a
// 1000-arm UNION, the CTE form is ten aux selects plus one three-way
// join — the SQL the database executes shrinks with the factoring.
//
//   orw0(V0) :- professor(V0).  orw0(V0) :- lecturer(V0).  ...
//   q(X0)    :- orw0(X0), knows(X0, X1), orw0(X1).
//   =>
//   WITH orw_cte_0(c1) AS (
//     SELECT DISTINCT t0.c1 AS a1 FROM professor AS t0
//     UNION
//     SELECT DISTINCT t0.c1 AS a1 FROM lecturer AS t0
//     ...
//   )
//   SELECT DISTINCT t0.c1 AS a1
//   FROM orw_cte_0 AS t0, knows AS t1, orw_cte_0 AS t2
//   WHERE ...
//
// CTE column lists are declared c1..ck (c0 for 0-ary) so aux atoms emit
// with exactly the base-table column naming; quoting of identifiers and
// literals reuses rewriting/sql.h. In SQLite a CTE name SHADOWS a table
// of the same name, so the prefix is chosen per vocabulary: if any user
// predicate starts with "orw_cte_", the emitter switches to "orw_cte0_",
// "orw_cte1_", ... until no predicate name can collide.

namespace ontorew {

// The collision-free CTE name prefix for this vocabulary (see above).
std::string CtePrefixFor(const Vocabulary& vocab);

// Renders the whole factored program as one WITH-CTE SQL query. A
// program with no aux predicates degenerates to the plain UNION (no WITH
// clause). Errors on an invalid program.
StatusOr<std::string> DatalogToCteSql(const DatalogProgram& program,
                                      const Vocabulary& vocab);

// As above, rendered through `rendering` (rewriting/sql.h): aux
// predicates still resolve to the CTE names, base predicates and
// constants go through `rendering`.
StatusOr<std::string> DatalogToCteSql(const DatalogProgram& program,
                                      const Vocabulary& vocab,
                                      const SqlRendering& rendering);

}  // namespace ontorew

#endif  // ONTOREW_REWRITING_CTE_SQL_H_
