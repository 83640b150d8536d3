#ifndef ONTOREW_REWRITING_SQL_H_
#define ONTOREW_REWRITING_SQL_H_

#include <functional>
#include <string>
#include <string_view>

#include "base/status.h"
#include "logic/program.h"
#include "logic/query.h"
#include "logic/vocabulary.h"

// Rendering of UCQs as SQL — the paper's destination format ("a
// conjunctive query over an ontology can be rewritten as an equivalent
// SQL query over the original database", Section 1). Each predicate p of
// arity k maps to a table "p" with columns c1..ck; each CQ becomes a
// SELECT DISTINCT over a comma join with equality predicates for shared
// variables and constants; the union of CQs becomes a UNION.
//
//   q(X) :- r(X, Y), s(Y, a)
//   =>
//   SELECT DISTINCT t0.c1 AS a1
//   FROM r AS t0, s AS t1
//   WHERE t1.c1 = t0.c2 AND t1.c2 = 'a'
//
// Boolean queries select a constant 1. The emitted SQL is standard enough
// for SQLite/PostgreSQL given tables named after the predicates.
//
// A backend with its own physical design renders through SqlRendering:
// its table resolver names the relation behind each predicate (or an
// empty inline relation, SqlEmptyRelation, for one it stores no table
// for), and constants may be spelled as their integer ids instead of
// quoted text.

namespace ontorew {

// Renders a single CQ. Errors on an invalid query.
StatusOr<std::string> CqToSql(const ConjunctiveQuery& cq,
                              const Vocabulary& vocab);

// Maps a predicate to the FROM source that holds it: an (already quoted)
// table or CTE identifier, or an inline relation. The CTE emitter
// (rewriting/cte_sql.h) routes the factored program's virtual aux
// predicates to prefixed CTE names; base predicates go through the
// caller's rendering.
using SqlTableResolver = std::function<std::string(PredicateId)>;

// How constants appear in emitted SQL: as the single-quoted
// SqlConstantText literal, or as the bare ConstantId — the stored form
// of a backend that dictionary-encodes its cells as integers.
enum class SqlConstantForm { kText, kIntegerId };

// The backend-specific half of emission. An empty `table` resolver
// names every predicate by its quoted vocabulary name.
struct SqlRendering {
  SqlTableResolver table;
  SqlConstantForm constants = SqlConstantForm::kText;
};

// As CqToSql, rendered through `rendering`. Column references stay
// c1..ck whatever the resolver names, so a resolved CTE or inline
// relation must declare that column list.
StatusOr<std::string> CqToSql(const ConjunctiveQuery& cq,
                              const Vocabulary& vocab,
                              const SqlRendering& rendering);

// Renders the whole union. Errors on an invalid or empty UCQ.
StatusOr<std::string> UcqToSql(const UnionOfCqs& ucq,
                               const Vocabulary& vocab);
StatusOr<std::string> UcqToSql(const UnionOfCqs& ucq,
                               const Vocabulary& vocab,
                               const SqlRendering& rendering);

// A FROM source with columns c1..ck (c0 when 0-ary, as in TableToSql)
// and no rows: how a resolver spells a predicate that has no table, so
// reading an unknown relation needs no DDL.
std::string SqlEmptyRelation(int arity);

// The text a constant's SQL literal *contains* (surrounding double quotes
// from the parser's string-literal syntax stripped, no SQL escaping).
// This is the stored form for the text rendering (TableToSql's schema):
// a database loaded with exactly this text compares equal to the
// literals SqlConstantForm::kText emits.
std::string SqlConstantText(ConstantId id, const Vocabulary& vocab);

// Renders a table/column identifier: bare when it is a plain identifier
// and not a reserved word, otherwise double-quoted with interior quotes
// doubled.
std::string SqlIdentifier(std::string_view name);

// The CREATE TABLE statement for one predicate (text columns c1..ck), the
// portable schema the default text rendering queries. A
// 0-ary (propositional) predicate gets a single sentinel column c0 —
// zero-column tables are not valid SQL — which no emitted query ever
// references; presence of any row encodes "true".
std::string TableToSql(PredicateId predicate, const Vocabulary& vocab);

// The CREATE TABLE statements for every predicate of `program`'s
// signature (text columns), for loading the extensional data.
std::string SchemaToSql(const TgdProgram& program, const Vocabulary& vocab);

}  // namespace ontorew

#endif  // ONTOREW_REWRITING_SQL_H_
