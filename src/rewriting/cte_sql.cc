#include "rewriting/cte_sql.h"

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

#include "base/strings.h"
#include "logic/query.h"
#include "rewriting/sql.h"

namespace ontorew {
namespace {

constexpr std::string_view kBasePrefix = "orw_cte_";

bool AnyPredicateStartsWith(const Vocabulary& vocab, std::string_view prefix) {
  for (PredicateId p = 0; p < vocab.num_predicates(); ++p) {
    const std::string& name = vocab.PredicateName(p);
    if (name.size() >= prefix.size() &&
        std::string_view(name).substr(0, prefix.size()) == prefix) {
      return true;
    }
  }
  return false;
}

}  // namespace

std::string CtePrefixFor(const Vocabulary& vocab) {
  // CTE names shadow tables in SQLite, so a user predicate that happens
  // to be named like one of our CTEs would silently change the query's
  // meaning. Any prefix no predicate name starts with is safe.
  if (!AnyPredicateStartsWith(vocab, kBasePrefix)) {
    return std::string(kBasePrefix);
  }
  for (int salt = 0;; ++salt) {
    std::string prefix = StrCat("orw_cte", salt, "_");
    if (!AnyPredicateStartsWith(vocab, prefix)) return prefix;
  }
}

StatusOr<std::string> DatalogToCteSql(const DatalogProgram& program,
                                      const Vocabulary& vocab) {
  return DatalogToCteSql(program, vocab, SqlRendering());
}

StatusOr<std::string> DatalogToCteSql(const DatalogProgram& program,
                                      const Vocabulary& vocab,
                                      const SqlRendering& rendering) {
  OREW_RETURN_IF_ERROR(program.Validate());
  const std::string prefix = CtePrefixFor(vocab);
  SqlRendering resolved = rendering;
  resolved.table = [&prefix, &vocab, &rendering](PredicateId p) {
    if (IsAuxPredicate(p)) {
      return SqlIdentifier(StrCat(prefix, AuxIndex(p)));
    }
    return rendering.table ? rendering.table(p)
                           : SqlIdentifier(vocab.PredicateName(p));
  };
  auto rule_select = [&](const DatalogRule& rule) {
    return CqToSql(ConjunctiveQuery(rule.head, rule.body), vocab, resolved);
  };

  std::string sql;
  for (std::size_t k = 0; k < program.aux.size(); ++k) {
    const DatalogAux& aux = program.aux[k];
    std::vector<std::string> columns;
    for (int j = 0; j < aux.arity; ++j) columns.push_back(StrCat("c", j + 1));
    // A 0-ary aux still needs one declared column to match its rules'
    // boolean `SELECT DISTINCT 1 AS a1` shape — same sentinel-column
    // convention as TableToSql, and nothing ever reads it.
    if (columns.empty()) columns.push_back("c0");
    std::vector<std::string> selects;
    for (const DatalogRule& rule : aux.rules) {
      OREW_ASSIGN_OR_RETURN(std::string select, rule_select(rule));
      selects.push_back(std::move(select));
    }
    sql += k == 0 ? "WITH " : ",\n";
    sql += StrCat(SqlIdentifier(StrCat(prefix, k)), "(",
                  StrJoin(columns, ", "), ") AS (\n",
                  StrJoin(selects, "\nUNION\n"), "\n)");
  }
  if (!program.aux.empty()) sql += '\n';

  std::vector<std::string> selects;
  for (const DatalogRule& rule : program.output) {
    OREW_ASSIGN_OR_RETURN(std::string select, rule_select(rule));
    selects.push_back(std::move(select));
  }
  sql += StrJoin(selects, "\nUNION\n");
  return sql;
}

}  // namespace ontorew
