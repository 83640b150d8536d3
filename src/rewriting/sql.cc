#include "rewriting/sql.h"

#include <array>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "base/strings.h"
#include "logic/atom.h"

namespace ontorew {
namespace {

// Escapes a constant for a single-quoted SQL string literal, or spells
// its id under SqlConstantForm::kIntegerId.
std::string SqlLiteral(ConstantId id, const Vocabulary& vocab,
                       SqlConstantForm form) {
  if (form == SqlConstantForm::kIntegerId) return StrCat(id);
  std::string name = SqlConstantText(id, vocab);
  std::string escaped;
  escaped.reserve(name.size() + 2);
  escaped += '\'';
  for (char c : name) {
    if (c == '\'') {
      escaped += "''";
      continue;
    }
    escaped += c;
  }
  escaped += '\'';
  return escaped;
}

// SQL reserved words that clash with plausible predicate names. A bare
// identifier with one of these names (any case) must be quoted. The list
// is the SQLite keyword set minus words its grammar accepts as bare table
// names anyway — executing `CREATE TABLE distinct (...)` is how gaps get
// caught, so the backend round-trip tests sweep this list.
bool IsSqlReservedWord(std::string_view name) {
  static constexpr std::array<std::string_view, 72> kReserved = {
      "add",        "all",       "alter",     "and",        "as",
      "autoincrement",           "between",   "by",         "case",
      "check",      "collate",   "commit",    "constraint", "create",
      "cross",      "default",   "deferrable","delete",     "distinct",
      "drop",       "else",      "escape",    "except",     "exists",
      "foreign",    "from",      "full",      "group",      "having",
      "in",         "index",     "inner",     "insert",     "intersect",
      "into",       "is",        "isnull",    "join",       "left",
      "like",       "limit",     "natural",   "not",        "notnull",
      "null",       "on",        "or",        "order",      "outer",
      "primary",    "references","right",     "select",     "set",
      "table",      "then",      "to",        "transaction","union",
      "unique",     "update",    "using",     "values",     "when",
      "where",      "glob",      "regexp",    "match",      "offset",
      "cast",       "returning", "nothing"};
  std::string lower;
  lower.reserve(name.size());
  for (char c : name) {
    lower += (c >= 'A' && c <= 'Z') ? static_cast<char>(c - 'A' + 'a') : c;
  }
  for (std::string_view word : kReserved) {
    if (lower == word) return true;
  }
  return false;
}

}  // namespace

std::string SqlConstantText(ConstantId id, const Vocabulary& vocab) {
  std::string_view name = vocab.ConstantName(id);
  // Strip only the *surrounding* double quotes our parser keeps around
  // string literals; interior quotes are part of the constant's value.
  if (name.size() >= 2 && name.front() == '"' && name.back() == '"') {
    name.remove_prefix(1);
    name.remove_suffix(1);
  }
  return std::string(name);
}

std::string SqlIdentifier(std::string_view name) {
  bool plain = !name.empty() && !IsSqlReservedWord(name);
  for (std::size_t i = 0; plain && i < name.size(); ++i) {
    char c = name[i];
    bool word_char = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                     c == '_' || (i > 0 && c >= '0' && c <= '9');
    if (!word_char) plain = false;
  }
  if (plain) return std::string(name);
  std::string quoted;
  quoted.reserve(name.size() + 2);
  quoted += '"';
  for (char c : name) {
    if (c == '"') quoted += '"';
    quoted += c;
  }
  quoted += '"';
  return quoted;
}

StatusOr<std::string> CqToSql(const ConjunctiveQuery& cq,
                              const Vocabulary& vocab) {
  return CqToSql(cq, vocab, SqlRendering());
}

StatusOr<std::string> CqToSql(const ConjunctiveQuery& cq,
                              const Vocabulary& vocab,
                              const SqlRendering& rendering) {
  OREW_RETURN_IF_ERROR(cq.Validate());
  auto table = [&](PredicateId p) {
    return rendering.table ? rendering.table(p)
                           : SqlIdentifier(vocab.PredicateName(p));
  };
  auto literal = [&](ConstantId id) {
    return SqlLiteral(id, vocab, rendering.constants);
  };

  // First binding site of each variable: "t<i>.c<j>".
  std::unordered_map<VariableId, std::string> binding;
  std::vector<std::string> from;
  std::vector<std::string> where;
  for (std::size_t i = 0; i < cq.body().size(); ++i) {
    const Atom& atom = cq.body()[i];
    std::string alias = StrCat("t", i);
    from.push_back(StrCat(table(atom.predicate()), " AS ", alias));
    for (int j = 0; j < atom.arity(); ++j) {
      std::string column = StrCat(alias, ".c", j + 1);
      Term t = atom.term(j);
      if (t.is_constant()) {
        where.push_back(StrCat(column, " = ", literal(t.id())));
        continue;
      }
      auto [it, inserted] = binding.emplace(t.id(), column);
      if (!inserted) {
        where.push_back(StrCat(column, " = ", it->second));
      }
    }
  }

  std::vector<std::string> select;
  for (std::size_t i = 0; i < cq.answer_terms().size(); ++i) {
    Term t = cq.answer_terms()[i];
    std::string value =
        t.is_constant() ? literal(t.id()) : binding.at(t.id());
    select.push_back(StrCat(value, " AS a", i + 1));
  }
  if (select.empty()) select.push_back("1 AS a1");  // Boolean query.

  std::string sql = StrCat("SELECT DISTINCT ", StrJoin(select, ", "),
                           "\nFROM ", StrJoin(from, ", "));
  if (!where.empty()) {
    sql += StrCat("\nWHERE ", StrJoin(where, " AND "));
  }
  return sql;
}

StatusOr<std::string> UcqToSql(const UnionOfCqs& ucq,
                               const Vocabulary& vocab) {
  return UcqToSql(ucq, vocab, SqlRendering());
}

StatusOr<std::string> UcqToSql(const UnionOfCqs& ucq,
                               const Vocabulary& vocab,
                               const SqlRendering& rendering) {
  OREW_RETURN_IF_ERROR(ucq.Validate());
  std::vector<std::string> parts;
  for (const ConjunctiveQuery& cq : ucq.disjuncts()) {
    OREW_ASSIGN_OR_RETURN(std::string sql, CqToSql(cq, vocab, rendering));
    parts.push_back(std::move(sql));
  }
  return StrJoin(parts, "\nUNION\n");
}

std::string SqlEmptyRelation(int arity) {
  std::vector<std::string> columns;
  for (int j = 0; j < arity; ++j) columns.push_back(StrCat("NULL AS c", j + 1));
  if (columns.empty()) columns.push_back("NULL AS c0");
  return StrCat("(SELECT ", StrJoin(columns, ", "), " WHERE 0)");
}

std::string TableToSql(PredicateId predicate, const Vocabulary& vocab) {
  std::string ddl = StrCat(
      "CREATE TABLE ", SqlIdentifier(vocab.PredicateName(predicate)), " (");
  std::vector<std::string> columns;
  for (int j = 0; j < vocab.PredicateArity(predicate); ++j) {
    columns.push_back(StrCat("c", j + 1, " TEXT NOT NULL"));
  }
  // `CREATE TABLE p ()` is a syntax error: a propositional predicate
  // stores a sentinel column no emitted query references.
  if (columns.empty()) columns.push_back("c0 INTEGER NOT NULL");
  ddl += StrJoin(columns, ", ");
  ddl += ");\n";
  return ddl;
}

std::string SchemaToSql(const TgdProgram& program, const Vocabulary& vocab) {
  std::string ddl;
  for (PredicateId p : program.Predicates()) {
    ddl += TableToSql(p, vocab);
  }
  return ddl;
}

}  // namespace ontorew
