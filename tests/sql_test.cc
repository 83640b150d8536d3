#include <string>

#include "gtest/gtest.h"
#include "rewriting/rewriter.h"
#include "rewriting/sql.h"
#include "test_util.h"
#include "workload/university.h"

namespace ontorew {
namespace {

TEST(SqlTest, SingleAtomProjection) {
  Vocabulary vocab;
  ConjunctiveQuery cq = MustQuery("q(X, Y) :- r(X, Y).", &vocab);
  StatusOr<std::string> sql = CqToSql(cq, vocab);
  ASSERT_TRUE(sql.ok()) << sql.status();
  EXPECT_EQ(*sql,
            "SELECT DISTINCT t0.c1 AS a1, t0.c2 AS a2\n"
            "FROM r AS t0");
}

TEST(SqlTest, JoinAndConstant) {
  Vocabulary vocab;
  ConjunctiveQuery cq = MustQuery("q(X) :- r(X, Y), s(Y, a).", &vocab);
  StatusOr<std::string> sql = CqToSql(cq, vocab);
  ASSERT_TRUE(sql.ok()) << sql.status();
  EXPECT_EQ(*sql,
            "SELECT DISTINCT t0.c1 AS a1\n"
            "FROM r AS t0, s AS t1\n"
            "WHERE t1.c1 = t0.c2 AND t1.c2 = 'a'");
}

TEST(SqlTest, RepeatedVariableInsideAtom) {
  Vocabulary vocab;
  ConjunctiveQuery cq = MustQuery("q(X) :- r(X, X).", &vocab);
  StatusOr<std::string> sql = CqToSql(cq, vocab);
  ASSERT_TRUE(sql.ok());
  EXPECT_NE(sql->find("t0.c2 = t0.c1"), std::string::npos);
}

TEST(SqlTest, BooleanQuerySelectsOne) {
  Vocabulary vocab;
  ConjunctiveQuery cq = MustQuery("q() :- r(X, Y).", &vocab);
  StatusOr<std::string> sql = CqToSql(cq, vocab);
  ASSERT_TRUE(sql.ok());
  EXPECT_NE(sql->find("SELECT DISTINCT 1 AS a1"), std::string::npos);
}

TEST(SqlTest, ConstantAnswerTermBecomesLiteral) {
  Vocabulary vocab;
  ConjunctiveQuery cq(
      std::vector<Term>{Term::Const(vocab.InternConstant("tag")),
                        Term::Var(vocab.InternVariable("X"))},
      {MustAtom("r(X)", &vocab)});
  StatusOr<std::string> sql = CqToSql(cq, vocab);
  ASSERT_TRUE(sql.ok());
  EXPECT_NE(sql->find("'tag' AS a1"), std::string::npos);
}

TEST(SqlTest, QuotedStringConstantsEscaped) {
  Vocabulary vocab;
  ConjunctiveQuery cq = MustQuery("q(X) :- r(X, \"o'hara\").", &vocab);
  StatusOr<std::string> sql = CqToSql(cq, vocab);
  ASSERT_TRUE(sql.ok());
  // Double quotes stripped, single quote doubled.
  EXPECT_NE(sql->find("'o''hara'"), std::string::npos) << *sql;
}

TEST(SqlTest, InteriorQuotesInConstantsArePreserved) {
  // Only the parser's *surrounding* quotes are stripped; a double quote
  // inside the constant's value is data and must survive into the SQL.
  Vocabulary vocab;
  ConjunctiveQuery cq(
      std::vector<Term>{Term::Var(vocab.InternVariable("X"))},
      {Atom(vocab.MustPredicate("r", 2),
            {Term::Var(vocab.InternVariable("X")),
             Term::Const(vocab.InternConstant("\"5\" tall\" o'hara\""))})});
  StatusOr<std::string> sql = CqToSql(cq, vocab);
  ASSERT_TRUE(sql.ok()) << sql.status();
  EXPECT_NE(sql->find("'5\" tall\" o''hara'"), std::string::npos) << *sql;
}

TEST(SqlTest, ReservedWordPredicatesAreQuoted) {
  // A predicate named like a SQL keyword must not be emitted bare.
  Vocabulary vocab;
  ConjunctiveQuery cq = MustQuery("q(X) :- order(X, Y), select(Y).", &vocab);
  StatusOr<std::string> sql = CqToSql(cq, vocab);
  ASSERT_TRUE(sql.ok()) << sql.status();
  EXPECT_NE(sql->find("FROM \"order\" AS t0, \"select\" AS t1"),
            std::string::npos)
      << *sql;
}

TEST(SqlTest, ReservedWordTablesQuotedInDdl) {
  Vocabulary vocab;
  TgdProgram program = MustProgram("order(X, Y) -> group(X).", &vocab);
  std::string ddl = SchemaToSql(program, vocab);
  EXPECT_NE(ddl.find("CREATE TABLE \"order\" "), std::string::npos) << ddl;
  EXPECT_NE(ddl.find("CREATE TABLE \"group\" "), std::string::npos) << ddl;
}

TEST(SqlTest, OrdinaryIdentifiersStayBare) {
  // Quoting is only applied where needed: plain identifiers keep the
  // readable bare form the seed tests assert.
  Vocabulary vocab;
  ConjunctiveQuery cq = MustQuery("q(X) :- enrolled_2024(X, Y).", &vocab);
  StatusOr<std::string> sql = CqToSql(cq, vocab);
  ASSERT_TRUE(sql.ok());
  EXPECT_NE(sql->find("FROM enrolled_2024 AS t0"), std::string::npos) << *sql;
}

TEST(SqlTest, UnionOverDisjuncts) {
  Vocabulary vocab;
  UnionOfCqs ucq;
  ucq.Add(MustQuery("q(X) :- r(X, Y).", &vocab));
  ucq.Add(MustQuery("q(X) :- s(X, Y).", &vocab));
  StatusOr<std::string> sql = UcqToSql(ucq, vocab);
  ASSERT_TRUE(sql.ok());
  EXPECT_NE(sql->find("\nUNION\n"), std::string::npos);
  EXPECT_NE(sql->find("FROM r AS t0"), std::string::npos);
  EXPECT_NE(sql->find("FROM s AS t0"), std::string::npos);
}

TEST(SqlTest, RewritingOfUniversityQueryRendersToSql) {
  // The paper's end-to-end story: ontology query -> UCQ -> SQL text.
  Vocabulary vocab;
  TgdProgram ontology = UniversityOntology(&vocab);
  StatusOr<RewriteResult> rewriting =
      RewriteCq(MustQuery("q(X) :- person(X).", &vocab), ontology);
  ASSERT_TRUE(rewriting.ok());
  StatusOr<std::string> sql = UcqToSql(rewriting->ucq, vocab);
  ASSERT_TRUE(sql.ok()) << sql.status();
  // Every raw predicate shows up as a table somewhere in the union.
  for (const char* table : {"professor", "lecturer", "phd", "teaches",
                            "enrolled"}) {
    EXPECT_NE(sql->find(std::string("FROM ") + table), std::string::npos)
        << table;
  }
}

TEST(SqlTest, SchemaDdl) {
  Vocabulary vocab;
  TgdProgram program = MustProgram("r(X, Y) -> s(X).", &vocab);
  std::string ddl = SchemaToSql(program, vocab);
  EXPECT_NE(ddl.find("CREATE TABLE r (c1 TEXT NOT NULL, c2 TEXT NOT NULL);"),
            std::string::npos);
  EXPECT_NE(ddl.find("CREATE TABLE s (c1 TEXT NOT NULL);"),
            std::string::npos);
}

TEST(SqlTest, SqliteOnlyKeywordsAreQuoted) {
  // Regression: the original reserved-word list stopped at the common
  // SQL-92 keywords, so predicates named `distinct`, `limit`, `index`
  // or `primary` were emitted bare — and SQLite rejects
  // `CREATE TABLE distinct (...)` outright.
  Vocabulary vocab;
  for (const char* word : {"distinct", "limit", "index", "primary",
                           "between", "exists", "transaction", "cast"}) {
    ConjunctiveQuery cq =
        MustQuery(std::string("q(X) :- ") + word + "(X).", &vocab);
    StatusOr<std::string> sql = CqToSql(cq, vocab);
    ASSERT_TRUE(sql.ok()) << word << ": " << sql.status();
    EXPECT_NE(sql->find(std::string("FROM \"") + word + "\" AS t0"),
              std::string::npos)
        << word << ":\n"
        << *sql;
  }
}

TEST(SqlTest, ZeroAryTableGetsSentinelColumn) {
  // Regression: a propositional predicate used to emit
  // `CREATE TABLE p ();`, a SQLite syntax error. The table carries a
  // sentinel column no emitted query ever references.
  Vocabulary vocab;
  TgdProgram program = MustProgram("p() -> r(X).", &vocab);
  std::string ddl = SchemaToSql(program, vocab);
  EXPECT_NE(ddl.find("CREATE TABLE p (c0 INTEGER NOT NULL);"),
            std::string::npos)
      << ddl;
  EXPECT_EQ(ddl.find("p ();"), std::string::npos) << ddl;
}

TEST(SqlTest, SingleTableDdlMatchesSchemaEntry) {
  // TableToSql is the per-predicate unit SchemaToSql is built from.
  Vocabulary vocab;
  TgdProgram program = MustProgram("order(X, Y) -> s(X).", &vocab);
  PredicateId order = vocab.FindPredicate("order");
  const std::string ddl = TableToSql(order, vocab);
  EXPECT_EQ(
      ddl, "CREATE TABLE \"order\" (c1 TEXT NOT NULL, c2 TEXT NOT NULL);\n");
  EXPECT_NE(SchemaToSql(program, vocab).find(ddl), std::string::npos);
}

TEST(SqlTest, InvalidQueryRejected) {
  Vocabulary vocab;
  ConjunctiveQuery invalid;
  EXPECT_FALSE(CqToSql(invalid, vocab).ok());
}

}  // namespace
}  // namespace ontorew
