#include <string>

#include "db/database.h"
#include "db/value.h"
#include "gtest/gtest.h"
#include "logic/vocabulary.h"

namespace ontorew {
namespace {

TEST(ValueTest, KindsAndEquality) {
  Value c = Value::Constant(3);
  Value n = Value::Null(3);
  EXPECT_TRUE(c.is_constant());
  EXPECT_TRUE(n.is_null());
  EXPECT_NE(c, n);
  EXPECT_LT(c, n);  // Constants order before nulls.
  EXPECT_NE(c.Hash(), n.Hash());
}

TEST(ValueTest, ToStringFormats) {
  Vocabulary vocab;
  ConstantId alice = vocab.InternConstant("alice");
  EXPECT_EQ(ToString(Value::Constant(alice), vocab), "alice");
  EXPECT_EQ(ToString(Value::Null(7), vocab), "_:n7");
  EXPECT_EQ(ToString(Tuple{Value::Constant(alice), Value::Null(0)}, vocab),
            "(alice, _:n0)");
}

TEST(DatabaseTest, AppendTupleAppendsItsToString) {
  Vocabulary vocab;
  const Tuple tuple{Value::Constant(vocab.InternConstant("alice")),
                    Value::Null(7)};
  std::string out = "prefix ";
  AppendTuple(tuple, vocab, &out);
  EXPECT_EQ(out, "prefix " + ToString(tuple, vocab));
  EXPECT_EQ(out, "prefix (alice, _:n7)");

  out = "x";
  AppendTuple(Tuple(), vocab, &out);
  EXPECT_EQ(out, "x" + ToString(Tuple(), vocab));
  EXPECT_EQ(out, "x()");
}

TEST(ValueTest, GtestPrintsIdsNotBytes) {
  EXPECT_EQ(testing::PrintToString(Tuple{Value::Constant(3), Value::Null(7)}),
            "{ #3, _:n7 }");
}

TEST(RelationTest, InsertDedupes) {
  Relation relation(2);
  Tuple t = {Value::Constant(0), Value::Constant(1)};
  EXPECT_TRUE(relation.Insert(t));
  EXPECT_FALSE(relation.Insert(t));
  EXPECT_EQ(relation.size(), 1);
  EXPECT_TRUE(relation.Contains(t));
  EXPECT_FALSE(relation.Contains({Value::Constant(1), Value::Constant(0)}));
}

TEST(RelationTest, ColumnIndexFindsTuples) {
  Relation relation(2);
  relation.Insert({Value::Constant(0), Value::Constant(1)});
  relation.Insert({Value::Constant(0), Value::Constant(2)});
  relation.Insert({Value::Constant(3), Value::Constant(1)});
  EXPECT_EQ(relation.TuplesWith(0, Value::Constant(0)).size(), 2u);
  EXPECT_EQ(relation.TuplesWith(1, Value::Constant(1)).size(), 2u);
  EXPECT_EQ(relation.TuplesWith(1, Value::Constant(9)).size(), 0u);
}

TEST(RelationTest, ZeroArity) {
  Relation relation(0);
  EXPECT_TRUE(relation.Insert({}));
  EXPECT_FALSE(relation.Insert({}));
  EXPECT_EQ(relation.size(), 1);
  EXPECT_TRUE(relation.Contains({}));
}

TEST(RelationDeathTest, ArityMismatchAborts) {
  Relation relation(2);
  EXPECT_DEATH(relation.Insert({Value::Constant(0)}), "arity");
}

TEST(DatabaseTest, GetOrCreateAndFind) {
  Database db;
  EXPECT_EQ(db.Find(0), nullptr);
  Relation& r = db.GetOrCreate(0, 2);
  EXPECT_EQ(r.arity(), 2);
  EXPECT_NE(db.Find(0), nullptr);
  EXPECT_EQ(db.TotalTuples(), 0);
}

TEST(DatabaseTest, InsertCreatesRelation) {
  Database db;
  EXPECT_TRUE(db.Insert(5, {Value::Constant(1)}));
  EXPECT_FALSE(db.Insert(5, {Value::Constant(1)}));
  EXPECT_EQ(db.TotalTuples(), 1);
  EXPECT_EQ(db.PredicatesPresent(), std::vector<PredicateId>{5});
}

TEST(DatabaseTest, FreshNullsAreDistinct) {
  Database db;
  Value n1 = db.FreshNull();
  Value n2 = db.FreshNull();
  EXPECT_NE(n1, n2);
  EXPECT_EQ(db.num_nulls(), 2);
}

TEST(DatabaseTest, ToStringSortedListing) {
  Vocabulary vocab;
  PredicateId r = vocab.MustPredicate("r", 1);
  Database db;
  db.Insert(r, {Value::Constant(vocab.InternConstant("b"))});
  db.Insert(r, {Value::Constant(vocab.InternConstant("a"))});
  EXPECT_EQ(db.ToString(vocab), "r(a)\nr(b)");
}

TEST(DatabaseTest, CopyIsIndependent) {
  Database db;
  db.Insert(0, {Value::Constant(1)});
  Database copy = db;
  copy.Insert(0, {Value::Constant(2)});
  EXPECT_EQ(db.TotalTuples(), 1);
  EXPECT_EQ(copy.TotalTuples(), 2);
}

}  // namespace
}  // namespace ontorew
