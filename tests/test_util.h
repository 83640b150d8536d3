#ifndef ONTOREW_TESTS_TEST_UTIL_H_
#define ONTOREW_TESTS_TEST_UTIL_H_

#include <memory>
#include <string_view>
#include <utility>

#include "db/database.h"
#include "gtest/gtest.h"
#include "logic/atom.h"
#include "logic/parser.h"
#include "logic/program.h"
#include "logic/query.h"
#include "logic/tgd.h"
#include "logic/vocabulary.h"

// Shared test helpers: parse-or-fail wrappers so tests can state logical
// objects in the text syntax.

namespace ontorew {

inline TgdProgram MustProgram(std::string_view text, Vocabulary* vocab) {
  StatusOr<TgdProgram> program = ParseProgram(text, vocab);
  EXPECT_TRUE(program.ok()) << program.status();
  return program.ok() ? *std::move(program) : TgdProgram();
}

inline Tgd MustTgd(std::string_view text, Vocabulary* vocab) {
  StatusOr<Tgd> tgd = ParseTgd(text, vocab);
  EXPECT_TRUE(tgd.ok()) << tgd.status();
  return tgd.ok() ? *std::move(tgd) : Tgd();
}

inline ConjunctiveQuery MustQuery(std::string_view text, Vocabulary* vocab) {
  StatusOr<ConjunctiveQuery> query = ParseQuery(text, vocab);
  EXPECT_TRUE(query.ok()) << query.status();
  return query.ok() ? *std::move(query) : ConjunctiveQuery();
}

// `db` shared the way AnswerEngine shares its snapshot with a Backend.
inline std::shared_ptr<const Database> SharedDb(Database db) {
  return std::make_shared<const Database>(std::move(db));
}

inline Atom MustAtom(std::string_view text, Vocabulary* vocab) {
  StatusOr<Atom> atom = ParseAtom(text, vocab);
  EXPECT_TRUE(atom.ok()) << atom.status();
  return atom.ok() ? *std::move(atom) : Atom();
}

}  // namespace ontorew

#endif  // ONTOREW_TESTS_TEST_UTIL_H_
