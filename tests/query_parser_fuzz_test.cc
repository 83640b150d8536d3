// Seeded mutation fuzzing of the query parser (logic/parser.h). Valid
// query texts — a fixed list with quoted constants, plus RandomCq and
// ProductQuery outputs rendered with ToString — are mutated by byte
// flips, insertions from the grammar's alphabet, deletions, span
// duplication and truncation. Every mutated text must give either a
// typed error with a message, or a CQ whose rendering is a fixpoint:
// ToString -> ParseQuery -> ToString reproduces it after one pass.
// Labeled `fuzz` (ctest -L fuzz); the sanitizer job runs it under
// ASan+UBSan. robustness_test's byte soup covers ParseFacts and DL-Lite.

#include <string>
#include <string_view>
#include <vector>

#include "base/rng.h"
#include "base/status.h"
#include "gtest/gtest.h"
#include "logic/parser.h"
#include "logic/printer.h"
#include "logic/query.h"
#include "logic/vocabulary.h"
#include "workload/generators.h"

namespace ontorew {
namespace {

constexpr int kRuns = 20000;

std::vector<std::string> Seeds() {
  std::vector<std::string> seeds = {
      "q(X) :- person(X).",
      "q(X, Y) :- teaches(X, C), attends(Y, C).",
      "q() :- r(\"a\", X).",
      "q(X) :- label(X, \"a=b\"), tag(X, \"#not % a comment\").",
      "q(X) :- r(X, \"with spaces\", -42, 007).",
      "ans(X, \"k\") :- s(X, _Y, Z), t(Z, k0).",
      "q(X) :- r(X, Y) % trailing comment",
      "q(X) :- r(X, Y)",
  };
  // Generated shapes, rendered the way the printer writes them.
  Rng rng(0xf021'0000);
  for (int i = 0; i < 8; ++i) {
    Vocabulary vocab;
    RandomProgramOptions options;
    options.constant_prob = 0.2;
    const TgdProgram program = RandomProgram(options, &rng, &vocab);
    seeds.push_back(ToString(
        RandomCq(program, rng.UniformIn(1, 4), rng.UniformIn(0, 2), &rng,
                 &vocab),
        vocab));
  }
  for (int k = 1; k <= 4; ++k) {
    Vocabulary vocab;
    ProductFamily(3, &vocab);
    seeds.push_back(ToString(ProductQuery(k, &vocab), vocab));
  }
  return seeds;
}

// One random edit of `text`.
std::string Mutate(std::string text, Rng& rng) {
  static constexpr std::string_view kAlphabet =
      "abqXYZ_019\"(),.:->#% \t\r\n";
  const auto pos = [&](std::size_t extra) {
    return static_cast<std::size_t>(
        rng.Uniform(static_cast<int>(text.size() + extra)));
  };
  switch (rng.Uniform(5)) {
    case 0:  // Flip one bit of one byte.
      if (!text.empty()) {
        text[pos(0)] ^= static_cast<char>(1 << rng.Uniform(8));
      }
      break;
    case 1:  // Insert a byte of the grammar's alphabet.
      text.insert(text.begin() + static_cast<std::ptrdiff_t>(pos(1)),
                  kAlphabet[static_cast<std::size_t>(
                      rng.Uniform(static_cast<int>(kAlphabet.size())))]);
      break;
    case 2:  // Delete a span.
      if (!text.empty()) {
        text.erase(pos(0), static_cast<std::size_t>(rng.UniformIn(1, 8)));
      }
      break;
    case 3:  // Duplicate a span somewhere else.
      if (!text.empty()) {
        const std::string span = text.substr(
            pos(0), static_cast<std::size_t>(rng.UniformIn(1, 16)));
        text.insert(pos(1), span);
      }
      break;
    default:  // Truncate.
      text.resize(pos(1));
      break;
  }
  return text;
}

// Checks the invariant on `text`; returns whether it parsed.
bool CheckQuery(const std::string& text) {
  Vocabulary vocab;
  StatusOr<ConjunctiveQuery> parsed = ParseQuery(text, &vocab);
  if (!parsed.ok()) {
    EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument) << text;
    EXPECT_FALSE(parsed.status().message().empty()) << text;
    return false;
  }
  const std::string rendered = ToString(*parsed, vocab);
  StatusOr<ConjunctiveQuery> again = ParseQuery(rendered, &vocab);
  EXPECT_TRUE(again.ok()) << again.status() << "\n  input: " << text
                          << "\n  rendered: " << rendered;
  if (!again.ok()) return true;
  EXPECT_EQ(*again, *parsed) << "\n  input: " << text
                             << "\n  rendered: " << rendered;
  EXPECT_EQ(ToString(*again, vocab), rendered) << text;
  return true;
}

TEST(QueryParserFuzzTest, MutatedQueriesAreTypedErrorsOrRoundTripStable) {
  Rng rng(0xf021'0001);
  const std::vector<std::string> seeds = Seeds();
  for (const std::string& seed : seeds) {
    EXPECT_TRUE(CheckQuery(seed)) << seed;
  }
  ASSERT_FALSE(::testing::Test::HasFailure()) << "a seed query failed";
  int accepted = 0;
  for (int run = 0; run < kRuns; ++run) {
    std::string text = seeds[static_cast<std::size_t>(
        rng.Uniform(static_cast<int>(seeds.size())))];
    const int edits = rng.UniformIn(1, 4);
    for (int e = 0; e < edits; ++e) text = Mutate(std::move(text), rng);
    if (CheckQuery(text)) ++accepted;
    if (::testing::Test::HasFailure()) {
      FAIL() << "run " << run << " input: " << text;
    }
  }
  // About one mutant in eleven parses; far fewer would mean the
  // mutations no longer reach the round-trip half of the invariant.
  EXPECT_GT(accepted, kRuns / 50);
}

}  // namespace
}  // namespace ontorew
