// Property test: the optimized saturation core (rule index, hashed dedup,
// eager subsumption pruning) answers exactly like the naive
// explore-everything saturation.
//
// For each seeded random single-head program + random CQ, the minimized,
// canonically sorted rewriting of the naive configuration
// (eager_subsumption = false) must equal — CQ for CQ — the rewriting of
// the optimized configuration. Seeds whose naive saturation hits the
// divergence cap are skipped (the optimized core may legitimately
// terminate where the naive one diverges, since pruning shrinks the
// explored set); the reverse — the naive core succeeding where the
// optimized one fails — is a bug and fails the test. Runs under the
// regular and the sanitizer CI jobs.

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "base/fault_point.h"
#include "base/rng.h"
#include "gtest/gtest.h"
#include "logic/canonical.h"
#include "logic/parser.h"
#include "logic/printer.h"
#include "rewriting/rewriter.h"
#include "test_util.h"
#include "workload/generators.h"
#include "workload/university.h"

namespace ontorew {
namespace {

std::string DescribeUcq(const UnionOfCqs& ucq) {
  std::string out;
  for (const ConjunctiveQuery& cq : ucq.disjuncts()) {
    out += "  " + CanonicalCqKey(cq) + "\n";
  }
  return out;
}

// One seeded random single-head program and random CQ over it.
struct RandomCase {
  Vocabulary vocab;
  TgdProgram program;
  ConjunctiveQuery query;
};

RandomCase MakeRandomCase(std::uint64_t seed) {
  RandomCase c;
  Rng rng(seed);
  RandomProgramOptions program_options;
  program_options.num_rules = rng.UniformIn(3, 8);
  program_options.num_predicates = rng.UniformIn(3, 6);
  program_options.max_arity = rng.UniformIn(2, 3);
  program_options.max_body_atoms = rng.UniformIn(1, 3);
  program_options.max_head_atoms = 1;  // The rewriter is single-head.
  program_options.existential_prob = 0.3;
  program_options.repeat_prob = 0.1;
  program_options.constant_prob = 0.1;
  c.program = RandomProgram(program_options, &rng, &c.vocab);
  c.query = RandomCq(c.program, /*num_atoms=*/rng.UniformIn(1, 3),
                     /*num_answer_vars=*/rng.UniformIn(0, 2), &rng, &c.vocab);
  return c;
}

// Runs the naive reference (eager_subsumption = false) for `c`; returns
// an error when it hits the divergence cap.
StatusOr<RewriteResult> NaiveReference(const RandomCase& c) {
  RewriterOptions options;
  options.max_cqs = 400;
  options.eager_subsumption = false;
  return RewriteCq(c.query, c.program, options);
}

TEST(RewriterEquivalenceTest, OptimizedAndParallelMatchNaive) {
  constexpr int kSeeds = 160;
  constexpr int kRequiredComparisons = 100;
  int compared = 0;
  int skipped_divergent = 0;

  for (int seed = 0; seed < kSeeds; ++seed) {
    const RandomCase c =
        MakeRandomCase(0x5eed0000u + static_cast<std::uint64_t>(seed));
    StatusOr<RewriteResult> naive = NaiveReference(c);
    if (!naive.ok()) {
      // Divergent (or otherwise capped) seed: nothing to compare against.
      ++skipped_divergent;
      continue;
    }
    ++compared;

    RewriterOptions optimized_options;
    optimized_options.max_cqs = 400;
    StatusOr<RewriteResult> optimized =
        RewriteCq(c.query, c.program, optimized_options);
    // The optimized core explores a subset of the naive core's CQs, so
    // it must succeed wherever the naive core does.
    ASSERT_TRUE(optimized.ok())
        << "seed " << seed << ": " << optimized.status()
        << "\nquery: " << ToString(c.query, c.vocab);
    ASSERT_EQ(optimized->ucq.size(), naive->ucq.size())
        << "seed " << seed << "\nquery: " << ToString(c.query, c.vocab)
        << "\nnaive:\n" << DescribeUcq(naive->ucq)
        << "optimized:\n" << DescribeUcq(optimized->ucq);
    for (std::size_t i = 0; i < naive->ucq.disjuncts().size(); ++i) {
      EXPECT_EQ(optimized->ucq.disjuncts()[i], naive->ucq.disjuncts()[i])
          << "seed " << seed << " disjunct " << i << "\nnaive:     "
          << CanonicalCqKey(naive->ucq.disjuncts()[i]) << "\noptimized: "
          << CanonicalCqKey(optimized->ucq.disjuncts()[i]);
    }
  }
  // The generator parameters are tuned so most seeds terminate; make sure
  // drift in the generators cannot silently hollow the property out.
  EXPECT_GE(compared, kRequiredComparisons)
      << "only " << compared << " of " << kSeeds
      << " seeds terminated (skipped " << skipped_divergent << ")";
}

// The saturation core must produce the same canonical union however it is
// configured and however often it runs. A second seed family sweeps eager
// subsumption on/off, each run twice, against the naive reference (eager
// off — the configuration with the largest explored set, so every other
// configuration must terminate wherever it does). The core is serial; the
// sweep once also covered worker-thread counts of the removed pool.
TEST(RewriterEquivalenceTest, ThreadSweepProducesIdenticalUnions) {
  constexpr int kSeeds = 80;
  constexpr int kRequiredComparisons = 50;
  int compared = 0;

  for (int seed = 0; seed < kSeeds; ++seed) {
    const RandomCase c =
        MakeRandomCase(0x7a11e100u + static_cast<std::uint64_t>(seed));
    StatusOr<RewriteResult> reference = NaiveReference(c);
    if (!reference.ok()) continue;  // Divergent seed: nothing to compare.
    ++compared;

    for (int run = 0; run < 2; ++run) {
      for (bool eager : {true, false}) {
        RewriterOptions options;
        options.max_cqs = 400;
        options.eager_subsumption = eager;
        StatusOr<RewriteResult> result =
            RewriteCq(c.query, c.program, options);
        ASSERT_TRUE(result.ok())
            << "seed " << seed << " run " << run << " eager " << eager
            << ": " << result.status()
            << "\nquery: " << ToString(c.query, c.vocab);
        ASSERT_EQ(result->ucq.size(), reference->ucq.size())
            << "seed " << seed << " run " << run << " eager " << eager
            << "\nquery: " << ToString(c.query, c.vocab)
            << "\nreference:\n" << DescribeUcq(reference->ucq)
            << "got:\n" << DescribeUcq(result->ucq);
        for (std::size_t i = 0; i < reference->ucq.disjuncts().size();
             ++i) {
          EXPECT_EQ(result->ucq.disjuncts()[i],
                    reference->ucq.disjuncts()[i])
              << "seed " << seed << " run " << run << " eager " << eager
              << " disjunct " << i;
        }
      }
    }
  }
  EXPECT_GE(compared, kRequiredComparisons)
      << "only " << compared << " of " << kSeeds << " seeds terminated";
}

// All-or-nothing under failure: a rewrite.step fault armed to trip in
// the middle of the saturation must surface as the injected error —
// never a partial or corrupted union — and a rerun with the fault
// cleared must still produce the pristine reference result (no state
// leaks out of the failed run).
TEST(RewriterEquivalenceTest, MidSaturationFaultIsAllOrNothing) {
  Vocabulary vocab;
  TgdProgram ontology = UniversityOntology(&vocab);
  StatusOr<ConjunctiveQuery> query = ParseQuery(
      "q(X0) :- person(X0), knows(X0, X1), person(X1).", &vocab);
  ASSERT_TRUE(query.ok()) << query.status();

  RewriterOptions options;
  options.max_cqs = 300000;
  StatusOr<RewriteResult> reference = RewriteCq(*query, ontology, options);
  ASSERT_TRUE(reference.ok()) << reference.status();
  ASSERT_GT(reference->generated, 60);  // Room for a mid-saturation trip.
  {
    FaultPointConfig config;
    config.after = 50;  // Trips with many iterations still to come.
    ScopedFault fault("rewrite.step", config);
    StatusOr<RewriteResult> faulted = RewriteCq(*query, ontology, options);
    ASSERT_FALSE(faulted.ok());
    EXPECT_EQ(faulted.status().code(), StatusCode::kInternal)
        << faulted.status();
    EXPECT_NE(faulted.status().message().find("rewrite.step"),
              std::string::npos)
        << faulted.status();
  }
  StatusOr<RewriteResult> rerun = RewriteCq(*query, ontology, options);
  ASSERT_TRUE(rerun.ok()) << rerun.status();
  ASSERT_EQ(rerun->ucq.size(), reference->ucq.size());
  for (std::size_t i = 0; i < reference->ucq.disjuncts().size(); ++i) {
    EXPECT_EQ(rerun->ucq.disjuncts()[i], reference->ucq.disjuncts()[i])
        << "disjunct " << i;
  }
}

}  // namespace
}  // namespace ontorew
