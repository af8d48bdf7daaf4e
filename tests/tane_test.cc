#include "tane/tane.h"

#include <gtest/gtest.h>

#include "core/dep_miner.h"
#include "fd/naive_discovery.h"
#include "fd/satisfaction.h"
#include "relation/relation_builder.h"
#include "test_util.h"

namespace depminer {
namespace {

using ::depminer::testing::Fd;
using ::depminer::testing::PaperExampleRelation;
using ::depminer::testing::RandomRelation;

TEST(Tane, PaperExampleMatchesDepMiner) {
  const Relation r = PaperExampleRelation();
  Result<TaneResult> tane = TaneDiscover(r);
  ASSERT_TRUE(tane.ok()) << tane.status().ToString();
  EXPECT_EQ(tane.value().fds.size(), 14u) << tane.value().fds.ToString();
  Result<DepMinerResult> mined = MineDependencies(r);
  ASSERT_TRUE(mined.ok());
  EXPECT_EQ(tane.value().fds.fds(), mined.value().fds.fds());
}

TEST(Tane, ConstantColumn) {
  Result<Relation> r = MakeRelation({{"c", "1"}, {"c", "2"}});
  ASSERT_TRUE(r.ok());
  Result<TaneResult> tane = TaneDiscover(r.value());
  ASSERT_TRUE(tane.ok());
  ASSERT_EQ(tane.value().fds.size(), 1u) << tane.value().fds.ToString();
  EXPECT_EQ(tane.value().fds.fds()[0], Fd("", 'A'));
}

TEST(Tane, SingleTuple) {
  Result<Relation> r = MakeRelation({{"x", "y", "z"}});
  ASSERT_TRUE(r.ok());
  Result<TaneResult> tane = TaneDiscover(r.value());
  ASSERT_TRUE(tane.ok());
  EXPECT_EQ(tane.value().fds.size(), 3u);  // everything constant
}

TEST(Tane, KeyColumnPruning) {
  Result<Relation> r = MakeRelation({
      {"1", "a", "x"}, {"2", "a", "x"}, {"3", "b", "y"},
  });
  ASSERT_TRUE(r.ok());
  Result<TaneResult> tane = TaneDiscover(r.value());
  ASSERT_TRUE(tane.ok());
  const FdSet& fds = tane.value().fds;
  EXPECT_TRUE(fds.Implies(Fd("A", 'B')));  // A is a key
  EXPECT_TRUE(fds.Implies(Fd("A", 'C')));
  EXPECT_TRUE(fds.Implies(Fd("B", 'C')));
  EXPECT_TRUE(testing::IsExactMinimalFdSetOf(r.value(), fds));
}

TEST(Tane, RejectsBadErrorThreshold) {
  const Relation r = PaperExampleRelation();
  TaneOptions options;
  options.mining.max_g3_error = 1.5;
  EXPECT_FALSE(TaneDiscover(r, options).ok());
  options.mining.max_g3_error = -0.1;
  EXPECT_FALSE(TaneDiscover(r, options).ok());
}

TEST(Tane, StatsArePopulated) {
  Result<TaneResult> tane = TaneDiscover(PaperExampleRelation());
  ASSERT_TRUE(tane.ok());
  const TaneStats& stats = tane.value().stats;
  EXPECT_GE(stats.levels, 2u);
  EXPECT_GE(stats.candidates_generated, 5u);
  EXPECT_GT(stats.partition_products, 0u);
}

TEST(TaneApproximate, FindsFdsWithinThreshold) {
  // A -> B holds for 5 of 6 tuples: g3(A -> B) = 1/6.
  Result<Relation> r = MakeRelation({
      {"x", "1"}, {"x", "1"}, {"x", "1"}, {"x", "1"}, {"x", "1"}, {"x", "2"},
  });
  ASSERT_TRUE(r.ok());
  TaneOptions strict;
  Result<TaneResult> exact = TaneDiscover(r.value(), strict);
  ASSERT_TRUE(exact.ok());
  EXPECT_FALSE(exact.value().fds.Implies(Fd("A", 'B')));

  TaneOptions loose;
  loose.mining.max_g3_error = 0.2;  // 1/6 < 0.2
  Result<TaneResult> approx = TaneDiscover(r.value(), loose);
  ASSERT_TRUE(approx.ok());
  EXPECT_TRUE(approx.value().fds.Implies(Fd("", 'A')));  // constant column
  // ∅ -> B approximately holds too (remove one tuple): it is minimal.
  EXPECT_TRUE(approx.value().fds.Implies(Fd("", 'B')))
      << approx.value().fds.ToString();
}

TEST(TaneApproximate, ReportedFdsRespectG3Bound) {
  const Relation r = RandomRelation(4, 60, 3, 42);
  TaneOptions options;
  options.mining.max_g3_error = 0.1;
  Result<TaneResult> approx = TaneDiscover(r, options);
  ASSERT_TRUE(approx.ok());
  for (const FunctionalDependency& fd : approx.value().fds.fds()) {
    EXPECT_LE(G3Error(r, fd.lhs, fd.rhs), 0.1) << fd.ToString();
  }
}

TEST(TaneParallel, ThreadCountDoesNotChangeResults) {
  const Relation r = RandomRelation(8, 400, 4, 91);
  Result<TaneResult> serial = TaneDiscover(r);
  ASSERT_TRUE(serial.ok());
  for (size_t threads : {2u, 4u, 16u}) {
    TaneOptions options;
    options.num_threads = threads;
    Result<TaneResult> parallel = TaneDiscover(r, options);
    ASSERT_TRUE(parallel.ok());
    EXPECT_EQ(parallel.value().fds.fds(), serial.value().fds.fds())
        << threads << " threads";
    EXPECT_EQ(parallel.value().stats.partition_products,
              serial.value().stats.partition_products);
  }
}

TEST(TaneAblation, KeyPruningDoesNotChangeResults) {
  for (uint64_t seed : {1ull, 7ull, 19ull}) {
    const Relation r = RandomRelation(6, 50, 3, seed);
    TaneOptions no_pruning;
    no_pruning.enable_key_pruning = false;
    Result<TaneResult> pruned = TaneDiscover(r);
    Result<TaneResult> unpruned = TaneDiscover(r, no_pruning);
    ASSERT_TRUE(pruned.ok());
    ASSERT_TRUE(unpruned.ok());
    EXPECT_EQ(pruned.value().fds.fds(), unpruned.value().fds.fds())
        << "seed " << seed;
    // Pruning can only shrink the lattice.
    EXPECT_LE(pruned.value().stats.candidates_generated,
              unpruned.value().stats.candidates_generated);
  }
}

// Differential sweep: TANE ≡ exhaustive oracle ≡ Dep-Miner on random
// relations (this is the paper's claim that both algorithms compute the
// same minimal cover, differing only in cost).
struct TaneParam {
  size_t attrs;
  size_t tuples;
  size_t domain;
  uint64_t seed;
};

class TaneSweep : public ::testing::TestWithParam<TaneParam> {};

TEST_P(TaneSweep, MatchesOracleAndDepMiner) {
  const TaneParam p = GetParam();
  const Relation r = RandomRelation(p.attrs, p.tuples, p.domain, p.seed);
  Result<TaneResult> tane = TaneDiscover(r);
  ASSERT_TRUE(tane.ok());
  EXPECT_TRUE(testing::IsExactMinimalFdSetOf(r, tane.value().fds))
      << "seed " << p.seed;
  DepMinerOptions options;
  options.build_armstrong = false;
  Result<DepMinerResult> mined = MineDependencies(r, options);
  ASSERT_TRUE(mined.ok());
  EXPECT_EQ(tane.value().fds.fds(), mined.value().fds.fds());
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, TaneSweep,
    ::testing::Values(
        TaneParam{3, 20, 2, 21}, TaneParam{4, 30, 2, 22},
        TaneParam{4, 40, 3, 23}, TaneParam{5, 50, 3, 24},
        TaneParam{5, 30, 4, 25}, TaneParam{6, 60, 4, 26},
        TaneParam{6, 40, 2, 27}, TaneParam{7, 50, 5, 28},
        TaneParam{3, 150, 3, 29}, TaneParam{8, 35, 4, 30},
        TaneParam{5, 10, 2, 31}, TaneParam{4, 100, 6, 32},
        TaneParam{7, 25, 3, 33}, TaneParam{6, 80, 8, 34},
        TaneParam{5, 45, 2, 35}));

}  // namespace
}  // namespace depminer
