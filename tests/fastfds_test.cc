#include "fastfds/fastfds.h"

#include <gtest/gtest.h>

#include "core/dep_miner.h"
#include "relation/relation_builder.h"
#include "test_util.h"

namespace depminer {
namespace {

using ::depminer::testing::Fd;
using ::depminer::testing::PaperExampleRelation;
using ::depminer::testing::RandomRelation;

TEST(FastFds, PaperExampleMatchesDepMiner) {
  const Relation r = PaperExampleRelation();
  Result<FastFdsResult> fast = FastFdsDiscover(r);
  ASSERT_TRUE(fast.ok()) << fast.status().ToString();
  EXPECT_EQ(fast.value().fds.size(), 14u) << fast.value().fds.ToString();
  Result<DepMinerResult> mined = MineDependencies(r);
  ASSERT_TRUE(mined.ok());
  EXPECT_EQ(fast.value().fds.fds(), mined.value().fds.fds());
}

TEST(FastFds, ConstantColumn) {
  Result<Relation> r = MakeRelation({{"c", "1"}, {"c", "2"}});
  ASSERT_TRUE(r.ok());
  Result<FastFdsResult> fast = FastFdsDiscover(r.value());
  ASSERT_TRUE(fast.ok());
  ASSERT_EQ(fast.value().fds.size(), 1u);
  EXPECT_EQ(fast.value().fds.fds()[0], Fd("", 'A'));
}

TEST(FastFds, NothingDeterminesIsolatedAttribute) {
  // Pair agreeing on everything but B: no non-trivial FD with rhs B.
  Result<Relation> r = MakeRelation({{"x", "1"}, {"x", "2"}});
  ASSERT_TRUE(r.ok());
  Result<FastFdsResult> fast = FastFdsDiscover(r.value());
  ASSERT_TRUE(fast.ok());
  for (const FunctionalDependency& fd : fast.value().fds.fds()) {
    EXPECT_NE(fd.rhs, 1u) << fd.ToString();
  }
  // A is constant here, so exactly one FD: ∅ -> A.
  EXPECT_EQ(fast.value().fds.size(), 1u);
}

TEST(FastFds, SingleTuple) {
  Result<Relation> r = MakeRelation({{"x", "y"}});
  ASSERT_TRUE(r.ok());
  Result<FastFdsResult> fast = FastFdsDiscover(r.value());
  ASSERT_TRUE(fast.ok());
  EXPECT_EQ(fast.value().fds.size(), 2u);  // both constant
}

TEST(FastFds, StatsArePopulated) {
  Result<FastFdsResult> fast = FastFdsDiscover(PaperExampleRelation());
  ASSERT_TRUE(fast.ok());
  EXPECT_EQ(fast.value().stats.difference_sets, 5u);  // |ag(r)| incl. ∅
  EXPECT_GT(fast.value().stats.search_nodes, 0u);
}

// Differential sweep against the exhaustive oracle and Dep-Miner.
struct FastParam {
  size_t attrs;
  size_t tuples;
  size_t domain;
  uint64_t seed;
};

class FastFdsSweep : public ::testing::TestWithParam<FastParam> {};

TEST_P(FastFdsSweep, MatchesOracleAndDepMiner) {
  const FastParam p = GetParam();
  const Relation r = RandomRelation(p.attrs, p.tuples, p.domain, p.seed);
  Result<FastFdsResult> fast = FastFdsDiscover(r);
  ASSERT_TRUE(fast.ok());
  EXPECT_TRUE(testing::IsExactMinimalFdSetOf(r, fast.value().fds))
      << "seed " << p.seed;
  DepMinerOptions options;
  options.build_armstrong = false;
  Result<DepMinerResult> mined = MineDependencies(r, options);
  ASSERT_TRUE(mined.ok());
  EXPECT_EQ(fast.value().fds.fds(), mined.value().fds.fds());
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, FastFdsSweep,
    ::testing::Values(
        FastParam{3, 20, 2, 41}, FastParam{4, 30, 2, 42},
        FastParam{4, 40, 3, 43}, FastParam{5, 50, 3, 44},
        FastParam{5, 30, 4, 45}, FastParam{6, 60, 4, 46},
        FastParam{6, 40, 2, 47}, FastParam{7, 50, 5, 48},
        FastParam{3, 150, 3, 49}, FastParam{8, 35, 4, 50},
        FastParam{5, 10, 2, 51}, FastParam{4, 100, 6, 52}));

}  // namespace
}  // namespace depminer
