#include "fdep/fdep.h"

#include <gtest/gtest.h>

#include "core/dep_miner.h"
#include "relation/relation_builder.h"
#include "test_util.h"

namespace depminer {
namespace {

using ::depminer::testing::Fd;
using ::depminer::testing::PaperExampleRelation;
using ::depminer::testing::RandomRelation;

TEST(Fdep, PaperExampleMatchesDepMiner) {
  const Relation r = PaperExampleRelation();
  Result<FdepResult> fdep = FdepDiscover(r);
  ASSERT_TRUE(fdep.ok()) << fdep.status().ToString();
  EXPECT_EQ(fdep.value().fds.size(), 14u) << fdep.value().fds.ToString();
  Result<DepMinerResult> mined = MineDependencies(r);
  ASSERT_TRUE(mined.ok());
  EXPECT_EQ(fdep.value().fds.fds(), mined.value().fds.fds());
}

TEST(Fdep, ConstantColumnKeepsMostGeneralHypothesis) {
  Result<Relation> r = MakeRelation({{"c", "1"}, {"c", "2"}});
  ASSERT_TRUE(r.ok());
  Result<FdepResult> fdep = FdepDiscover(r.value());
  ASSERT_TRUE(fdep.ok());
  ASSERT_EQ(fdep.value().fds.size(), 1u);
  EXPECT_EQ(fdep.value().fds.fds()[0], Fd("", 'A'));
}

TEST(Fdep, UndeterminableAttributeGetsNoHypotheses) {
  // A pair agreeing everywhere except on B kills every hypothesis for B.
  Result<Relation> r = MakeRelation({{"x", "1"}, {"x", "2"}});
  ASSERT_TRUE(r.ok());
  Result<FdepResult> fdep = FdepDiscover(r.value());
  ASSERT_TRUE(fdep.ok());
  for (const FunctionalDependency& fd : fdep.value().fds.fds()) {
    EXPECT_NE(fd.rhs, 1u);
  }
}

TEST(Fdep, StatsArePopulated) {
  Result<FdepResult> fdep = FdepDiscover(PaperExampleRelation());
  ASSERT_TRUE(fdep.ok());
  EXPECT_EQ(fdep.value().stats.negative_cover_size, 9u);  // Example 9 counts
  EXPECT_GT(fdep.value().stats.specializations, 0u);
}

// Differential sweep against the oracle and Dep-Miner.
class FdepSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(FdepSweep, MatchesOracleAndDepMiner) {
  const uint64_t seed = GetParam();
  const Relation r =
      RandomRelation(3 + seed % 5, 20 + 6 * (seed % 6), 2 + seed % 5, seed);
  Result<FdepResult> fdep = FdepDiscover(r);
  ASSERT_TRUE(fdep.ok());
  EXPECT_TRUE(testing::IsExactMinimalFdSetOf(r, fdep.value().fds))
      << "seed " << seed;
  DepMinerOptions options;
  options.build_armstrong = false;
  Result<DepMinerResult> mined = MineDependencies(r, options);
  ASSERT_TRUE(mined.ok());
  EXPECT_EQ(fdep.value().fds.fds(), mined.value().fds.fds());
}

INSTANTIATE_TEST_SUITE_P(Seeds, FdepSweep, ::testing::Range<uint64_t>(0, 15));

}  // namespace
}  // namespace depminer
