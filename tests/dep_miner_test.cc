#include "core/dep_miner.h"

#include <gtest/gtest.h>

#include "fd/naive_discovery.h"
#include "relation/relation_builder.h"
#include "test_util.h"

namespace depminer {
namespace {

using ::depminer::testing::Fd;
using ::depminer::testing::PaperExampleRelation;
using ::depminer::testing::RandomRelation;

TEST(DepMiner, DefaultRunProducesEverything) {
  const Relation r = PaperExampleRelation();
  Result<DepMinerResult> mined = MineDependencies(r);
  ASSERT_TRUE(mined.ok());
  const DepMinerResult& out = mined.value();
  EXPECT_EQ(out.fds.size(), 14u);
  EXPECT_EQ(out.all_max_sets.size(), 3u);
  EXPECT_TRUE(out.armstrong.has_value());
  EXPECT_TRUE(out.armstrong_status.ok());
  EXPECT_EQ(out.stats.num_fds, 14u);
  EXPECT_EQ(out.stats.num_couples, 6u);
  EXPECT_GE(out.stats.Total(), 0.0);
}

TEST(DepMiner, AllAgreeSetAlgorithmsGiveSameFds) {
  const Relation r = RandomRelation(5, 80, 4, 55);
  std::vector<FdSet> results;
  for (AgreeSetAlgorithm algorithm :
       {AgreeSetAlgorithm::kNaive, AgreeSetAlgorithm::kCouples,
        AgreeSetAlgorithm::kIdentifiers}) {
    DepMinerOptions options;
    options.agree_set_algorithm = algorithm;
    Result<DepMinerResult> mined = MineDependencies(r, options);
    ASSERT_TRUE(mined.ok()) << ToString(algorithm);
    results.push_back(mined.value().fds);
  }
  EXPECT_EQ(results[0].fds(), results[1].fds());
  EXPECT_EQ(results[0].fds(), results[2].fds());
}

TEST(DepMiner, ChunkThresholdKeepsResultsIdentical) {
  const Relation r = RandomRelation(4, 60, 3, 77);
  DepMinerOptions base;
  Result<DepMinerResult> reference = MineDependencies(r, base);
  ASSERT_TRUE(reference.ok());
  DepMinerOptions chunked = base;
  chunked.max_couples_per_chunk = 5;
  Result<DepMinerResult> result = MineDependencies(r, chunked);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().fds.fds(), reference.value().fds.fds());
  EXPECT_GT(result.value().stats.chunks, 1u);
}

TEST(DepMiner, ArmstrongCanBeDisabled) {
  DepMinerOptions options;
  options.build_armstrong = false;
  Result<DepMinerResult> mined =
      MineDependencies(PaperExampleRelation(), options);
  ASSERT_TRUE(mined.ok());
  EXPECT_FALSE(mined.value().armstrong.has_value());
}

TEST(DepMiner, DbOverloadWithoutRelationSkipsArmstrong) {
  const Relation r = PaperExampleRelation();
  const StrippedPartitionDatabase db =
      StrippedPartitionDatabase::FromRelation(r);
  Result<DepMinerResult> mined = MineDependencies(db, nullptr);
  ASSERT_TRUE(mined.ok());
  EXPECT_EQ(mined.value().fds.size(), 14u);
  EXPECT_FALSE(mined.value().armstrong.has_value());
  EXPECT_FALSE(mined.value().armstrong_status.ok());
}

TEST(DepMiner, SingleTupleRelation) {
  Result<Relation> r = MakeRelation({{"x", "y"}});
  ASSERT_TRUE(r.ok());
  Result<DepMinerResult> mined = MineDependencies(r.value());
  ASSERT_TRUE(mined.ok());
  // Every attribute is constant: ∅ → A and ∅ → B.
  ASSERT_EQ(mined.value().fds.size(), 2u);
  EXPECT_EQ(mined.value().fds.fds()[0], Fd("", 'A'));
  EXPECT_EQ(mined.value().fds.fds()[1], Fd("", 'B'));
  // MAX(dep(r)) is empty; the Armstrong relation is a single tuple.
  EXPECT_TRUE(mined.value().all_max_sets.empty());
  ASSERT_TRUE(mined.value().armstrong.has_value());
  EXPECT_EQ(mined.value().armstrong->num_tuples(), 1u);
}

TEST(DepMiner, EmptyRelationAllFdsHold) {
  RelationBuilder b(Schema::Default(2));
  Result<Relation> r = std::move(b).Finish();
  ASSERT_TRUE(r.ok());
  Result<DepMinerResult> mined = MineDependencies(r.value());
  ASSERT_TRUE(mined.ok());
  EXPECT_EQ(mined.value().fds.size(), 2u);  // ∅ -> A, ∅ -> B vacuously
}

TEST(DepMiner, ConstantAndKeyColumns) {
  Result<Relation> r = MakeRelation({
      {"c", "1", "x"},
      {"c", "2", "x"},
      {"c", "3", "y"},
  });
  ASSERT_TRUE(r.ok());
  Result<DepMinerResult> mined = MineDependencies(r.value());
  ASSERT_TRUE(mined.ok());
  const FdSet& fds = mined.value().fds;
  // ∅ -> A (constant); B -> C (B is a key).
  EXPECT_TRUE(fds.Implies(Fd("", 'A')));
  EXPECT_TRUE(fds.Implies(Fd("B", 'C')));
  EXPECT_FALSE(fds.Implies(Fd("C", 'B')));
  EXPECT_TRUE(testing::IsExactMinimalFdSetOf(r.value(), fds));
}

TEST(DepMiner, DuplicateTuplesOnly) {
  Result<Relation> r = MakeRelation({{"a", "b"}, {"a", "b"}});
  ASSERT_TRUE(r.ok());
  Result<DepMinerResult> mined = MineDependencies(r.value());
  ASSERT_TRUE(mined.ok());
  // Both columns constant.
  EXPECT_EQ(mined.value().fds.size(), 2u);
  EXPECT_TRUE(testing::IsExactMinimalFdSetOf(r.value(), mined.value().fds));
}

TEST(DepMiner, TwoTuplesDisagreeEverywhere) {
  Result<Relation> r = MakeRelation({{"1", "x"}, {"2", "y"}});
  ASSERT_TRUE(r.ok());
  Result<DepMinerResult> mined = MineDependencies(r.value());
  ASSERT_TRUE(mined.ok());
  // A -> B and B -> A are the minimal FDs (singleton keys).
  ASSERT_EQ(mined.value().fds.size(), 2u);
  EXPECT_EQ(mined.value().fds.fds()[0], Fd("B", 'A'));
  EXPECT_EQ(mined.value().fds.fds()[1], Fd("A", 'B'));
  EXPECT_TRUE(testing::IsExactMinimalFdSetOf(r.value(), mined.value().fds));
}

TEST(DepMiner, StatsTimingsAreConsistent) {
  const Relation r = RandomRelation(6, 200, 5, 31);
  Result<DepMinerResult> mined = MineDependencies(r);
  ASSERT_TRUE(mined.ok());
  const DepMinerStats& stats = mined.value().stats;
  EXPECT_GE(stats.strip_seconds, 0.0);
  EXPECT_GE(stats.agree_seconds, 0.0);
  EXPECT_DOUBLE_EQ(stats.Total(),
                   stats.strip_seconds + stats.agree_seconds +
                       stats.max_seconds + stats.lhs_seconds +
                       stats.armstrong_seconds);
  EXPECT_EQ(stats.num_fds, mined.value().fds.size());
  EXPECT_EQ(stats.num_max_sets, mined.value().all_max_sets.size());
}

// Differential oracle sweep: Dep-Miner (all three agree-set variants)
// equals exhaustive discovery on randomized relations of varied shape.
struct OracleParam {
  size_t attrs;
  size_t tuples;
  size_t domain;
  uint64_t seed;
};

class DepMinerOracleSweep : public ::testing::TestWithParam<OracleParam> {};

TEST_P(DepMinerOracleSweep, MatchesNaiveDiscovery) {
  const OracleParam p = GetParam();
  const Relation r = RandomRelation(p.attrs, p.tuples, p.domain, p.seed);
  for (AgreeSetAlgorithm algorithm :
       {AgreeSetAlgorithm::kCouples, AgreeSetAlgorithm::kIdentifiers}) {
    DepMinerOptions options;
    options.agree_set_algorithm = algorithm;
    options.build_armstrong = false;
    Result<DepMinerResult> mined = MineDependencies(r, options);
    ASSERT_TRUE(mined.ok());
    EXPECT_TRUE(testing::IsExactMinimalFdSetOf(r, mined.value().fds))
        << "algorithm " << ToString(algorithm) << " seed " << p.seed;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, DepMinerOracleSweep,
    ::testing::Values(
        OracleParam{3, 20, 2, 1}, OracleParam{4, 30, 2, 2},
        OracleParam{4, 30, 3, 3}, OracleParam{5, 40, 3, 4},
        OracleParam{5, 60, 4, 5}, OracleParam{6, 40, 3, 6},
        OracleParam{6, 60, 6, 7}, OracleParam{7, 50, 4, 8},
        OracleParam{3, 100, 2, 9}, OracleParam{8, 40, 5, 10},
        OracleParam{5, 15, 2, 11}, OracleParam{4, 200, 4, 12},
        OracleParam{7, 30, 2, 13}, OracleParam{6, 25, 10, 14},
        OracleParam{5, 50, 2, 15}));

}  // namespace
}  // namespace depminer
