#include "core/armstrong.h"
#include "core/armstrong_bounds.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "core/dep_miner.h"
#include "fd/naive_discovery.h"
#include "relation/csv.h"
#include "relation/relation_builder.h"
#include "test_util.h"

namespace depminer {
namespace {

using ::depminer::testing::RandomRelation;
using ::depminer::testing::Sets;

std::vector<AttributeSet> MaxSetsOf(const Relation& r) {
  Result<DepMinerResult> mined = MineDependencies(r);
  EXPECT_TRUE(mined.ok());
  return mined.value().all_max_sets;
}

/// Unwraps the now-fallible synthetic construction for the happy-path
/// tests below.
Relation MustBuildSynthetic(const Schema& schema,
                            const std::vector<AttributeSet>& max_sets) {
  Result<Relation> built = BuildSyntheticArmstrong(schema, max_sets);
  EXPECT_TRUE(built.ok()) << built.status().ToString();
  return std::move(built).value();
}

TEST(SyntheticArmstrong, SizeIsMaxSetsPlusOne) {
  const Schema schema = Schema::Default(4);
  const std::vector<AttributeSet> max_sets = Sets({"AB", "CD", "A"});
  const Relation armstrong = MustBuildSynthetic(schema, max_sets);
  EXPECT_EQ(armstrong.num_tuples(), 4u);
  EXPECT_EQ(armstrong.num_attributes(), 4u);
}

TEST(SyntheticArmstrong, EquationOnePattern) {
  const Schema schema = Schema::Default(3);
  const Relation armstrong = MustBuildSynthetic(schema, Sets({"AB"}));
  // Tuple 0 is all zeros; tuple 1 agrees with it exactly on AB.
  EXPECT_EQ(armstrong.Value(0, 0), "0");
  EXPECT_EQ(armstrong.Value(0, 2), "0");
  EXPECT_EQ(armstrong.Value(1, 0), "0");
  EXPECT_EQ(armstrong.Value(1, 1), "0");
  EXPECT_EQ(armstrong.Value(1, 2), "1");
  EXPECT_EQ(armstrong.AgreeSetOf(0, 1), AttributeSet::FromLetters("AB"));
}

TEST(SyntheticArmstrong, NoMaxSetsGivesSingleTuple) {
  // |r| ≤ 1 or all FDs hold: MAX empty, Armstrong relation is one tuple.
  const Relation armstrong = MustBuildSynthetic(Schema::Default(3), {});
  EXPECT_EQ(armstrong.num_tuples(), 1u);
  EXPECT_TRUE(IsArmstrongFor(armstrong, {}));
}

// These failure paths must surface as a Status in every build mode — the
// old assert(st.ok()) guard compiled out under NDEBUG and let a Release
// build hand back a corrupt relation.
TEST(SyntheticArmstrong, EmptySchemaFailsWithStatus) {
  Result<Relation> built = BuildSyntheticArmstrong(Schema(), {});
  ASSERT_FALSE(built.ok());
  EXPECT_EQ(built.status().code(), StatusCode::kInvalidArgument);
}

TEST(SyntheticArmstrong, OutOfSchemaMaxSetFailsWithStatus) {
  // Max set {D} over a 3-attribute schema: Equation 1 could only drop the
  // out-of-range attribute and silently build the wrong relation.
  Result<Relation> built =
      BuildSyntheticArmstrong(Schema::Default(3), Sets({"AD"}));
  ASSERT_FALSE(built.ok());
  EXPECT_EQ(built.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(built.status().message().find("schema"), std::string::npos);
}

TEST(RealWorldArmstrong, Proposition1Failure) {
  // Attribute B has a single distinct value but one max set excludes B:
  // needs 2 values — construction must fail.
  Result<Relation> r = MakeRelation({{"1", "c"}, {"2", "c"}});
  ASSERT_TRUE(r.ok());
  const std::vector<AttributeSet> max_sets = Sets({"A"});  // excludes B
  const Status st = RealWorldArmstrongExists(r.value(), max_sets);
  EXPECT_EQ(st.code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(st.message().find("B"), std::string::npos);
  EXPECT_FALSE(BuildRealWorldArmstrong(r.value(), max_sets).ok());
}

TEST(RealWorldArmstrong, ValuesComeFromInitialRelation) {
  const Relation r = RandomRelation(4, 50, 20, 3);
  const std::vector<AttributeSet> max_sets = MaxSetsOf(r);
  Result<Relation> armstrong = BuildRealWorldArmstrong(r, max_sets);
  ASSERT_TRUE(armstrong.ok()) << armstrong.status().ToString();
  for (TupleId t = 0; t < armstrong.value().num_tuples(); ++t) {
    for (AttributeId a = 0; a < 4; ++a) {
      const std::vector<std::string>& column = r.Dictionary(a);
      EXPECT_NE(std::find(column.begin(), column.end(),
                          armstrong.value().Value(t, a)),
                column.end());
    }
  }
}

// Under SQL NULL semantics each NULL gets a code of its own, yet every
// NULL reads as the token: Equation 2 must count the token as one value,
// or two "distinct" values it hands out are one string and agree.
TEST(RealWorldArmstrong, NullTokenIsOneValue) {
  CsvOptions csv;
  csv.nulls_distinct = true;
  csv.null_token = "NA";
  Result<Relation> r = ParseCsvRelation(
      "a,b,c\nNA,NA,1\n1,NA,1\n2,x,2\n3,x,3\n3,y,4\n", csv);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  Result<DepMinerResult> mined = MineDependencies(r.value());
  ASSERT_TRUE(mined.ok());
  const std::vector<AttributeSet>& max_sets = mined.value().all_max_sets;
  EXPECT_TRUE(RealWorldArmstrongExists(r.value(), max_sets).ok());
  ASSERT_TRUE(mined.value().armstrong.has_value())
      << mined.value().armstrong_status.ToString();
  const Relation& sample = *mined.value().armstrong;
  EXPECT_EQ(sample.num_tuples(), 4u);
  EXPECT_TRUE(IsArmstrongFor(sample, max_sets));
  Result<DepMinerResult> remined = MineDependencies(sample);
  ASSERT_TRUE(remined.ok());
  EXPECT_EQ(remined.value().fds.fds(), mined.value().fds.fds());
}

TEST(IsArmstrongFor, AcceptsExactAndRejectsWrong) {
  const Schema schema = Schema::Default(3);
  const std::vector<AttributeSet> max_sets = Sets({"AB", "C"});
  const Relation good = MustBuildSynthetic(schema, max_sets);
  EXPECT_TRUE(IsArmstrongFor(good, max_sets));
  // Against a different max family the same relation must fail: either a
  // generator is missing or an agree set is not closed.
  EXPECT_FALSE(IsArmstrongFor(good, Sets({"AB", "BC"})));
  EXPECT_FALSE(IsArmstrongFor(good, Sets({"AB"})));
}

TEST(IsArmstrongFor, DetectsUnclosedAgreeSet) {
  // Relation whose pair agrees on A, but the family says the only
  // generator is AB: the agree set {A} is not closed (closure is AB).
  Result<Relation> r = MakeRelation({{"x", "1"}, {"x", "2"}});
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(IsArmstrongFor(r.value(), Sets({"AB"})));
}

TEST(ArmstrongBounds, LowerBoundFormula) {
  EXPECT_EQ(ArmstrongSizeLowerBound(0), 1u);
  EXPECT_EQ(ArmstrongSizeLowerBound(1), 2u);   // C(2,2) = 1
  EXPECT_EQ(ArmstrongSizeLowerBound(3), 3u);   // C(3,2) = 3
  EXPECT_EQ(ArmstrongSizeLowerBound(4), 4u);   // C(3,2) = 3 < 4 ≤ 6
  EXPECT_EQ(ArmstrongSizeLowerBound(10), 5u);  // C(5,2) = 10
  EXPECT_EQ(ArmstrongSizeLowerBound(11), 6u);
}

TEST(ArmstrongBounds, ConstructionsRespectTheBound) {
  for (uint64_t seed : {2ull, 9ull, 23ull}) {
    const Relation r = RandomRelation(5, 40, 4, seed);
    const std::vector<AttributeSet> max_sets = MaxSetsOf(r);
    const size_t built = ArmstrongConstructionSize(max_sets.size());
    EXPECT_GE(built, ArmstrongSizeLowerBound(max_sets.size()));
    const Relation synthetic = MustBuildSynthetic(r.schema(), max_sets);
    EXPECT_EQ(synthetic.num_tuples(), built);
  }
}

// The headline guarantee: both constructions are Armstrong relations for
// dep(r), i.e. mining them back gives exactly the same minimal FDs.
class ArmstrongSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ArmstrongSweep, BothConstructionsAreArmstrong) {
  const uint64_t seed = GetParam();
  // Vary shape with the seed; domains high enough that Proposition 1
  // usually holds, small enough to create real dependencies.
  const size_t attrs = 3 + seed % 4;
  const Relation r = RandomRelation(attrs, 30 + 5 * (seed % 5),
                                    6 + seed % 20, seed);
  Result<DepMinerResult> mined = MineDependencies(r);
  ASSERT_TRUE(mined.ok());
  const std::vector<AttributeSet>& max_sets = mined.value().all_max_sets;

  const Relation synthetic = MustBuildSynthetic(r.schema(), max_sets);
  EXPECT_TRUE(IsArmstrongFor(synthetic, max_sets));
  Result<DepMinerResult> resynth = MineDependencies(synthetic);
  ASSERT_TRUE(resynth.ok());
  EXPECT_EQ(resynth.value().fds.fds(), mined.value().fds.fds());

  Result<Relation> real = BuildRealWorldArmstrong(r, max_sets);
  if (real.ok()) {
    EXPECT_TRUE(IsArmstrongFor(real.value(), max_sets));
    EXPECT_EQ(real.value().num_tuples(), max_sets.size() + 1);
    Result<DepMinerResult> remined = MineDependencies(real.value());
    ASSERT_TRUE(remined.ok());
    EXPECT_EQ(remined.value().fds.fds(), mined.value().fds.fds());
  } else {
    // Only acceptable failure: Proposition 1 genuinely violated.
    EXPECT_EQ(real.status().code(), StatusCode::kFailedPrecondition);
    bool deficient = false;
    for (AttributeId a = 0; a < r.num_attributes(); ++a) {
      size_t excluding = 0;
      for (const AttributeSet& m : max_sets) {
        if (!m.Contains(a)) ++excluding;
      }
      if (r.DistinctCount(a) < excluding + 1) deficient = true;
    }
    EXPECT_TRUE(deficient);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ArmstrongSweep,
                         ::testing::Range<uint64_t>(0, 20));

}  // namespace
}  // namespace depminer
