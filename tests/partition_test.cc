#include "partition/partition.h"

#include <gtest/gtest.h>

#include "partition/partition_database.h"
#include "partition/partition_product.h"
#include "partition/stripped_partition.h"
#include "relation/relation_builder.h"
#include "test_util.h"

namespace depminer {
namespace {

using ::depminer::testing::PaperExampleRelation;
using ::depminer::testing::RandomRelation;

TEST(Partition, ForAttributeGroupsEqualValues) {
  Result<Relation> r = MakeRelation({{"x"}, {"y"}, {"x"}, {"z"}, {"y"}});
  ASSERT_TRUE(r.ok());
  const Partition p = Partition::ForAttribute(r.value(), 0);
  EXPECT_EQ(p.num_classes(), 3u);
  EXPECT_EQ(p.num_tuples(), 5u);
  EXPECT_EQ(p.CoveredTuples(), 5u);
  EXPECT_EQ(p.ToString(), "{{1,3}, {2,5}, {4}}");
}

TEST(Partition, ForEmptySetIsSingleClass) {
  const Relation r = PaperExampleRelation();
  const Partition p = Partition::ForSet(r, AttributeSet());
  EXPECT_EQ(p.num_classes(), 1u);
  EXPECT_EQ(p.classes()[0].size(), 7u);
}

TEST(Partition, ForSetMatchesPairwiseAgreement) {
  const Relation r = RandomRelation(4, 40, 3, 17);
  const AttributeSet x = AttributeSet::FromLetters("AC");
  const Partition p = Partition::ForSet(r, x);
  // Two tuples share a class iff they agree on X.
  std::vector<size_t> class_of(r.num_tuples());
  for (size_t i = 0; i < p.classes().size(); ++i) {
    for (TupleId t : p.classes()[i]) class_of[t] = i;
  }
  for (TupleId i = 0; i < r.num_tuples(); ++i) {
    for (TupleId j = i + 1; j < r.num_tuples(); ++j) {
      EXPECT_EQ(class_of[i] == class_of[j], r.Agree(i, j, x))
          << "tuples " << i << "," << j;
    }
  }
}

TEST(Partition, RefinesIsReflexiveAndRespectsSubsets) {
  const Relation r = RandomRelation(4, 50, 4, 3);
  const Partition pa = Partition::ForSet(r, AttributeSet::FromLetters("A"));
  const Partition pab = Partition::ForSet(r, AttributeSet::FromLetters("AB"));
  EXPECT_TRUE(pa.Refines(pa));
  EXPECT_TRUE(pab.Refines(pa));   // more attributes refine
  // The converse typically fails on random data with small domains.
  EXPECT_FALSE(pa.Refines(pab));
}

TEST(Partition, RankCountsSingletons) {
  Result<Relation> r = MakeRelation({{"x"}, {"y"}, {"x"}});
  ASSERT_TRUE(r.ok());
  const Partition p = Partition::ForAttribute(r.value(), 0);
  EXPECT_EQ(p.Rank(), 2u);
  EXPECT_EQ(p.ErrorCount(), 1u);  // {1,3} contributes |c|-1 = 1
}

TEST(StrippedPartition, DropsSingletons) {
  Result<Relation> r = MakeRelation({{"x"}, {"y"}, {"x"}, {"z"}});
  ASSERT_TRUE(r.ok());
  const StrippedPartition sp = StrippedPartition::ForAttribute(r.value(), 0);
  EXPECT_EQ(sp.num_classes(), 1u);
  EXPECT_EQ(sp.classes()[0], (EquivalenceClass{0, 2}));
  EXPECT_EQ(sp.CoveredTuples(), 2u);
  EXPECT_EQ(sp.num_tuples(), 4u);
}

TEST(StrippedPartition, AllDistinctValuesGivesEmpty) {
  Result<Relation> r = MakeRelation({{"a"}, {"b"}, {"c"}});
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(StrippedPartition::ForAttribute(r.value(), 0).Empty());
}

TEST(StrippedPartition, UnstripRestoresPartition) {
  const Relation r = RandomRelation(3, 30, 4, 11);
  for (AttributeId a = 0; a < 3; ++a) {
    const Partition full = Partition::ForAttribute(r, a);
    const StrippedPartition sp = StrippedPartition::FromPartition(full);
    EXPECT_EQ(sp.Unstrip(), full);
  }
}

TEST(StrippedPartitionDatabase, PaperExampleMemberships) {
  const Relation r = PaperExampleRelation();
  const StrippedPartitionDatabase db =
      StrippedPartitionDatabase::FromRelation(r);
  EXPECT_EQ(db.num_attributes(), 5u);
  EXPECT_EQ(db.num_tuples(), 7u);
  // π̂_A covers 2, π̂_B 6, π̂_C 2, π̂_D 6, π̂_E 7 → 23 memberships.
  EXPECT_EQ(db.TotalMemberships(), 23u);
}

TEST(PartitionProduct, MatchesDirectComputation) {
  const Relation r = RandomRelation(5, 60, 3, 23);
  PartitionProductWorkspace ws(r.num_tuples());
  for (AttributeId a = 0; a < 5; ++a) {
    for (AttributeId b = 0; b < 5; ++b) {
      if (a == b) continue;
      const StrippedPartition pa = StrippedPartition::ForAttribute(r, a);
      const StrippedPartition pb = StrippedPartition::ForAttribute(r, b);
      AttributeSet ab;
      ab.Add(a);
      ab.Add(b);
      const StrippedPartition expected = StrippedPartition::FromPartition(
          Partition::ForSet(r, ab));
      EXPECT_EQ(ws.Product(pa, pb), expected)
          << "attributes " << a << "," << b;
    }
  }
}

TEST(PartitionProduct, Commutative) {
  const Relation r = RandomRelation(4, 80, 2, 5);
  const StrippedPartition pa = StrippedPartition::ForAttribute(r, 0);
  const StrippedPartition pb = StrippedPartition::ForAttribute(r, 1);
  EXPECT_EQ(PartitionProduct(pa, pb), PartitionProduct(pb, pa));
}

TEST(PartitionProduct, WithSelfIsIdentity) {
  const Relation r = RandomRelation(3, 50, 3, 7);
  const StrippedPartition p = StrippedPartition::ForAttribute(r, 0);
  EXPECT_EQ(PartitionProduct(p, p), p);
}

TEST(PartitionProduct, WorkspaceReusableAcrossCalls) {
  const Relation r = RandomRelation(4, 50, 2, 9);
  PartitionProductWorkspace ws(r.num_tuples());
  const StrippedPartition pa = StrippedPartition::ForAttribute(r, 0);
  const StrippedPartition pb = StrippedPartition::ForAttribute(r, 1);
  const StrippedPartition first = ws.Product(pa, pb);
  const StrippedPartition second = ws.Product(pa, pb);
  EXPECT_EQ(first, second);
}

// Parameterized associativity / consistency sweep: products over random
// relations agree with direct ForSet computation for 3-attribute sets.
class PartitionProductSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PartitionProductSweep, TripleProductsMatchForSet) {
  const Relation r = RandomRelation(4, 45, 3, GetParam());
  PartitionProductWorkspace ws(r.num_tuples());
  const StrippedPartition pa = StrippedPartition::ForAttribute(r, 0);
  const StrippedPartition pb = StrippedPartition::ForAttribute(r, 1);
  const StrippedPartition pc = StrippedPartition::ForAttribute(r, 2);
  const StrippedPartition abc = ws.Product(ws.Product(pa, pb), pc);
  const StrippedPartition expected = StrippedPartition::FromPartition(
      Partition::ForSet(r, AttributeSet::FromLetters("ABC")));
  EXPECT_EQ(abc, expected);
  // Associativity.
  EXPECT_EQ(ws.Product(pa, ws.Product(pb, pc)), abc);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PartitionProductSweep,
                         ::testing::Range<uint64_t>(0, 12));

// The counting-sort strip numbers classes by first tuple, so it must not
// lean on codes being in first-occurrence order: ReadColumnFile and the
// Relation constructor accept any dense code assignment.
TEST(StrippedPartition, ForAttributeIgnoresCodeOrder) {
  const Relation r(Schema::Default(1), {{2, 0, 2, 1, 0, 3, 1, 2, 4, 3}},
                   {{"w", "x", "y", "z", "q"}});
  EXPECT_EQ(StrippedPartition::ForAttribute(r, 0),
            StrippedPartition::FromPartition(Partition::ForAttribute(r, 0)));
  EXPECT_EQ(StrippedPartition::ForAttribute(r, 0).ToString(),
            "{{1,3,8}, {2,5}, {4,7}, {6,10}}");

  for (uint64_t seed = 1; seed <= 8; ++seed) {
    const Relation base = RandomRelation(5, 80, 1 + seed, seed);
    std::vector<std::vector<ValueCode>> columns;
    std::vector<std::vector<std::string>> dictionaries;
    for (AttributeId a = 0; a < base.num_attributes(); ++a) {
      // Reverse the code order: code c becomes d - 1 - c.
      const size_t d = base.DistinctCount(a);
      std::vector<ValueCode> column = base.Column(a);
      for (ValueCode& code : column) {
        code = static_cast<ValueCode>(d - 1 - code);
      }
      std::vector<std::string> dictionary(base.Dictionary(a).rbegin(),
                                          base.Dictionary(a).rend());
      columns.push_back(std::move(column));
      dictionaries.push_back(std::move(dictionary));
    }
    const Relation shuffled(base.schema(), std::move(columns),
                            std::move(dictionaries));
    for (AttributeId a = 0; a < shuffled.num_attributes(); ++a) {
      const StrippedPartition expected =
          StrippedPartition::FromPartition(Partition::ForAttribute(shuffled, a));
      EXPECT_EQ(StrippedPartition::ForAttribute(shuffled, a), expected)
          << "seed " << seed << " attr " << a;
      EXPECT_EQ(StrippedPartition::ForAttribute(base, a), expected);
    }
  }
}

TEST(ClassLabelTable, LabelsMatchPartitionClasses) {
  const Relation r = RandomRelation(5, 60, 3, 11);
  const StrippedPartitionDatabase db =
      StrippedPartitionDatabase::FromRelation(r);
  const ClassLabelTable table = ClassLabelTable::Build(db);
  ASSERT_EQ(table.num_attributes(), db.num_attributes());
  ASSERT_EQ(table.num_tuples(), db.num_tuples());
  for (AttributeId a = 0; a < db.num_attributes(); ++a) {
    std::vector<uint32_t> expected(db.num_tuples(), 0);
    uint32_t id = 1;
    for (const EquivalenceClass& c : db.partition(a).classes()) {
      for (TupleId t : c) expected[t] = id;
      ++id;
    }
    for (TupleId t = 0; t < db.num_tuples(); ++t) {
      ASSERT_EQ(table.Label(t, a), expected[t])
          << "attr " << a << " tuple " << t;
    }
  }
}

// The unit size divides by 8 * lanes, which wraps to 0 at a multiple of
// 2^61; the lanes clamp to the pool's cap first. A tiny relation has one
// unit per attribute, so the build runs on at most that many lanes.
TEST(ClassLabelTable, LaneCountPastThePoolCapMatchesOneLane) {
  const Relation r = RandomRelation(4, 30, 3, 7);
  const StrippedPartitionDatabase db =
      StrippedPartitionDatabase::FromRelation(r);
  const ClassLabelTable serial = ClassLabelTable::Build(db, 1);
  const ClassLabelTable huge = ClassLabelTable::Build(db, size_t{1} << 61);
  ASSERT_EQ(serial.bytes(), huge.bytes());
  for (AttributeId a = 0; a < db.num_attributes(); ++a) {
    for (TupleId t = 0; t < db.num_tuples(); ++t) {
      ASSERT_EQ(serial.Label(t, a), huge.Label(t, a));
    }
  }
}

TEST(ClassLabelTable, ThreadCountInvariance) {
  const Relation r = RandomRelation(9, 120, 4, 5);
  const StrippedPartitionDatabase db =
      StrippedPartitionDatabase::FromRelation(r);
  const ClassLabelTable serial = ClassLabelTable::Build(db, 1);
  const ClassLabelTable parallel = ClassLabelTable::Build(db, 8);
  ASSERT_EQ(serial.bytes(), parallel.bytes());
  for (AttributeId a = 0; a < db.num_attributes(); ++a) {
    for (TupleId t = 0; t < db.num_tuples(); ++t) {
      ASSERT_EQ(serial.Label(t, a), parallel.Label(t, a));
    }
  }
}

}  // namespace
}  // namespace depminer
