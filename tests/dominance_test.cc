#include "common/dominance.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/rng.h"
#include "test_util.h"

namespace depminer {
namespace {

using ::depminer::testing::Sets;
using ::depminer::testing::SetsToString;

/// A random family of `size` sets over `num_attributes` attributes.
/// Cardinalities are spread across [0, num_attributes] (including the
/// occasional empty and full-universe set) and duplicates occur
/// naturally at these densities.
std::vector<AttributeSet> RandomFamily(size_t size, size_t num_attributes,
                                       uint64_t seed) {
  Rng rng(seed);
  std::vector<AttributeSet> out;
  out.reserve(size);
  for (size_t i = 0; i < size; ++i) {
    const size_t k = rng.Below(num_attributes + 1);
    AttributeSet s;
    for (size_t j = 0; j < k; ++j) {
      s.Add(static_cast<AttributeId>(rng.Below(num_attributes)));
    }
    out.push_back(s);
  }
  return out;
}

/// A family where every set has the same cardinality: the strict-prefix
/// optimization degenerates to "nothing can dominate anything".
std::vector<AttributeSet> EqualCardinalityFamily(size_t size,
                                                 size_t num_attributes,
                                                 size_t cardinality,
                                                 uint64_t seed) {
  Rng rng(seed);
  std::vector<AttributeSet> out;
  out.reserve(size);
  while (out.size() < size) {
    AttributeSet s;
    while (s.Count() < cardinality) {
      s.Add(static_cast<AttributeId>(rng.Below(num_attributes)));
    }
    out.push_back(s);
  }
  return out;
}

// ---------------------------------------------------------------------------
// Direct index queries.

TEST(Dominance, SupersetQueryFindsProperSupersetsOnly) {
  // Sorted by non-increasing cardinality, duplicate-free.
  const std::vector<AttributeSet> family =
      Sets({"ABCD", "ABC", "ABD", "AB", "CD", "E"});
  std::vector<AttributeSet> sorted = family;
  std::stable_sort(sorted.begin(), sorted.end(),
                   [](const AttributeSet& a, const AttributeSet& b) {
                     return a.Count() > b.Count();
                   });
  const DominanceIndex index(sorted, DominanceIndex::Order::kNonIncreasing);
  std::vector<uint64_t> scratch(index.words_per_bitmap());

  EXPECT_TRUE(index.HasProperSupersetOf(AttributeSet::FromLetters("AB"),
                                        nullptr, scratch.data()));
  EXPECT_TRUE(index.HasProperSupersetOf(AttributeSet::FromLetters("CD"),
                                        nullptr, scratch.data()));
  // Members with no strict superset in the family.
  EXPECT_FALSE(index.HasProperSupersetOf(AttributeSet::FromLetters("ABCD"),
                                         nullptr, scratch.data()));
  EXPECT_FALSE(index.HasProperSupersetOf(AttributeSet::FromLetters("E"),
                                         nullptr, scratch.data()));
  // The empty set is dominated by any non-empty member.
  EXPECT_TRUE(index.HasProperSupersetOf(AttributeSet(), nullptr,
                                        scratch.data()));
}

TEST(Dominance, SupersetQueryHonorsExclusionBitmap) {
  std::vector<AttributeSet> sorted = Sets({"ABC", "ABD", "AB"});
  std::stable_sort(sorted.begin(), sorted.end(),
                   [](const AttributeSet& a, const AttributeSet& b) {
                     return a.Count() > b.Count();
                   });
  const DominanceIndex index(sorted, DominanceIndex::Order::kNonIncreasing, 4);
  std::vector<uint64_t> scratch(index.words_per_bitmap());

  // AB has supersets ABC and ABD; excluding the sets containing C (the
  // CMAX_SET probe-attribute filter) must still find ABD, and excluding
  // both C- and D-carriers must find nothing.
  EXPECT_TRUE(index.HasProperSupersetOf(AttributeSet::FromLetters("AB"),
                                        index.Postings(2), scratch.data()));
  std::vector<uint64_t> both(index.words_per_bitmap());
  for (size_t w = 0; w < both.size(); ++w) {
    both[w] = index.Postings(2)[w] | index.Postings(3)[w];
  }
  EXPECT_FALSE(index.HasProperSupersetOf(AttributeSet::FromLetters("AB"),
                                         both.data(), scratch.data()));
}

TEST(Dominance, SubsetQueryFindsProperSubsetsOnly) {
  std::vector<AttributeSet> sorted = Sets({"", "AB", "CD", "ABC", "ABCD"});
  std::stable_sort(sorted.begin(), sorted.end(),
                   [](const AttributeSet& a, const AttributeSet& b) {
                     return a.Count() < b.Count();
                   });
  const DominanceIndex index(sorted, DominanceIndex::Order::kNonDecreasing);
  std::vector<uint64_t> scratch(index.words_per_bitmap());

  // ∅ is a proper subset of everything, including sets whose attributes
  // are disjoint from every other member's.
  EXPECT_TRUE(index.HasProperSubsetOf(AttributeSet::FromLetters("CD"),
                                      nullptr, scratch.data()));
  EXPECT_TRUE(index.HasProperSubsetOf(AttributeSet::FromLetters("ABC"),
                                      nullptr, scratch.data()));
  // ∅ itself has no proper subset.
  EXPECT_FALSE(index.HasProperSubsetOf(AttributeSet(), nullptr,
                                       scratch.data()));
}

TEST(Dominance, EmptyFamilyAnswersNothing) {
  const std::vector<AttributeSet> empty;
  const DominanceIndex index(empty, DominanceIndex::Order::kNonIncreasing, 8);
  std::vector<uint64_t> scratch(std::max<size_t>(index.words_per_bitmap(), 1));
  EXPECT_FALSE(index.HasProperSupersetOf(AttributeSet::FromLetters("AB"),
                                         nullptr, scratch.data()));
  EXPECT_EQ(index.num_sets(), 0u);
}

// ---------------------------------------------------------------------------
// Kernel entry points vs the naive reference scan, the oracle. Below the
// index cutoff (1024 distinct sets) `MaximalSets` / `MinimalSets` run
// that same scan, so only families at or above it put the posting index
// under test. `KernelMatchesNaiveOnRandomFamilies` sizes families on
// both sides; the other cases draw 1,500 sets.

class DominanceProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DominanceProperty, KernelMatchesNaiveOnRandomFamilies) {
  // 40 and 500 sets take the survivor scan. 2000 builds the index, except
  // at 8 attributes, where at most 256 distinct sets exist.
  for (const size_t size : {40ul, 500ul, 2000ul}) {
    for (const size_t attrs : {8ul, 24ul, 60ul, 128ul}) {
      std::vector<AttributeSet> family = RandomFamily(size, attrs, GetParam());
      EXPECT_EQ(MaximalSets(family), MaximalSetsNaive(family))
          << "Max⊆ mismatch at " << size << " sets, " << attrs
          << " attributes";
      EXPECT_EQ(MinimalSets(family), MinimalSetsNaive(family))
          << "Min⊆ mismatch at " << size << " sets, " << attrs
          << " attributes";
    }
  }
}

TEST_P(DominanceProperty, KernelMatchesNaiveWithDuplicatesAndEmptySet) {
  // 1,500 draws over 24 attributes stay above the index cutoff after
  // deduplication.
  std::vector<AttributeSet> family = RandomFamily(1500, 24, GetParam());
  // Inject duplicates of existing members and several empty sets.
  Rng rng(GetParam() ^ 0xD0D0);
  for (size_t i = 0; i < 100; ++i) {
    family.push_back(family[rng.Below(family.size())]);
  }
  family.push_back(AttributeSet());
  family.push_back(AttributeSet());
  family.push_back(AttributeSet::Universe(24));
  EXPECT_EQ(MaximalSets(family), MaximalSetsNaive(family));
  EXPECT_EQ(MinimalSets(family), MinimalSetsNaive(family));
}

TEST_P(DominanceProperty, KernelMatchesNaiveOnEqualCardinalityFamilies) {
  // All-equal cardinality: nothing dominates anything; every distinct
  // set must survive both filters.
  std::vector<AttributeSet> family =
      EqualCardinalityFamily(1500, 32, 7, GetParam());
  const std::vector<AttributeSet> max = MaximalSets(family);
  const std::vector<AttributeSet> min = MinimalSets(family);
  EXPECT_EQ(max, MaximalSetsNaive(family));
  EXPECT_EQ(min, MinimalSetsNaive(family));
  std::vector<AttributeSet> distinct = family;
  std::sort(distinct.begin(), distinct.end());
  distinct.erase(std::unique(distinct.begin(), distinct.end()),
                 distinct.end());
  EXPECT_EQ(max.size(), distinct.size());
  EXPECT_EQ(min.size(), distinct.size());
}

TEST_P(DominanceProperty, KernelMatchesNaiveOnWideSets) {
  // 128-attribute schemas exercise both words of the bitset and posting
  // rows in the second word range.
  std::vector<AttributeSet> family = RandomFamily(1500, 128, GetParam());
  family.push_back(AttributeSet::Universe(128));
  EXPECT_EQ(MaximalSets(family), MaximalSetsNaive(family));
  EXPECT_EQ(MinimalSets(family), MinimalSetsNaive(family));
}

INSTANTIATE_TEST_SUITE_P(Seeds, DominanceProperty,
                         ::testing::Range<uint64_t>(0, 12));

// ---------------------------------------------------------------------------
// Survivor semantics on small families, checked against the definition
// rather than the oracle scan (200 sets, so the scan path serves them;
// the index path is checked against the oracle above).

TEST(Dominance, MaximalSurvivorsAreMutuallyIncomparable) {
  std::vector<AttributeSet> family = RandomFamily(200, 12, 7);
  const std::vector<AttributeSet> max = MaximalSets(family);
  for (size_t i = 0; i < max.size(); ++i) {
    for (size_t j = 0; j < max.size(); ++j) {
      if (i == j) continue;
      EXPECT_FALSE(max[i].IsProperSubsetOf(max[j]))
          << max[i].ToString() << " ⊂ " << max[j].ToString() << " in "
          << SetsToString(max);
    }
  }
  // Every input set is dominated by (or equal to) some survivor.
  for (const AttributeSet& s : family) {
    bool covered = false;
    for (const AttributeSet& kept : max) {
      if (s.IsSubsetOf(kept)) {
        covered = true;
        break;
      }
    }
    EXPECT_TRUE(covered) << s.ToString() << " not covered";
  }
}

TEST(Dominance, MinimalSurvivorsCoverEveryInputFromBelow) {
  std::vector<AttributeSet> family = RandomFamily(200, 12, 11);
  const std::vector<AttributeSet> min = MinimalSets(family);
  for (const AttributeSet& s : family) {
    bool covered = false;
    for (const AttributeSet& kept : min) {
      if (kept.IsSubsetOf(s)) {
        covered = true;
        break;
      }
    }
    EXPECT_TRUE(covered) << s.ToString() << " not covered";
  }
}

}  // namespace
}  // namespace depminer
